// Command perfbench is incdb's benchmark: it runs incdbd as a separate
// process, drives one of three closed-loop workloads against it from this
// process, checks every answer and every acknowledged write, and prints
// each metric by name with its unit and sample count. The last line of
// standard output is one JSON object: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
//
//	bash perfbench/run.sh --workload oracle-worlds --seed 1 --seconds 10 --trace 0
//
// run.sh builds incdbd and this program from the checkout first; see
// README.md for the workloads, metrics and pinned server flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported number.
type metric struct {
	name   string
	value  float64
	unit   string
	n      int    // samples or events behind the value
	source string // how it was measured
	absent bool   // the workload does nothing this metric measures
}

// endToEndNames and perLayerNames are the metrics of the JSON result line,
// in BENCHMARK.json's order.
//
// Client-side throughput and latency are recorded among the per-layer
// metrics, without a bound: on a shared 2-vCPU host they swing with the
// neighbours' load by more than any usable bound, while incdbd's CPU time
// per operation and its median resident set hold steady.
var endToEndNames = []string{"setup_s", "server_cpu_ms_per_op", "server_rss_p50_mb"}

var perLayerNames = []string{
	"ops_per_s", "query_p50_ms", "query_p90_ms", "append_p50_ms", "append_p90_ms",
	"server_rss_mb", "disk_bytes_per_user_byte",
	"certain.worlds_per_query", "certain.oracle_ms", "certain.ns_per_world", "engine.parallel_efficiency",
	"relation.apply_us_per_world", "relation.apply_allocs_per_world",
	"plan.exec_us_per_world", "plan.exec_allocs_per_world", "plan.frozen_reuse_per_world",
	"raparse.parse_us", "algebra.validate_us", "api.encode_us", "api.response_bytes",
	"server.overhead_us", "server.result_cache_hit_ratio",
	"plan.prepare_us", "plan.prep_cache_hit_ratio", "plan.prep_invalidations_per_append",
	"store.append_us", "store.fsync_ms_mean", "store.sync_us", "store.records_per_fsync",
	"store.fsyncs_per_append", "store.wal_bytes_per_user_byte", "store.snapshots", "store.snapshot_ms_mean",
	"raparse.load_parse_ms",
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: data, request order and spellings")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&cfg.trace, "trace", 0, "1 reports per-layer metrics (adds the traced in-process replay)")
	flag.StringVar(&cfg.incdbd, "incdbd", "", "incdbd binary")
	flag.StringVar(&cfg.work, "work", "", "directory for server logs, data directories and spans")
	flag.Parse()
	if cfg.incdbd == "" || cfg.work == "" || cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, cfg.trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	incdbd   string
	work     string
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string // failed checks; any makes the run incorrect
	info              []string
	metrics           map[string]metric
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *result) add(m metric) { r.metrics[m.name] = m }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes the report: information lines, every metric with its unit,
// sample count and source, the checks, and the JSON result as last line.
func (r *result) print(w io.Writer, perLayer bool) error {
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %-7s %8s  %s\n", "metric", "value", "unit", "n", "source")
	for _, name := range names {
		m := r.metrics[name]
		v := fmt.Sprintf("%14.6g", m.value)
		if m.absent {
			v = fmt.Sprintf("%14s", "n/a")
		}
		fmt.Fprintf(w, "%-36s %s %-7s %8d  %s\n", name, v, m.unit, m.n, m.source)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	fmt.Fprintf(w, "checks: %d of %d operations failed; %d check(s) failed\n", r.failed, r.attempted, len(r.problems))

	want := endToEndNames
	if perLayer {
		want = perLayerNames
	}
	out := map[string]any{}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// run executes one benchmark run; an error means no result can be given.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, w.name))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.incdbd); err != nil {
		return nil, fmt.Errorf("incdbd binary: %w", err)
	}
	res := &result{metrics: map[string]metric{}}
	if err := checkSeeds(w, res); err != nil {
		return nil, err
	}
	chk, err := newChecker(w)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, work: work, res: res, chk: chk, ans: newAnswers()}
	if err := b.describe(); err != nil {
		return nil, err
	}
	if err := b.serve(); err != nil {
		return nil, err
	}
	if cfg.trace == 1 {
		if err := b.traced(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkSeeds checks that the inputs are a function of the seed: the same
// seed regenerates them byte for byte, another seed changes them.
func checkSeeds(w *workload, res *result) error {
	again, err := newWorkload(w.name, w.seed)
	if err != nil {
		return err
	}
	other, err := newWorkload(w.name, w.seed+1)
	if err != nil {
		return err
	}
	if fingerprint(again) != fingerprint(w) {
		res.problem("seed %d did not regenerate identical inputs", w.seed)
	}
	if fingerprint(other) == fingerprint(w) {
		res.problem("seeds %d and %d generated identical inputs", w.seed, w.seed+1)
	}
	return nil
}

// fingerprint renders a workload's dataset and the first requests of each
// client.
func fingerprint(w *workload) string {
	var b strings.Builder
	b.WriteString(w.dataset)
	for c := 0; c < w.clients; c++ {
		st := w.stream(c)
		for i := 0; i < 200; i++ {
			b.Write(st.next().body(w))
		}
	}
	return b.String()
}
