package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/raparse"
	"incdb/internal/tpch"
)

const (
	queryPath = "/v1/sessions/" + session + "/query"
	loadPath  = "/v1/sessions/" + session + "/load"

	// launches is how many times a run sets the server up: setup_s is their
	// median, and the count pass must give identical counts on each.
	launches = 5
)

// bench holds one run's state between its phases.
type bench struct {
	cfg  config
	w    *workload
	work string
	res  *result
	chk  *checker
	ans  *answers

	acks      []appendAck
	attempted []int // window operations per client, replayed by traced()
}

// passCounts are the exact counter deltas of one count pass.
type passCounts struct {
	evaluated, worlds, frozen float64
}

// describe records the workload's shape: data sizes, and per oracle kind
// the relevant nulls and worlds its valuation space holds.
func (b *bench) describe() error {
	db, err := raparse.ParseDatabase(strings.NewReader(b.w.dataset))
	if err != nil {
		return err
	}
	b.res.info = append(b.res.info,
		fmt.Sprintf("workload %s seed %d: closed loop, %d client(s), %d kinds, durable=%t, %d s window",
			b.w.name, b.w.seed, b.w.clients, len(b.w.kinds), b.w.durable, b.cfg.seconds),
		fmt.Sprintf("data: %d tuples, %d constants, %d marked nulls, %d bytes of text",
			tpch.TotalTuples(db), len(db.Consts()), len(db.NullIDs()), len(b.w.dataset)))
	if b.w.name != "oracle-worlds" {
		b.res.info = append(b.res.info, fmt.Sprintf("result-cache keys: %d kinds x %d spellings = %d against capacity %d",
			len(b.w.kinds), spellings, len(b.w.kinds)*spellings, resultCacheCap))
	}
	for _, k := range b.w.kinds {
		if k.proc != "cert" && k.proc != "inter" {
			continue
		}
		q, err := raparse.ParseQuery(k.query)
		if err != nil {
			return err
		}
		space, err := certain.NewSpaceForQuery(db, q, certain.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		b.res.info = append(b.res.info, fmt.Sprintf("kind %s: %d worlds", k.name, space.Size()))
	}
	return nil
}

// serve sets the server up launches times, runs the count pass on each,
// drives the timed window on the last, checks durability, and checks every
// answer.
func (b *bench) serve() error {
	var setups []float64
	var counts []passCounts
	var srv *server
	dataDir := ""
	for i := 0; i < launches; i++ {
		if b.w.durable {
			dataDir = filepath.Join(b.work, fmt.Sprintf("data-%d", i))
		}
		start := time.Now()
		s, err := launch(b.cfg.incdbd, dataDir, filepath.Join(b.work, fmt.Sprintf("incdbd-%d.log", i)))
		if err != nil {
			return err
		}
		if err = s.waitReady(time.Minute); err == nil {
			err = s.load(b.w.dataset)
		}
		setups = append(setups, time.Since(start).Seconds())
		var c passCounts
		if err == nil {
			c, err = b.countPass(s)
		}
		if err != nil {
			s.kill()
			return err
		}
		counts = append(counts, c)
		if i < launches-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	for i, c := range counts[1:] {
		if c != counts[0] {
			b.res.problem("count pass of launch %d gave %+v, launch 1 gave %+v (exact counts must repeat)", i+2, c, counts[0])
		}
	}

	m0, err := srv.scrape()
	var cpu0 float64
	if err == nil {
		cpu0, err = srv.cpuSeconds()
	}
	if err != nil {
		srv.kill()
		return err
	}
	win := b.drive(srv)
	if err := writeSamples(filepath.Join(b.work, "ops.tsv"), win.samples); err != nil {
		srv.kill()
		return err
	}
	cpu1, err := srv.cpuSeconds()
	win.serverCPU = cpu1 - cpu0
	var m1 promSnapshot
	if err == nil {
		m1, err = srv.scrape()
	}
	if err == nil {
		win.peakRSSMB, err = srv.memMB("VmHWM")
	}
	if err != nil {
		srv.kill()
		return err
	}
	if b.w.durable {
		srv.kill()
		if err := b.checkDurable(dataDir); err != nil {
			return err
		}
	} else {
		srv.stop()
	}
	checkStart := time.Now()
	failed, msgs, err := b.chk.verify(b.ans, b.acks)
	if err != nil {
		return err
	}
	b.res.failed += failed
	for i, m := range msgs {
		if i == 10 {
			b.res.problem("... %d more answer mismatches", len(msgs)-10)
			break
		}
		b.res.problem("%s", m)
	}
	b.res.info = append(b.res.info, fmt.Sprintf("answers: %d distinct (kind, state, result) checked against the library in %.1f s",
		len(b.ans.count), time.Since(checkStart).Seconds()))
	b.endToEnd(setups, win)
	b.counterLayers(counts[0], m0, m1, win)
	return nil
}

// countPass sends each kind once and returns the exact counter deltas.
func (b *bench) countPass(s *server) (passCounts, error) {
	m0, err := s.scrape()
	if err != nil {
		return passCounts{}, err
	}
	for _, o := range b.w.countPass() {
		b.res.attempted++
		code, body, err := s.post(queryPath, o.body(b.w))
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, body)
		}
		if err == nil {
			err = b.answer(b.ans, o, body)
		}
		if err != nil {
			b.res.failed++
			b.res.problem("count pass %s: %v", b.w.kinds[o.kind].name, err)
		}
	}
	m1, err := s.scrape()
	if err != nil {
		return passCounts{}, err
	}
	return passCounts{
		evaluated: delta(m0, m1, "incdb_query_worlds_count"),
		worlds:    delta(m0, m1, "incdb_worlds_enumerated_total"),
		frozen:    delta(m0, m1, "incdb_frozen_reuse_total"),
	}, nil
}

// answer records a served query result for the answer check.
func (b *bench) answer(a *answers, o op, body []byte) error {
	var resp struct {
		Results  json.RawMessage   `json:"results"`
		Versions map[string]uint64 `json:"versions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode query response: %w", err)
	}
	a.add(o.kind, b.chk.state(o.kind, resp.Versions), resp.Results)
	return nil
}

// clientOut is what one client goroutine observed in the window.
type clientOut struct {
	samples           []sample
	attempted, failed int
	ans               *answers
	acks              []appendAck
	errs              []string
	end               time.Time
}

// window holds the timed window's totals for the metric formulas.
type window struct {
	elapsed           float64 // seconds
	samples           []sample
	queryMs, appendMs []float64
	appendBytes       int64
	rssMB, diskRatios []float64 // 100 ms samples
	peakRSSMB         float64   // VmHWM after the window
	serverCPU         float64   // seconds of incdbd CPU time in the window
}

// sample is one answered operation of the window; times are offsets from
// the window's start.
type sample struct {
	client, kind int // kind -1 is an append
	start, end   time.Duration
}

func (s sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

// drive runs the timed window: one goroutine per client, each sending its
// next operation as soon as the previous one is answered. Meanwhile the
// calling goroutine samples the server's resident set and, on
// durable-mixed, the data directory's size every 100 ms.
func (b *bench) drive(srv *server) window {
	var userBytes atomic.Int64 // acknowledged append payload bytes
	var finished atomic.Int32
	outs := make([]clientOut, b.w.clients)
	start := time.Now()
	deadline := start.Add(time.Duration(b.cfg.seconds) * time.Second)
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer finished.Add(1)
			outs[c] = b.client(srv, c, start, deadline, &userBytes)
		}(c)
	}
	var win window
	tick := time.NewTicker(100 * time.Millisecond)
	for int(finished.Load()) < b.w.clients {
		<-tick.C
		if mb, err := srv.memMB("VmRSS"); err == nil {
			win.rssMB = append(win.rssMB, mb)
		}
		if b.w.durable {
			// The server's data directory is the last launch's.
			if n, err := dirBytes(filepath.Join(b.work, fmt.Sprintf("data-%d", launches-1))); err == nil {
				win.diskRatios = append(win.diskRatios, float64(n)/float64(int64(len(b.w.dataset))+userBytes.Load()))
			}
		}
	}
	tick.Stop()
	wg.Wait()

	win.appendBytes = userBytes.Load()
	for _, o := range outs {
		win.elapsed = max(win.elapsed, o.end.Sub(start).Seconds())
		win.samples = append(win.samples, o.samples...)
		for _, s := range o.samples {
			if s.kind < 0 {
				win.appendMs = append(win.appendMs, s.ms())
			} else {
				win.queryMs = append(win.queryMs, s.ms())
			}
		}
		b.res.attempted += o.attempted
		b.res.failed += o.failed
		b.attempted = append(b.attempted, o.attempted)
		b.acks = append(b.acks, o.acks...)
		b.ans.merge(o.ans)
		for _, e := range o.errs {
			b.res.problem("%s", e)
		}
	}
	return win
}

// client is one closed-loop client of the timed window.
func (b *bench) client(srv *server, c int, epoch, deadline time.Time, userBytes *atomic.Int64) clientOut {
	st := b.w.stream(c)
	out := clientOut{ans: newAnswers()}
	for time.Now().Before(deadline) {
		o := st.next()
		path := queryPath
		if o.isAppend() {
			path = loadPath
		}
		body := o.body(b.w)
		smp := sample{client: c, kind: o.kind, start: time.Since(epoch)}
		code, resp, err := srv.post(path, body)
		smp.end = time.Since(epoch)
		out.attempted++
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, resp)
		}
		if err == nil && o.isAppend() {
			var lr api.LoadResponse
			if err = json.Unmarshal(resp, &lr); err == nil && lr.Versions[o.rel] == 0 {
				err = fmt.Errorf("append acknowledged without a %s version", o.rel)
			}
			if err == nil {
				out.acks = append(out.acks, appendAck{rel: o.rel, data: o.data, versions: lr.Versions})
				out.samples = append(out.samples, smp)
				userBytes.Add(int64(len(o.data)))
			}
		} else if err == nil {
			if err = b.answer(out.ans, o, resp); err == nil {
				out.samples = append(out.samples, smp)
			}
		}
		if err != nil {
			out.failed++
			if len(out.errs) < 5 {
				out.errs = append(out.errs, fmt.Sprintf("client %d: %v", c, err))
			}
		}
	}
	out.end = time.Now()
	return out
}

// checkDurable restarts incdbd on the killed server's data directory and
// checks that the appended relations hold exactly the base rows plus every
// acknowledged append, null identities included.
func (b *bench) checkDurable(dataDir string) error {
	s, err := launch(b.cfg.incdbd, dataDir, filepath.Join(b.work, "incdbd-restart.log"))
	if err != nil {
		return err
	}
	defer s.stop()
	if err := s.waitReady(time.Minute); err != nil {
		return err
	}
	final, err := b.chk.base()
	if err != nil {
		return err
	}
	for _, a := range sortedAcks(b.acks) {
		if err := raparse.ParseDatabaseInto(strings.NewReader(a.data), final); err != nil {
			return err
		}
	}
	lost := 0
	for _, rel := range []string{"lineitem", "audit"} {
		want, err := reference(final, kind{name: rel, query: rel, proc: "sql"})
		if err != nil {
			return err
		}
		body, _ := json.Marshal(api.QueryRequest{Query: rel, Proc: "sql"})
		code, resp, err := s.post(queryPath, body)
		if err != nil {
			return err
		}
		var qr api.QueryResponse
		if code != http.StatusOK || json.Unmarshal(resp, &qr) != nil || len(qr.Results) != 1 {
			b.res.problem("after restart, reading %s failed: HTTP %d: %.200s", rel, code, resp)
			continue
		}
		missing, extra := rowDiff(want[0], qr.Results[0])
		lost += missing
		if missing > 0 || extra > 0 {
			b.res.problem("after SIGKILL and restart, %s lacks %d expected row(s) and has %d unexpected row(s)", rel, missing, extra)
		}
	}
	b.res.info = append(b.res.info, fmt.Sprintf("durability: %d acknowledged appends, %d lost after SIGKILL and restart", len(b.acks), lost))
	return nil
}

// rowDiff counts the rows of want missing from got and the rows of got
// not in want.
func rowDiff(want, got api.Resultset) (missing, extra int) {
	rows := map[string]int{}
	for _, r := range want.Rows {
		rows[strings.Join(r, "\x1f")]++
	}
	for _, r := range got.Rows {
		rows[strings.Join(r, "\x1f")]--
	}
	for _, n := range rows {
		if n > 0 {
			missing += n
		} else {
			extra -= n
		}
	}
	return missing, extra
}

// endToEnd computes the metrics a user of incdbd sees.
func (b *bench) endToEnd(setups []float64, win window) {
	r := b.res
	r.add(metric{name: "setup_s", value: median(setups), unit: "s", n: len(setups),
		source: fmt.Sprintf("median of %d launches: exec to /v1/readyz 200 to dataset loaded", len(setups))})
	ok := len(win.queryMs) + len(win.appendMs)
	r.add(metric{name: "ops_per_s", value: float64(ok) / win.elapsed, unit: "1/s", n: ok, source: "answered operations / window seconds"})
	r.add(metric{name: "server_cpu_ms_per_op", value: win.serverCPU * 1e3 / float64(ok), unit: "ms", n: ok,
		source: "incdbd user+system CPU time in the window / answered operations"})
	r.add(metric{name: "query_p50_ms", value: median(win.queryMs), unit: "ms", n: len(win.queryMs), source: "client-side query latency"})
	if p90, ok := tail(win.queryMs, 0.9); ok {
		r.add(metric{name: "query_p90_ms", value: p90, unit: "ms", n: len(win.queryMs), source: "client-side query latency"})
	} else {
		r.problem("query_p90_ms: %d query samples leave fewer than %d beyond p90", len(win.queryMs), minBeyond)
	}
	// The peak is set by rare allocation spikes and swings by a quarter
	// between runs here; the median sample is the gated memory metric.
	r.add(metric{name: "server_rss_p50_mb", value: median(win.rssMB), unit: "MB", n: len(win.rssMB),
		source: "median of incdbd VmRSS sampled every 100 ms in the window"})
	r.add(metric{name: "server_rss_mb", value: win.peakRSSMB, unit: "MB", n: 1, source: "incdbd peak RSS (VmHWM) after the window"})
	r.add(metric{name: "error_rate", value: ratio(float64(r.failed), float64(r.attempted)), unit: "ratio", n: r.attempted,
		source: "failed or refused operations / attempted (window, count passes and answer check)"})
	app := metric{name: "append_p50_ms", unit: "ms", n: len(win.appendMs), source: "client-side append latency (fsync'd before 200)", absent: true}
	app90 := app
	app90.name = "append_p90_ms"
	disk := metric{name: "disk_bytes_per_user_byte", unit: "B/B", n: len(win.diskRatios),
		source: "mean over 100 ms samples of data-dir bytes / (dataset + acknowledged append bytes)", absent: true}
	if len(win.appendMs) > 0 {
		app.value, app.absent = median(win.appendMs), false
		if v, ok := tail(win.appendMs, 0.9); ok {
			app90.value, app90.absent = v, false
		}
	}
	if len(win.diskRatios) > 0 {
		disk.value, disk.absent = mean(win.diskRatios), false
	}
	r.add(app)
	r.add(app90)
	r.add(disk)
}

// writeSamples saves the window's answered operations as tab-separated
// lines: client, kind (-1 for an append), start and end in nanoseconds.
func writeSamples(path string, samples []sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "client\tkind\tstart_ns\tend_ns")
	for _, s := range samples {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%d\n", s.client, s.kind, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
