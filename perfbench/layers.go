package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"incdb/internal/raparse"
)

// replayBudget caps the traced replay; per-layer means settle well within it.
const replayBudget = 5 * time.Second

// counterLayers derives the per-layer metrics that come from exact
// /v1/metrics counter deltas: the count pass for per-query counts, the
// timed window for ratios and the store's histograms.
func (b *bench) counterLayers(c passCounts, m0, m1 promSnapshot, win window) {
	r := b.res
	appends := float64(len(win.appendMs))
	noAppends := appends == 0
	r.add(metric{name: "certain.worlds_per_query", value: ratio(c.worlds, c.evaluated), unit: "count", n: int(c.evaluated),
		source: "count pass: Δincdb_worlds_enumerated_total / Δincdb_query_worlds_count"})
	r.add(metric{name: "plan.frozen_reuse_per_world", value: ratio(c.frozen, c.worlds), unit: "count", n: int(c.worlds),
		source: "count pass: Δincdb_frozen_reuse_total / Δincdb_worlds_enumerated_total"})

	serverMean, served := histMean(m0, m1, "incdb_query_seconds")
	r.add(metric{name: "server.overhead_us", value: mean(win.queryMs)*1e3 - serverMean*1e6, unit: "us", n: int(served),
		source: "window: client mean query latency - incdb_query_seconds mean"})
	hits, misses := delta(m0, m1, "incdb_result_cache_hits_total"), delta(m0, m1, "incdb_result_cache_misses_total")
	r.add(metric{name: "server.result_cache_hit_ratio", value: ratio(hits, hits+misses), unit: "ratio", n: int(hits + misses),
		source: "window: result-cache hits / lookups"})
	ph, pm, pi := delta(m0, m1, "incdb_prep_cache_hits_total"), delta(m0, m1, "incdb_prep_cache_misses_total"),
		delta(m0, m1, "incdb_prep_cache_invalidations_total")
	r.add(metric{name: "plan.prep_cache_hit_ratio", value: ratio(ph, ph+pm+pi), unit: "ratio", n: int(ph + pm + pi),
		source: "window: prepared-plan hits / lookups"})
	r.add(metric{name: "plan.prep_invalidations_per_append", value: ratio(pi, appends), unit: "count", n: int(appends),
		source: "window: Δincdb_prep_cache_invalidations_total / acknowledged appends", absent: noAppends})

	hist := func(name, metricName, unit string, scale float64, source string) {
		v, n := histMean(m0, m1, metricName)
		r.add(metric{name: name, value: v * scale, unit: unit, n: int(n), source: "window: " + source, absent: n == 0})
	}
	hist("store.append_us", "incdb_wal_append_seconds", "us", 1e6, "incdb_wal_append_seconds mean (group-commit write+fsync)")
	hist("store.fsync_ms_mean", "incdb_wal_fsync_seconds", "ms", 1e3, "incdb_wal_fsync_seconds mean")
	hist("store.records_per_fsync", "incdb_wal_records_per_fsync", "count", 1, "incdb_wal_records_per_fsync mean")
	hist("store.snapshot_ms_mean", "incdb_snapshot_seconds", "ms", 1e3, "incdb_snapshot_seconds mean")
	syncs := delta(m0, m1, "incdb_wal_syncs_total")
	r.add(metric{name: "store.fsyncs_per_append", value: ratio(syncs, appends), unit: "count", n: int(appends),
		source: "window: Δincdb_wal_syncs_total / acknowledged appends", absent: noAppends})
	r.add(metric{name: "store.wal_bytes_per_user_byte", value: ratio(delta(m0, m1, "incdb_wal_flush_bytes_sum"), float64(win.appendBytes)),
		unit: "B/B", n: int(appends), source: "window: Δincdb_wal_flush_bytes_sum / acknowledged append bytes", absent: noAppends})
	snaps := delta(m0, m1, "incdb_snapshot_seconds_count")
	r.add(metric{name: "store.snapshots", value: snaps, unit: "count", n: int(snaps),
		source: "window: Δincdb_snapshot_seconds_count", absent: !b.w.durable})
	b.res.info = append(b.res.info, fmt.Sprintf("count pass (exact, repeated on each launch): %.0f evaluated queries, %.0f worlds, %.0f frozen reuses",
		c.evaluated, c.worlds, c.frozen))
}

// traced replays the window's operations in-process with spans around
// every layer call, writes the spans out, and derives the span-based
// per-layer metrics from their self times.
func (b *bench) traced() error {
	var ops []op
	streams := make([]*stream, b.w.clients)
	for c := range streams {
		streams[c] = b.w.stream(c)
	}
	// Interleave the clients' streams, each up to what it sent in the window.
	for i := 0; ; i++ {
		more := false
		for c, st := range streams {
			if i < b.attempted[c] {
				ops = append(ops, st.next())
				more = true
			}
		}
		if !more {
			break
		}
	}
	rec := newRecorder()
	budget := min(time.Duration(b.cfg.seconds)*time.Second/2, replayBudget)
	rr, err := replay(b.w, rec, ops, budget, filepath.Join(b.work, "replay-store"))
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	for i := 0; i < 5; i++ {
		id := rec.begin("raparse.ParseDatabase", -1, rr.requests+i)
		_, err := raparse.ParseDatabase(strings.NewReader(b.w.dataset))
		rec.end(id)
		if err != nil {
			return err
		}
	}
	db, err := b.chk.base()
	if err != nil {
		return err
	}
	applyAllocs, execAllocs, err := worldAllocs(b.w, db)
	if err != nil {
		return err
	}
	one, two, err := oracleSeconds(b.w, db, 3)
	if err != nil {
		return err
	}
	spansPath := filepath.Join(b.work, "spans.tsv")
	if err := rec.write(spansPath); err != nil {
		return err
	}
	b.res.info = append(b.res.info, fmt.Sprintf("traced replay: %d of %d window operations, %d spans written to %s",
		rr.requests, len(ops), len(rec.spans), spansPath))

	lt := summarize(rec.spans)
	r := b.res
	self := func(name, spanName string, selfNs []float64, scale float64, unit string) {
		m := metric{name: name, unit: unit, n: len(selfNs), source: "traced replay: mean self time of " + spanName, absent: len(selfNs) == 0}
		if len(selfNs) > 0 {
			m.value = mean(selfNs) / scale
		}
		r.add(m)
	}
	oracle := append(append([]float64(nil), lt.all["certain.WithNulls"]...), lt.all["certain.Intersection"]...)
	self("certain.oracle_ms", "certain.WithNulls/Intersection", oracle, 1e6, "ms")
	var oracleNs float64
	for _, ns := range oracle {
		oracleNs += ns
	}
	r.add(metric{name: "certain.ns_per_world", value: ratio(oracleNs, float64(rr.oracleWorlds)), unit: "ns", n: int(rr.oracleWorlds),
		source: "traced replay: oracle span time / worlds enumerated", absent: rr.oracleWorlds == 0})
	r.add(metric{name: "engine.parallel_efficiency", value: ratio(one, two) / 2, unit: "ratio", n: 3,
		source: "in-process: oracle time at 1 worker / at 2 workers / 2 (median of 3 per kind)", absent: one == 0})
	self("relation.apply_us_per_world", "relation.Database.ApplyShared", lt.perWorld["relation.Database.ApplyShared"], 1e3, "us")
	self("plan.exec_us_per_world", "plan.Prepared.Exec per world", lt.perWorld["plan.Prepared.Exec"], 1e3, "us")
	r.add(metric{name: "relation.apply_allocs_per_world", value: applyAllocs, unit: "count", n: 1,
		source: "in-process: heap allocations / world, instantiating every oracle kind's worlds", absent: applyAllocs == 0})
	r.add(metric{name: "plan.exec_allocs_per_world", value: execAllocs, unit: "count", n: 1,
		source: "in-process: heap allocations / world of plan execution", absent: applyAllocs == 0})
	self("raparse.parse_us", "raparse.ParseQuery", lt.all["raparse.ParseQuery"], 1e3, "us")
	self("algebra.validate_us", "algebra.Validate", lt.all["algebra.Validate"], 1e3, "us")
	self("api.encode_us", "api.encode", lt.all["api.encode"], 1e3, "us")
	r.add(metric{name: "api.response_bytes", value: mean(rr.responseBytes), unit: "bytes", n: len(rr.responseBytes),
		source: "traced replay: encoded query response size"})
	self("plan.prepare_us", "plan.PrepCache.Get", lt.all["plan.PrepCache.Get"], 1e3, "us")
	self("store.sync_us", "store.SessionLog.Append", lt.all["store.SessionLog.Append"], 1e3, "us")
	loads := lt.all["raparse.ParseDatabase"]
	r.add(metric{name: "raparse.load_parse_ms", value: median(loads) / 1e6, unit: "ms", n: len(loads),
		source: "in-process: median raparse.ParseDatabase of the dataset text"})
	return nil
}
