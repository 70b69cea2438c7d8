package main

import (
	"math"
	"strings"
	"testing"

	"incdb/internal/api"
	"incdb/internal/obs"
	"incdb/internal/raparse"
	"incdb/internal/tpch"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, ok := tail(seq(99), 0.9); ok {
		t.Fatal("p90 of 99 samples has 9 beyond it and must not be reported")
	}
	v, ok := tail(seq(100), 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, beyond := quantile(seq(5), 0.5); v != 3 || beyond != 2 {
		t.Fatalf("median of 1..5 = %v with %d beyond; want 3 with 2", v, beyond)
	}
	if _, beyond := quantile(nil, 0.5); beyond != 0 {
		t.Fatal("empty input has no samples beyond")
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "request", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50},  // overlaps a: counted once
		{name: "c", parent: 0, start: 90, end: 120}, // clipped to the parent
		{name: "d", parent: 1, start: 12, end: 18},
		{name: "e", parent: -1, start: 200, end: 260},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	lt := summarize([]span{
		{name: "certain.worlds", parent: -1, start: 0, end: 10},
		{name: "plan.Prepared.Exec", parent: 0, start: 1, end: 4},
		{name: "plan.Prepared.Exec", parent: -1, start: 20, end: 25},
	})
	if len(lt.perWorld["plan.Prepared.Exec"]) != 1 || lt.perWorld["plan.Prepared.Exec"][0] != 3 {
		t.Errorf("per-world exec self times %v, want [3]", lt.perWorld["plan.Prepared.Exec"])
	}
	if len(lt.all["plan.Prepared.Exec"]) != 1 || lt.all["certain.worlds"][0] != 7 {
		t.Errorf("other self times %v", lt.all)
	}
}

func scrapeOf(t *testing.T, text string) promSnapshot {
	t.Helper()
	samples, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return snapshotOf(samples)
}

func TestPromDeltas(t *testing.T) {
	before := scrapeOf(t, `# TYPE incdb_result_cache_hits_total counter
incdb_result_cache_hits_total{session="a"} 3
incdb_result_cache_hits_total{session="b"} 4
incdb_query_seconds_bucket{proc="cert",le="0.001"} 2
incdb_query_seconds_sum{proc="cert"} 0.5
incdb_query_seconds_count{proc="cert"} 2
incdb_query_seconds_sum{proc="sql"} 0.25
incdb_query_seconds_count{proc="sql"} 5
`)
	after := scrapeOf(t, `incdb_result_cache_hits_total{session="a"} 10
incdb_result_cache_hits_total{session="b"} 4
incdb_query_seconds_bucket{proc="cert",le="0.001"} 9
incdb_query_seconds_sum{proc="cert"} 1.5
incdb_query_seconds_count{proc="cert"} 4
incdb_query_seconds_sum{proc="sql"} 0.75
incdb_query_seconds_count{proc="sql"} 15
incdb_wal_syncs_total{session="a"} 2
`)
	if d := delta(before, after, "incdb_result_cache_hits_total"); d != 7 {
		t.Errorf("counter delta summed over sessions = %v, want 7", d)
	}
	if d := delta(before, after, "incdb_wal_syncs_total"); d != 2 {
		t.Errorf("a series absent before counts from zero: delta %v, want 2", d)
	}
	if _, ok := after["incdb_query_seconds_bucket"]; ok {
		t.Error("histogram buckets must not be summed into the snapshot")
	}
	m, n := histMean(before, after, "incdb_query_seconds")
	if n != 12 || math.Abs(m-1.5/12) > 1e-12 {
		t.Errorf("histogram mean %v over %v observations, want %v over 12", m, n, 1.5/12)
	}
	if m, n := histMean(before, after, "incdb_snapshot_seconds"); m != 0 || n != 0 {
		t.Errorf("a histogram without observations has mean %v over %v, want 0 over 0", m, n)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		c, _ := newWorkload(name, 8)
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if fingerprint(a) == fingerprint(c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
		if a.dataset == c.dataset {
			t.Errorf("%s: seeds 7 and 8 generated identical data", name)
		}
	}
}

func TestOracleDataShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		db, err := raparse.ParseDatabase(strings.NewReader(mustWorkload(t, "oracle-worlds", seed).dataset))
		if err != nil {
			t.Fatal(err)
		}
		nulls := 0
		for _, name := range db.Names() {
			for _, tp := range db.Relation(name).Tuples() {
				for col, v := range tp {
					if v.IsNull() {
						nulls++
						if name != "orders" || (col != 2 && col != 3) {
							t.Errorf("seed %d: null in %s column %d", seed, name, col)
						}
					}
				}
			}
		}
		if nulls != 2 {
			t.Errorf("seed %d: %d nulls, want 2", seed, nulls)
		}
	}
}

func mustWorkload(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestQueryTextsMatchLibrary(t *testing.T) {
	lib := append(tpch.Queries(), tpch.MultiJoinQueries()...)
	for _, q := range lib {
		key := strings.SplitN(q.Name, "-", 2)[0]
		got, err := raparse.ParseQuery(queryText[key])
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got.String() != q.Q.String() {
			t.Errorf("%s parses to %s, library has %s", key, got, q.Q)
		}
	}
}

func TestRespellKeepsQueryChangesBytes(t *testing.T) {
	texts := map[string]string{} // K1 spells Q2's text: test it once
	for name, text := range queryText {
		texts[text] = name
	}
	seen := map[string]bool{}
	for text, name := range texts {
		canon, err := raparse.ParseQuery(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := 0; v < 64; v++ {
			s := respell(text, v)
			q, err := raparse.ParseQuery(s)
			if err != nil || q.String() != canon.String() {
				t.Fatalf("%s variant %d %q parses to %v, %v", name, v, s, q, err)
			}
			if seen[s] {
				t.Fatalf("%s variant %d repeats an earlier spelling", name, v)
			}
			seen[s] = true
		}
	}
}

func TestPrefixFollowsApplyOrder(t *testing.T) {
	w := mustWorkload(t, "durable-mixed", 1)
	c, err := newChecker(w)
	if err != nil {
		t.Fatal(err)
	}
	k := -1
	for i, kd := range w.kinds {
		if kd.name == "Q2/sql" {
			k = i
		}
	}
	acks := sortedAcks([]appendAck{
		{rel: "audit", versions: map[string]uint64{"lineitem": 5, "audit": 2}},
		{rel: "lineitem", versions: map[string]uint64{"lineitem": 5, "audit": 1}},
		{rel: "audit", versions: map[string]uint64{"lineitem": 4, "audit": 1}},
		{rel: "lineitem", versions: map[string]uint64{"lineitem": 6, "audit": 2}},
	})
	for _, tc := range []struct {
		versions map[string]uint64
		want     int
	}{
		{map[string]uint64{"lineitem": 3, "orders": 1}, 0},
		{map[string]uint64{"lineitem": 5, "orders": 1}, 2},
		{map[string]uint64{"lineitem": 6, "orders": 1}, 4},
	} {
		key := answerKey{kind: k, state: c.state(k, tc.versions)}
		if got := c.prefix(key, acks); got != tc.want {
			t.Errorf("state %s: prefix %d, want %d", key.state, got, tc.want)
		}
	}
}

func TestCanonicalIgnoresRowOrder(t *testing.T) {
	a := []api.Resultset{{Name: "cert⊥", Rows: [][]string{{"1", "x"}, {"2", "_3"}}}}
	b := []api.Resultset{{Name: "cert⊥", Rows: [][]string{{"2", "_3"}, {"1", "x"}}, Mults: []int{1, 1}}}
	if canonical(a) != canonical(b) {
		t.Error("row order or explicit unit multiplicities changed the canonical form")
	}
	b[0].Mults = []int{2, 1}
	if canonical(a) == canonical(b) {
		t.Error("a multiplicity difference went unnoticed")
	}
}
