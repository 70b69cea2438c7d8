package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/store"
	"incdb/internal/translate"
	"incdb/internal/value"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder started; parent is -1 for a request's root span.
type span struct {
	name       string
	parent     int
	req        int
	start, end int64
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{name: name, parent: parent, req: req, start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].end = int64(time.Since(r.epoch)) }

// write saves the spans as tab-separated lines: id, parent, request, name,
// start ns, end ns.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\treq\tname\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.req, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children's intervals.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// layerTimes summarizes self times by span name; perWorld restricts to the
// spans under a certain.worlds drill-down.
type layerTimes struct {
	all, perWorld map[string][]float64 // self time in ns
}

func summarize(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{all: map[string][]float64{}, perWorld: map[string][]float64{}}
	for i, s := range spans {
		if s.parent >= 0 && spans[s.parent].name == "certain.worlds" {
			lt.perWorld[s.name] = append(lt.perWorld[s.name], float64(self[i]))
		} else {
			lt.all[s.name] = append(lt.all[s.name], float64(self[i]))
		}
	}
	return lt
}

// replayResult is what the in-process traced replay measured beyond spans.
type replayResult struct {
	requests      int
	oracleWorlds  int64 // worlds the oracle calls enumerated
	responseBytes []float64
}

// replay runs the workload's generated operations in-process through the
// layers' public functions, one root span per request and a child span per
// layer call, until ops run out or budget elapses. The first request of
// each oracle kind also walks its valuation space world by world, spanning
// relation.Database.ApplyShared and plan.Prepared.Exec.
func replay(w *workload, rec *recorder, ops []op, budget time.Duration, storeDir string) (*replayResult, error) {
	db, err := raparse.ParseDatabase(strings.NewReader(w.dataset))
	if err != nil {
		return nil, err
	}
	pc := plan.NewPrepCache(0)
	var wal *store.SessionLog
	if w.durable {
		st, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if wal, err = st.Session(session); err != nil {
			return nil, err
		}
	}
	res := &replayResult{}
	drilled := map[int]bool{}
	deadline := time.Now().Add(budget)
	for i, o := range ops {
		if time.Now().After(deadline) {
			break
		}
		res.requests++
		root := rec.begin("request", -1, i)
		call := func(name string, f func() error) error {
			id := rec.begin(name, root, i)
			err := f()
			rec.end(id)
			return err
		}
		if o.isAppend() {
			err := call("raparse.ParseDatabaseInto", func() error {
				return raparse.ParseDatabaseInto(strings.NewReader(o.data), db)
			})
			if err == nil {
				err = call("store.SessionLog.Append", func() error {
					_, err := wal.Append(store.OpAppend, o.data, db.Versions())
					return err
				})
			}
			if err != nil {
				return nil, err
			}
			rec.end(root)
			continue
		}
		var req api.QueryRequest
		var q algebra.Expr
		err := call("api.decode", func() error { return json.Unmarshal(o.body(w), &req) })
		if err == nil {
			err = call("raparse.ParseQuery", func() (err error) { q, err = raparse.ParseQuery(req.Query); return })
		}
		if err == nil {
			err = call("algebra.Validate", func() error { return algebra.Validate(q, db) })
		}
		if err != nil {
			return nil, err
		}
		var r *relation.Relation
		name := req.Proc
		e, mode := q, algebra.ModeNaive
		switch req.Proc {
		case "sql":
			mode = algebra.ModeSQL
		case "plus", "poss":
			err = call("translate.Fig2b", func() error {
				plus, poss, err := translate.Fig2b(q)
				e, name = plus, "Q+"
				if req.Proc == "poss" {
					e, name = poss, "Q?"
				}
				return err
			})
		}
		if err != nil {
			return nil, err
		}
		var prep *plan.Prepared
		call("plan.PrepCache.Get", func() error { prep = pc.Get(db, e, mode, false); return nil })
		switch req.Proc {
		case "cert", "inter":
			tr := plan.NewTrace(false)
			opts := certain.Options{Workers: 2, Prep: pc, Trace: tr}
			oracle := "certain.WithNulls"
			if req.Proc == "inter" {
				oracle = "certain.Intersection"
			}
			err = call(oracle, func() (err error) {
				if req.Proc == "cert" {
					name = "cert⊥"
					r, err = certain.WithNulls(db, q, opts)
				} else {
					name = "cert∩"
					r, err = certain.Intersection(db, q, opts)
				}
				return err
			})
			res.oracleWorlds += tr.Execs.Load()
			if err == nil && !drilled[o.kind] {
				drilled[o.kind] = true
				err = drill(rec, root, i, db, q, prep)
			}
		default:
			call("plan.Prepared.Exec", func() error { r = prep.Exec(db); return nil })
		}
		if err != nil {
			return nil, err
		}
		call("api.encode", func() error {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			err := enc.Encode(api.QueryResponse{Session: session, Proc: req.Proc, Query: req.Query,
				Results: []api.Resultset{resultset(name, r)}})
			res.responseBytes = append(res.responseBytes, float64(buf.Len()))
			return err
		})
		rec.end(root)
	}
	return res, nil
}

// drill walks q's valuation space serially under a certain.worlds span,
// spanning each world's instantiation and plan execution.
func drill(rec *recorder, root, req int, db *relation.Database, q algebra.Expr, prep *plan.Prepared) error {
	space, err := certain.NewSpaceForQuery(db, q, certain.Options{})
	if err != nil {
		return err
	}
	dd := rec.begin("certain.worlds", root, req)
	space.Each(func(v value.Valuation) bool {
		a := rec.begin("relation.Database.ApplyShared", dd, req)
		world := db.ApplyShared(v)
		rec.end(a)
		x := rec.begin("plan.Prepared.Exec", dd, req)
		prep.Exec(world)
		rec.end(x)
		return true
	})
	rec.end(dd)
	return nil
}

// worldAllocs counts heap allocations per world over every oracle kind's
// valuation space: once instantiating worlds only, once instantiating and
// executing; the difference is the plan's share.
func worldAllocs(w *workload, db *relation.Database) (apply, exec float64, err error) {
	pc := plan.NewPrepCache(0)
	var worlds, applyN, bothN uint64
	var ms runtime.MemStats
	for _, k := range w.kinds {
		if k.proc != "cert" && k.proc != "inter" {
			continue
		}
		q, err := raparse.ParseQuery(k.query)
		if err != nil {
			return 0, 0, err
		}
		prep := pc.Get(db, q, algebra.ModeNaive, false)
		space, err := certain.NewSpaceForQuery(db, q, certain.Options{})
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		space.Each(func(v value.Valuation) bool { db.ApplyShared(v); return true })
		runtime.ReadMemStats(&ms)
		m1 := ms.Mallocs
		space.Each(func(v value.Valuation) bool { prep.Exec(db.ApplyShared(v)); return true })
		runtime.ReadMemStats(&ms)
		applyN += m1 - m0
		bothN += ms.Mallocs - m1
		worlds += uint64(space.Size())
	}
	if worlds == 0 {
		return 0, 0, nil
	}
	return float64(applyN) / float64(worlds), (float64(bothN) - float64(applyN)) / float64(worlds), nil
}

// oracleSeconds times every oracle kind once per round at one and at two
// engine workers, alternating, and sums each kind's median.
func oracleSeconds(w *workload, db *relation.Database, rounds int) (one, two float64, err error) {
	pc := plan.NewPrepCache(0)
	for _, k := range w.kinds {
		if k.proc != "cert" && k.proc != "inter" {
			continue
		}
		q, err := raparse.ParseQuery(k.query)
		if err != nil {
			return 0, 0, err
		}
		var t [2][]float64
		for r := 0; r < rounds; r++ {
			for i, workers := range []int{1, 2} {
				opts := certain.Options{Workers: workers, Prep: pc}
				start := time.Now()
				if k.proc == "cert" {
					_, err = certain.WithNulls(db, q, opts)
				} else {
					_, err = certain.Intersection(db, q, opts)
				}
				if err != nil {
					return 0, 0, err
				}
				t[i] = append(t[i], time.Since(start).Seconds())
			}
		}
		one += median(t[0])
		two += median(t[1])
	}
	return one, two, nil
}
