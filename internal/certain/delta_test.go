package certain

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"incdb/internal/algebra"
	"incdb/internal/gen"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/tpch"
	"incdb/internal/value"
)

// mixedDB is a gen instance in which each relation independently keeps its
// nulls or has them replaced by constants, so that plans mix static
// (null-free) and null-bearing inputs and both world-evaluation paths —
// delta and full instantiation — occur.
func mixedDB(r *rand.Rand) *relation.Database {
	src := gen.DB(r, gen.Config{MaxTuples: 4, NullRate: 0.35, NullPool: 3, ConstPool: 4})
	db := relation.NewDatabase()
	for _, name := range src.Names() {
		rel := src.Relation(name)
		if r.Intn(2) == 0 {
			db.Add(rel)
			continue
		}
		clean := relation.New(rel.Name(), rel.Attrs()...)
		rel.Each(func(t value.Tuple, m int) {
			nt := t.Clone()
			for i, v := range nt {
				if v.IsNull() {
					nt[i] = gen.ConstOf(int(v.NullID()) % 4)
				}
			}
			clean.AddMult(nt, m)
		})
		db.Add(clean)
	}
	return db
}

// probes returns every k-tuple over the world's active domain plus the
// query's constants: the answers and a superset of the near misses.
func probes(world *relation.Database, q algebra.Expr, k int) []value.Tuple {
	dom := append(world.ActiveDomain(), algebra.ConstsOf(q)...)
	out := []value.Tuple{{}}
	for i := 0; i < k; i++ {
		var next []value.Tuple
		for _, t := range out {
			for _, v := range dom {
				next = append(next, append(t.Clone(), v))
			}
		}
		out = next
	}
	return out
}

// checkWorlds compares the world evaluator with the reference interpreter
// on the first maxWorlds worlds of the space: the materialized result, and
// Contains/Mult/Frozen on every probe tuple. It reports whether the plan
// took the delta path.
func checkWorlds(t *testing.T, label string, db *relation.Database, q algebra.Expr, mode algebra.Mode, bag bool, space *Space, maxWorlds int) bool {
	t.Helper()
	var p *plan.Plan
	if bag {
		p = plan.CompileBag(q, db, mode)
	} else {
		p = plan.Compile(q, db, mode)
	}
	prep := p.Prepare(db)
	w := prep.Worlds(db, nil)
	arity := algebra.Arity(q, db)
	n := 0
	space.Each(func(v value.Valuation) bool {
		world := db.Apply(v)
		var want *relation.Relation
		if bag {
			want = algebra.EvalBagInterp(world, q, mode)
		} else {
			want = algebra.EvalInterp(world, q, mode)
		}
		w.Load(v)
		label := fmt.Sprintf("%s %v bag=%t delta=%t world %v\nQ = %s", label, mode, bag, prep.Delta(), v, q)
		if got := w.Result(); !want.Equal(got) {
			t.Fatalf("%s: result diverges\ninterp = %v\nworlds = %v", label, want, got)
		}
		for _, pt := range probes(world, q, arity) {
			if got := w.Mult(pt); got != want.Mult(pt) {
				t.Fatalf("%s: Mult(%v) = %d, interp %d", label, pt, got, want.Mult(pt))
			}
			if got := w.Contains(pt); got != want.Contains(pt) {
				t.Fatalf("%s: Contains(%v) = %t, interp %t", label, pt, got, want.Contains(pt))
			}
			if w.Frozen(pt) && (pt.HasNull() || !want.Contains(pt)) {
				t.Fatalf("%s: %v frozen but not a null-free answer", label, pt)
			}
		}
		n++
		return n < maxWorlds
	})
	return prep.Delta()
}

// TestWorldsMatchInstantiation: for every world of a small space, the
// per-worker world evaluator — delta path or fallback, whichever the plan
// takes — yields exactly the reference interpreter's result on the
// instantiated world, tuple for tuple and multiplicity for multiplicity,
// under both modes and both semantics.
func TestWorldsMatchInstantiation(t *testing.T) {
	r := rand.New(rand.NewSource(1313))
	qcfg := gen.DefaultQueryConfig()
	qcfg.InSubRate = 0.15
	paths := map[bool]int{}
	for trial := 0; trial < 120; trial++ {
		db := mixedDB(r)
		q := gen.Query(r, qcfg, 1+r.Intn(2))
		space, err := NewSpace(db, algebra.ConstsOf(q), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []algebra.Mode{algebra.ModeNaive, algebra.ModeSQL} {
			for _, bag := range []bool{false, true} {
				paths[checkWorlds(t, fmt.Sprintf("trial %d", trial), db, q, mode, bag, space, 24)]++
			}
		}
	}
	if paths[true] < 100 || paths[false] < 100 {
		t.Fatalf("corpus exercises too little of one path: %d delta, %d fallback plans", paths[true], paths[false])
	}
}

// TestWorldsLargeDelta: a relation with many null-bearing rows — most of
// them carrying nulls only in a column the query never reads, so the space
// stays small — makes the root Δ large enough for membership to go through
// the per-world hash index, with repeated tuples summing under bags.
func TestWorldsLargeDelta(t *testing.T) {
	db := relation.NewDatabase()
	u := relation.New("U", "k", "a", "note")
	for i := 0; i < 40; i++ {
		a := value.Const(fmt.Sprintf("c%d", i%4))
		if i%10 == 0 {
			a = value.Null(uint64(1 + i/20))
		}
		u.AddMult(value.T(value.Const(fmt.Sprintf("k%d", i)), a, value.Null(uint64(100+i))), 1+i%2)
	}
	db.Add(u)
	for _, q := range []algebra.Expr{
		algebra.Proj(algebra.R("U"), 1),
		algebra.Proj(algebra.Sel(algebra.R("U"), algebra.EqConst{I: 1, C: value.Const("c1")}), 0),
		algebra.Proj(algebra.R("U"), 0, 1),
	} {
		space, err := NewSpaceForQuery(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, bag := range []bool{false, true} {
			if !checkWorlds(t, "large delta", db, q, algebra.ModeNaive, bag, space, 64) {
				t.Fatalf("%s: expected the delta path", q)
			}
		}
	}
}

// Reference oracles: the definitions, evaluated world by world on
// db.Apply(v) with the reference interpreter, over the same spaces the
// library enumerates.

func refAnswers(db *relation.Database, q algebra.Expr, v value.Valuation, bag bool) *relation.Relation {
	if bag {
		return algebra.EvalBagInterp(db.Apply(v), q, algebra.ModeNaive)
	}
	return algebra.EvalInterp(db.Apply(v), q, algebra.ModeNaive)
}

func refWithNulls(db *relation.Database, q algebra.Expr, space *Space) *relation.Relation {
	out := relation.NewArity("cert⊥", algebra.Arity(q, db))
	for _, t := range algebra.EvalInterp(db, q, algebra.ModeNaive).Tuples() {
		certain := true
		space.Each(func(v value.Valuation) bool {
			certain = refAnswers(db, q, v, false).Contains(v.Apply(t))
			return certain
		})
		if certain {
			out.Add(t)
		}
	}
	return out
}

func refIntersection(db *relation.Database, q algebra.Expr, space *Space) *relation.Relation {
	var acc *relation.Relation
	space.Each(func(v value.Valuation) bool {
		res := refAnswers(db, q, v, false)
		if acc == nil {
			acc = res
			return true
		}
		next := relation.NewArity("cert∩", res.Arity())
		acc.Each(func(t value.Tuple, _ int) {
			if res.Contains(t) {
				next.Add(t)
			}
		})
		acc = next
		return true
	})
	return acc
}

// refForall reports whether (v(t) ∈ Q(v(D))) == want in every world.
func refForall(db *relation.Database, q algebra.Expr, t value.Tuple, space *Space, want bool) bool {
	holds := true
	space.Each(func(v value.Valuation) bool {
		holds = refAnswers(db, q, v, false).Contains(v.Apply(t)) == want
		return holds
	})
	return holds
}

func refExtremeMult(db *relation.Database, q algebra.Expr, t value.Tuple, space *Space, min bool) int {
	best, seen := 0, false
	space.Each(func(v value.Valuation) bool {
		m := refAnswers(db, q, v, true).Mult(v.Apply(t))
		if !seen || (min && m < best) || (!min && m > best) {
			best, seen = m, true
		}
		return true
	})
	return best
}

// TestOraclesMatchReference runs every oracle — whose world loops go
// through plan.Worlds — against the reference oracles above, serially and
// sharded, on mixed static/null-bearing instances.
func TestOraclesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(2121))
	qcfg := gen.DefaultQueryConfig()
	for trial := 0; trial < 60; trial++ {
		db := mixedDB(r)
		arity := 1 + r.Intn(2)
		q := gen.Query(r, qcfg, arity)
		space, err := NewSpaceForQuery(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if space.Size() > 4096 {
			continue
		}
		wantCert := refWithNulls(db, q, space)
		wantInter := refIntersection(db, q, space)
		zeroAry := algebra.Proj(q)
		boolSpace, err := NewSpaceForQuery(db, zeroAry, Options{})
		if err != nil {
			t.Fatal(err)
		}
		wantBool := refForall(db, zeroAry, value.Tuple{}, boolSpace, true)
		// Tuple-level probes: a naive answer (possibly with nulls) and a
		// constant tuple.
		tuples := []value.Tuple{}
		if naive := algebra.EvalInterp(db, q, algebra.ModeNaive).Tuples(); len(naive) > 0 {
			tuples = append(tuples, naive[r.Intn(len(naive))])
		}
		ct := make(value.Tuple, arity)
		for i := range ct {
			ct[i] = gen.ConstOf(r.Intn(4))
		}
		tuples = append(tuples, ct)

		for _, workers := range []int{1, 3} {
			opts := Options{Workers: workers}
			label := fmt.Sprintf("trial %d workers=%d Q = %s", trial, workers, q)
			gotCert, err := WithNulls(db, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !gotCert.Equal(wantCert) {
				t.Fatalf("%s: WithNulls = %v, reference %v", label, gotCert, wantCert)
			}
			gotInter, err := Intersection(db, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !gotInter.Equal(wantInter) {
				t.Fatalf("%s: Intersection = %v, reference %v", label, gotInter, wantInter)
			}
			gotBool, err := Bool(db, zeroAry, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotBool != wantBool {
				t.Fatalf("%s: Bool = %t, reference %t", label, gotBool, wantBool)
			}
			for _, tu := range tuples {
				ts, err := spaceForTuple(db, q, tu, opts)
				if err != nil {
					t.Fatal(err)
				}
				if ts.Size() > 4096 {
					continue
				}
				gotC, err := CertainTuple(db, q, tu, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := refForall(db, q, tu, ts, true); gotC != want {
					t.Fatalf("%s: CertainTuple(%v) = %t, reference %t", label, tu, gotC, want)
				}
				gotP, err := PossibleTuple(db, q, tu, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := !refForall(db, q, tu, ts, false); gotP != want {
					t.Fatalf("%s: PossibleTuple(%v) = %t, reference %t", label, tu, gotP, want)
				}
				bs, err := spaceForTupleBag(db, q, tu, opts)
				if err != nil {
					t.Fatal(err)
				}
				if bs.Size() > 4096 {
					continue
				}
				gotBox, err := BoxMult(db, q, tu, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := refExtremeMult(db, q, tu, bs, true); gotBox != want {
					t.Fatalf("%s: BoxMult(%v) = %d, reference %d", label, tu, gotBox, want)
				}
				gotDia, err := DiamondMult(db, q, tu, opts)
				if err != nil {
					t.Fatal(err)
				}
				if want := refExtremeMult(db, q, tu, bs, false); gotDia != want {
					t.Fatalf("%s: DiamondMult(%v) = %d, reference %d", label, tu, gotDia, want)
				}
			}
		}
	}
}

// deltaChoiceDB holds one null-bearing relation U and two static ones: S is
// larger than U, so the cost model probes with it and builds U; P is
// smaller, so it becomes the frozen build side.
func deltaChoiceDB() *relation.Database {
	db := relation.NewDatabase()
	withNulls := relation.New("U", "a", "b")
	withNulls.Add(value.Consts("c0", "c1"))
	withNulls.Add(value.T(value.Const("c1"), value.Null(1)))
	withNulls.Add(value.T(value.Null(2), value.Const("c2")))
	db.Add(withNulls)
	static := relation.New("S", "x", "y")
	for i := 0; i < 12; i++ {
		static.Add(value.Consts(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i%3)))
	}
	db.Add(static)
	small := relation.New("P", "x", "y")
	small.Add(value.Consts("c1", "c2"))
	small.Add(value.Consts("c2", "c0"))
	db.Add(small)
	return db
}

// TestDeltaPathChoice pins which plans take the delta path. Fallback plans
// are still checked world by world against the interpreter.
func TestDeltaPathChoice(t *testing.T) {
	db := deltaChoiceDB()
	c := value.Const
	U, S, P := algebra.R("U"), algebra.R("S"), algebra.R("P")
	cases := []struct {
		name  string
		q     algebra.Expr
		bag   bool
		delta bool
	}{
		{"scan-filter-project", algebra.Proj(algebra.Sel(U, algebra.EqConst{I: 0, C: c("c1")}), 1), false, true},
		{"union", algebra.Union{L: U, R: S}, false, true},
		{"join, static build side", algebra.Sel(algebra.Times(U, P), algebra.CEq(1, 2)), false, true},
		{"join, static build side, bag", algebra.Proj(algebra.Sel(algebra.Times(P, U), algebra.CEq(0, 3)), 1), true, true},
		{"join, static probe side", algebra.Sel(algebra.Times(S, U), algebra.CEq(1, 2)), false, true},
		{"join, static probe side, bag", algebra.Proj(algebra.Sel(algebra.Times(U, S), algebra.CEq(0, 3)), 2), true, true},
		{"null-bearing minus static", algebra.Minus(U, S), false, true},
		{"bag difference", algebra.Minus(U, S), true, false},
		{"intersection with static", algebra.Intersect{L: S, R: U}, false, true},
		{"IN over static", algebra.Sel(U, algebra.InSub{Cols: []int{0}, Sub: algebra.Proj(S, 0)}), false, true},
		{"static minus null-bearing", algebra.Minus(S, U), false, false},
		{"IN over null-bearing", algebra.Sel(S, algebra.InSub{Cols: []int{0}, Sub: algebra.Proj(U, 0)}), false, false},
		{"anti-unify", algebra.AntiUnify{L: U, R: S}, false, false},
		{"division", algebra.Divide{L: U, R: algebra.Proj(S, 1)}, false, false},
		{"Dom", algebra.Dom{K: 1}, false, false},
		{"self-join", algebra.Sel(algebra.Times(U, U), algebra.CEq(1, 2)), false, false},
		{"fully static", algebra.Minus(S, algebra.Proj(S, 1, 0)), false, true},
	}
	space, err := NewSpace(db, []value.Value{c("c0"), c("c1"), c("c2")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		var p *plan.Plan
		if tc.bag {
			p = plan.CompileBag(tc.q, db, algebra.ModeNaive)
		} else {
			p = plan.Compile(tc.q, db, algebra.ModeNaive)
		}
		prep := p.Prepare(db)
		if prep.Delta() != tc.delta {
			t.Errorf("%s: Delta() = %t, want %t\n%s", tc.name, prep.Delta(), tc.delta, plan.Explain(tc.q, db, algebra.ModeNaive, tc.bag, db))
			continue
		}
		w := prep.Worlds(db, nil)
		space.Each(func(v value.Valuation) bool {
			world := db.Apply(v)
			want := algebra.EvalInterp(world, tc.q, algebra.ModeNaive)
			if tc.bag {
				want = algebra.EvalBagInterp(world, tc.q, algebra.ModeNaive)
			}
			w.Load(v)
			if got := w.Result(); !want.Equal(got) {
				t.Fatalf("%s: world %v: got %v, interp %v", tc.name, v, got, want)
			}
			return true
		})
	}
}

// oracleWorldsDB is TPC-H SmallConfig with one marked null in o_totalprice
// and one in o_orderstatus — the shape of the oracle-worlds benchmark
// workload.
func oracleWorldsDB(t testing.TB) *relation.Database {
	t.Helper()
	db := tpch.Generate(tpch.SmallConfig())
	for i, col := range []int{2, 3} {
		for sub := int64(0); ; sub++ {
			before := len(db.NullIDs())
			next := tpch.DirtyColumns(db, map[string][]int{"orders": {col}}, 0.25, 1, 1000+int64(i)*100+sub)
			if len(next.NullIDs()) == before+1 {
				db = next
				break
			}
			if sub > 100 {
				t.Fatal("could not place a null")
			}
		}
	}
	return db
}

func tpchQuery(t testing.TB, prefix string) algebra.Expr {
	t.Helper()
	for _, nq := range tpch.Queries() {
		if len(nq.Name) > len(prefix) && nq.Name[:len(prefix)+1] == prefix+"-" {
			return nq.Q
		}
	}
	t.Fatalf("no TPC-H query %s", prefix)
	return nil
}

// TestTPCHShapesTakeDeltaPath: the scan→filter→project queries over the
// null-bearing orders relation take the delta path; Q6, a static relation
// minus a null-bearing one, falls back. Both agree with the serial
// reference oracles.
func TestTPCHShapesTakeDeltaPath(t *testing.T) {
	db := oracleWorldsDB(t)
	for _, tc := range []struct {
		name  string
		delta bool
	}{{"Q3", true}, {"Q5", true}, {"Q9", true}, {"Q6", false}} {
		q := tpchQuery(t, tc.name)
		prep := plan.PlanFor(q, db, algebra.ModeNaive, false).Prepare(db)
		if prep.Delta() != tc.delta {
			t.Errorf("%s: Delta() = %t, want %t", tc.name, prep.Delta(), tc.delta)
		}
		want := map[bool]string{true: "delta", false: "full"}[tc.delta]
		if got := plan.Describe(q, db, algebra.ModeNaive, false, db).Worlds; got != want {
			t.Errorf("%s: EXPLAIN worlds = %q, want %q", tc.name, got, want)
		}
	}
	for _, name := range []string{"Q3", "Q6", "Q9"} {
		q := tpchQuery(t, name)
		space, err := NewSpaceForQuery(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := WithNulls(db, q, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := refWithNulls(db, q, space); !got.Equal(want) {
			t.Errorf("%s: WithNulls = %v, reference %v", name, got, want)
		}
		gotI, err := Intersection(db, q, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if want := refIntersection(db, q, space); !gotI.Equal(want) {
			t.Errorf("%s: Intersection = %v, reference %v", name, gotI, want)
		}
	}
}

// TestDeltaWorldAllocatesNothing: once warm, a delta-path world — applying
// the valuation, streaming the Δ rows through filters, IN probes, joins
// and set operators, answering membership probes — performs no heap
// allocation.
func TestDeltaWorldAllocatesNothing(t *testing.T) {
	small := deltaChoiceDB()
	U, S, P := algebra.R("U"), algebra.R("S"), algebra.R("P")
	cases := []struct {
		name string
		db   *relation.Database
		q    algebra.Expr
	}{
		{"Q5", oracleWorldsDB(t), tpchQuery(t, "Q5")},
		{"IN over static", small, algebra.Sel(U, algebra.InSub{Cols: []int{1}, Sub: algebra.Proj(S, 1)})},
		{"join, static build side", small, algebra.Sel(algebra.Times(U, P), algebra.CEq(1, 2))},
		{"join, static probe side", small, algebra.Proj(algebra.Sel(algebra.Times(S, U), algebra.CEq(1, 2)), 0, 3)},
		{"minus static", small, algebra.Minus(U, S)},
	}
	for _, tc := range cases {
		prep := plan.PlanFor(tc.q, tc.db, algebra.ModeNaive, false).Prepare(tc.db)
		if !prep.Delta() {
			t.Fatalf("%s does not take the delta path", tc.name)
		}
		space, err := NewSpaceForQuery(tc.db, tc.q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var vals []value.Valuation
		space.Each(func(v value.Valuation) bool {
			vals = append(vals, v.Clone())
			return len(vals) < 256
		})
		probes := algebra.EvalInterp(tc.db, tc.q, algebra.ModeNaive).Tuples()
		w := prep.Worlds(tc.db, plan.NewTrace(false))
		i := 0
		world := func() {
			w.Load(vals[i%len(vals)])
			for _, p := range probes {
				w.Contains(p)
			}
			i++
		}
		for range vals {
			world() // warm the arena and the per-node buffers
		}
		if allocs := testing.AllocsPerRun(1000, world); allocs != 0 {
			t.Errorf("%s: delta world allocates %.2f times, want 0", tc.name, allocs)
		}
	}
}

// TestCancelStopsEnumeration: cancelling the context mid-enumeration makes
// every oracle return ctx.Err() promptly, serially and sharded.
func TestCancelStopsEnumeration(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	s := relation.New("S", "a")
	for i := 0; i < 40; i++ {
		r.Add(value.Consts(fmt.Sprintf("k%d", i)))
	}
	for id := uint64(1); id <= 4; id++ {
		s.Add(value.T(value.Null(id)))
	}
	db.Add(r)
	db.Add(s)
	// R − (S − S) is R in every world, so no candidate ever dies, and the
	// difference of two null-bearing inputs falls back to full
	// instantiation: 45⁴ worlds, far more than the test waits for.
	S := algebra.R("S")
	q := algebra.Minus(algebra.R("R"), algebra.Minus(S, S))
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{Workers: workers, MaxWorlds: 1 << 24, Context: ctx}
		done := make(chan error, 1)
		go func() {
			_, err := WithNulls(db, q, opts)
			done <- err
		}()
		time.Sleep(50 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err != context.Canceled {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: enumeration still running 5 s after cancel", workers)
		}
	}
}
