// Package prob implements the probabilistic framework of Section 4.3 of
// the paper: the probability µ(Q, D, ā) that a randomly chosen valuation
// witnesses ā as an answer, its finite restrictions µᵏ over valuations
// into {c₁,…,c_k}, and the conditional probability µ(Q|Σ, D, ā) under
// integrity constraints Σ.
//
// All probabilities are exact rationals (math/big). The asymptotic values
// are computed symbolically by enumerating *patterns*: a pattern assigns
// each null either a relevant constant (one occurring in D, Q or Σ) or an
// anonymous fresh class; all valuations realizing the same pattern agree
// on the events of interest (genericity), and a pattern with m fresh
// classes is realized by (k−|R|)(k−|R|−1)⋯(k−|R|−m+1) valuations into
// {c₁,…,c_k}. Both µᵏ numerator and denominator are therefore polynomials
// in k, and the limit is the ratio of their leading coefficients —
// Theorem 4.10's 0–1 law and Theorem 4.11's rational convergence both fall
// out of this computation.
package prob

import (
	"context"
	"fmt"
	"math/big"
	"strconv"

	"incdb/internal/algebra"
	"incdb/internal/constraint"
	"incdb/internal/engine"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// MaxNulls bounds the pattern/valuation enumerations; both are exponential
// in the number of nulls (computing µ exactly is FP^#P-hard, Section 4.3).
const MaxNulls = 8

// Options configures the probabilistic procedures beyond their engine
// pool: Prep, when non-nil, supplies version-guarded prepared plans that
// survive across invocations (REPL/server workloads), exactly like
// certain.Options.Prep. Results never depend on either field.
type Options struct {
	Engine engine.Options
	Prep   *plan.PrepCache
	// Trace, when non-nil, accumulates execution statistics across the
	// whole enumeration (Execs = worlds evaluated, FrozenReuse =
	// frozen-subplan serves), exactly like certain.Options.Trace. Shared by
	// all worker shards; results are identical with or without it.
	Trace *plan.Trace
}

// relevantConsts collects R = Const(D) ∪ consts(Q) ∪ consts(ā).
func relevantConsts(db *relation.Database, q algebra.Expr, tuple value.Tuple) []value.Value {
	seen := map[value.Value]bool{}
	var out []value.Value
	add := func(v value.Value) {
		if v.IsConst() && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, c := range db.Consts() {
		add(c)
	}
	for _, c := range algebra.ConstsOf(q) {
		add(c)
	}
	for _, v := range tuple {
		add(v)
	}
	return out
}

// freshConsts returns m constants outside the avoid set.
func freshConsts(m int, avoid []value.Value) []value.Value {
	have := map[value.Value]bool{}
	for _, v := range avoid {
		have[v] = true
	}
	var out []value.Value
	for i := 0; len(out) < m; i++ {
		c := value.Const("✶" + strconv.Itoa(i))
		if !have[c] {
			out = append(out, c)
		}
	}
	return out
}

// MuK computes µᵏ(Q|Σ, D, ā): the fraction of valuations v with range in
// {c₁,…,c_k} that satisfy v(D) ⊨ Σ and v(ā) ∈ Q(v(D)), among those
// satisfying Σ. A nil Σ is the unconditional µᵏ of (the display before)
// Theorem 4.10. The first k constants are taken as the relevant constants
// R followed by fresh ones; k must be at least |R| for the value to be
// enumeration-independent, and the enumeration costs kⁿ worlds.
func MuK(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int) (*big.Rat, error) {
	return MuKWith(db, q, sigma, tuple, k, engine.Options{})
}

// MuKWith is MuK with an explicit worker pool: the kⁿ valuations are
// sharded across eng's workers and the per-shard counters summed, so the
// result is independent of the worker count.
func MuKWith(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, eng engine.Options) (*big.Rat, error) {
	return MuKOpts(db, q, sigma, tuple, k, Options{Engine: eng})
}

// MuKOpts is MuKWith with full Options (worker pool and prepared-plan
// reuse across calls).
func MuKOpts(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, opts Options) (*big.Rat, error) {
	num, den, err := suppCounts(db, q, sigma, tuple, k, opts)
	if err != nil {
		return nil, err
	}
	if den == 0 {
		return big.NewRat(0, 1), nil
	}
	return big.NewRat(num, den), nil
}

// suppCounts enumerates the kⁿ valuations once and returns
// (|Suppᵏ(Σ∧Q)|, |Suppᵏ(Σ)|); with nil Σ the denominator counts every
// valuation.
func suppCounts(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int, opts Options) (int64, int64, error) {
	eng := opts.Engine
	ids := db.NullIDs()
	if len(ids) > MaxNulls {
		return 0, 0, fmt.Errorf("prob: %d nulls exceed MaxNulls=%d", len(ids), MaxNulls)
	}
	rel := relevantConsts(db, q, tuple)
	if k < len(rel) {
		return 0, 0, fmt.Errorf("prob: k=%d below |R|=%d; µᵏ would depend on the enumeration", k, len(rel))
	}
	rng := append(append([]value.Value{}, rel...), freshConsts(k-len(rel), rel)...)
	total := value.EnumSize(ids, rng)
	if total < 0 {
		return 0, 0, fmt.Errorf("prob: %d^%d valuations overflow the enumeration", len(rng), len(ids))
	}
	// Compile and prepare the query once for the whole kⁿ enumeration; as
	// in internal/certain, every worker shard evaluates its worlds through
	// its own plan.Worlds over the shared Prepared (reused across calls
	// under its version guard with opts.Prep), so a delta-linear query's
	// counting loop touches only the substituted null rows per world.
	prep := opts.Prep.Get(db, q, algebra.ModeNaive, false)
	countRange := func(lo, hi int) (num, den int64) {
		// One evaluator and instantiation buffer per worker shard; ā is
		// tiny but the enumeration visits kⁿ worlds, so per-world
		// allocations add up.
		w := prep.Worlds(db, opts.Trace)
		buf := make(value.Tuple, len(tuple))
		value.EnumValuations(ids, rng, lo, hi, func(v value.Valuation) bool {
			if sigma != nil && !sigma.Holds(db.ApplyShared(v)) {
				return true
			}
			den++
			w.Load(v)
			if w.Contains(v.ApplyInto(buf, tuple)) {
				num++
			}
			return true
		})
		return
	}
	w := eng.WorkerCount()
	if w <= 1 || total < engine.MinParallel {
		num, den := countRange(0, total)
		return num, den, nil
	}
	type counts struct{ num, den int64 }
	shards := engine.Split(total, w*4)
	parts, err := engine.Map(context.Background(), eng, len(shards),
		func(_ context.Context, si int) (counts, error) {
			num, den := countRange(shards[si][0], shards[si][1])
			return counts{num, den}, nil
		})
	if err != nil {
		return 0, 0, err
	}
	var num, den int64
	for _, p := range parts {
		num += p.num
		den += p.den
	}
	return num, den, nil
}

// Mu computes the asymptotic µ(Q|Σ, D, ā) = lim_k µᵏ exactly, by pattern
// enumeration. With nil Σ the result is 0 or 1 (Theorem 4.10); with
// constraints it is an arbitrary rational in [0,1] (Theorem 4.11). The
// convention µ = 0 applies when no valuation satisfies Σ.
func Mu(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple) (*big.Rat, error) {
	return MuWith(db, q, sigma, tuple, engine.Options{})
}

// patternEnum carries the fixed inputs of the Mu pattern enumeration so
// that independent subtrees can be counted by separate workers.
type patternEnum struct {
	db    *relation.Database
	q     algebra.Expr
	sigma constraint.Set
	tuple value.Tuple
	ids   []uint64
	rel   []value.Value
	fresh []value.Value
	// prep is one prepared plan shared by every branch worker, frozen over
	// the base database's null-free relations; each worker evaluates its
	// leaves through its own plan.Worlds.
	prep  *plan.Prepared
	trace *plan.Trace
}

// count enumerates the patterns extending v from position i with the given
// number of fresh classes already open, accumulating into numTop/denTop.
// Each null gets either a relevant constant or a fresh class in
// restricted-growth order (class b may be used at position i only if
// classes 0..b-1 appear before).
// w and buf are the worker's world evaluator and instantiation buffer for
// e.tuple (len(e.tuple)); the enumeration is exponential in the nulls, so
// leaf checks must not allocate.
func (e *patternEnum) count(w *plan.Worlds, v value.Valuation, buf value.Tuple, i, classes int, numTop, denTop []int64) {
	if i == len(e.ids) {
		if e.sigma != nil && !e.sigma.Holds(e.db.ApplyShared(v)) {
			return
		}
		denTop[classes]++
		w.Load(v)
		if w.Contains(v.ApplyInto(buf, e.tuple)) {
			numTop[classes]++
		}
		return
	}
	for j := range e.rel {
		v.Set(e.ids[i], e.rel[j])
		e.count(w, v, buf, i+1, classes, numTop, denTop)
	}
	for b := 0; b <= classes && b < len(e.fresh); b++ {
		v.Set(e.ids[i], e.fresh[b])
		next := classes
		if b == classes {
			next = classes + 1
		}
		e.count(w, v, buf, i+1, next, numTop, denTop)
	}
}

// worlds returns a fresh per-worker world evaluator.
func (e *patternEnum) worlds() *plan.Worlds { return e.prep.Worlds(e.db, e.trace) }

// MuWith is Mu with an explicit worker pool. The pattern tree is sharded on
// the first null's choice (each relevant constant, or the first fresh
// class); the per-branch polynomial coefficients are summed, so the result
// is independent of the worker count.
func MuWith(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, eng engine.Options) (*big.Rat, error) {
	return MuOpts(db, q, sigma, tuple, Options{Engine: eng})
}

// MuOpts is MuWith with full Options (worker pool and prepared-plan reuse
// across calls).
func MuOpts(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, opts Options) (*big.Rat, error) {
	eng := opts.Engine
	ids := db.NullIDs()
	if len(ids) > MaxNulls {
		return nil, fmt.Errorf("prob: %d nulls exceed MaxNulls=%d", len(ids), MaxNulls)
	}
	rel := relevantConsts(db, q, tuple)
	fresh := freshConsts(len(ids), rel)
	e := &patternEnum{db: db, q: q, sigma: sigma, tuple: tuple, ids: ids, rel: rel, fresh: fresh,
		prep: opts.Prep.Get(db, q, algebra.ModeNaive, false), trace: opts.Trace}

	// numTop[m] / denTop[m]: number of patterns with m fresh classes
	// satisfying Σ∧Q, resp. Σ.
	numTop := make([]int64, len(ids)+1)
	denTop := make([]int64, len(ids)+1)

	branches := len(rel) + 1 // first null's choices: each c ∈ R, or fresh class 0
	// Pattern count is bounded by the valuations into R ∪ fresh; below the
	// engine threshold the serial walk wins, like every other oracle here.
	bound := value.EnumSize(ids, append(append([]value.Value{}, rel...), fresh...))
	small := bound >= 0 && bound < engine.MinParallel
	if len(ids) == 0 || eng.WorkerCount() == 1 || branches == 1 || small {
		e.count(e.worlds(), value.NewValuation(), make(value.Tuple, len(tuple)), 0, 0, numTop, denTop)
	} else {
		type coeffs struct{ num, den []int64 }
		parts, err := engine.Map(context.Background(), eng, branches,
			func(_ context.Context, bi int) (coeffs, error) {
				w, v := e.worlds(), value.NewValuation()
				buf := make(value.Tuple, len(tuple))
				num := make([]int64, len(ids)+1)
				den := make([]int64, len(ids)+1)
				if bi < len(rel) {
					v.Set(ids[0], rel[bi])
					e.count(w, v, buf, 1, 0, num, den)
				} else {
					v.Set(ids[0], fresh[0])
					e.count(w, v, buf, 1, 1, num, den)
				}
				return coeffs{num, den}, nil
			})
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			for m := range numTop {
				numTop[m] += p.num[m]
				denTop[m] += p.den[m]
			}
		}
	}

	// Leading degree of the denominator polynomial.
	top := -1
	for m := len(ids); m >= 0; m-- {
		if denTop[m] > 0 {
			top = m
			break
		}
	}
	if top < 0 {
		return big.NewRat(0, 1), nil // Σ unsatisfiable over every k
	}
	return big.NewRat(numTop[top], denTop[top]), nil
}

// AlmostCertainlyTrue reports whether µ(Q, D, ā) = 1. By Theorem 4.10 this
// holds iff ā ∈ Qnaïve(D); the implementation goes through the pattern
// computation, and the equivalence with naive evaluation is verified by
// the test suite.
func AlmostCertainlyTrue(db *relation.Database, q algebra.Expr, tuple value.Tuple) (bool, error) {
	mu, err := Mu(db, q, nil, tuple)
	if err != nil {
		return false, err
	}
	return mu.Cmp(big.NewRat(1, 1)) == 0, nil
}

// SuppCount returns |Suppᵏ(Σ∧Q)| and |Suppᵏ(Σ)| for diagnostics: the raw
// counts behind µᵏ (with nil Σ the second count is all kⁿ valuations).
func SuppCount(db *relation.Database, q algebra.Expr, sigma constraint.Set, tuple value.Tuple, k int) (sat, total int, err error) {
	num, den, err := suppCounts(db, q, sigma, tuple, k, Options{})
	if err != nil {
		return 0, 0, err
	}
	return int(num), int(den), nil
}
