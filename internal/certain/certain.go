// Package certain computes the exact certainty notions of Section 3 of the
// paper for relational algebra queries under the closed-world semantics:
//
//   - cert⊥(Q, D), certain answers with nulls (Definition 3.9):
//     { t̄ | v(t̄) ∈ Q(v(D)) for every valuation v };
//   - cert∩(Q, D), intersection-based certain answers (Definition 3.7):
//     ⋂_{D' ∈ ⟦D⟧} Q(D');
//   - Boolean certainty and possibility;
//   - the bag-semantics multiplicity bounds □Q and ◇Q of Section 4.2
//     ((6a) and (6b)).
//
// All of these are computed by enumerating a finite valuation space. By
// genericity (Section 2) a query's behaviour depends only on the
// isomorphism type of the database over the constants mentioned in the
// query, so it suffices to range valuations over Const(D) ∪ consts(Q) ∪ F
// where F holds |Null(D)| + 1 fresh constants: any valuation is isomorphic,
// over the relevant constants, to one in this space, and the extra fresh
// constant refutes spurious fresh tuples in intersections. The enumeration is
// exponential in |Null(D)| — certain answers are coNP-hard (Theorem 3.12),
// so an exact oracle cannot do better — and is therefore guarded by
// Options.MaxWorlds. The package is the ground-truth oracle against which
// the tractable approximations of Section 4 are tested.
//
// Each valuation is evaluated independently of every other, so the oracle
// shards the valuation index space across an engine worker pool
// (Options.Workers) and merges the per-shard results in shard order; every
// merge below is arranged so that the parallel result is identical to the
// serial one.
package certain

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"incdb/internal/algebra"
	"incdb/internal/engine"
	"incdb/internal/plan"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// evaluator is one oracle invocation's prepared query: q compiled and
// prepared once, shared by all worker shards, with every null-free subplan
// (results and hash-join build tables) frozen across the whole valuation
// space. Each shard evaluates its worlds through its own plan.Worlds, which
// runs delta-linear plans on the substituted null rows only and
// instantiates the world for every other plan. With a prepared-plan cache
// in the options the freeze additionally survives *across* oracle
// invocations, guarded by the base relations' mutation versions — the
// REPL/server reuse path.
type evaluator struct {
	db   *relation.Database
	prep *plan.Prepared
	tr   *plan.Trace
}

func (o Options) prepare(db *relation.Database, q algebra.Expr, bag bool) evaluator {
	return evaluator{db: db, prep: o.Prep.Get(db, q, algebra.ModeNaive, bag), tr: o.Trace}
}

// base evaluates q on the base database itself (trivially one of its own
// worlds), sharing the frozen subplans with the world loops.
func (e evaluator) base() *relation.Relation { return e.prep.ExecTraced(e.db, e.tr) }

// worlds returns a fresh per-worker world evaluator.
func (e evaluator) worlds() *plan.Worlds { return e.prep.Worlds(e.db, e.tr) }

// Options bounds the exhaustive enumeration and configures parallelism.
type Options struct {
	// MaxWorlds caps the number of valuations enumerated; Compute returns
	// an error beyond it. Zero means DefaultMaxWorlds.
	MaxWorlds int
	// Workers is the number of goroutines sharding the valuation
	// enumeration: 0 means one per CPU, 1 forces the serial reference
	// path. Results are independent of the setting.
	Workers int
	// Trace, when non-nil, accumulates execution statistics across the
	// oracle's whole valuation loop: Execs counts worlds enumerated (plus
	// the candidate-producing base run), FrozenReuse counts frozen-subplan
	// serves. Shared by all worker shards; adds two atomic increments per
	// world. Results are identical with or without it.
	Trace *plan.Trace
	// Prep, when non-nil, supplies version-guarded prepared plans that
	// survive across oracle invocations: repeated queries against an
	// unchanged database skip re-materializing every frozen null-free
	// subplan. Results are identical with or without it.
	Prep *plan.PrepCache
	// Context, when non-nil, cancels the enumeration: every worker checks
	// it every pollInterval worlds, and a cancelled oracle returns
	// Context.Err(). Nil means context.Background().
	Context context.Context
}

// DefaultMaxWorlds bounds enumeration to about a million possible worlds.
const DefaultMaxWorlds = 1 << 20

func (o Options) maxWorlds() int {
	if o.MaxWorlds <= 0 {
		return DefaultMaxWorlds
	}
	return o.MaxWorlds
}

func (o Options) engine() engine.Options { return engine.Options{Workers: o.Workers} }

func (o Options) ctx() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}

// pollInterval is how many worlds a worker evaluates between cancellation
// checks.
const pollInterval = 64

// Space is the finite valuation space used by the oracle: the null
// identifiers of D and the candidate range.
type Space struct {
	ids   []uint64
	rng   []value.Value
	count int
}

// NewSpace builds the valuation space for db and query constants qconsts,
// quantifying over every null of the database.
func NewSpace(db *relation.Database, qconsts []value.Value, opts Options) (*Space, error) {
	return newSpace(db, db.NullIDs(), qconsts, opts)
}

// NewSpaceForQuery builds the valuation space restricted to the nulls the
// query can observe: those occurring in *columns the query reads*
// (algebra.UsedColumns). The set-semantics query result Q(v(D)) does not
// depend on the bindings of other nulls, so universal and existential
// conditions over valuations are unchanged — while the enumeration shrinks
// from |rng|^|Null(D)| to |rng|^|relevant|.
func NewSpaceForQuery(db *relation.Database, q algebra.Expr, opts Options) (*Space, error) {
	ids := relevantNulls(db, q)
	if ids == nil {
		return NewSpace(db, algebra.ConstsOf(q), opts)
	}
	return newSpace(db, ids, algebra.ConstsOf(q), opts)
}

// relevantNulls returns the sorted null ids in query-read columns, or nil
// when the query reads the whole active domain (Dom) and every null is
// relevant.
func relevantNulls(db *relation.Database, q algebra.Expr) []uint64 {
	if _, usesDom := algebra.RelationsOf(q); usesDom {
		return nil
	}
	used := algebra.UsedColumns(q, db)
	seen := map[uint64]bool{}
	ids := []uint64{}
	for name, mask := range used {
		rel := db.Relation(name)
		if rel == nil {
			continue
		}
		for _, t := range rel.Tuples() {
			for col, v := range t {
				if mask[col] && v.IsNull() && !seen[v.NullID()] {
					seen[v.NullID()] = true
					ids = append(ids, v.NullID())
				}
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// spaceForTuple builds the space for set-semantics tuple-level checks: the
// membership condition v(t̄) ∈ Q(v(D)) depends on the query-visible nulls
// plus any nulls and constants of t̄ itself.
func spaceForTuple(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (*Space, error) {
	ids := relevantNulls(db, q)
	if ids == nil {
		ids = db.NullIDs()
	}
	return tupleSpace(db, q, t, ids, opts)
}

// spaceForTupleBag is the bag-semantics variant: column-level pruning is
// unsound under bags (unused columns can collapse tuples and change
// multiplicities), so only whole relations the query never reads are
// pruned.
func spaceForTupleBag(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (*Space, error) {
	names, usesDom := algebra.RelationsOf(q)
	var ids []uint64
	if usesDom {
		ids = db.NullIDs()
	} else {
		seen := map[uint64]bool{}
		for _, name := range names {
			rel := db.Relation(name)
			if rel == nil {
				continue
			}
			for _, tp := range rel.Tuples() {
				for _, v := range tp {
					if v.IsNull() && !seen[v.NullID()] {
						seen[v.NullID()] = true
						ids = append(ids, v.NullID())
					}
				}
			}
		}
	}
	return tupleSpace(db, q, t, ids, opts)
}

func tupleSpace(db *relation.Database, q algebra.Expr, t value.Tuple, ids []uint64, opts Options) (*Space, error) {
	seen := map[uint64]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	ids = append([]uint64(nil), ids...)
	for id := range t.Nulls() {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	consts := algebra.ConstsOf(q)
	for _, v := range t {
		if v.IsConst() {
			consts = append(consts, v)
		}
	}
	return newSpace(db, ids, consts, opts)
}

func newSpace(db *relation.Database, ids []uint64, qconsts []value.Value, opts Options) (*Space, error) {
	if len(ids) == 0 {
		// No nulls to bind: the space is the single empty valuation, and
		// the candidate range is irrelevant — skip collecting Const(D),
		// which walks the whole database. This is the hot case for
		// complete databases and for queries whose read columns are
		// null-free (server workloads repeat those per session).
		return &Space{count: 1}, nil
	}
	rng := append([]value.Value(nil), db.Consts()...)
	have := map[value.Value]bool{}
	for _, c := range rng {
		have[c] = true
	}
	for _, c := range qconsts {
		if !have[c] {
			have[c] = true
			rng = append(rng, c)
		}
	}
	// |Null(D)| + 1 fresh constants: n of them make the enumeration
	// complete for cert⊥ membership of tuples over dom(D) (any valuation
	// uses at most n distinct values outside the mentioned constants), and
	// the extra one guarantees that every tuple mentioning a fresh constant
	// is refuted in cert∩ by a valuation avoiding it.
	for i := 0; i < len(ids)+1; i++ {
		// Fresh constants must avoid everything present; the prefix makes
		// collisions with user data implausible and the loop rules them out.
		base := "⁑fresh" + strconv.Itoa(i)
		c := value.Const(base)
		for n := 0; have[c]; n++ {
			c = value.Const(base + "_" + strconv.Itoa(n))
		}
		have[c] = true
		rng = append(rng, c)
	}
	count := 1
	for range ids {
		count *= len(rng)
		if count > opts.maxWorlds() || count < 0 {
			return nil, fmt.Errorf("certain: valuation space %d^%d exceeds MaxWorlds %d",
				len(rng), len(ids), opts.maxWorlds())
		}
	}
	if len(ids) == 0 {
		count = 1
	}
	return &Space{ids: ids, rng: rng, count: count}, nil
}

// Size returns the number of valuations in the space.
func (s *Space) Size() int { return s.count }

// Each enumerates every valuation in the space. Stop early by returning
// false from f. The Valuation passed to f is reused between calls; f must
// not retain it.
func (s *Space) Each(f func(v value.Valuation) bool) {
	s.EachRange(0, s.count, f)
}

// EachRange enumerates the valuations whose index lies in [lo, hi), in the
// same order Each visits them (the mixed-radix odometer with ids[0] most
// significant). Disjoint ranges can be enumerated concurrently: each call
// owns its iteration state and only reads the space.
func (s *Space) EachRange(lo, hi int, f func(v value.Valuation) bool) {
	value.EnumValuations(s.ids, s.rng, lo, hi, f)
}

// shards splits the index range [lo, Size()) for the pool, or returns nil
// when the serial path should be used (one worker, or a space too small to
// pay for fan-out).
func (s *Space) shards(eng engine.Options, lo int) [][2]int {
	w := eng.WorkerCount()
	if w <= 1 || s.count < engine.MinParallel {
		return nil
	}
	// Overshard for load balance: world costs vary with the valuation.
	parts := engine.Split(s.count-lo, w*4)
	for i := range parts {
		parts[i][0] += lo
		parts[i][1] += lo
	}
	return parts
}

// polled wraps a per-world callback with the cancellation check every
// pollInterval worlds; stop is raised when the context ended the loop.
func polled(ctx context.Context, stop *bool, f func(v value.Valuation) bool) func(v value.Valuation) bool {
	step := 0
	return func(v value.Valuation) bool {
		step++
		if step%pollInterval == 0 && engine.Canceled(ctx) {
			*stop = true
			return false
		}
		return f(v)
	}
}

// WithNulls computes cert⊥(Q, D) exactly. Candidates are drawn from the
// naive evaluation: instantiating Definition 3.9 with an injective
// valuation onto fresh constants shows cert⊥(Q, D) ⊆ Qnaïve(D), so nothing
// outside the naive answer can be certain.
func WithNulls(db *relation.Database, q algebra.Expr, opts Options) (*relation.Relation, error) {
	space, err := NewSpaceForQuery(db, q, opts)
	if err != nil {
		return nil, err
	}
	// The naive evaluation is the prepared plan run on the base itself, so
	// candidate collection shares the frozen null-free subplans with the
	// world loop below.
	ev := opts.prepare(db, q, false)
	candidates := ev.base().Tuples()
	alive, err := survivors(space, 0, candidates, opts, ev)
	if err != nil {
		return nil, err
	}
	arity := algebra.Arity(q, db)
	out := relation.NewArity("cert⊥", arity)
	for i, t := range candidates {
		if alive[i] {
			out.Add(t)
		}
	}
	return out, nil
}

// survivors reports, per candidate, whether v(t̄) is an answer in every
// world of the space whose index is at least lo. The parallel path shards
// the index range; each worker eliminates candidates independently and the
// shard results are AND-merged, which is order-insensitive and hence
// identical to the serial elimination.
func survivors(space *Space, lo int, candidates []value.Tuple, opts Options, ev evaluator) ([]bool, error) {
	alive := make([]bool, len(candidates))
	for i := range alive {
		alive[i] = true
	}
	if len(candidates) == 0 || lo >= space.Size() {
		return alive, nil
	}
	eliminate := func(ctx context.Context, lo, hi int, local []bool, allDead *engine.Flag) bool {
		w := ev.worlds()
		remaining := 0
		// check lists the candidates a world can still refute. A candidate
		// in the frozen part of the result (null-free, so every valuation
		// fixes it) is an answer in every world: it stays alive without a
		// per-world probe.
		var check []int
		for i, t := range candidates {
			if !local[i] {
				continue
			}
			remaining++
			if !w.Frozen(t) {
				check = append(check, i)
			}
		}
		// One probe buffer per worker: candidate instantiation reuses it
		// instead of allocating a tuple per candidate per world.
		buf := make(value.Tuple, len(candidates[0]))
		stopped := false
		space.EachRange(lo, hi, polled(ctx, &stopped, func(v value.Valuation) bool {
			if remaining == 0 || (allDead != nil && allDead.IsSet()) {
				return false
			}
			w.Load(v)
			kept := check[:0]
			for _, i := range check {
				if w.Contains(v.ApplyInto(buf, candidates[i])) {
					kept = append(kept, i)
				} else {
					local[i] = false
					remaining--
				}
			}
			check = kept
			return true
		}))
		if remaining == 0 && allDead != nil {
			// Nothing can come back to life: every worker may stop.
			allDead.Set()
		}
		return stopped
	}
	ctx := opts.ctx()
	shards := space.shards(opts.engine(), lo)
	if shards == nil {
		if eliminate(ctx, lo, space.Size(), alive, nil) {
			return nil, ctx.Err()
		}
		return alive, nil
	}
	var allDead engine.Flag
	results, err := engine.Map(ctx, opts.engine(), len(shards),
		func(ctx context.Context, si int) ([]bool, error) {
			local := make([]bool, len(candidates))
			for i := range local {
				local[i] = true
			}
			eliminate(ctx, shards[si][0], shards[si][1], local, &allDead)
			return local, nil
		})
	if err != nil {
		return nil, err
	}
	for _, local := range results {
		for i := range alive {
			alive[i] = alive[i] && local[i]
		}
	}
	return alive, nil
}

// Intersection computes cert∩(Q, D) = ⋂_{v} Q(v(D)) exactly. The result
// consists of constant tuples only (Section 3.2). The first world's answer
// bounds the intersection, so its tuples are the candidates, and every
// other world eliminates the ones it lacks through the same elimination
// loop WithNulls uses: a world's tuples carry no null the space binds, so
// probing v(t̄) probes t̄ itself. A shard that eliminates every candidate
// stops all others, since the intersection is then empty.
func Intersection(db *relation.Database, q algebra.Expr, opts Options) (*relation.Relation, error) {
	space, err := NewSpaceForQuery(db, q, opts)
	if err != nil {
		return nil, err
	}
	ev := opts.prepare(db, q, false)
	var first *relation.Relation
	space.EachRange(0, 1, func(v value.Valuation) bool {
		w := ev.worlds()
		w.Load(v)
		first = w.Result()
		return false
	})
	if first == nil || first.Len() == 0 {
		return relation.NewArity("cert∩", algebra.Arity(q, db)), nil
	}
	if space.Size() == 1 {
		return first.Rename("cert∩"), nil
	}
	candidates := first.Tuples()
	alive, err := survivors(space, 1, candidates, opts, ev)
	if err != nil {
		return nil, err
	}
	out := relation.NewArity("cert∩", algebra.Arity(q, db))
	for i, t := range candidates {
		if alive[i] {
			out.Add(t)
		}
	}
	return out, nil
}

// forallWorlds reports whether, in every world of the space, v(t̄) is an
// answer exactly when want is true — stopping, across all workers, at the
// first counterexample.
func forallWorlds(space *Space, opts Options, ev evaluator, t value.Tuple, want bool) (bool, error) {
	holdsRange := func(ctx context.Context, lo, hi int) (holds, stopped bool) {
		w := ev.worlds()
		buf := make(value.Tuple, len(t))
		holds = true
		space.EachRange(lo, hi, polled(ctx, &stopped, func(v value.Valuation) bool {
			w.Load(v)
			if w.Contains(v.ApplyInto(buf, t)) != want {
				holds = false
			}
			return holds
		}))
		return holds, stopped
	}
	ctx := opts.ctx()
	shards := space.shards(opts.engine(), 0)
	if shards == nil {
		holds, stopped := holdsRange(ctx, 0, space.Size())
		if stopped {
			return false, ctx.Err()
		}
		return holds, nil
	}
	refuted, err := engine.Search(ctx, opts.engine(), len(shards),
		func(ctx context.Context, si int) (bool, error) {
			holds, _ := holdsRange(ctx, shards[si][0], shards[si][1])
			return !holds, nil
		})
	if err != nil {
		return false, err
	}
	return !refuted, nil
}

// Bool computes certainty of a Boolean (zero-ary) query: true iff the
// query holds in every possible world of the space.
func Bool(db *relation.Database, q algebra.Expr, opts Options) (bool, error) {
	space, err := NewSpaceForQuery(db, q, opts)
	if err != nil {
		return false, err
	}
	// A Boolean query holds iff its result contains the empty tuple
	// (algebra.BooleanResult).
	return forallWorlds(space, opts, opts.prepare(db, q, false), value.Tuple{}, true)
}

// PossibleTuple reports whether some valuation makes t̄ an answer:
// ∃v. v(t̄) ∈ Q(v(D)).
func PossibleTuple(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (bool, error) {
	space, err := spaceForTuple(db, q, t, opts)
	if err != nil {
		return false, err
	}
	never, err := forallWorlds(space, opts, opts.prepare(db, q, false), t, false)
	if err != nil {
		return false, err
	}
	return !never, nil
}

// CertainTuple reports whether t̄ ∈ cert⊥(Q, D) without computing the whole
// answer set.
func CertainTuple(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (bool, error) {
	space, err := spaceForTuple(db, q, t, opts)
	if err != nil {
		return false, err
	}
	return forallWorlds(space, opts, opts.prepare(db, q, false), t, true)
}

// BoxMult computes □Q(D, ā) of (6a): the minimum multiplicity of v(ā) in
// the bag evaluation of Q over all valuations v.
func BoxMult(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (int, error) {
	return extremeMult(db, q, t, opts, true)
}

// DiamondMult computes ◇Q(D, ā) of (6b): the maximum multiplicity.
func DiamondMult(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options) (int, error) {
	return extremeMult(db, q, t, opts, false)
}

// shardBest carries one shard's extremum; seen distinguishes "no worlds
// contributed" (an early-stopped shard) from a genuine zero.
type shardBest struct {
	best int
	seen bool
}

func extremeMult(db *relation.Database, q algebra.Expr, t value.Tuple, opts Options, min bool) (int, error) {
	space, err := spaceForTupleBag(db, q, t, opts)
	if err != nil {
		return 0, err
	}
	ev := opts.prepare(db, q, true)
	scanRange := func(ctx context.Context, lo, hi int, zero *engine.Flag) (out shardBest, stopped bool) {
		w := ev.worlds()
		buf := make(value.Tuple, len(t))
		space.EachRange(lo, hi, polled(ctx, &stopped, func(v value.Valuation) bool {
			if zero != nil && zero.IsSet() {
				return false
			}
			w.Load(v)
			m := w.Mult(v.ApplyInto(buf, t))
			if !out.seen {
				out.best = m
				out.seen = true
			} else if (min && m < out.best) || (!min && m > out.best) {
				out.best = m
			}
			if min && out.best == 0 {
				// Early exit: a minimum of zero cannot improve.
				if zero != nil {
					zero.Set()
				}
				return false
			}
			return true
		}))
		return out, stopped
	}

	ctx := opts.ctx()
	shards := space.shards(opts.engine(), 0)
	if shards == nil {
		out, stopped := scanRange(ctx, 0, space.Size(), nil)
		if stopped {
			return 0, ctx.Err()
		}
		return out.best, nil
	}
	var zero engine.Flag
	parts, err := engine.Map(ctx, opts.engine(), len(shards),
		func(ctx context.Context, si int) (shardBest, error) {
			out, _ := scanRange(ctx, shards[si][0], shards[si][1], &zero)
			return out, nil
		})
	if err != nil {
		return 0, err
	}
	if min && zero.IsSet() {
		// Some shard witnessed multiplicity zero; shards interrupted by the
		// flag hold partial extrema, but zero is already the global minimum.
		return 0, nil
	}
	merged := shardBest{}
	for _, p := range parts {
		if !p.seen {
			continue
		}
		if !merged.seen {
			merged = p
		} else if (min && p.best < merged.best) || (!min && p.best > merged.best) {
			merged.best = p.best
		}
	}
	return merged.best, nil
}
