package plan

import (
	"time"

	"incdb/internal/algebra"
	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Delta world evaluation.
//
// A world differs from the base only in the rows that carry nulls: for
// every relation R, v(R) = N(R) ⊎ v(U(R)), where N(R) holds R's null-free
// rows and U(R) its null-bearing rows. A plan is delta-linear when every
// operator that is not frozen (static) distributes over that union:
//
//	Q(v(D)) = Q(N) ⊎ Q_Δ(v(U))
//
// Scans, filters, projections, unions and (under set semantics) distinct
// qualify outright; a join qualifies when at most one input is non-static,
// and — under set semantics only, where the decomposition is over
// supports — a difference whose right input is static, or an intersection
// with one static input. Conditions must be static too (an IN subplan over
// a null-bearing relation changes per world). Every other non-static
// operator (anti-unify, division, Dom, difference with a non-static right
// side, joins of two non-static inputs, bag difference/intersection) makes
// the plan fall back to full instantiation.
//
// For a delta-linear plan the root result F = Q(N) is frozen once per
// Prepared, and a world is evaluated by applying v to U's rows only and
// streaming them as one batch through the non-static operators. Answers
// are then F plus the small Δ: membership probes F's hash table and the
// Δ rows, multiplicities add.

// deltaState is the world-invariant half of the delta decomposition,
// computed once per Prepared on first use (prepared plans also serve
// direct sql/naive queries, which never enumerate worlds).
type deltaState struct {
	f *relation.Relation // F = Q(N), the frozen root result
	// u maps each relation a non-static scan reads to its null-bearing
	// stored rows (immutable; shared with the base relation).
	u map[string][]urow
	// ltables holds, per join node id, the build table over a static left
	// input whose right input is non-static: Δ right rows probe it.
	ltables []*joinTable
	// reuse counts the frozen structures one delta world consults (F plus
	// every static join table or set operand), for Trace.FrozenReuse.
	reuse int64
}

type urow struct {
	t value.Tuple
	m int
}

// deltaLinear decides, once per Prepared, whether the main plan takes the
// delta path: every node reachable from the root is either frozen or one
// of the qualifying operators over qualifying inputs.
func (prep *Prepared) deltaLinear() bool {
	p := prep.p
	fs := prep.frozen[p]
	staticReads := func(rs readSet) bool {
		if rs.dom {
			return false
		}
		for _, name := range rs.names {
			if rel := prep.base.Relation(name); rel == nil || rel.HasNulls() {
				return false
			}
		}
		return true
	}
	frozen := func(n pnode) bool { return fs.rels[n.base().id] != nil }
	var ok func(n pnode) bool
	ok = func(n pnode) bool {
		if frozen(n) {
			return true
		}
		switch n := n.(type) {
		case *pscan:
			return prep.base.Relation(n.name) != nil
		case *pfilter:
			return staticReads(condReads(n.conds)) && ok(n.in)
		case *pproject:
			return ok(n.in)
		case *punion:
			return ok(n.l) && ok(n.r)
		case *pdistinct:
			return !p.bag && ok(n.in)
		case *pjoin:
			if !staticReads(condReads(n.residual)) {
				return false
			}
			return (frozen(n.right) && ok(n.left)) || (frozen(n.left) && ok(n.right))
		case *pdiff:
			return !p.bag && frozen(n.r) && ok(n.l)
		case *pinter:
			return !p.bag && ((frozen(n.r) && ok(n.l)) || (frozen(n.l) && ok(n.r)))
		}
		return false
	}
	return ok(p.root)
}

// deltaInit computes the frozen root result and the per-relation
// null-bearing rows; it runs at most once per Prepared.
func (prep *Prepared) deltaInit() *deltaState {
	prep.deltaOnce.Do(func() {
		p := prep.p
		fs := prep.frozen[p]
		d := &deltaState{u: map[string][]urow{}, ltables: make([]*joinTable, len(p.nodes)), reuse: 1}
		x := &exec{db: prep.base, prep: prep, mode: p.mode, bag: p.bag, plan: p, nullFree: true}
		p.withBufs(x, func() { d.f = p.materializeRoot(x) })
		var walk func(n pnode)
		walk = func(n pnode) {
			if fs.rels[n.base().id] != nil {
				return
			}
			switch n := n.(type) {
			case *pscan:
				if _, done := d.u[n.name]; !done {
					rows := []urow{}
					prep.base.Relation(n.name).EachUnordered(func(t value.Tuple, m int) {
						if t.HasNull() {
							rows = append(rows, urow{t, m})
						}
					})
					d.u[n.name] = rows
				}
			case *pjoin:
				d.reuse++
				if l := fs.rels[n.left.base().id]; l != nil && fs.rels[n.right.base().id] == nil {
					tb := newJoinTable(n.lkeys, l.Len())
					l.EachUnordered(func(t value.Tuple, m int) { tb.add(t, m, p.mode) })
					d.ltables[n.base().id] = tb
				}
			case *pdiff, *pinter:
				d.reuse++
			}
			for _, c := range n.children() {
				walk(c)
			}
		}
		walk(p.root)
		prep.delta = d
	})
	return prep.delta
}

// Delta reports whether worlds of this prepared plan are evaluated on
// their substituted null rows only (the plan is delta-linear) rather than
// on a full instantiation of the database.
func (prep *Prepared) Delta() bool { return prep.deltaOK }

// Worlds evaluates worlds v(D) of a prepared plan's base, one at a time:
// Load evaluates a world, and Contains, Mult, Frozen and Result answer
// questions about its result until the next Load. Delta-linear plans
// evaluate each world on its substituted null rows only, reusing one
// arena, so a warm delta world allocates nothing; any other plan
// instantiates the world (relation.Database.ApplyShared) and executes the
// prepared plan on it. The choice is the plan's (Prepared.Delta), never
// the caller's.
//
// A Worlds is not safe for concurrent use: the oracles build one per
// worker shard over a shared, concurrency-safe Prepared.
type Worlds struct {
	prep *Prepared
	db   *relation.Database // the base the worlds derive from
	tr   *Trace

	// Full-instantiation path: the current world's result.
	res *relation.Relation

	// Delta path.
	d      *deltaState
	fs     *frozenSet // the main plan's freeze
	x      exec       // condition evaluation context (frozen IN subplans)
	v      value.Valuation
	out    []vbatch // per-node Δ output, indexed by node id
	empty  vbatch
	root   *vbatch
	arena  []value.Value
	slots  []int32 // open-addressing index over root Δ rows (large Δ only)
	hashed bool
}

// smallDelta is the root Δ size up to which membership scans the rows;
// larger deltas are hashed once per world on first lookup.
const smallDelta = 8

// Worlds returns a world evaluator over db, which must be the
// prepared base or present the same relations (Prepared.ValidFor). tr, when
// non-nil, counts one execution per Load and the frozen structures each
// world reuses; per-node statistics accumulate under a detail trace.
func (prep *Prepared) Worlds(db *relation.Database, tr *Trace) *Worlds {
	w := &Worlds{prep: prep, db: db, tr: tr}
	if !prep.deltaOK {
		return w
	}
	p := prep.p
	w.d = prep.deltaInit()
	w.fs = prep.frozen[p]
	w.x = exec{db: db, prep: prep, mode: p.mode, bag: p.bag, plan: p, trace: tr}
	if tr != nil && tr.detail {
		w.x.tstats = tr.planStats(p)
	}
	w.out = make([]vbatch, len(p.nodes))
	return w
}

// Load evaluates the world v(D). v is only read during the call.
func (w *Worlds) Load(v value.Valuation) {
	if w.d == nil {
		w.res = w.prep.p.exec(w.db.ApplyShared(v), w.prep, w.tr)
		return
	}
	if w.tr != nil {
		w.tr.Execs.Add(1)
		w.tr.FrozenReuse.Add(w.d.reuse)
	}
	w.v = v
	w.arena = w.arena[:0]
	w.hashed = false
	w.root = w.delta(w.prep.p.root)
	w.v = nil
}

// Contains reports whether t is in the current world's result.
func (w *Worlds) Contains(t value.Tuple) bool {
	if w.d == nil {
		return w.res.Contains(t)
	}
	return w.d.f.Contains(t) || w.deltaMult(t, true) > 0
}

// Mult returns t's multiplicity in the current world's result (0 or 1
// under set semantics).
func (w *Worlds) Mult(t value.Tuple) int {
	if w.d == nil {
		return w.res.Mult(t)
	}
	if !w.prep.p.bag {
		if w.Contains(t) {
			return 1
		}
		return 0
	}
	return w.d.f.Mult(t) + w.deltaMult(t, false)
}

// Result materializes the current world's result as a fresh relation,
// named and normalized exactly as Prepared.Exec on the instantiated world
// would produce it.
func (w *Worlds) Result() *relation.Relation {
	if w.d == nil {
		return w.res
	}
	out := w.d.f.Clone()
	out.AddBatch(w.root.rows, w.root.mults)
	if !w.prep.p.bag {
		out.Normalize()
	}
	return out
}

// Frozen reports whether t belongs to the frozen part F = Q(N) of every
// world's result. F is computed from null-free rows only, so such a t is
// null-free and an answer in every world. On the full-instantiation path
// Frozen is always false.
func (w *Worlds) Frozen(t value.Tuple) bool {
	return w.d != nil && w.d.f.Contains(t)
}

// deltaMult sums the multiplicities of the root Δ rows equal to t, stopping
// at the first match when any is true.
func (w *Worlds) deltaMult(t value.Tuple, any bool) int {
	rows, mults := w.root.rows, w.root.mults
	if len(rows) <= smallDelta {
		m := 0
		for i, r := range rows {
			if r.Equal(t) {
				if any {
					return 1
				}
				m += mults[i]
			}
		}
		return m
	}
	if !w.hashed {
		w.index()
	}
	mask := uint64(len(w.slots) - 1)
	m := 0
	for s := t.Hash() & mask; w.slots[s] >= 0; s = (s + 1) & mask {
		if i := w.slots[s]; rows[i].Equal(t) {
			if any {
				return 1
			}
			m += mults[i]
		}
	}
	return m
}

// index builds the open-addressing index over the root Δ rows, reusing the
// slot array across worlds.
func (w *Worlds) index() {
	n := 2 * smallDelta
	for n < 2*len(w.root.rows) {
		n *= 2
	}
	if cap(w.slots) < n {
		w.slots = make([]int32, n)
	}
	w.slots = w.slots[:n]
	for i := range w.slots {
		w.slots[i] = -1
	}
	mask := uint64(n - 1)
	for i, r := range w.root.rows {
		s := r.Hash() & mask
		for w.slots[s] >= 0 {
			s = (s + 1) & mask
		}
		w.slots[s] = int32(i)
	}
	w.hashed = true
}

// alloc carves an n-wide tuple out of the world's arena. Growing the arena
// leaves earlier tuples on the old backing array, which stays reachable
// through them until the world ends; the next world reuses the larger one.
func (w *Worlds) alloc(n int) value.Tuple {
	l := len(w.arena)
	if cap(w.arena)-l < n {
		w.arena = make([]value.Value, 0, 2*cap(w.arena)+n+4*BatchRows)
		l = 0
	}
	w.arena = w.arena[:l+n]
	return value.Tuple(w.arena[l : l+n : l+n])
}

func (w *Worlds) multOf(m int) int {
	if w.prep.p.bag {
		return m
	}
	return 1
}

// delta returns node n's Δ output for the current world: nothing for a
// frozen node, the substituted null rows for a scan, and for every other
// qualifying operator its own output over its inputs' Δ (frozen operands
// answered from the freeze). Node outputs are reused across worlds.
func (w *Worlds) delta(n pnode) *vbatch {
	fs := w.fs
	id := n.base().id
	if fs.rels[id] != nil {
		return &w.empty
	}
	var start time.Time
	if w.x.tstats != nil {
		start = time.Now()
	}
	o := &w.out[id]
	o.rows, o.mults = o.rows[:0], o.mults[:0]
	push := func(t value.Tuple, m int) {
		o.rows = append(o.rows, t)
		o.mults = append(o.mults, m)
	}
	switch n := n.(type) {
	case *pscan:
		for _, u := range w.d.u[n.name] {
			if n.cols == nil {
				t := w.alloc(len(u.t))
				w.v.ApplyInto(t, u.t)
				push(t, w.multOf(u.m))
				continue
			}
			t := w.alloc(len(n.cols))
			for i, c := range n.cols {
				t[i] = w.v.ApplyValue(u.t[c])
			}
			push(t, w.multOf(u.m))
		}
	case *pfilter:
		in := w.delta(n.in)
	rows:
		for i, t := range in.rows {
			for _, c := range n.conds {
				if c.eval(&w.x, t) != logic.T {
					continue rows
				}
			}
			push(t, in.mults[i])
		}
	case *pproject:
		in := w.delta(n.in)
		for i, t := range in.rows {
			nt := w.alloc(len(n.cols))
			for j, c := range n.cols {
				nt[j] = t[c]
			}
			push(nt, in.mults[i])
		}
	case *punion:
		for _, c := range [2]pnode{n.l, n.r} {
			in := w.delta(c)
			for i, t := range in.rows {
				push(t, in.mults[i])
			}
		}
	case *pdistinct:
		// Set semantics only: consumers probe membership, so Δ rows pass.
		in := w.delta(n.in)
		for i, t := range in.rows {
			push(t, in.mults[i])
		}
	case *pjoin:
		w.deltaJoin(n, push)
	case *pdiff:
		r := fs.rels[n.r.base().id]
		in := w.delta(n.l)
		for _, t := range in.rows {
			if !r.Contains(t) {
				push(t, 1)
			}
		}
	case *pinter:
		static, dyn := fs.rels[n.r.base().id], n.l
		if static == nil {
			static, dyn = fs.rels[n.l.base().id], n.r
		}
		in := w.delta(dyn)
		for _, t := range in.rows {
			if static.Contains(t) {
				push(t, 1)
			}
		}
	default:
		panic("plan: delta evaluation of a non-delta-linear operator " + n.describe())
	}
	if w.x.tstats != nil {
		st := w.x.tstats[id]
		if len(o.rows) > 0 {
			st.Batches.Add(1)
			st.Rows.Add(int64(len(o.rows)))
		}
		st.WallNs.Add(time.Since(start).Nanoseconds())
	}
	return o
}

// deltaJoin streams the non-static input's Δ rows through the join against
// the frozen build table of the static side: the plan's own table when the
// right input is static, the delta state's left table otherwise.
func (w *Worlds) deltaJoin(n *pjoin, push func(value.Tuple, int)) {
	sqlMode := w.prep.p.mode == algebra.ModeSQL
	if table := w.fs.tables[n.base().id]; table != nil {
		in := w.delta(n.left)
	left:
		for i, lt := range in.rows {
			if sqlMode {
				for _, k := range n.lkeys {
					if lt[k].IsNull() {
						continue left
					}
				}
			}
			lm := in.mults[i]
			table.probe(lt, n.lkeys, func(rt value.Tuple, rm int) {
				if t, ok := w.joined(n, lt, rt); ok {
					push(t, lm*rm)
				}
			})
		}
		return
	}
	table := w.d.ltables[n.base().id]
	in := w.delta(n.right)
right:
	for i, rt := range in.rows {
		if sqlMode {
			for _, k := range n.rkeys {
				if rt[k].IsNull() {
					continue right
				}
			}
		}
		rm := in.mults[i]
		table.probe(rt, n.rkeys, func(lt value.Tuple, lm int) {
			if t, ok := w.joined(n, lt, rt); ok {
				push(t, lm*rm)
			}
		})
	}
}

// joined builds the join's output row for one matching pair, or reports
// that a residual condition rejected it — the per-pair logic of pjoin.run.
func (w *Worlds) joined(n *pjoin, lt, rt value.Tuple) (value.Tuple, bool) {
	lw := len(lt)
	full := lw + len(rt)
	if n.outCols == nil || n.residual != nil {
		t := w.alloc(full)
		copy(t, lt)
		copy(t[lw:], rt)
		for _, c := range n.residual {
			if c.eval(&w.x, t) != logic.T {
				w.arena = w.arena[:len(w.arena)-full]
				return nil, false
			}
		}
		if n.outCols == nil {
			return t, true
		}
		w.arena = w.arena[:len(w.arena)-full]
	}
	t := w.alloc(len(n.outCols))
	for j, cc := range n.outCols {
		if cc < lw {
			t[j] = lt[cc]
		} else {
			t[j] = rt[cc-lw]
		}
	}
	return t, true
}
