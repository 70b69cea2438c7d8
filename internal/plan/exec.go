package plan

import (
	"incdb/internal/algebra"
	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// exec carries per-execution state: the target database, the optional
// Prepared freeze, the per-node batch buffers (batch.go), and the memo of
// uncorrelated IN-subquery results (one evaluation each per execution,
// shared across nesting levels like the interpreter's env caches).
type exec struct {
	db   *relation.Database
	prep *Prepared
	mode algebra.Mode
	bag  bool
	plan *Plan // plan currently executing (main plan or an IN subplan)
	bufs []outBuf

	// trace, when set, receives execution statistics (trace.go); tstats is
	// the per-node slot slice for x.plan, non-nil only under detail tracing.
	trace  *Trace
	tstats []*NodeStat

	// nullFree makes every scan skip rows with nulls: the execution
	// evaluates the plan over N(D), the null-free part of the database
	// (the frozen root result of delta world evaluation, world.go).
	nullFree bool

	// memo holds the per-execution IN-subquery results, shared by every
	// nesting level; allocated on first use (frozen subplans never need it).
	memo *subMemo
	// probe is the reusable IN-probe tuple (cond.go).
	probe value.Tuple
}

// Exec evaluates the plan against db with no cross-world freezing and
// returns the result relation (normalized under set semantics, exact
// multiplicities under bag semantics). Safe for concurrent use: the plan is
// immutable and all execution state lives here.
func (p *Plan) Exec(db *relation.Database) *relation.Relation {
	return p.exec(db, nil, nil)
}

// ExecTraced is Exec accumulating execution statistics into tr (which may
// be shared across concurrent executions — all Trace fields are atomics).
func (p *Plan) ExecTraced(db *relation.Database, tr *Trace) *relation.Relation {
	return p.exec(db, nil, tr)
}

func (p *Plan) exec(db *relation.Database, prep *Prepared, tr *Trace) *relation.Relation {
	x := &exec{db: db, prep: prep, mode: p.mode, bag: p.bag, plan: p, trace: tr}
	if tr != nil {
		tr.Execs.Add(1)
		if tr.detail {
			x.tstats = tr.planStats(p)
		}
	}
	var out *relation.Relation
	p.withBufs(x, func() { out = p.materializeRoot(x) })
	return out
}

// subMemo memoizes uncorrelated IN-subquery results within one execution.
type subMemo struct {
	rels   map[*Plan]*relation.Relation
	splits map[*Plan]*nullSplit
}

func (x *exec) subs() *subMemo {
	if x.memo == nil {
		x.memo = &subMemo{rels: map[*Plan]*relation.Relation{}, splits: map[*Plan]*nullSplit{}}
	}
	return x.memo
}

func (p *Plan) materializeRoot(x *exec) *relation.Relation {
	var out *relation.Relation
	if p.outIsRel {
		if src := x.db.Relation(p.outName); src != nil {
			out = relation.New(p.outName, src.Attrs()...)
		}
	}
	if out == nil {
		out = relation.NewArity(p.outName, p.arity)
	}
	stream(p.root, x, relSink(out))
	if !p.bag {
		out.Normalize()
	}
	return out
}

// stream is the dispatcher every operator goes through: a node whose result
// was frozen by Prepare short-circuits to the cached relation, replayed in
// batches through the node's own buffer.
func stream(n pnode, x *exec, emit func(*vbatch)) {
	if x.tstats != nil {
		streamTraced(n, x, emit)
		return
	}
	if r := x.frozenRel(n); r != nil {
		o := x.out(n)
		r.EachUnordered(func(t value.Tuple, m int) {
			o.push(t, m, emit)
		})
		o.flush(emit)
		return
	}
	n.run(x, emit)
}

func (x *exec) frozenRel(n pnode) *relation.Relation {
	if x.prep == nil {
		return nil
	}
	if fs := x.prep.frozen[x.plan]; fs != nil {
		if r := fs.rels[n.base().id]; r != nil {
			x.frozenHit()
			return r
		}
	}
	return nil
}

// frozenHit records one frozen-subplan reuse on the attached trace.
func (x *exec) frozenHit() {
	if x.trace != nil {
		x.trace.FrozenReuse.Add(1)
	}
}

// matRel materializes a node into a consolidated relation (exact
// multiplicities under bag semantics). Frozen nodes and full-width
// base-relation scans are returned without copying: all consumers are
// read-only. A narrowed scan cannot share the base relation — its output
// tuples are a column subset — so it materializes like any other node.
func matRel(n pnode, x *exec) *relation.Relation {
	if r := x.frozenRel(n); r != nil {
		return r
	}
	if s, ok := n.(*pscan); ok && s.cols == nil && x.tstats == nil && !x.nullFree {
		// Shared-source shortcut, skipped under detail tracing so the scan's
		// actual rows are counted (materializing preserves the result).
		return x.source(s.name)
	}
	out := relation.NewArity("t", n.base().width)
	if x.tstats != nil {
		streamTraced(n, x, relSink(out))
	} else {
		n.run(x, relSink(out))
	}
	return out
}

func (x *exec) source(name string) *relation.Relation {
	r := x.db.Relation(name)
	if r == nil {
		panic("plan: unknown relation " + name)
	}
	return r
}

// subRel returns the (set-semantics) result of an IN subplan, frozen,
// memoized per execution, or computed on the spot.
func (x *exec) subRel(sub *Plan) *relation.Relation {
	if x.prep != nil {
		if r := x.prep.subRels[sub]; r != nil {
			x.frozenHit()
			return r
		}
	}
	memo := x.subs()
	if r := memo.rels[sub]; r != nil {
		return r
	}
	sx := &exec{db: x.db, prep: x.prep, mode: sub.mode, bag: false, plan: sub,
		trace: x.trace, memo: memo}
	if x.trace != nil && x.trace.detail {
		sx.tstats = x.trace.planStats(sub)
	}
	var r *relation.Relation
	sub.withBufs(sx, func() { r = sub.materializeRoot(sx) })
	memo.rels[sub] = r
	return r
}

// nullSplit partitions a relation for three-valued probes: the null-free
// part answered by one hash lookup and the rows with nulls, the only rows
// that can contribute unknown (shared by the IN probe and the ⋉⇑ scan).
type nullSplit struct {
	nullFree  *relation.Relation
	withNulls []value.Tuple
}

func splitNulls(r *relation.Relation) *nullSplit {
	s := &nullSplit{nullFree: relation.NewArity("nf", r.Arity())}
	r.EachUnordered(func(t value.Tuple, _ int) {
		if t.HasNull() {
			s.withNulls = append(s.withNulls, t)
		} else {
			s.nullFree.Add(t)
		}
	})
	return s
}

func (x *exec) subSplit(sub *Plan) *nullSplit {
	if x.prep != nil {
		if s := x.prep.subSplits[sub]; s != nil {
			x.frozenHit()
			return s
		}
	}
	memo := x.subs()
	if s := memo.splits[sub]; s != nil {
		return s
	}
	s := splitNulls(x.subRel(sub))
	memo.splits[sub] = s
	return s
}

func (x *exec) multOf(m int) int {
	if x.bag {
		return m
	}
	return 1
}

// Operator implementations. Multiplicity discipline: under bag semantics
// every emission carries exact bag arithmetic; under set semantics
// emissions may repeat tuples (set-insensitive consumers only probe
// membership) and the root materialization normalizes once at the end.
// Every operator flows batches (batch.go): rows accumulate in the node's
// output buffer and flush to the consumer at BatchRows, amortizing the
// per-row closure dispatch of the old tuple-at-a-time protocol.

func (n *pscan) run(x *exec, emit func(*vbatch)) {
	src := x.source(n.name)
	o := x.out(n)
	if n.cols == nil {
		// Full-width scan: stored tuples stream through by reference.
		src.EachUnordered(func(t value.Tuple, m int) {
			if x.nullFree && t.HasNull() {
				return
			}
			o.push(t, x.multOf(m), emit)
		})
	} else {
		// Pruned scan: emit narrowed tuples carved from the arena slab.
		w := len(n.cols)
		src.EachUnordered(func(t value.Tuple, m int) {
			if x.nullFree && t.HasNull() {
				return
			}
			nt := o.alloc(w)
			for i, c := range n.cols {
				nt[i] = t[c]
			}
			o.push(nt, x.multOf(m), emit)
		})
	}
	o.flush(emit)
}

func (n *pfilter) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	stream(n.in, x, func(b *vbatch) {
	rows:
		for i, t := range b.rows {
			for _, c := range n.conds {
				if c.eval(x, t) != logic.T {
					continue rows
				}
			}
			o.push(t, b.mults[i], emit)
		}
	})
	o.flush(emit)
}

func (n *pproject) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	w := len(n.cols)
	stream(n.in, x, func(b *vbatch) {
		for i, t := range b.rows {
			nt := o.alloc(w)
			for j, c := range n.cols {
				nt[j] = t[c]
			}
			o.push(nt, b.mults[i], emit)
		}
	})
	o.flush(emit)
}

func (n *pjoin) run(x *exec, emit func(*vbatch)) {
	var table *joinTable
	if x.prep != nil {
		if fs := x.prep.frozen[x.plan]; fs != nil {
			if table = fs.tables[n.base().id]; table != nil {
				x.frozenHit()
			}
		}
	}
	if table == nil {
		table = newJoinTable(n.rkeys, int(n.right.base().est))
		stream(n.right, x, func(b *vbatch) {
			for i, t := range b.rows {
				table.add(t, b.mults[i], x.mode)
			}
		})
	}
	sqlMode := x.mode == algebra.ModeSQL
	o := x.out(n)
	lw := n.left.base().width
	full := lw + n.right.base().width
	stream(n.left, x, func(b *vbatch) {
	left:
		for i, lt := range b.rows {
			if sqlMode {
				for _, k := range n.lkeys {
					if lt[k].IsNull() {
						continue left // the key equality can never be t
					}
				}
			}
			lm := b.mults[i]
			table.probe(lt, n.lkeys, func(rt value.Tuple, rm int) {
				if n.outCols == nil {
					joined := o.alloc(full)
					copy(joined, lt)
					copy(joined[lw:], rt)
					for _, c := range n.residual {
						if c.eval(x, joined) != logic.T {
							o.unalloc(full) // never emitted: reclaim the row
							return
						}
					}
					o.push(joined, lm*rm, emit)
					return
				}
				// Folded projection: the residual (if any) still sees the
				// full concatenation via the reusable scratch tuple; emitted
				// rows carry only the projected columns.
				if n.residual != nil {
					if cap(o.scratch) < full {
						o.scratch = make(value.Tuple, full)
					}
					s := o.scratch[:full]
					copy(s, lt)
					copy(s[lw:], rt)
					for _, c := range n.residual {
						if c.eval(x, s) != logic.T {
							return
						}
					}
				}
				outT := o.alloc(len(n.outCols))
				for j, cc := range n.outCols {
					if cc < lw {
						outT[j] = lt[cc]
					} else {
						outT[j] = rt[cc-lw]
					}
				}
				o.push(outT, lm*rm, emit)
			})
		}
	})
	o.flush(emit)
}

func (n *punion) run(x *exec, emit func(*vbatch)) {
	// Child batches forward zero-copy: a union adds no per-row work.
	stream(n.l, x, emit)
	stream(n.r, x, emit)
}

func (n *pdiff) run(x *exec, emit func(*vbatch)) {
	l, r := matRel(n.l, x), matRel(n.r, x)
	o := x.out(n)
	if x.bag {
		l.EachUnordered(func(t value.Tuple, m int) {
			if rest := m - r.Mult(t); rest > 0 {
				o.push(t, rest, emit)
			}
		})
	} else {
		l.EachUnordered(func(t value.Tuple, _ int) {
			if !r.Contains(t) {
				o.push(t, 1, emit)
			}
		})
	}
	o.flush(emit)
}

func (n *pinter) run(x *exec, emit func(*vbatch)) {
	l, r := matRel(n.l, x), matRel(n.r, x)
	o := x.out(n)
	l.EachUnordered(func(t value.Tuple, m int) {
		rm := r.Mult(t)
		if rm == 0 {
			return
		}
		if x.bag {
			if rm < m {
				m = rm
			}
			o.push(t, m, emit)
		} else {
			o.push(t, 1, emit)
		}
	})
	o.flush(emit)
}

func (n *pdivide) run(x *exec, emit func(*vbatch)) {
	l, r := matRel(n.l, x), matRel(n.r, x)
	w := n.base().width
	o := x.out(n)
	cands := relation.NewArity("c", w)
	l.EachUnordered(func(t value.Tuple, _ int) { cands.Add(t[:w].Clone()) })
	if r.Len() == 0 {
		// ∀ over an empty set: every deduplicated projection of L
		// qualifies (division divides the underlying sets).
		cands.EachUnordered(func(a value.Tuple, _ int) { o.push(a, 1, emit) })
		o.flush(emit)
		return
	}
	cands.EachUnordered(func(a value.Tuple, _ int) {
		ok := true
		r.EachUnordered(func(b value.Tuple, _ int) {
			if ok && !l.Contains(a.Concat(b)) {
				ok = false
			}
		})
		if ok {
			o.push(a, 1, emit)
		}
	})
	o.flush(emit)
}

func (n *pantiunify) run(x *exec, emit func(*vbatch)) {
	var split *nullSplit
	if x.prep != nil {
		if fs := x.prep.frozen[x.plan]; fs != nil {
			if split = fs.au[n.base().id]; split != nil {
				x.frozenHit()
			}
		}
	}
	if split == nil {
		split = splitNulls(matRel(n.r, x))
	}
	l := matRel(n.l, x)
	o := x.out(n)
	l.EachUnordered(func(t value.Tuple, m int) {
		if t.HasNull() {
			// Rare path: scan everything.
			blocked := false
			split.nullFree.EachUnordered(func(s value.Tuple, _ int) {
				if !blocked && value.Unifiable(t, s) {
					blocked = true
				}
			})
			if blocked {
				return
			}
		} else if split.nullFree.Contains(t) {
			return
		}
		for _, s := range split.withNulls {
			if value.Unifiable(t, s) {
				return
			}
		}
		o.push(t, x.multOf(m), emit)
	})
	o.flush(emit)
}

func (n *pdistinct) run(x *exec, emit func(*vbatch)) {
	var seen value.TupleMap[struct{}]
	o := x.out(n)
	stream(n.in, x, func(b *vbatch) {
		for _, t := range b.rows {
			if seen.Has(t) {
				continue
			}
			seen.Put(t, struct{}{})
			o.push(t, 1, emit)
		}
	})
	o.flush(emit)
}

func (n *pdom) run(x *exec, emit func(*vbatch)) {
	o := x.out(n)
	if n.k == 0 {
		o.push(value.Tuple{}, 1, emit)
		o.flush(emit)
		return
	}
	adom := x.db.ActiveDomain()
	tuple := make(value.Tuple, n.k)
	var rec func(i int)
	rec = func(i int) {
		if i == n.k {
			nt := o.alloc(n.k)
			copy(nt, tuple)
			o.push(nt, 1, emit)
			return
		}
		for _, v := range adom {
			tuple[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	o.flush(emit)
}

// joinTable is the multi-key hash table of one join step: rows bucketed by
// the combined hash of their key columns, with componentwise equality
// confirming matches. With no keys it is a plain row list (cross product).
type joinTable struct {
	rkeys []int
	keyed map[uint64][]jrow
	rows  []jrow
}

type jrow struct {
	t value.Tuple
	m int
}

// newJoinTable builds an empty table; sizeHint (estimated build rows, 0 when
// unknown) presizes the bucket map so inserts skip incremental growth.
func newJoinTable(rkeys []int, sizeHint int) *joinTable {
	t := &joinTable{rkeys: rkeys}
	if len(rkeys) > 0 {
		if sizeHint < 0 || sizeHint > 1<<20 {
			sizeHint = 0
		}
		t.keyed = make(map[uint64][]jrow, sizeHint)
	}
	return t
}

func (tb *joinTable) add(t value.Tuple, m int, mode algebra.Mode) {
	if len(tb.rkeys) == 0 {
		tb.rows = append(tb.rows, jrow{t: t, m: m})
		return
	}
	if mode == algebra.ModeSQL {
		for _, k := range tb.rkeys {
			if t[k].IsNull() {
				return // can never satisfy the key equalities with t
			}
		}
	}
	h := hashCols(t, tb.rkeys)
	tb.keyed[h] = append(tb.keyed[h], jrow{t: t, m: m})
}

// probe calls f on every stored row whose key columns equal lt's at lkeys
// (componentwise, in key order).
func (tb *joinTable) probe(lt value.Tuple, lkeys []int, f func(rt value.Tuple, rm int)) {
	if len(tb.rkeys) == 0 {
		for _, e := range tb.rows {
			f(e.t, e.m)
		}
		return
	}
	h := hashCols(lt, lkeys)
next:
	for _, e := range tb.keyed[h] {
		for i, lk := range lkeys {
			if lt[lk] != e.t[tb.rkeys[i]] {
				continue next
			}
		}
		f(e.t, e.m)
	}
}

func hashCols(t value.Tuple, cols []int) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = (h ^ t[c].Hash()) * 1099511628211
	}
	return h
}
