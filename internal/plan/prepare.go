package plan

import (
	"sync"

	"incdb/internal/algebra"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Prepared binds a plan to a base incomplete database for repeated
// execution over the worlds derived from it: every maximal subplan that
// reads only null-free relations is materialized once — results, join build
// tables, IN-subquery splits, anti-unify splits — because a valuation can
// only change rows that mention nulls, so those subplans evaluate
// identically in every v(D). Exec then re-probes only the hash tables whose
// inputs actually contain relevant nulls.
//
// The freeze is computed eagerly here, so a Prepared is safe for concurrent
// Exec calls (the oracle worker pools share one Prepared across shards).
// Exec must only be given the base database itself or worlds derived from
// it by applying valuations (relation.Database.Apply): those leave the
// null-free relations' contents untouched, which is what makes the frozen
// results valid.
type Prepared struct {
	p    *Plan
	base *relation.Database

	frozen    map[*Plan]*frozenSet
	subRels   map[*Plan]*relation.Relation
	subSplits map[*Plan]*nullSplit

	// guards record, per relation the plan reads, the relation object and
	// its mutation version at Prepare time; ValidFor re-checks them so a
	// Prepared can outlive a single oracle invocation (REPL/server
	// workloads) and be dropped exactly when a touched relation changes.
	// A plan reading the active domain (Dom) depends on every relation of
	// the base, so domAll extends the guard to the whole catalogue.
	guards []relGuard
	domAll bool

	// deltaOK records whether worlds take the delta path (world.go);
	// delta is its world-invariant state, built on first use.
	deltaOK   bool
	deltaOnce sync.Once
	delta     *deltaState
}

// relGuard pins one base relation: same object, same mutation version.
type relGuard struct {
	name    string
	rel     *relation.Relation
	version uint64
}

// captureGuards records the version guard for the plan's read set.
func (prep *Prepared) captureGuards() {
	rs := prep.p.root.base().reads
	names := rs.names
	if rs.dom {
		prep.domAll = true
		names = prep.base.Names()
	}
	prep.guards = make([]relGuard, 0, len(names))
	for _, name := range names {
		g := relGuard{name: name, rel: prep.base.Relation(name)}
		if g.rel != nil {
			g.version = g.rel.Version()
		}
		prep.guards = append(prep.guards, g)
	}
}

// ValidFor reports whether the prepared state is still valid when executing
// against db (or worlds derived from it): db must present, for every
// relation the plan reads, the same relation object at the same mutation
// version as when Prepare ran. A plan reading Dom additionally requires the
// catalogue itself to be unchanged, since any new relation extends the
// active domain.
func (prep *Prepared) ValidFor(db *relation.Database) bool {
	if prep.domAll && len(db.Names()) != len(prep.guards) {
		return false
	}
	for _, g := range prep.guards {
		r := db.Relation(g.name)
		if r != g.rel {
			return false
		}
		if r != nil && r.Version() != g.version {
			return false
		}
	}
	return true
}

// Base returns the database the plan was prepared against.
func (prep *Prepared) Base() *relation.Database { return prep.base }

// frozenSet holds one plan's per-node freezes, indexed by node id.
type frozenSet struct {
	rels   []*relation.Relation
	tables []*joinTable
	au     []*nullSplit
}

// Prepare computes the freeze of p against base.
func (p *Plan) Prepare(base *relation.Database) *Prepared {
	prep := &Prepared{p: p, base: base,
		frozen:    map[*Plan]*frozenSet{},
		subRels:   map[*Plan]*relation.Relation{},
		subSplits: map[*Plan]*nullSplit{},
	}
	prep.captureGuards()
	// Freeze subplans innermost-first (they are appended outermost-first
	// during compilation), so outer freezes reuse inner ones. A static
	// subquery root was already materialized by freezeNodes; reuse it.
	for i := len(p.subs) - 1; i >= 0; i-- {
		sub := p.subs[i]
		prep.freezeNodes(sub)
		if r := prep.frozen[sub].rels[sub.root.base().id]; r != nil {
			prep.subRels[sub] = r
			if p.mode == algebra.ModeSQL {
				prep.subSplits[sub] = splitNulls(r)
			}
		}
	}
	prep.freezeNodes(p)
	prep.deltaOK = prep.deltaLinear()
	return prep
}

// static reports whether the node's result is world-invariant: it reads no
// active domain and only relations that exist in the base database and
// contain no nulls.
func (prep *Prepared) static(n pnode) bool {
	rs := n.base().reads
	if rs.dom {
		return false
	}
	for _, name := range rs.names {
		rel := prep.base.Relation(name)
		if rel == nil || rel.HasNulls() {
			return false
		}
	}
	return true
}

// freezeNodes walks q's operator tree and materializes every maximal
// static node; below non-static joins and anti-unify operators whose right
// input froze, the derived build table / split is frozen too.
func (prep *Prepared) freezeNodes(q *Plan) {
	fs := &frozenSet{
		rels:   make([]*relation.Relation, len(q.nodes)),
		tables: make([]*joinTable, len(q.nodes)),
		au:     make([]*nullSplit, len(q.nodes)),
	}
	prep.frozen[q] = fs
	var walk func(n pnode)
	walk = func(n pnode) {
		if prep.static(n) {
			fs.rels[n.base().id] = prep.run(q, n)
			return
		}
		for _, c := range n.children() {
			walk(c)
		}
		switch n := n.(type) {
		case *pjoin:
			if r := fs.rels[n.right.base().id]; r != nil {
				tb := newJoinTable(n.rkeys, r.Len())
				r.EachUnordered(func(t value.Tuple, m int) {
					tb.add(t, m, q.mode)
				})
				fs.tables[n.base().id] = tb
			}
		case *pantiunify:
			if r := fs.rels[n.r.base().id]; r != nil {
				fs.au[n.base().id] = splitNulls(r)
			}
		}
	}
	walk(q.root)
}

// run materializes one node of q against the base database, reusing
// already-frozen inner results.
func (prep *Prepared) run(q *Plan, n pnode) *relation.Relation {
	x := &exec{db: prep.base, prep: prep, mode: q.mode, bag: q.bag, plan: q}
	if s, ok := n.(*pscan); ok && s.cols == nil {
		// A static full-width base relation is shared as-is: stored rows are
		// immutable and every consumer is read-only. A pruned scan emits
		// narrowed tuples, so it materializes below like any other node.
		return x.source(s.name)
	}
	out := relation.NewArity("t", n.base().width)
	q.withBufs(x, func() { n.run(x, relSink(out)) })
	return out
}

// Exec evaluates the plan against a world derived from the prepared base.
func (prep *Prepared) Exec(world *relation.Database) *relation.Relation {
	return prep.p.exec(world, prep, nil)
}

// ExecTraced is Exec accumulating execution statistics into tr. The oracle
// worker pools share one trace across shards; all Trace fields are atomics.
func (prep *Prepared) ExecTraced(world *relation.Database, tr *Trace) *relation.Relation {
	return prep.p.exec(world, prep, tr)
}

// Plan returns the physical plan the prepared state was computed for.
func (prep *Prepared) Plan() *Plan { return prep.p }
