package plan

import (
	"incdb/internal/relation"
	"incdb/internal/value"
)

// BatchRows is the target number of rows per batch flowing between physical
// operators: large enough to amortize the per-call overhead of the old
// emit-per-tuple protocol across a cache-friendly chunk, small enough that
// a batch of tuple headers stays resident while the consumer walks it.
const BatchRows = 256

// vbatch is one batch of rows in flight between operators: parallel slices
// of tuples and their multiplicities.
//
// Ownership protocol: a batch passed to an emit callback is valid only for
// the duration of the call — the producer reuses the containers (rows,
// mults) for the next batch. The tuples themselves are immutable: they
// point either into stored relation rows or into an arena slab that is
// never rewritten once a row has been emitted, so a consumer may retain
// tuple headers (hash-table builds, dedup sets) but never the batch or
// subslices of rows/mults.
type vbatch struct {
	rows  []value.Tuple
	mults []int
}

// outBuf is one operator's per-execution output buffer: the batch being
// filled plus the arena slab that backs tuples the operator constructs
// (joined rows, narrowed scans, projections). Buffers live in the exec, not
// the node, so one immutable plan can execute concurrently; the per-plan
// pool below recycles them so a per-world oracle loop reuses one set of
// buffers per worker shard.
type outBuf struct {
	vbatch
	slab []value.Value
	// scratch is a per-node reusable tuple for transient evaluations that
	// never escape the operator (a join's residual check on the full
	// concatenation when only projected columns are emitted).
	scratch value.Tuple
}

// push appends one row and flushes at the batch target.
func (o *outBuf) push(t value.Tuple, m int, emit func(*vbatch)) {
	o.rows = append(o.rows, t)
	o.mults = append(o.mults, m)
	if len(o.rows) >= BatchRows {
		o.flush(emit)
	}
}

// flush hands the pending batch to the consumer and resets the containers.
func (o *outBuf) flush(emit func(*vbatch)) {
	if len(o.rows) == 0 {
		return
	}
	emit(&o.vbatch)
	o.rows = o.rows[:0]
	o.mults = o.mults[:0]
}

// alloc carves an n-wide tuple out of the arena slab. The three-index slice
// caps the tuple at its own region, so a later append through the returned
// header can never clobber a neighbouring row.
func (o *outBuf) alloc(n int) value.Tuple {
	if cap(o.slab)-len(o.slab) < n {
		c := 4 * BatchRows
		for c < n {
			c *= 2
		}
		o.slab = make([]value.Value, 0, c)
	}
	l := len(o.slab)
	o.slab = o.slab[:l+n]
	return value.Tuple(o.slab[l : l+n : l+n])
}

// unalloc returns the most recent alloc to the slab. Only legal while the
// row has not been emitted (a join rewinds rows whose residual failed);
// emitted rows are permanent for the lifetime of the execution.
func (o *outBuf) unalloc(n int) {
	o.slab = o.slab[:len(o.slab)-n]
}

// reset clears the buffer for reuse by a later execution. Rewinding the
// slab is safe exactly because no arena tuple outlives its execution: every
// materialization boundary (relation.AddBatch, root output, frozen results)
// clones tuples into relation-owned storage, and in-flight consumers (join
// tables, dedup sets, null splits) die with the exec that filled them.
func (o *outBuf) reset() {
	o.rows = o.rows[:0]
	o.mults = o.mults[:0]
	o.slab = o.slab[:0]
}

// withBufs runs f with a per-execution buffer set for p's nodes installed
// on x, recycled through the plan's pool. sync.Pool gives the per-worker-
// shard reuse the oracles want for free: each worker goroutine executing
// worlds back to back keeps getting its own warm buffer set.
func (p *Plan) withBufs(x *exec, f func()) {
	var bufs *[]outBuf
	if v := p.bufPool.Get(); v != nil {
		bufs = v.(*[]outBuf)
	} else {
		b := make([]outBuf, len(p.nodes))
		bufs = &b
	}
	x.bufs = *bufs
	f()
	for i := range x.bufs {
		x.bufs[i].reset()
	}
	p.bufPool.Put(bufs)
}

// out returns the executing node's output buffer.
func (x *exec) out(n pnode) *outBuf {
	return &x.bufs[n.base().id]
}

// relSink adapts a relation to the batch protocol (materialization
// boundaries: node freezes, matRel, the root output). AddBatch copies new
// tuples, so arena-backed tuples never leak into a relation.
func relSink(out *relation.Relation) func(*vbatch) {
	return func(b *vbatch) { out.AddBatch(b.rows, b.mults) }
}
