package server

import (
	"context"
	"strconv"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/core"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/store"
	"incdb/internal/value"
)

// evaluate runs one query request under the procedure p against the
// session database. The caller holds the session read lock; every
// procedure is read-only on the database and shares the session's
// prepared-plan cache, so concurrent requests reuse each other's prepared
// state. tr accumulates execution counters (worlds enumerated,
// frozen-subplan reuse) across every plan the request runs; the ctable
// strategies keep their own machinery and contribute nothing. Results are
// identical with tr nil. ctx is the request's context: the
// world-enumerating oracles stop when it ends and return its error.
func (s *Server) evaluate(ctx context.Context, sess *session, p core.Proc, req *api.QueryRequest, tr *plan.Trace) ([]api.Resultset, error) {
	q, err := raparse.ParseQuery(req.Query)
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(q, sess.db); err != nil {
		return nil, err
	}
	opts := certain.Options{
		MaxWorlds: req.MaxWorlds,
		Workers:   s.opts.Workers,
		Prep:      sess.prep,
		Trace:     tr,
		Context:   ctx,
	}
	if opts.MaxWorlds <= 0 {
		opts.MaxWorlds = s.opts.MaxWorlds
	}
	rels, err := p.Eval(sess.db, q, req.Bag, opts)
	if err != nil {
		return nil, err
	}
	out := make([]api.Resultset, len(rels))
	for i, r := range rels {
		out[i] = resultset(p.Results[i], r)
	}
	return out, nil
}

// recordWarm notes a successfully served query in the session's warm set
// when its procedure draws on the prepared-plan cache; durable snapshots
// persist the set so recovery re-prepares the working set before the
// first request.
func (s *Server) recordWarm(sess *session, p core.Proc, req *api.QueryRequest) {
	if p.Prepared == nil {
		return
	}
	sess.warm.record(store.WarmKey{Query: req.Query, Proc: p.Name, Bag: req.Bag})
}

// warmSession re-prepares the recorded warm keys against the session's
// current database through each procedure's Prepared, the plan its Eval
// draws from the cache — so the first post-recovery request finds the
// same cache state a warmed-up server would have. Best effort: keys that
// no longer parse, validate or rewrite (the schema may have moved past
// them) are skipped.
func (s *Server) warmSession(sess *session, keys []store.WarmKey) {
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	for _, k := range keys {
		p, ok := core.LookupProc(k.Proc)
		if !ok || p.Prepared == nil {
			continue
		}
		q, err := raparse.ParseQuery(k.Query)
		if err != nil {
			continue
		}
		if err := algebra.Validate(q, sess.db); err != nil {
			continue
		}
		e, mode, bag, err := p.Prepared(q, k.Bag)
		if err != nil {
			continue
		}
		sess.prep.Get(sess.db, e, mode, bag)
	}
}

// explain renders the plan for the request's query; the caller holds the
// session read lock. The structured form comes from the same rendering
// path incdbctl explain uses (plan.Describe), drawing prepared state from
// the session's cache: the [frozen across worlds] markers reflect exactly
// the Prepared a subsequent query will reuse, and explaining warms the
// cache for it.
func (s *Server) explain(sess *session, req *api.ExplainRequest) (*plan.ExplainInfo, error) {
	q, err := raparse.ParseQuery(req.Query)
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(q, sess.db); err != nil {
		return nil, err
	}
	mode := algebra.ModeNaive
	if req.SQL {
		mode = algebra.ModeSQL
	}
	if req.Analyze {
		return plan.DescribeAnalyze(q, sess.db, mode, req.Bag, sess.db, sess.prep), nil
	}
	return plan.DescribeCached(q, sess.db, mode, req.Bag, sess.db, sess.prep), nil
}

// resultset renders a relation for the wire: deterministic row order,
// values in the database text format (nulls as _k), multiplicities only
// when some row's differs from one.
func resultset(name string, r *relation.Relation) api.Resultset {
	out := api.Resultset{Name: name, Columns: append([]string(nil), r.Attrs()...), Rows: [][]string{}}
	var mults []int
	hasMult := false
	r.Each(func(t value.Tuple, m int) {
		row := make([]string, len(t))
		for i, v := range t {
			row[i] = renderValue(v)
		}
		out.Rows = append(out.Rows, row)
		mults = append(mults, m)
		if m != 1 {
			hasMult = true
		}
	})
	if hasMult {
		out.Mults = mults
	}
	return out
}

func renderValue(v value.Value) string {
	if v.IsNull() {
		return "_" + strconv.FormatUint(v.NullID(), 10)
	}
	return v.ConstVal()
}
