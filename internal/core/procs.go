package core

import (
	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/ctable"
	"incdb/internal/engine"
	"incdb/internal/relation"
	"incdb/internal/translate"
)

// Proc is one evaluation procedure of the table below: what incdbd's query
// endpoint accepts as "proc" and incdbctl accepts as -mode.
type Proc struct {
	Name string
	// Results names the relations Eval returns, in order.
	Results []string
	// Eval runs the procedure. opts carries everything a procedure may
	// use: the prepared-plan cache (nil plans afresh), the execution
	// trace, the context and world bound of the oracles, and the worker
	// count. Results never depend on Prep, Trace or Workers.
	Eval func(db *relation.Database, q algebra.Expr, bag bool, opts certain.Options) ([]*relation.Relation, error)
	// Prepared names the prepared plan Eval draws from opts.Prep — the
	// expression, mode and bag flag it passes to PrepCache.Get — so a
	// server can re-prepare a recorded query before its first request.
	// Nil for the procedures that evaluate outside the prepared-plan
	// cache (the c-table strategies).
	Prepared func(q algebra.Expr, bag bool) (algebra.Expr, algebra.Mode, bool, error)
}

// procs is the one list of evaluation procedures, in display order.
var procs = []Proc{
	planned("sql", "sql", asIs(algebra.ModeSQL)),
	planned("naive", "naive", asIs(algebra.ModeNaive)),
	oracle("cert", "cert⊥", certain.WithNulls),
	oracle("inter", "cert∩", certain.Intersection),
	planned("plus", "Q+", fig2b(false)),
	planned("poss", "Q?", fig2b(true)),
	ctableProc("ctable-eager", ctable.Eager),
	ctableProc("ctable-semi", ctable.SemiEager),
	ctableProc("ctable-lazy", ctable.Lazy),
	ctableProc("ctable-aware", ctable.Aware),
}

// LookupProc returns the procedure called name; "" selects sql.
func LookupProc(name string) (Proc, bool) {
	if name == "" {
		name = "sql"
	}
	for _, p := range procs {
		if p.Name == name {
			return p, true
		}
	}
	return Proc{}, false
}

// ProcNames lists every procedure's name in display order.
func ProcNames() []string {
	names := make([]string, len(procs))
	for i, p := range procs {
		names[i] = p.Name
	}
	return names
}

// prepareFunc is the type of Proc.Prepared.
type prepareFunc = func(q algebra.Expr, bag bool) (algebra.Expr, algebra.Mode, bool, error)

// planned is a procedure that executes one prepared plan on the database
// itself (trivially one of its own worlds): Eval runs exactly the plan
// Prepared names, so recording the key prepares what evaluation uses.
func planned(name, result string, prepared prepareFunc) Proc {
	return Proc{
		Name:    name,
		Results: []string{result},
		Eval: func(db *relation.Database, q algebra.Expr, bag bool, opts certain.Options) ([]*relation.Relation, error) {
			r, err := execPrepared(db, q, bag, opts, prepared)
			if err != nil {
				return nil, err
			}
			return []*relation.Relation{r}, nil
		},
		Prepared: prepared,
	}
}

// execPrepared executes on db the plan prepared names for q, drawn from
// opts.Prep (a nil cache plans afresh).
func execPrepared(db *relation.Database, q algebra.Expr, bag bool, opts certain.Options, prepared prepareFunc) (*relation.Relation, error) {
	e, mode, bag, err := prepared(q, bag)
	if err != nil {
		return nil, err
	}
	return opts.Prep.Get(db, e, mode, bag).ExecTraced(db, opts.Trace), nil
}

func asIs(mode algebra.Mode) prepareFunc {
	return func(q algebra.Expr, bag bool) (algebra.Expr, algebra.Mode, bool, error) {
		return q, mode, bag, nil
	}
}

// fig2b selects the Q⁺ (or, with poss, the Q?) rewriting of Figure 2(b),
// evaluated naively under set semantics.
func fig2b(poss bool) prepareFunc {
	return func(q algebra.Expr, _ bool) (algebra.Expr, algebra.Mode, bool, error) {
		plus, possQ, err := translate.Fig2b(q)
		if poss {
			plus = possQ
		}
		return plus, algebra.ModeNaive, false, err
	}
}

// oracle is an exact certain-answer procedure. The oracles evaluate every
// world through the naive set-semantics prepared plan of q (whatever bag
// says), which is the plan Prepared names.
func oracle(name, result string, f func(*relation.Database, algebra.Expr, certain.Options) (*relation.Relation, error)) Proc {
	return Proc{
		Name:    name,
		Results: []string{result},
		Eval: func(db *relation.Database, q algebra.Expr, _ bool, opts certain.Options) ([]*relation.Relation, error) {
			r, err := f(db, q, opts)
			if err != nil {
				return nil, err
			}
			return []*relation.Relation{r}, nil
		},
		Prepared: func(q algebra.Expr, _ bool) (algebra.Expr, algebra.Mode, bool, error) {
			return q, algebra.ModeNaive, false, nil
		},
	}
}

// ctableProc is a c-table strategy: it keeps its own row machinery, so it
// uses only opts.Workers and has no prepared plan.
func ctableProc(name string, s ctable.Strategy) Proc {
	return Proc{
		Name:    name,
		Results: []string{"certain", "possible"},
		Eval: func(db *relation.Database, q algebra.Expr, _ bool, opts certain.Options) ([]*relation.Relation, error) {
			cpart, ppart, err := CTableAnswersWith(db, q, s, engine.Options{Workers: opts.Workers})
			if err != nil {
				return nil, err
			}
			return []*relation.Relation{cpart, ppart}, nil
		},
	}
}
