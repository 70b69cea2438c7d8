package algebra

import (
	"fmt"

	"incdb/internal/logic"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// Mode selects how conditions treat nulls during evaluation.
type Mode int

const (
	// ModeNaive is naive evaluation (Section 4.1): nulls behave as fresh
	// constants and evaluation is two-valued. For unions of conjunctive
	// queries (owa) and Pos∀G queries (cwa) this computes certain answers
	// with nulls (Theorem 4.4).
	ModeNaive Mode = iota
	// ModeSQL is SQL's evaluation: conditions are evaluated in Kleene's
	// three-valued logic, comparisons involving nulls are unknown, and
	// only rows whose condition is t are kept (the ↑ collapse of §5.2).
	ModeSQL
)

func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeSQL:
		return "sql"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// evalEnv carries per-evaluation state: the database, the mode, bag/set
// semantics, and a memo of evaluated IN-subqueries (uncorrelated, so one
// evaluation each suffices) keyed by the subquery's rendering, which is a
// faithful encoding of the AST.
type evalEnv struct {
	db   *relation.Database
	mode Mode
	bag  bool
	subs map[string]*relation.Relation
}

func newEvalEnv(db *relation.Database, mode Mode, bag bool) *evalEnv {
	return &evalEnv{db: db, mode: mode, bag: bag, subs: map[string]*relation.Relation{}}
}

func (env *evalEnv) subResult(e Expr) *relation.Relation {
	key := e.String()
	if r, ok := env.subs[key]; ok {
		return r
	}
	// Subquery results are compared set-wise by IN; evaluate as a set.
	sub := &evalEnv{db: env.db, mode: env.mode, bag: false, subs: env.subs}
	r := eval(e, sub)
	env.subs[key] = r
	return r
}

// planner, when installed by internal/plan, replaces the tree-walking
// interpreter as the default evaluation path: queries are compiled once
// into physical plans (with selection pushdown and n-ary hash joins) and
// re-executed per database. The hook breaks the import cycle that a direct
// dependency would create; internal/plan registers itself from its init, so
// any binary linking the planner gets the planned path everywhere.
var planner func(db *relation.Database, e Expr, mode Mode, bag bool) *relation.Relation

// RegisterPlanner installs the planned evaluation path. It must be called
// from an init function (it is not synchronized); results must be
// indistinguishable from the reference interpreter's.
func RegisterPlanner(f func(db *relation.Database, e Expr, mode Mode, bag bool) *relation.Relation) {
	planner = f
}

// Eval evaluates e on db under set semantics in the given mode, through the
// compiled-plan path when a planner is registered.
func Eval(db *relation.Database, e Expr, mode Mode) *relation.Relation {
	if planner != nil {
		return planner(db, e, mode, false)
	}
	return EvalInterp(db, e, mode)
}

// EvalBag evaluates e on db under bag semantics (Section 4.2) in the given
// mode: union adds multiplicities, difference subtracts them to zero,
// product multiplies, projection sums, selection preserves.
func EvalBag(db *relation.Database, e Expr, mode Mode) *relation.Relation {
	if planner != nil {
		return planner(db, e, mode, true)
	}
	return EvalBagInterp(db, e, mode)
}

// EvalInterp evaluates e with the tree-walking reference interpreter,
// bypassing any registered planner. The interpreter is the semantic ground
// truth the planner is equivalence-tested against.
func EvalInterp(db *relation.Database, e Expr, mode Mode) *relation.Relation {
	return eval(e, newEvalEnv(db, mode, false))
}

// EvalBagInterp is the bag-semantics reference interpreter.
func EvalBagInterp(db *relation.Database, e Expr, mode Mode) *relation.Relation {
	return eval(e, newEvalEnv(db, mode, true))
}

// Naive is shorthand for Eval in ModeNaive — the Qnaïve(D) of Section 4.1.
func Naive(db *relation.Database, e Expr) *relation.Relation {
	return Eval(db, e, ModeNaive)
}

// SQL is shorthand for Eval in ModeSQL — what a SQL engine returns.
func SQL(db *relation.Database, e Expr) *relation.Relation {
	return Eval(db, e, ModeSQL)
}

func eval(e Expr, env *evalEnv) *relation.Relation {
	switch e := e.(type) {
	case Rel:
		src := env.db.Relation(e.Name)
		if src == nil {
			panic("algebra: unknown relation " + e.Name)
		}
		out := src.Clone()
		if !env.bag {
			out.Normalize()
		}
		return out

	case Select:
		in := eval(e.In, env)
		out := relation.NewArity("σ", in.Arity())
		in.Each(func(t value.Tuple, m int) {
			if evalCond(e.Cond, t, env.mode, env) == logic.T {
				out.AddMult(t, multOf(m, env))
			}
		})
		return out

	case Project:
		in := eval(e.In, env)
		out := relation.NewArity("π", len(e.Cols))
		in.Each(func(t value.Tuple, m int) {
			out.AddMult(t.Project(e.Cols), multOf(m, env))
		})
		if !env.bag {
			out.Normalize()
		}
		return out

	case Product:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("×", l.Arity()+r.Arity())
		l.Each(func(lt value.Tuple, lm int) {
			r.Each(func(rt value.Tuple, rm int) {
				out.AddMult(lt.Concat(rt), multOf(lm*rm, env))
			})
		})
		return out

	case Union:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("∪", l.Arity())
		l.Each(func(t value.Tuple, m int) { out.AddMult(t, m) })
		r.Each(func(t value.Tuple, m int) { out.AddMult(t, m) })
		if !env.bag {
			out.Normalize()
		}
		return out

	case Diff:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("−", l.Arity())
		if env.bag {
			l.Each(func(t value.Tuple, m int) {
				if rest := m - r.Mult(t); rest > 0 {
					out.AddMult(t, rest)
				}
			})
			return out
		}
		l.Each(func(t value.Tuple, _ int) {
			if !r.Contains(t) {
				out.Add(t)
			}
		})
		return out

	case Intersect:
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("∩", l.Arity())
		l.Each(func(t value.Tuple, m int) {
			rm := r.Mult(t)
			if rm == 0 {
				return
			}
			if env.bag {
				if rm < m {
					m = rm
				}
				out.AddMult(t, m)
			} else {
				out.Add(t)
			}
		})
		return out

	case Divide:
		// Division is a set-level operator; under bag semantics we follow
		// the standard convention of dividing the underlying sets.
		l, r := eval(e.L, env), eval(e.R, env)
		n := l.Arity() - r.Arity()
		out := relation.NewArity("÷", n)
		cands := relation.NewArity("c", n)
		l.Each(func(t value.Tuple, _ int) { cands.Add(t[:n].Clone()) })
		if r.Len() == 0 {
			// ∀ over an empty set: every (deduplicated — division divides
			// the underlying sets) projection of L qualifies.
			cands.Each(func(a value.Tuple, _ int) { out.Add(a) })
			return out
		}
		cands.Each(func(a value.Tuple, _ int) {
			ok := true
			r.Each(func(b value.Tuple, _ int) {
				if !ok {
					return
				}
				if !l.Contains(a.Concat(b)) {
					ok = false
				}
			})
			if ok {
				out.Add(a)
			}
		})
		return out

	case AntiUnify:
		// L ⋉⇑ R keeps the tuples of L that unify with no tuple of R.
		l, r := eval(e.L, env), eval(e.R, env)
		out := relation.NewArity("⋉⇑", l.Arity())
		rs := r.Tuples()
		l.Each(func(t value.Tuple, m int) {
			for _, s := range rs {
				if value.Unifiable(t, s) {
					return
				}
			}
			out.AddMult(t, multOf(m, env))
		})
		return out

	case Dom:
		adom := env.db.ActiveDomain()
		out := relation.NewArity("Dom", e.K)
		if e.K == 0 {
			out.Add(value.Tuple{})
			return out
		}
		tuple := make(value.Tuple, e.K)
		var rec func(i int)
		rec = func(i int) {
			if i == e.K {
				out.Add(tuple.Clone())
				return
			}
			for _, v := range adom {
				tuple[i] = v
				rec(i + 1)
			}
		}
		rec(0)
		return out
	}
	panic(fmt.Sprintf("algebra: eval: unknown expression %T", e))
}

func multOf(m int, env *evalEnv) int {
	if env.bag {
		return m
	}
	return 1
}

// BooleanResult interprets a zero-ary query result as a truth value: true
// iff it contains the empty tuple (Section 2).
func BooleanResult(r *relation.Relation) bool {
	return r.Contains(value.Tuple{})
}
