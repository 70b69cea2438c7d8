// Package core ties together the evaluation procedures the paper studies
// over a single incomplete database and query. Its procedure table
// (LookupProc, ProcNames) is the one list of what incdbd's query endpoint
// and incdbctl's -mode flag accept: SQL's three-valued evaluation, naive
// evaluation, the exact certain-answer oracles cert⊥ and cert∩ of
// Section 3, the Figure 2(b) rewritings Q⁺ and Q?, and the four c-table
// strategies of Theorem 4.9. Beside the table it evaluates the Figure 2
// rewritings and c-tables as plain functions, and Analyze compares every
// procedure on one query. The remaining procedures are called from their
// own packages (algebra, certain, prob); the incdb facade re-exports them.
package core

import (
	"fmt"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/ctable"
	"incdb/internal/engine"
	"incdb/internal/relation"
	"incdb/internal/translate"
	"incdb/internal/value"
)

// SQLBag and NaiveBag are the bag-semantics variants (Section 4.2).
func SQLBag(db *relation.Database, q algebra.Expr) *relation.Relation {
	return algebra.EvalBag(db, q, algebra.ModeSQL)
}

func NaiveBag(db *relation.Database, q algebra.Expr) *relation.Relation {
	return algebra.EvalBag(db, q, algebra.ModeNaive)
}

// ApproxPlus evaluates the Q⁺ rewriting of Figure 2(b): a tractable subset
// of the certain answers (Theorem 4.7), equal to Q(D) on complete data.
func ApproxPlus(db *relation.Database, q algebra.Expr) (*relation.Relation, error) {
	return execPrepared(db, q, false, certain.Options{}, fig2b(false))
}

// ApproxPossible evaluates the Q? rewriting of Figure 2(b): a tractable
// superset of the possible answers.
func ApproxPossible(db *relation.Database, q algebra.Expr) (*relation.Relation, error) {
	return execPrepared(db, q, false, certain.Options{}, fig2b(true))
}

// ApproxTrueFalse evaluates the (Qᵗ, Qᶠ) rewriting of Figure 2(a):
// certainly-true and certainly-false answers (Theorem 4.6). Beware the
// active-domain products in Qᶠ — correct but infeasible beyond toy sizes,
// which is the point the survey makes about this scheme.
func ApproxTrueFalse(db *relation.Database, q algebra.Expr) (qt, qf *relation.Relation, err error) {
	t, f, err := translate.Fig2a(q, db)
	if err != nil {
		return nil, nil, err
	}
	return algebra.Naive(db, t), algebra.Naive(db, f), nil
}

// CTableAnswers evaluates the query over conditional tables with one of
// the four strategies of [36] (Theorem 4.9), returning the certain and
// possible parts.
func CTableAnswers(db *relation.Database, q algebra.Expr, s ctable.Strategy) (certainPart, possiblePart *relation.Relation, err error) {
	return CTableAnswersWith(db, q, s, engine.Options{})
}

// CTableAnswersWith is CTableAnswers with an explicit worker pool for the
// per-row condition construction and grounding.
func CTableAnswersWith(db *relation.Database, q algebra.Expr, s ctable.Strategy, eng engine.Options) (certainPart, possiblePart *relation.Relation, err error) {
	ct, err := ctable.EvalWith(db, q, s, eng)
	if err != nil {
		return nil, nil, err
	}
	return ct.Extract(true), ct.Extract(false), nil
}

// Report compares the evaluation procedures on one query, classifying
// SQL's errors against the exact certain answers when the oracle is
// feasible.
type Report struct {
	Query string
	// SQLAnswers and NaiveAnswers always exist.
	SQLAnswers   *relation.Relation
	NaiveAnswers *relation.Relation
	// Plus ⊆ cert⊥ ⊆ … ⊆ Poss when the translation applies.
	Plus *relation.Relation
	Poss *relation.Relation
	// Certain is nil when the oracle was infeasible or the fragment
	// unsupported; CertainErr then says why.
	Certain    *relation.Relation
	CertainErr error
	// SQL errors relative to cert⊥ (Section 1's false positives/negatives).
	FalsePositives []value.Tuple
	FalseNegatives []value.Tuple
}

// Analyze runs every procedure on the query and classifies SQL's output.
func Analyze(db *relation.Database, q algebra.Expr, opts certain.Options) *Report {
	r := &Report{
		Query:        fmt.Sprint(q),
		SQLAnswers:   algebra.SQL(db, q),
		NaiveAnswers: algebra.Naive(db, q),
	}
	if plus, err := ApproxPlus(db, q); err == nil {
		r.Plus = plus
	}
	if poss, err := ApproxPossible(db, q); err == nil {
		r.Poss = poss
	}
	cert, err := certain.WithNulls(db, q, opts)
	if err != nil {
		r.CertainErr = err
		return r
	}
	r.Certain = cert
	r.SQLAnswers.Each(func(t value.Tuple, _ int) {
		if !cert.Contains(t) {
			r.FalsePositives = append(r.FalsePositives, t)
		}
	})
	cert.Each(func(t value.Tuple, _ int) {
		if !r.SQLAnswers.Contains(t) {
			r.FalseNegatives = append(r.FalseNegatives, t)
		}
	})
	return r
}
