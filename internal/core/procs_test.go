package core

import (
	"strings"
	"testing"

	"incdb/internal/algebra"
	"incdb/internal/certain"
	"incdb/internal/ctable"
	"incdb/internal/engine"
	"incdb/internal/plan"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/translate"
)

type libraryCall func(db *relation.Database, q algebra.Expr, bag bool) ([]*relation.Relation, error)

func planLibrary(mode algebra.Mode) libraryCall {
	return func(db *relation.Database, q algebra.Expr, bag bool) ([]*relation.Relation, error) {
		if bag {
			return []*relation.Relation{algebra.EvalBag(db, q, mode)}, nil
		}
		return []*relation.Relation{algebra.Eval(db, q, mode)}, nil
	}
}

func oracleLibrary(f func(*relation.Database, algebra.Expr, certain.Options) (*relation.Relation, error)) libraryCall {
	return func(db *relation.Database, q algebra.Expr, _ bool) ([]*relation.Relation, error) {
		r, err := f(db, q, certain.Options{})
		return []*relation.Relation{r}, err
	}
}

func fig2bLibrary(poss bool) libraryCall {
	return func(db *relation.Database, q algebra.Expr, _ bool) ([]*relation.Relation, error) {
		plus, possQ, err := translate.Fig2b(q)
		if err != nil {
			return nil, err
		}
		if poss {
			plus = possQ
		}
		return []*relation.Relation{algebra.Naive(db, plus)}, nil
	}
}

func ctableLibrary(s ctable.Strategy) libraryCall {
	return func(db *relation.Database, q algebra.Expr, _ bool) ([]*relation.Relation, error) {
		ct, err := ctable.EvalWith(db, q, s, engine.Options{})
		if err != nil {
			return nil, err
		}
		return []*relation.Relation{ct.Extract(true), ct.Extract(false)}, nil
	}
}

// TestProcTableMatchesLibrary: every procedure of the table returns the
// same relations as the library calls it stands for, both planning afresh
// (nil Prep) and drawing on a warm prepared-plan cache, under set and bag
// semantics; a procedure fails exactly when its library call does.
func TestProcTableMatchesLibrary(t *testing.T) {
	library := map[string]libraryCall{
		"sql":          planLibrary(algebra.ModeSQL),
		"naive":        planLibrary(algebra.ModeNaive),
		"cert":         oracleLibrary(certain.WithNulls),
		"inter":        oracleLibrary(certain.Intersection),
		"plus":         fig2bLibrary(false),
		"poss":         fig2bLibrary(true),
		"ctable-eager": ctableLibrary(ctable.Eager),
		"ctable-semi":  ctableLibrary(ctable.SemiEager),
		"ctable-lazy":  ctableLibrary(ctable.Lazy),
		"ctable-aware": ctableLibrary(ctable.Aware),
	}
	if len(library) != len(ProcNames()) {
		t.Fatalf("table has %d procedures, test covers %d", len(ProcNames()), len(library))
	}
	db, err := raparse.ParseDatabase(strings.NewReader(`
rel Customers cid name
rel Orders oid cid
rel Payments oid
row Customers c1 'Ann'
row Customers c2 'Bob'
row Orders o1 c1
row Orders o2 _1
row Orders o3 _2 *2
row Orders o4 _1
row Payments o1
row Payments _2
`))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"minus(proj(0, Orders), Payments)",
		"proj(0, sel(not(in(0, Payments)), Orders))",
		"proj(1, Orders)",
		"sel(neqc(1, c1), Orders)",
		"proj(0, sel(eq(1, 2), times(Orders, Customers)))",
		"union(proj(0, Orders), Payments)",
		"div(Orders, proj(1, Orders))",
	}
	for _, name := range ProcNames() {
		p, ok := LookupProc(name)
		if !ok || p.Name != name {
			t.Fatalf("LookupProc(%q) = %+v, %t", name, p, ok)
		}
		for _, src := range queries {
			q, err := raparse.ParseQuery(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, bag := range []bool{false, true} {
				want, wantErr := library[name](db, q, bag)
				cache := plan.NewPrepCache(0)
				for _, run := range []struct {
					label string
					opts  certain.Options
				}{
					{"nil prep", certain.Options{}},
					{"cold cache", certain.Options{Prep: cache}},
					{"warm cache", certain.Options{Prep: cache}},
				} {
					got, err := p.Eval(db, q, bag, run.opts)
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("%s %s bag=%t %s: err %v, library err %v", name, src, bag, run.label, err, wantErr)
					}
					if err != nil {
						continue
					}
					if len(got) != len(p.Results) || len(got) != len(want) {
						t.Fatalf("%s %s: %d relations, %d result names, library %d", name, src, len(got), len(p.Results), len(want))
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Fatalf("%s %s bag=%t %s: %s = %v, library %v", name, src, bag, run.label, p.Results[i], got[i], want[i])
						}
					}
				}
			}
		}
	}
	if p, ok := LookupProc(""); !ok || p.Name != "sql" {
		t.Fatalf(`LookupProc("") = %q, %t; want sql`, p.Name, ok)
	}
	if _, ok := LookupProc("bogus"); ok {
		t.Fatal("LookupProc accepted an unknown name")
	}
}
