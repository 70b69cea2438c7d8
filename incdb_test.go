package incdb_test

import (
	"math/big"
	"testing"

	"incdb"
)

// The facade is exercised through the examples as well; these tests pin
// the public API surface used in README's quickstart.
func TestFacadeQuickstart(t *testing.T) {
	db := incdb.NewDatabase()
	items := incdb.NewRelation("Items", "sku", "warehouse")
	items.Add(incdb.Consts("tv", "berlin"))
	items.Add(incdb.Consts("radio", "paris"))
	items.Add(incdb.T(incdb.Const("laptop"), db.FreshNull()))
	db.Add(items)

	q := incdb.Proj(incdb.Sel(incdb.R("Items"),
		incdb.CNeqC(1, incdb.Const("berlin"))), 0)

	if got := incdb.SQL(db, q); got.Len() != 1 || !got.Contains(incdb.Consts("radio")) {
		t.Fatalf("SQL = %v", got)
	}
	if got := incdb.Naive(db, q); got.Len() != 2 {
		t.Fatalf("Naive = %v", got)
	}
	cert, err := incdb.CertainWithNulls(db, q, incdb.CertainOptions{})
	if err != nil || cert.Len() != 1 {
		t.Fatalf("cert⊥ = %v, %v", cert, err)
	}
	plus, err := incdb.ApproxPlus(db, q)
	if err != nil || !plus.SubsetOfSet(cert) {
		t.Fatalf("Q+ = %v, %v", plus, err)
	}
	poss, err := incdb.ApproxPossible(db, q)
	if err != nil || poss.Len() != 2 {
		t.Fatalf("Q? = %v, %v", poss, err)
	}
	mu, err := incdb.Mu(db, q, nil, incdb.Consts("laptop"))
	if err != nil || mu.RatString() != "1" {
		t.Fatalf("µ = %v, %v", mu, err)
	}
	ok, err := incdb.AlmostCertainlyTrue(db, q, incdb.Consts("laptop"))
	if err != nil || !ok {
		t.Fatalf("AlmostCertainlyTrue = %v, %v", ok, err)
	}
	for _, s := range []incdb.Strategy{incdb.Eager, incdb.SemiEager, incdb.Lazy, incdb.Aware} {
		cpart, ppart, err := incdb.CTableAnswers(db, q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !cpart.SubsetOfSet(cert) || !poss.SubsetOfSet(ppart) && !ppart.SubsetOfSet(poss) {
			t.Fatalf("%v: ctable answers inconsistent", s)
		}
	}
	rep := incdb.Analyze(db, q, incdb.CertainOptions{})
	if len(rep.FalseNegatives) != 0 || len(rep.FalsePositives) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestFacadeCodd(t *testing.T) {
	db := incdb.NewDatabase()
	r := incdb.NewRelation("R", "a", "b")
	n := db.FreshNull()
	r.Add(incdb.T(n, n)) // repeated marked null
	db.Add(r)
	cd := incdb.Codd(db)
	for _, tp := range cd.MustRelation("R").Tuples() {
		if tp[0] == tp[1] {
			t.Fatalf("Codd transform must break repeated nulls: %v", tp)
		}
	}
}

// exampleDB is R = {1}, S = {⊥}: R − S holds 1 naively and under SQL, but
// not certainly.
func exampleDB() *incdb.Database {
	db := incdb.NewDatabase()
	r := incdb.NewRelation("R", "a")
	r.Add(incdb.Consts("1"))
	db.Add(r)
	s := incdb.NewRelation("S", "a")
	s.Add(incdb.T(db.FreshNull()))
	db.Add(s)
	return db
}

func TestEvaluationFrontends(t *testing.T) {
	db := exampleDB()
	q := incdb.Minus(incdb.R("R"), incdb.R("S"))
	if got := incdb.Naive(db, q); got.Len() != 1 {
		t.Fatalf("Naive = %v", got)
	}
	if got := incdb.SQL(db, q); got.Len() != 1 {
		t.Fatalf("SQL = %v (set difference is syntactic)", got)
	}
	if got := incdb.NaiveBag(db, q); got.Mult(incdb.Consts("1")) != 1 {
		t.Fatalf("NaiveBag = %v", got)
	}
	if got := incdb.SQLBag(db, q); got.Mult(incdb.Consts("1")) != 1 {
		t.Fatalf("SQLBag = %v", got)
	}
}

func TestCertaintyFrontends(t *testing.T) {
	db := exampleDB()
	q := incdb.Minus(incdb.R("R"), incdb.R("S"))
	cert, err := incdb.CertainWithNulls(db, q, incdb.CertainOptions{})
	if err != nil || cert.Len() != 0 {
		t.Fatalf("cert⊥ = %v, %v", cert, err)
	}
	inter, err := incdb.CertainIntersection(db, q, incdb.CertainOptions{})
	if err != nil || inter.Len() != 0 {
		t.Fatalf("cert∩ = %v, %v", inter, err)
	}
}

func TestProbabilisticFrontends(t *testing.T) {
	db := exampleDB()
	q := incdb.Minus(incdb.R("R"), incdb.R("S"))
	act, err := incdb.AlmostCertainlyTrue(db, q, incdb.Consts("1"))
	if err != nil || !act {
		t.Fatalf("1 should be almost certainly in R−S: %v %v", act, err)
	}
	mu, err := incdb.Mu(db, q, incdb.Constraints{}, incdb.Consts("1"))
	if err != nil || mu.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("µ = %v, %v", mu, err)
	}
}
