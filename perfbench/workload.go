package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"incdb/internal/api"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/tpch"
)

// session is the one incdbd session every workload loads and queries.
const session = "bench"

// spellings is how many byte-distinct respellings of each (query, proc)
// kind serve-small and durable-mixed draw from. With 50 kinds that makes
// 800 result-cache keys against the server's 256-entry cache (pinned by
// -result-cache-cap), so hits, misses and evictions all occur.
const spellings = 16

// resultCacheCap is the result-cache capacity the server is pinned to.
const resultCacheCap = 256

// queryText holds the benchmark's query set in incdbd's query syntax. Q1–Q12
// spell out internal/tpch's Queries and MultiJoinQueries (a test checks
// they parse to the same expressions); K1–K4 read only key columns, which
// tpch.Dirty never nulls, so their certain answers cost one world.
var queryText = map[string]string{
	"Q1":  "minus(proj(0, customer), proj(1, orders))",
	"Q2":  "minus(proj(0, orders), proj(0, lineitem))",
	"Q3":  "proj(0 1, sel(gtc(2, '50000'), orders))",
	"Q4":  "proj(0 5, sel(eq(0, 6), times(customer, orders)))",
	"Q5":  "proj(0, sel(or(eqc(3, 'F'), ltc(2, '1000')), orders))",
	"Q6":  "minus(proj(0, customer), proj(1, sel(gtc(2, '80000'), orders)))",
	"Q7":  "union(proj(0, sel(eqc(4, 'AUTOMOBILE'), customer)), proj(0, sel(eqc(4, 'BUILDING'), customer)))",
	"Q8":  "minus(proj(0, nation), proj(2, customer))",
	"Q9":  "proj(0, sel(or(eqc(3, 'F'), neqc(3, 'F')), orders))",
	"Q10": "proj(9 3, sel(and(eq(0, 4), eq(5, 8)), times(times(lineitem, orders), customer)))",
	"Q11": "proj(0 6, sel(and(eq(2, 5), and(eq(7, 8), eqc(9, 'REGION_0'))), times(times(customer, nation), region)))",
	"Q12": "proj(9 3, sel(and(eq(0, 4), and(eq(5, 8), and(eq(10, 13), and(eq(15, 16), eqc(7, 'F'))))), times(times(times(times(lineitem, orders), customer), nation), region)))",
	"K1":  "minus(proj(0, orders), proj(0, lineitem))",
	"K2":  "minus(proj(0, orders), proj(0, sel(eqc(1, '1'), lineitem)))",
	"K3":  "proj(0 1, customer)",
	"K4":  "inter(proj(0, orders), proj(0, lineitem))",
}

// kind is one distinct (query, proc) pair a workload sends.
type kind struct {
	name  string // e.g. "Q5/cert"
	query string // canonical text
	proc  string
}

// op is one generated operation: a query (kind >= 0) or an append.
type op struct {
	kind  int
	query string // respelled query text
	rel   string // appended relation
	data  string // append payload
}

func (o op) isAppend() bool { return o.kind < 0 }

// body renders the request exactly as the server receives it.
func (o op) body(w *workload) []byte {
	var v any
	if o.isAppend() {
		v = api.LoadRequest{Data: o.data, Append: true}
	} else {
		v = api.QueryRequest{Query: o.query, Proc: w.kinds[o.kind].proc}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings always marshal
	}
	return b
}

// workload is everything generated from (name, seed): the dataset text the
// server loads, the request kinds, and the per-client operation streams.
type workload struct {
	name    string
	seed    int64
	clients int
	durable bool
	dataset string
	kinds   []kind
	orders  int // orders rows, the keys appended lineitem rows point at
}

var workloadNames = []string{"oracle-worlds", "serve-small", "durable-mixed"}

func newWorkload(name string, seed int64) (*workload, error) {
	w := &workload{name: name, seed: seed}
	var db *relation.Database
	switch name {
	case "oracle-worlds":
		w.clients = 1
		db = oracleData(seed)
		for _, q := range []string{"Q3", "Q5", "Q6", "Q9"} {
			for _, proc := range []string{"cert", "inter"} {
				w.kinds = append(w.kinds, kind{q + "/" + proc, queryText[q], proc})
			}
		}
	case "serve-small", "durable-mixed":
		w.clients = 2
		w.durable = name == "durable-mixed"
		db = tpch.Dirty(tpch.Generate(tpch.BenchConfig()), 0.05, 0, seed)
		for i := 1; i <= 12; i++ {
			q := fmt.Sprintf("Q%d", i)
			for _, proc := range []string{"sql", "naive", "plus", "poss"} {
				// The Q? rewriting of the two lineitem-first multi-joins
				// unifies every row pair and does not finish in seconds.
				if proc == "poss" && (q == "Q10" || q == "Q12") {
					continue
				}
				w.kinds = append(w.kinds, kind{q + "/" + proc, queryText[q], proc})
			}
		}
		for _, q := range []string{"K1", "K2", "K3", "K4"} {
			w.kinds = append(w.kinds, kind{q + "/cert", queryText[q], "cert"})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	text, err := raparse.RenderDatabase(db)
	if err != nil {
		return nil, err
	}
	if w.durable {
		// Appends go half to lineitem, which Q2, Q10, Q12, K1, K2 and K4
		// read, and half to audit, which no query reads.
		text += "rel audit a_id a_note\n"
	}
	w.dataset = text
	w.orders = db.Relation("orders").Len()
	return w, nil
}

// oracleData is TPC-H SmallConfig with one marked null in o_totalprice and
// one in o_orderstatus, each in a seeded row. The placement is fixed per
// column so every seed has the same valuation-space shapes: Q5 reads both
// columns (|range|² worlds), Q3, Q6 and Q9 read one (|range| worlds).
func oracleData(seed int64) *relation.Database {
	db := tpch.Generate(tpch.SmallConfig())
	for i, col := range []int{2, 3} {
		for sub := int64(0); ; sub++ {
			before := len(db.NullIDs())
			next := tpch.DirtyColumns(db, map[string][]int{"orders": {col}}, 0.25, 1, seed*1000+int64(i)*100+sub)
			if len(next.NullIDs()) == before+1 {
				db = next
				break
			}
		}
	}
	return db
}

// stream generates one client's operations, deterministically from the
// workload seed and the client number.
type stream struct {
	w      *workload
	client int
	r      *rand.Rand
	zipf   *rand.Zipf
	kinds  []int // shuffled deck of kind indexes
	slots  []int // durable-mixed deck: 0 query, 1 lineitem append, 2 audit append
	n      int   // operations generated so far
}

func (w *workload) stream(client int) *stream {
	r := rand.New(rand.NewSource(w.seed*1_000_003 + int64(client)*7_919 + 17))
	return &stream{w: w, client: client, r: r, zipf: rand.NewZipf(r, 1.2, 1, spellings-1)}
}

// next returns the client's next operation. Kinds are dealt from reshuffled
// decks, so every stretch of len(kinds) queries covers each kind once; on
// durable-mixed every ten operations hold one append to lineitem, one to
// audit and eight queries.
func (s *stream) next() op {
	s.n++
	if s.w.durable {
		if len(s.slots) == 0 {
			s.slots = []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 2}
			s.r.Shuffle(len(s.slots), func(i, j int) { s.slots[i], s.slots[j] = s.slots[j], s.slots[i] })
		}
		slot := s.slots[0]
		s.slots = s.slots[1:]
		switch slot {
		case 1:
			qty := fmt.Sprint(1 + s.r.Intn(50))
			if s.r.Intn(2) == 0 {
				qty = "_q" // a fresh marked null per append
			}
			return op{kind: -1, rel: "lineitem", data: fmt.Sprintf("row lineitem O%d x%d_%d %s %d\n",
				s.r.Intn(s.w.orders), s.client, s.n, qty, 10+s.r.Intn(9990))}
		case 2:
			return op{kind: -1, rel: "audit", data: fmt.Sprintf("row audit a%d_%d note%d\n",
				s.client, s.n, s.r.Intn(1000))}
		}
	}
	if len(s.kinds) == 0 {
		s.kinds = s.r.Perm(len(s.w.kinds))
	}
	k := s.kinds[0]
	s.kinds = s.kinds[1:]
	var variant int
	if s.w.name == "oracle-worlds" {
		// Every oracle request is a distinct spelling, so the result cache
		// never answers it and each one enumerates its worlds.
		variant = s.n*s.w.clients + s.client
	} else {
		variant = int(s.zipf.Uint64())
	}
	return op{kind: k, query: respell(s.w.kinds[k].query, variant)}
}

// countPass returns one query per kind, the fixed-size pass whose
// /v1/metrics deltas give the exact per-query counts. On oracle-worlds its
// spellings lie outside the streams' range, so the window never finds them
// cached; elsewhere it sends each kind's most popular spelling, warming the
// caches the window then uses.
func (w *workload) countPass() []op {
	ops := make([]op, len(w.kinds))
	for i, k := range w.kinds {
		variant := 0
		if w.name == "oracle-worlds" {
			variant = 1_000_000 + i
		}
		ops[i] = op{kind: i, query: respell(k.query, variant)}
	}
	return ops
}

// respell rewrites a query with the separators between its tokens chosen
// by the base-3 digits of variant: the parsed expression — and so the
// prepared-plan cache key — is unchanged, while the bytes, which key the
// result cache, differ for every variant below 3^(tokens-1).
func respell(query string, variant int) string {
	toks := queryTokens(query)
	seps := [3]string{" ", "  ", "\t"}
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteString(seps[variant%3])
			variant /= 3
		}
		b.WriteString(t)
	}
	return b.String()
}

// queryTokens splits query text the way incdbd's lexer does: parentheses
// and quoted literals are tokens, spaces and commas separate.
func queryTokens(s string) []string {
	var toks []string
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == ' ' || c == ',' || c == '\t':
			i++
		case c == '(' || c == ')':
			toks = append(toks, s[i:i+1])
			i++
		case c == '\'':
			j := strings.IndexByte(s[i+1:], '\'') + i + 2
			toks = append(toks, s[i:j])
			i = j
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" ,\t()'", rune(s[j])) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks
}
