package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"incdb/internal/algebra"
	"incdb/internal/api"
	"incdb/internal/certain"
	"incdb/internal/raparse"
	"incdb/internal/relation"
	"incdb/internal/translate"
	"incdb/internal/value"
)

// answerKey identifies one distinct served answer: the kind asked, the
// versions of the relations it reads (its database state), and a digest of
// the result bytes. Identical bytes for one kind and state are checked once.
type answerKey struct {
	kind   int
	state  string
	digest [sha256.Size]byte
}

// answers collects one client's served query results.
type answers struct {
	count map[answerKey]int
	raw   map[answerKey][]byte
}

func newAnswers() *answers {
	return &answers{count: map[answerKey]int{}, raw: map[answerKey][]byte{}}
}

func (a *answers) add(kind int, state string, results []byte) {
	k := answerKey{kind, state, sha256.Sum256(results)}
	if a.count[k] == 0 {
		a.raw[k] = results
	}
	a.count[k]++
}

func (a *answers) merge(b *answers) {
	for k, n := range b.count {
		if a.count[k] == 0 {
			a.raw[k] = b.raw[k]
		}
		a.count[k] += n
	}
}

// appendAck is one acknowledged append: its payload and the version vector
// the server reported after applying it.
type appendAck struct {
	rel      string
	data     string
	versions map[string]uint64
}

// order is the append's position in the server's apply order: every append
// bumps one relation's version, so the vector sum strictly increases.
func (a appendAck) order() uint64 {
	var sum uint64
	for _, v := range a.versions {
		sum += v
	}
	return sum
}

// checker recomputes answers in-process with the library, on the same
// generated text the server loaded, and compares them with what was served.
type checker struct {
	w     *workload
	reads [][]string // per kind, the relations its query reads (sorted)
}

func newChecker(w *workload) (*checker, error) {
	c := &checker{w: w}
	for _, k := range w.kinds {
		q, err := raparse.ParseQuery(k.query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		names, _ := algebra.RelationsOf(q)
		names = append([]string(nil), names...)
		sort.Strings(names)
		c.reads = append(c.reads, names)
	}
	return c, nil
}

// state renders the versions of the relations kind k reads.
func (c *checker) state(k int, versions map[string]uint64) string {
	var b strings.Builder
	for _, name := range c.reads[k] {
		fmt.Fprintf(&b, "%s=%d;", name, versions[name])
	}
	return b.String()
}

// pending is one distinct served answer and the number of acknowledged
// appends, in apply order, that precede the state it was served at.
type pending struct {
	key    answerKey
	prefix int
}

// verify checks every distinct served answer against the library's answer
// at the database state the server reported; acks are all acknowledged
// appends. It returns how many served answers were wrong.
func (c *checker) verify(a *answers, acks []appendAck) (int, []string, error) {
	acks = sortedAcks(acks)
	var todo []pending
	for k := range a.count {
		todo = append(todo, pending{k, c.prefix(k, acks)})
	}
	sort.Slice(todo, func(i, j int) bool { return todo[i].prefix < todo[j].prefix })
	// One goroutine per CPU of the host, each taking a contiguous run of
	// states so that it rebuilds the database incrementally.
	parts := [][]pending{todo[:len(todo)/2], todo[len(todo)/2:]}
	type result struct {
		failed int
		msgs   []string
		err    error
	}
	results := make([]result, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part []pending) {
			defer wg.Done()
			r := &results[i]
			r.failed, r.msgs, r.err = c.verifyStates(a, acks, part)
		}(i, part)
	}
	wg.Wait()
	failed := 0
	var msgs []string
	for _, r := range results {
		if r.err != nil {
			return 0, nil, r.err
		}
		failed += r.failed
		msgs = append(msgs, r.msgs...)
	}
	return failed, msgs, nil
}

// verifyStates checks the answers of todo, which is ordered by prefix.
func (c *checker) verifyStates(a *answers, acks []appendAck, todo []pending) (int, []string, error) {
	db, err := c.base()
	if err != nil {
		return 0, nil, err
	}
	applied := 0
	want := map[string]string{} // kind/state → canonical reference answer
	failed := 0
	var msgs []string
	for _, p := range todo {
		for ; applied < p.prefix; applied++ {
			if err := raparse.ParseDatabaseInto(strings.NewReader(acks[applied].data), db); err != nil {
				return 0, nil, err
			}
		}
		ref := strconv.Itoa(p.key.kind) + "|" + p.key.state
		exp, ok := want[ref]
		if !ok {
			rs, err := reference(db, c.w.kinds[p.key.kind])
			if err != nil {
				return 0, nil, fmt.Errorf("reference %s: %w", c.w.kinds[p.key.kind].name, err)
			}
			exp = canonical(rs)
			want[ref] = exp
		}
		var got []api.Resultset
		if err := json.Unmarshal(a.raw[p.key], &got); err != nil || canonical(got) != exp {
			failed += a.count[p.key]
			msgs = append(msgs, fmt.Sprintf("%s at %s: served answer differs from the library's (%d responses)",
				c.w.kinds[p.key.kind].name, p.key.state, a.count[p.key]))
		}
	}
	return failed, msgs, nil
}

// base parses the dataset text the server loaded.
func (c *checker) base() (*relation.Database, error) {
	return raparse.ParseDatabase(strings.NewReader(c.w.dataset))
}

// sortedAcks returns the acknowledged appends in apply order.
func sortedAcks(acks []appendAck) []appendAck {
	acks = append([]appendAck(nil), acks...)
	sort.Slice(acks, func(i, j int) bool { return acks[i].order() < acks[j].order() })
	return acks
}

// prefix is the number of appends, in apply order, that precede the state
// of answer k: up to the last append to a relation the kind reads whose
// version the state covers.
func (c *checker) prefix(k answerKey, acks []appendAck) int {
	covered := map[string]uint64{}
	for _, part := range strings.Split(k.state, ";") {
		if name, v, ok := strings.Cut(part, "="); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			covered[name] = n
		}
	}
	p := 0
	for i, a := range acks {
		if v, reads := covered[a.rel]; reads && a.versions[a.rel] <= v {
			p = i + 1
		}
	}
	return p
}

// reference evaluates one kind with the library, outside every server
// cache: a fresh plan per call, and the oracles serially.
func reference(db *relation.Database, k kind) ([]api.Resultset, error) {
	q, err := raparse.ParseQuery(k.query)
	if err != nil {
		return nil, err
	}
	if err := algebra.Validate(q, db); err != nil {
		return nil, err
	}
	var r *relation.Relation
	name := k.proc
	switch k.proc {
	case "sql":
		r = algebra.Eval(db, q, algebra.ModeSQL)
	case "naive":
		r = algebra.Eval(db, q, algebra.ModeNaive)
	case "plus", "poss":
		plus, poss, err := translate.Fig2b(q)
		if err != nil {
			return nil, err
		}
		rew, name := plus, "Q+"
		if k.proc == "poss" {
			rew, name = poss, "Q?"
		}
		return []api.Resultset{resultset(name, algebra.Eval(db, rew, algebra.ModeNaive))}, nil
	case "cert":
		name = "cert⊥"
		r, err = certain.WithNulls(db, q, certain.Options{Workers: 1})
	case "inter":
		name = "cert∩"
		r, err = certain.Intersection(db, q, certain.Options{Workers: 1})
	default:
		return nil, fmt.Errorf("unknown proc %q", k.proc)
	}
	if err != nil {
		return nil, err
	}
	return []api.Resultset{resultset(name, r)}, nil
}

// resultset renders a relation the way the wire protocol does: values in
// the database text format, nulls as _k, multiplicities only when some
// differs from one.
func resultset(name string, r *relation.Relation) api.Resultset {
	out := api.Resultset{Name: name, Columns: append([]string(nil), r.Attrs()...), Rows: [][]string{}}
	var mults []int
	hasMult := false
	r.Each(func(t value.Tuple, m int) {
		row := make([]string, len(t))
		for i, v := range t {
			if v.IsNull() {
				row[i] = "_" + strconv.FormatUint(v.NullID(), 10)
			} else {
				row[i] = v.ConstVal()
			}
		}
		out.Rows = append(out.Rows, row)
		mults = append(mults, m)
		hasMult = hasMult || m != 1
	})
	if hasMult {
		out.Mults = mults
	}
	return out
}

// canonical renders result sets order-free: name, then the sorted rows
// with their multiplicities.
func canonical(rs []api.Resultset) string {
	var b strings.Builder
	for _, r := range rs {
		rows := make([]string, len(r.Rows))
		for i, row := range r.Rows {
			m := 1
			if i < len(r.Mults) {
				m = r.Mults[i]
			}
			rows[i] = strings.Join(row, "\x1f") + "\x1e" + strconv.Itoa(m)
		}
		sort.Strings(rows)
		b.WriteString(r.Name)
		b.WriteByte('\n')
		for _, row := range rows {
			b.WriteString(row)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
