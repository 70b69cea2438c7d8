package relation

import (
	"math/rand"
	"testing"

	"incdb/internal/value"
)

// randBatch draws tuples from a small pool (so batches repeat tuples and
// hit stored ones) with multiplicities in [-1, 3].
func randBatch(r *rand.Rand, n int) ([]value.Tuple, []int) {
	ts := make([]value.Tuple, n)
	ms := make([]int, n)
	for i := range ts {
		a := value.Int(r.Intn(5))
		b := value.Int(r.Intn(3))
		if r.Intn(4) == 0 {
			b = value.Null(uint64(1 + r.Intn(2)))
		}
		ts[i] = value.T(a, b)
		ms[i] = r.Intn(5) - 1
	}
	return ts, ms
}

// TestAddBatchMatchesAddMult: slab-backed batch insertion stores exactly
// what one AddMult per tuple stores, and the relation stays correct under
// later row-by-row mutation of slab-backed rows and buckets.
func TestAddBatchMatchesAddMult(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		batched, single := New("B", "a", "b"), New("S", "a", "b")
		for round := 0; round < 3; round++ {
			ts, ms := randBatch(r, r.Intn(12))
			batched.AddBatch(ts, ms)
			for i, tu := range ts {
				single.AddMult(tu, ms[i])
			}
			ts, ms = randBatch(r, 4)
			for i, tu := range ts {
				batched.AddMult(tu, ms[i])
				single.AddMult(tu, ms[i])
			}
			if !batched.Equal(single) || batched.Len() != single.Len() || batched.Size() != single.Size() {
				t.Fatalf("trial %d round %d: batched %v, one by one %v", trial, round, batched, single)
			}
			if batched.HasNulls() != single.HasNulls() {
				t.Fatalf("trial %d: HasNulls differs", trial)
			}
		}
	}
}

// TestApplySlabsMatchPerRow: Apply instantiates through slabs; the result
// equals the definition — every row with v applied, colliding rows'
// multiplicities added — and tolerates later mutation.
func TestApplySlabsMatchPerRow(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		src := New("R", "a", "b")
		ts, ms := randBatch(r, 10)
		for i, tu := range ts {
			src.AddMult(tu, ms[i])
		}
		v := value.NewValuation()
		v.Set(1, value.Int(r.Intn(5)))
		if r.Intn(2) == 0 {
			v.Set(2, value.Int(r.Intn(5)))
		}
		want := New("R", "a", "b")
		src.Each(func(tu value.Tuple, m int) { want.AddMult(v.Apply(tu), m) })
		got := src.Apply(v)
		if !got.Equal(want) || got.HasNulls() != want.HasNulls() {
			t.Fatalf("trial %d: Apply %v = %v, want %v", trial, v, got, want)
		}
		extra, em := randBatch(r, 6)
		for i, tu := range extra {
			got.AddMult(tu, em[i])
			want.AddMult(tu, em[i])
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: after mutation %v, want %v", trial, got, want)
		}
	}
}
