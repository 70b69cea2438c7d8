package relation

import (
	"sync"
	"testing"

	"incdb/internal/value"
)

// TestVersionBumpsOnEveryMutationPath pins the contract long-lived caches
// rely on: every mutating call moves the version, even when it is a no-op.
func TestVersionBumpsOnEveryMutationPath(t *testing.T) {
	r := New("R", "a", "b")
	if r.Version() != 0 {
		t.Fatalf("fresh relation version = %d, want 0", r.Version())
	}
	last := r.Version()
	step := func(name string, f func()) {
		f()
		if r.Version() <= last {
			t.Fatalf("%s did not bump the version (still %d)", name, r.Version())
		}
		last = r.Version()
	}
	step("Add", func() { r.Add(value.Consts("x", "y")) })
	step("AddMult", func() { r.AddMult(value.Consts("x", "y"), 2) })
	step("AddMult negative", func() { r.AddMult(value.Consts("x", "y"), -1) })
	step("AddMult no-op (absent, m<=0)", func() { r.AddMult(value.Consts("q", "q"), -1) })
	step("SetMult", func() { r.SetMult(value.Consts("x", "y"), 5) })
	step("SetMult remove", func() { r.SetMult(value.Consts("x", "y"), 0) })
	step("Normalize", func() { r.Normalize() })
}

// TestVersionStableAcrossReads checks that read-only accessors — including
// the ones that build lazy derived state — never move the version.
func TestVersionStableAcrossReads(t *testing.T) {
	r := New("R", "a")
	r.Add(value.T(value.Null(1)))
	r.Add(value.Consts("c"))
	v := r.Version()
	_ = r.HasNulls()
	_ = r.Tuples()
	_ = r.String()
	r.Each(func(value.Tuple, int) {})
	_ = r.Contains(value.Consts("c"))
	_ = r.Size()
	if r.Version() != v {
		t.Fatalf("read-only accessors moved the version: %d -> %d", v, r.Version())
	}
}

// TestVersionCloneAndApply: Clone preserves the version (the copy holds the
// same contents, so cached state keyed on (pointer, version) pairs stays
// distinguishable yet comparable); Apply builds fresh relations at zero.
func TestVersionCloneAndApply(t *testing.T) {
	r := New("R", "a")
	r.Add(value.T(value.Null(1)))
	r.Add(value.Consts("c"))
	want := r.Version()
	c := r.Clone()
	if c.Version() != want {
		t.Fatalf("Clone version = %d, want %d", c.Version(), want)
	}
	val := value.NewValuation()
	val.Set(1, value.Const("z"))
	if got := r.Apply(val).Version(); got != 0 {
		t.Fatalf("Apply result version = %d, want 0 (fresh relation)", got)
	}
	if r.Version() != want {
		t.Fatalf("Apply moved the source version: %d -> %d", want, r.Version())
	}
}

// TestVersionStableUnderApplyShared: building worlds from a base database
// (the oracle hot loop) must not perturb the base's version vector, and
// null-free relations shared by pointer keep their version in the world.
func TestVersionStableUnderApplyShared(t *testing.T) {
	db := NewDatabase()
	withNulls := New("N", "a")
	withNulls.Add(value.T(value.Null(1)))
	complete := New("C", "a")
	complete.Add(value.Consts("c"))
	complete.Add(value.Consts("d"))
	db.Add(withNulls).Add(complete)

	before := db.Versions()
	val := value.NewValuation()
	val.Set(1, value.Const("c"))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				world := db.ApplyShared(val)
				if world.Relation("C") != complete {
					t.Error("null-free relation not shared by pointer")
					return
				}
				if world.Relation("C").Version() != before["C"] {
					t.Error("shared relation version moved in world")
					return
				}
			}
		}()
	}
	wg.Wait()
	after := db.Versions()
	for name, v := range before {
		if after[name] != v {
			t.Fatalf("ApplyShared moved version of %s: %d -> %d", name, v, after[name])
		}
	}
}
