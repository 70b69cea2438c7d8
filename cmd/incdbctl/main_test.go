package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incdb/internal/core"
)

// TestRunReturnsModeFailures: a single mode that fails returns its error
// (so incdbctl exits 1), whether the failure is a rewriting outside the
// Figure 2 fragment or an oracle over its world bound; report keeps its
// per-line errors and succeeds.
func TestRunReturnsModeFailures(t *testing.T) {
	orders := filepath.Join("..", "..", "examples", "data", "orders.idb")
	nulls := filepath.Join(t.TempDir(), "nulls.idb")
	src := "rel R a\n"
	for i := 1; i <= 8; i++ {
		src += fmt.Sprintf("row R _%d\n", i)
	}
	if err := os.WriteFile(nulls, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		db, mode, query string
		maxWorlds       int
	}{
		{orders, "plus", "div(Orders, proj(1, Orders))", 0},
		{orders, "poss", "div(Orders, proj(1, Orders))", 0},
		{nulls, "cert", "R", 10},
		{nulls, "inter", "R", 10},
	} {
		if err := run(c.db, c.mode, c.query, c.maxWorlds, 1); err == nil {
			t.Errorf("-mode %s %q (maxworlds %d) on %s: no error", c.mode, c.query, c.maxWorlds, filepath.Base(c.db))
		}
	}
	if err := run(nulls, "report", "R", 10, 1); err != nil {
		t.Errorf("report must keep per-line errors, got %v", err)
	}
	for _, mode := range append(core.ProcNames(), "qt", "qf", "report") {
		if err := run(orders, mode, "minus(proj(0, Orders), Payments)", 0, 1); err != nil {
			t.Errorf("-mode %s: %v", mode, err)
		}
	}
	if err := run(orders, "bogus", "Orders", 0, 1); err == nil || !strings.Contains(err.Error(), "ctable-aware") {
		t.Errorf("unknown mode error should list the modes, got %v", err)
	}
}
