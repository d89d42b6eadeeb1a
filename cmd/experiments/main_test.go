package main

import (
	"reflect"
	"testing"
)

// TestAllExperimentsRun smoke-tests every experiment function: each
// regenerates its figure without calling log.Fatal. Output goes to
// stdout (use `go run ./cmd/experiments` for the readable version).
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for name, f := range map[string]func(){
		"fig1": fig1, "fig2": fig2, "fig3": fig3, "fig4": fig4,
		"fig6": fig6, "fig7": fig7, "fig9": fig9, "thm415": thm415, "gap": gap,
		"batch": batch,
	} {
		t.Run(name, func(t *testing.T) { f() })
	}
}

// TestFig9RowOrder: fig9 prints one row per h2* tuple in ascending
// tuple id, the same rows on every run.
func TestFig9RowOrder(t *testing.T) {
	rows := fig9Rows()
	if len(rows) != 8 {
		t.Fatalf("%d rows, want one per h2* tuple (8)", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].id >= rows[i].id {
			t.Fatalf("row %d (tuple %d) follows tuple %d: rows not in ascending tuple id", i, rows[i].id, rows[i-1].id)
		}
	}
	for run := 0; run < 5; run++ {
		if again := fig9Rows(); !reflect.DeepEqual(again, rows) {
			t.Fatalf("run %d: rows differ:\n%v\nwant:\n%v", run, again, rows)
		}
	}
}
