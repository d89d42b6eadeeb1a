package querycause_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/imdb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestFormatExplanationsGolden pins the Fig. 2b table rendering to a
// golden file: the IMDB micro-instance's Musical ranking, the exact
// table the paper prints.
func TestFormatExplanationsGolden(t *testing.T) {
	db, _ := imdb.Micro()
	got := qc.FormatExplanations(db, localRank(t, db, imdb.GenreQuery(), "Musical"))

	golden := filepath.Join("testdata", "format_explanations.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record)", err)
	}
	if got != string(want) {
		t.Errorf("FormatExplanations output changed\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestFormatExplanationsLarge checks the builder-based renderer on a
// ranking large enough that quadratic string concatenation would have
// been visible, and that the header row survives an empty ranking.
func TestFormatExplanationsLarge(t *testing.T) {
	db := qc.NewDatabase()
	var exps []qc.Explanation
	for i := 0; i < 2000; i++ {
		id := db.MustAdd("R", true, qc.Value(strings.Repeat("x", 1+i%7)))
		exps = append(exps, qc.Explanation{Tuple: id, Rho: 0.25, ContingencySize: 3})
	}
	out := qc.FormatExplanations(db, exps)
	if got := strings.Count(out, "\n"); got != len(exps)+1 {
		t.Errorf("rendered %d lines; want %d rows + header", got, len(exps)+1)
	}
	if empty := qc.FormatExplanations(db, nil); empty != "  ρ_t    tuple\n" {
		t.Errorf("empty ranking rendered %q", empty)
	}
}
