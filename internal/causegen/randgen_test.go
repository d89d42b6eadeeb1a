package causegen

import (
	"math/rand"
	"testing"

	"github.com/querycause/querycause/internal/parser"
	"github.com/querycause/querycause/internal/ra"
	"github.com/querycause/querycause/internal/whyno"
)

// Generation must be a pure function of (seed, cfg): the differential
// harness's replay-by-seed workflow depends on it.
func TestRandomInstanceDeterministic(t *testing.T) {
	cfg := GenConfig{}
	for seed := int64(0); seed < 200; seed++ {
		a := RandomInstance(seed, cfg)
		b := RandomInstance(seed, cfg)
		if a.Query.String() != b.Query.String() {
			t.Fatalf("seed %d: queries differ: %v vs %v", seed, a.Query, b.Query)
		}
		if a.WhyNo != b.WhyNo {
			t.Fatalf("seed %d: whyno flag differs", seed)
		}
		fa, err := parser.FormatDatabase(a.DB)
		if err != nil {
			t.Fatalf("seed %d: format: %v", seed, err)
		}
		fb, _ := parser.FormatDatabase(b.DB)
		if fa != fb {
			t.Fatalf("seed %d: databases differ:\n%s\nvs\n%s", seed, fa, fb)
		}
	}
}

// Every generated instance must be well-formed: the query validates
// against the database, Why-So queries hold, Why-No instances satisfy
// the Theorem 4.17 preconditions, and no duplicate rows exist.
func TestRandomInstanceWellFormed(t *testing.T) {
	cfg := GenConfig{MaxAtoms: 4, MaxArity: 3, TuplesPerRelation: 8}
	sawWhyNo, sawWhySo, sawSelfJoin, sawExo := false, false, false, false
	for seed := int64(0); seed < 500; seed++ {
		in := RandomInstance(seed, cfg)
		if err := in.Query.Validate(in.DB); err != nil {
			t.Fatalf("seed %d: invalid query: %v", seed, err)
		}
		seen := make(map[string]bool)
		for _, tp := range in.DB.Tuples() {
			k := tupleKey(tp.Rel, tp.Args)
			if seen[k] {
				t.Fatalf("seed %d: duplicate row %v", seed, tp)
			}
			seen[k] = true
			if !tp.Endo {
				sawExo = true
			}
		}
		if in.Query.HasSelfJoin() {
			sawSelfJoin = true
		}
		if in.WhyNo {
			sawWhyNo = true
			if err := whyno.CheckInstance(in.DB, in.Query); err != nil {
				t.Fatalf("seed %d: invalid why-no instance: %v", seed, err)
			}
		} else {
			sawWhySo = true
			held, err := ra.Holds(in.DB, in.Query)
			if err != nil {
				t.Fatalf("seed %d: holds: %v", seed, err)
			}
			if !held {
				t.Fatalf("seed %d: why-so query does not hold: %v", seed, in)
			}
		}
	}
	if !sawWhyNo || !sawWhySo || !sawSelfJoin || !sawExo {
		t.Fatalf("generator coverage gap: whyno=%v whyso=%v selfjoin=%v exo=%v",
			sawWhyNo, sawWhySo, sawSelfJoin, sawExo)
	}
}

// Generated queries must survive the parser round-trip: the server
// differential replays them as Query.String() through ParseQuery.
func TestRandomQueryParserRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := GenConfig{MaxAtoms: 4, MaxArity: 3, ConstProb: 0.4}
	for i := 0; i < 500; i++ {
		q := RandomQuery(rng, cfg)
		s := q.String()
		back, err := parser.ParseQuery(s)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", s, err)
		}
		if back.String() != s {
			t.Fatalf("round-trip changed query: %q -> %q", s, back.String())
		}
	}
}
