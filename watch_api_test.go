package querycause_test

import (
	"context"
	"errors"
	"testing"

	qc "github.com/querycause/querycause"
	"github.com/querycause/querycause/internal/server"
)

func watchDTOs(t *testing.T, db *qc.Database, exps []qc.Explanation) []qc.ExplanationDTO {
	t.Helper()
	out := make([]qc.ExplanationDTO, len(exps))
	for i, e := range exps {
		out[i] = server.NewExplanationDTO(db, e)
	}
	return out
}

// TestSessionWatch: Session.Watch emits a snapshot plus exactly one
// frame per mutation call on both transports, and replaying the frames
// with ApplyDiff reconstructs the ranking a cold Rank would return —
// byte for byte, including an unrelated mutation's empty version-bump
// frame.
func TestSessionWatch(t *testing.T) {
	q, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	// The reference: the same mutation sequence replayed directly.
	ref := mutateChainDB()
	ref.MustAdd("T", true, "zzz")         // 4: unrelated — empty diff
	ref.MustAdd("R", true, "a4", "a2")    // 5: second witness for a4
	if err := ref.Delete(1); err != nil { // S(a3): kills the first witness
		t.Fatal(err)
	}
	want := mustJSON(t, watchDTOs(t, ref, localRank(t, ref, q, "a4")))

	bothTransportsFresh(t, mutateChainDB, func(t *testing.T, sess qc.Session) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var (
			state  []qc.ExplanationDTO
			frames []qc.DiffEvent
		)
		for ev, err := range sess.Watch(ctx, qc.WatchSpec{Query: q, Answer: []qc.Value{"a4"}}) {
			if err != nil {
				t.Fatalf("watch error after %d frames: %v", len(frames), err)
			}
			frames = append(frames, ev)
			state = qc.ApplyDiff(state, ev)
			switch len(frames) {
			case 1:
				if ev.Type != "snapshot" {
					t.Fatalf("first frame type = %q, want snapshot", ev.Type)
				}
				if _, err := sess.Insert(ctx, qc.TupleSpec{Rel: "T", Args: []string{"zzz"}, Endo: true}); err != nil {
					t.Fatal(err)
				}
			case 2:
				// The T insert cannot affect q: an empty version-bump diff.
				if ev.Type != "diff" || len(ev.CausesAdded) != 0 || len(ev.CausesRemoved) != 0 || len(ev.RankChanged) != 0 {
					t.Fatalf("unrelated-mutation frame = %s, want empty diff", mustJSON(t, ev))
				}
				if _, err := sess.Insert(ctx, qc.TupleSpec{Rel: "R", Args: []string{"a4", "a2"}, Endo: true}); err != nil {
					t.Fatal(err)
				}
			case 3:
				if ev.Type != "diff" || len(ev.CausesAdded) == 0 {
					t.Fatalf("witness-adding frame = %s, want diff with causes_added", mustJSON(t, ev))
				}
				if err := sess.Delete(ctx, 1); err != nil {
					t.Fatal(err)
				}
			case 4:
				if ev.Type != "diff" || len(ev.CausesRemoved) == 0 {
					t.Fatalf("witness-killing frame = %s, want diff with causes_removed", mustJSON(t, ev))
				}
			}
			if len(frames) == 4 {
				break
			}
		}
		for i := 1; i < len(frames); i++ {
			if frames[i].Version <= frames[i-1].Version {
				t.Fatalf("frame versions not increasing: %d then %d", frames[i-1].Version, frames[i].Version)
			}
		}
		if got := mustJSON(t, state); got != want {
			t.Errorf("replayed ranking diverges from cold replay:\n got %s\nwant %s", got, want)
		}

		// A second watch opened now snapshots the same ranking the replay
		// reconstructed.
		for ev, err := range sess.Watch(ctx, qc.WatchSpec{Query: q, Answer: []qc.Value{"a4"}}) {
			if err != nil {
				t.Fatalf("second watch: %v", err)
			}
			if got := mustJSON(t, qc.ApplyDiff(nil, ev)); got != want {
				t.Errorf("second watch snapshot:\n got %s\nwant %s", got, want)
			}
			break
		}
	})
}

// TestSessionWatchErrors: invalid specs fail as the first iteration
// error with the taxonomy sentinel, identically on both transports,
// and cancellation ends a healthy stream with the context error.
func TestSessionWatchErrors(t *testing.T) {
	q, err := qc.ParseQuery("q(x) :- R(x,y), S(y)")
	if err != nil {
		t.Fatal(err)
	}
	bothTransportsFresh(t, mutateChainDB, func(t *testing.T, sess qc.Session) {
		ctx := context.Background()
		firstErr := func(spec qc.WatchSpec) error {
			for _, err := range sess.Watch(ctx, spec) {
				return err
			}
			return nil
		}
		if err := firstErr(qc.WatchSpec{}); !errors.Is(err, qc.ErrBadInstance) {
			t.Errorf("nil-query watch: err = %v; want ErrBadInstance", err)
		}
		// a9 cannot hold even with every candidate tuple inserted, so the
		// why-no instance is invalid (Section 2's validity condition).
		if err := firstErr(qc.WatchSpec{Query: q, Answer: []qc.Value{"a9"}, WhyNo: true}); !errors.Is(err, qc.ErrInvalidWhyNo) {
			t.Errorf("invalid why-no watch: err = %v; want ErrInvalidWhyNo", err)
		}

		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		sawSnapshot := false
		var lastErr error
		for ev, err := range sess.Watch(cctx, qc.WatchSpec{Query: q, Answer: []qc.Value{"a4"}}) {
			if err != nil {
				lastErr = err
				break
			}
			if ev.Type == "snapshot" {
				sawSnapshot = true
				cancel()
			}
		}
		if !sawSnapshot {
			t.Fatal("no snapshot before cancellation")
		}
		if !errors.Is(lastErr, context.Canceled) {
			t.Errorf("canceled watch: err = %v; want context.Canceled", lastErr)
		}
	})
}
