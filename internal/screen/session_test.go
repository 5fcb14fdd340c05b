package screen

import (
	"context"
	"testing"

	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/target"
)

// TestSessionMatchesRunJob pins the seam's core contract: scoring
// poses through a warm Session — in whatever batch groupings — is
// byte-identical to a solo RunJob over the same poses. The session
// scores the pose set in three differently-sized calls (full batch,
// partial, remainder) to exercise cross-request-style grouping.
func TestSessionMatchesRunJob(t *testing.T) {
	f := allocTestScorer(91)
	poses := sessionTestPoses(t, 11)
	o := DefaultJobOptions()
	o.BatchSize = 4

	want, err := RunJob(context.Background(), f, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession([]Scorer{f}, target.Protease1, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Prediction, len(poses))
	// Uneven groupings: 4 + 5 (chunked internally as 4+1) + 2.
	for _, cut := range [][2]int{{0, 4}, {4, 9}, {9, 11}} {
		if err := sess.ScoreBatch(poses[cut[0]:cut[1]], got[cut[0]:cut[1]]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range poses {
		if got[i].Fusion != want[i].Fusion || got[i].Vina != want[i].Vina || got[i].MMGBSA != want[i].MMGBSA {
			t.Fatalf("pose %d: session %+v != RunJob %+v", i, got[i], want[i])
		}
		if got[i].CompoundID != want[i].CompoundID || got[i].PoseRank != want[i].PoseRank || got[i].Target != want[i].Target {
			t.Fatalf("pose %d: identity mismatch: session %+v != RunJob %+v", i, got[i], want[i])
		}
	}
}

// TestSessionEnsembleMatchesRunJob extends the byte-identity pin to
// ensemble scorer sets: every per-scorer column of the session equals
// the ensemble job's.
func TestSessionEnsembleMatchesRunJob(t *testing.T) {
	a := renamed{Scorer: allocTestScorer(93), name: "coherent_a"}
	b := renamed{Scorer: allocTestScorer(95), name: "coherent_b"}
	set := []Scorer{a, b}
	poses := sessionTestPoses(t, 7)
	o := DefaultJobOptions()
	o.BatchSize = 3

	want, err := RunJobEnsemble(context.Background(), set, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(set, target.Protease1, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Prediction, len(poses))
	if err := sess.ScoreBatch(poses, got); err != nil {
		t.Fatal(err)
	}
	for i := range poses {
		for _, name := range []string{"coherent_a", "coherent_b"} {
			if got[i].Scores[name] != want[i].Scores[name] {
				t.Fatalf("pose %d scorer %s: session %v != RunJobEnsemble %v", i, name, got[i].Scores[name], want[i].Scores[name])
			}
		}
	}
}

// TestMMGBSAColumnIsThePhysicsRescore: a scorer that only calls itself
// "mmgbsa" is not the MM/GBSA surrogate, so the MMGBSA column keeps the
// physics rescore of each pose instead of that scorer's output.
func TestMMGBSAColumnIsThePhysicsRescore(t *testing.T) {
	impostor := renamed{Scorer: allocTestScorer(97), name: "mmgbsa"}
	poses := sessionTestPoses(t, 5)
	o := DefaultJobOptions()
	o.BatchSize = 2
	got, err := RunJob(context.Background(), impostor, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range got {
		if want := mmgbsa.Rescore(target.Protease1, poses[i].Mol); pr.MMGBSA != want {
			t.Fatalf("pose %d: MMGBSA = %v, want the physics rescore %v", i, pr.MMGBSA, want)
		}
	}
}

// TestWarmSessionZeroAlloc is the service-path allocation pin: the hot
// handler loop — featurize a full batch into recycled slots through
// the shared prefeature, score it through the warm workspace, assemble
// Predictions into a caller-owned slice — allocates nothing once warm,
// at both engine precisions.
func TestWarmSessionZeroAlloc(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		t.Run(string(p), func(t *testing.T) {
			f := allocTestScorer(97)
			poses := sessionTestPoses(t, 8)
			o := DefaultJobOptions()
			o.BatchSize = len(poses)
			o.Precision = p
			sess, err := NewSession([]Scorer{f}, target.Protease1, o, 0)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]Prediction, len(poses))
			loop := func() {
				if err := sess.ScoreBatch(poses, out); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				loop() // warm the workspace pools, slots and packed weights
			}
			if avg := testing.AllocsPerRun(30, loop); avg != 0 {
				t.Fatalf("warm session batch allocates %.1f times, want 0", avg)
			}
		})
	}
}

// TestSessionRefusesMismatchedPrefeature mirrors the engine's
// prefeature validation at the seam.
func TestSessionRefusesMismatchedPrefeature(t *testing.T) {
	f := allocTestScorer(99)
	o := DefaultJobOptions()
	pre, err := PrefeatureFor([]Scorer{f}, target.Protease2, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Prefeature = pre
	if _, err := NewSession([]Scorer{f}, target.Protease1, o, 0); err == nil {
		t.Fatal("session accepted a prefeature built for a different target")
	}
}

// sessionTestPoses docks nothing: it reuses the library poses the
// alloc tests place directly in the pocket frame, with distinct
// per-pose vina scores so the Vina column is load-bearing.
func sessionTestPoses(t *testing.T, n int) []Pose {
	t.Helper()
	f := allocTestScorer(101)
	samples := allocTestSamples(t, f, n)
	poses := make([]Pose, 0, n)
	for i, s := range samples {
		poses = append(poses, Pose{CompoundID: s.ID, PoseRank: i % 3, Mol: s.Mol, VinaScore: -5 - 0.25*float64(i)})
	}
	return poses
}
