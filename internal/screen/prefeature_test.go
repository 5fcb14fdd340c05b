package screen

// Engine-level tests of the featurization prefeature: a job scored
// through the cached path (default) and through a caller-injected
// shared prefeature must produce predictions byte-identical to scoring
// fusion.FeaturizeComplex samples (the reference featurization); a
// prefeature built for the wrong (target, options) pair must be
// refused.

import (
	"context"
	"strings"
	"testing"

	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/target"
)

func prefeatureTestScorer() *fusion.Fusion {
	cnn := fusion.NewCNN3D(fusion.DefaultCNN3DConfig(), 17)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 18)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 19)
}

func prefeatureTestPoses(t *testing.T, n int) []Pose {
	t.Helper()
	var poses []Pose
	for i := 0; len(poses) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		poses = append(poses, Pose{CompoundID: m.Name, PoseRank: 0, Mol: m, VinaScore: -6})
	}
	return poses
}

// TestRunJobPrefeatureByteIdentical pins the engine contract of the
// prefeature: predictions through the per-job prefeature and through a
// shared injected prefeature are byte-identical to the reference —
// every pose featurized from scratch by fusion.FeaturizeComplex and
// scored alone (legacyRunJob).
func TestRunJobPrefeatureByteIdentical(t *testing.T) {
	f := prefeatureTestScorer()
	poses := prefeatureTestPoses(t, 10)
	o := DefaultJobOptions()
	o.Ranks = 2
	o.LoadersPerRank = 2
	o.BatchSize = 3 // remainder batch exercises slot recycling mid-job

	cached, err := RunJob(context.Background(), f, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}

	uncached := legacyRunJob(f, target.Protease1, poses, o)

	pf, err := PrefeatureFor([]Scorer{f}, target.Protease1, o)
	if err != nil {
		t.Fatal(err)
	}
	if pf == nil {
		t.Fatal("PrefeatureFor returned nil for a featurizing scorer")
	}
	oShared := o
	oShared.Prefeature = pf
	shared, err := RunJob(context.Background(), f, target.Protease1, poses, oShared)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run with the same injected prefeature: reuse across jobs is
	// the campaign's pattern.
	shared2, err := RunJob(context.Background(), f, target.Protease1, poses, oShared)
	if err != nil {
		t.Fatal(err)
	}

	for i := range poses {
		assertPredictionEqual(t, "cached", i, cached[i], uncached[i])
		assertPredictionEqual(t, "shared-prefeature", i, shared[i], uncached[i])
		assertPredictionEqual(t, "reused-prefeature", i, shared2[i], uncached[i])
	}
}

// assertPredictionEqual compares every field bit-for-bit (Prediction
// holds a map, so struct equality does not apply).
func assertPredictionEqual(t *testing.T, path string, i int, got, want Prediction) {
	t.Helper()
	if got.CompoundID != want.CompoundID || got.Target != want.Target ||
		got.PoseRank != want.PoseRank || got.Fusion != want.Fusion ||
		got.Vina != want.Vina || got.MMGBSA != want.MMGBSA || got.Rank != want.Rank {
		t.Fatalf("pose %d: %s %+v != uncached %+v", i, path, got, want)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("pose %d: %s scorer columns %v != %v", i, path, got.Scores, want.Scores)
	}
	for name, v := range want.Scores {
		if got.Scores[name] != v {
			t.Fatalf("pose %d: %s score %q %v != %v", i, path, name, got.Scores[name], v)
		}
	}
}

// TestRunJobRefusesMismatchedPrefeature pins the safety check: a
// prefeature built for another target (or other options) fails the
// job instead of silently featurizing against the wrong cache.
func TestRunJobRefusesMismatchedPrefeature(t *testing.T) {
	f := prefeatureTestScorer()
	poses := prefeatureTestPoses(t, 2)
	o := DefaultJobOptions()
	pf, err := PrefeatureFor([]Scorer{f}, target.Spike1, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Prefeature = pf
	if _, err := RunJob(context.Background(), f, target.Protease1, poses, o); err == nil {
		t.Fatal("job accepted a prefeature built for a different target")
	} else if !strings.Contains(err.Error(), "prefeature") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A deterministic configuration error must surface immediately, not
	// burn the retry budget as if the job were flaky.
	_, attempts, err := RunJobWithRetry(context.Background(), f, target.Protease1, poses, o, 3)
	if err == nil {
		t.Fatal("retry wrapper accepted a mismatched prefeature")
	}
	if attempts != 1 {
		t.Fatalf("deterministic prefeature mismatch consumed %d attempts, want 1", attempts)
	}
}

// TestPrefeatureForPhysicsOnlySet pins the no-featurization case: a
// scorer set that declares no representation gets a nil prefeature
// and the job still runs (on raw samples).
func TestPrefeatureForPhysicsOnlySet(t *testing.T) {
	pf, err := PrefeatureFor([]Scorer{stubScorer{}}, target.Protease1, DefaultJobOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pf != nil {
		t.Fatal("physics-only scorer set should not build a prefeature")
	}
}

// stubScorer is a minimal featurization-free Scorer.
type stubScorer struct{}

func (stubScorer) Name() string                   { return "stub" }
func (stubScorer) FeatureOptions() FeatureOptions { return FeatureOptions{} }
func (stubScorer) LowerIsBetter() bool            { return false }
func (stubScorer) ScoreInto(samples []*fusion.Sample, _ *fusion.Workspace, out []float64) {
	for i, s := range samples {
		out[i] = float64(len(s.ID))
	}
}
