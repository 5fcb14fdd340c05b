package screen

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"deepfusion/internal/dock"
	"deepfusion/internal/fusion"
	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/target"
)

// legacyRunJob is a straight-line reimplementation of the
// pre-redesign RunJob semantics (the single-model engine this PR
// replaced): for every pose, featurize with the JobOptions options,
// predict with the Fusion model, attach the pose's Vina score and the
// MM/GBSA rescore, and attribute the pose to the rank that owned its
// index stride. The golden test pins the generic Scorer engine
// byte-identical to this path.
func legacyRunJob(f *fusion.Fusion, p *target.Pocket, poses []Pose, o JobOptions) []Prediction {
	out := make([]Prediction, len(poses))
	for i, ps := range poses {
		s := fusion.FeaturizeComplex(ps.CompoundID, p, ps.Mol, 0, o.Voxel, o.Graph)
		out[i] = Prediction{
			CompoundID: ps.CompoundID,
			Target:     p.Name,
			PoseRank:   ps.PoseRank,
			Fusion:     f.Predict(s),
			Vina:       ps.VinaScore,
			MMGBSA:     mmgbsa.Rescore(p, ps.Mol),
			Rank:       i % o.Ranks,
		}
	}
	return out
}

// TestGoldenCoherentEngineMatchesLegacyRunJob is the redesign's
// acceptance pin: the Scorer-based engine running the Coherent Fusion
// model produces predictions — and serialized h5lite shard bytes —
// identical to the pre-redesign single-model RunJob path.
func TestGoldenCoherentEngineMatchesLegacyRunJob(t *testing.T) {
	f := tinyFusion(t)
	mols := testMols(t, 4)
	poses, _, err := DockCompounds(context.Background(), target.Protease1, mols, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyJobOptions()

	want := legacyRunJob(f, target.Protease1, poses, o)
	got, err := RunJob(context.Background(), f, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("pose %d diverged from the legacy engine:\n new: %+v\n old: %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("prediction lists diverged: %d vs %d", len(got), len(want))
	}

	// Byte-identity of the persisted output: single-scorer jobs keep
	// the exact legacy shard layout (no per-scorer columns).
	shardBytes := func(preds []Prediction) []byte {
		var all bytes.Buffer
		for _, file := range WriteShards(preds, 3) {
			if err := file.Write(&all); err != nil {
				t.Fatal(err)
			}
		}
		return all.Bytes()
	}
	if !bytes.Equal(shardBytes(got), shardBytes(want)) {
		t.Fatal("shard bytes diverged from the pre-redesign layout")
	}
}

// TestEnsembleSharesFeaturizationAndEmitsPerScorerColumns checks the
// featurize-once/score-N contract: an ensemble job emits every
// scorer's prediction, the primary fills the legacy column, and the
// per-scorer values match each scorer run alone.
func TestEnsembleSharesFeaturizationAndEmitsPerScorerColumns(t *testing.T) {
	f := tinyFusion(t)
	ensemble := []Scorer{f, dock.VinaScorer{}, mmgbsa.Scorer{}}
	mols := testMols(t, 3)
	poses, _, err := DockCompounds(context.Background(), target.Spike1, mols, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyJobOptions()

	preds, err := RunJobEnsemble(context.Background(), ensemble, target.Spike1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	solo := make(map[string][]Prediction, len(ensemble))
	for _, s := range ensemble {
		ps, err := RunJob(context.Background(), s, target.Spike1, poses, o)
		if err != nil {
			t.Fatal(err)
		}
		solo[s.Name()] = ps
	}
	for i, pr := range preds {
		if len(pr.Scores) != len(ensemble) {
			t.Fatalf("pose %d carries %d scorer columns, want %d", i, len(pr.Scores), len(ensemble))
		}
		if pr.Fusion != pr.Scores[ensemble[0].Name()] {
			t.Fatalf("pose %d: primary column %v != primary scorer %v", i, pr.Fusion, pr.Scores[ensemble[0].Name()])
		}
		for _, s := range ensemble {
			// Solo jobs orient their primary column to pK; the ensemble
			// columns carry raw scorer units.
			if got, want := orientToPK(s, pr.Scores[s.Name()]), solo[s.Name()][i].Fusion; got != want {
				t.Fatalf("pose %d scorer %s: ensemble %v != solo %v", i, s.Name(), got, want)
			}
		}
	}

	// The columns survive the shard round trip.
	back, err := ReadShards(WriteShards(preds, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(preds) {
		t.Fatalf("round trip lost rows: %d vs %d", len(back), len(preds))
	}
	for _, pr := range back {
		if len(pr.Scores) != len(ensemble) {
			t.Fatalf("round-tripped pose lost scorer columns: %+v", pr)
		}
	}
}

// sampleProbe records what the engine's loaders put on the samples it
// scores.
type sampleProbe struct {
	sawVoxels *atomic.Bool
	sawNil    *atomic.Bool
}

func (p sampleProbe) Name() string                   { return "probe" }
func (p sampleProbe) FeatureOptions() FeatureOptions { return FeatureOptions{} }
func (p sampleProbe) LowerIsBetter() bool            { return false }
func (p sampleProbe) ScoreInto(samples []*fusion.Sample, _ *fusion.Workspace, out []float64) {
	clear(out)
	for _, s := range samples {
		if s.Voxels != nil && s.Graph != nil {
			p.sawVoxels.Store(true)
		}
		if s.Voxels == nil && s.Graph == nil {
			p.sawNil.Store(true)
		}
	}
}

// TestFeaturizationSkippedWithoutFeaturizer pins the loader contract:
// a job whose scorer set declares only zero FeatureOptions receives
// raw samples (identity, pocket, pose only); adding one scorer that
// declares a representation turns featurization back on for the whole
// shared batch.
func TestFeaturizationSkippedWithoutFeaturizer(t *testing.T) {
	mols := testMols(t, 2)
	poses, _, err := DockCompounds(context.Background(), target.Spike1, mols, 2, 45)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyJobOptions()

	probe := sampleProbe{sawVoxels: &atomic.Bool{}, sawNil: &atomic.Bool{}}
	if _, err := RunJobEnsemble(context.Background(), []Scorer{probe, dock.VinaScorer{}}, target.Spike1, poses, o); err != nil {
		t.Fatal(err)
	}
	if probe.sawVoxels.Load() || !probe.sawNil.Load() {
		t.Fatal("featurizer-free job must hand raw samples to ScoreInto")
	}

	probe = sampleProbe{sawVoxels: &atomic.Bool{}, sawNil: &atomic.Bool{}}
	if _, err := RunJobEnsemble(context.Background(), []Scorer{probe, tinyFusion(t)}, target.Spike1, poses, o); err != nil {
		t.Fatal(err)
	}
	if !probe.sawVoxels.Load() || probe.sawNil.Load() {
		t.Fatal("a scorer declaring a representation must featurize the shared samples")
	}
}

// TestEnsembleRejectsDuplicateScorerNames: Scores and shard columns
// are keyed by name, so a duplicate would silently drop predictions.
func TestEnsembleRejectsDuplicateScorerNames(t *testing.T) {
	o := tinyJobOptions()
	_, err := RunJobEnsemble(context.Background(), []Scorer{dock.VinaScorer{}, dock.VinaScorer{}}, target.Spike1, nil, o)
	if err == nil {
		t.Fatal("duplicate scorer names must be refused")
	}
}

// slowScorer counts batches and blocks until released, letting the
// cancellation test cancel mid-job deterministically.
type slowScorer struct {
	batches *atomic.Int64
	started chan struct{} // closed after the first batch begins
	release chan struct{} // scoring blocks here until closed
	once    *sync.Once
}

func (s slowScorer) Name() string                   { return "slow" }
func (s slowScorer) FeatureOptions() FeatureOptions { return FeatureOptions{} }
func (s slowScorer) LowerIsBetter() bool            { return false }
func (s slowScorer) ScoreInto(samples []*fusion.Sample, _ *fusion.Workspace, out []float64) {
	s.once.Do(func() { close(s.started) })
	<-s.release
	s.batches.Add(1)
	clear(out)
}

// TestRunJobCancellationStopsWithinOneBatch cancels a running job
// after its first batch begins and checks the engine stops at the
// batch boundary: no rank starts another batch once the context is
// cancelled, and the job reports the context error.
func TestRunJobCancellationStopsWithinOneBatch(t *testing.T) {
	mols := testMols(t, 6)
	poses, _, err := DockCompounds(context.Background(), target.Spike2, mols, 3, 44)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyJobOptions()
	o.Ranks = 1 // one scoring loop: batches are strictly sequential
	o.BatchSize = 2
	totalBatches := (len(poses) + o.BatchSize - 1) / o.BatchSize
	if totalBatches < 3 {
		t.Fatalf("need >= 3 batches to observe an early stop, got %d", totalBatches)
	}

	s := slowScorer{
		batches: &atomic.Int64{},
		started: make(chan struct{}),
		release: make(chan struct{}),
		once:    &sync.Once{},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-s.started // first batch is in flight
		cancel()
		close(s.release) // let it finish; the next batch must not start
	}()
	preds, err := RunJob(ctx, s, target.Spike2, poses, o)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
	if preds != nil {
		t.Fatal("cancelled job must not return predictions")
	}
	if got := s.batches.Load(); got != 1 {
		t.Fatalf("engine scored %d batches after cancellation landed during batch 1 of %d", got, totalBatches)
	}
}
