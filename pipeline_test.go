package deepfusion

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
)

// tinyTestModels builds an untrained (deterministic, fast) Models
// bundle for pipeline-mechanics tests: the API contract does not
// depend on model quality.
func tinyTestModels() *Models {
	cnnCfg := fusion.DefaultCNN3DConfig()
	cnnCfg.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	cnnCfg.ConvFilters1 = 4
	cnnCfg.ConvFilters2 = 6
	cnnCfg.DenseNodes = 8
	sgCfg := fusion.DefaultSGCNNConfig()
	sgCfg.CovGatherWidth = 6
	sgCfg.NonCovGatherWidth = 8
	cnn := fusion.NewCNN3D(cnnCfg, 1)
	sg := fusion.NewSGCNN(sgCfg, 2)
	return &Models{
		CNN3D:    cnn,
		SGCNN:    sg,
		Late:     &fusion.LateFusion{CNN: cnn.Clone(), SG: sg.Clone()},
		Mid:      fusion.NewFusion(fusion.DefaultMidFusionConfig(), cnn.Clone(), sg.Clone(), 3),
		Coherent: fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn.Clone(), sg.Clone(), 4),
	}
}

func testDeck(t *testing.T, n int) []*Mol {
	t.Helper()
	var mols []*Mol
	lib := Libraries()[0]
	for i := 0; len(mols) < n; i++ {
		m, err := lib.Mol(i)
		if err != nil {
			continue
		}
		mols = append(mols, m)
	}
	return mols
}

// TestLegacyScreenPinnedToPipeline pins the deprecated Screen wrapper
// byte-identical to the new Pipeline path: same compounds, same
// options, same selections — field for field.
func TestLegacyScreenPinnedToPipeline(t *testing.T) {
	m := tinyTestModels()
	deck := testDeck(t, 5)
	tgt := TargetByName("spike1")
	o := DefaultScreenOptions()
	o.MaxPoses = 2
	o.Select = 3

	legacy, err := Screen(m, tgt, deck, o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPipeline(m).
		WithJob(o.Job).
		WithDocking(o.MaxPoses, o.Seed).
		WithSelection(CostWeights(), o.Select).
		Run(context.Background(), tgt, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy, res.Selected) {
		t.Fatalf("legacy Screen diverged from the Pipeline path:\nlegacy:   %+v\npipeline: %+v", legacy, res.Selected)
	}
}

// TestPipelineResultPerStageCounts checks the rich Result: docking and
// scoring accounting is surfaced instead of swallowed.
func TestPipelineResultPerStageCounts(t *testing.T) {
	m := tinyTestModels()
	deck := testDeck(t, 4)
	tgt := TargetByName("protease1")

	res, err := NewPipeline(m).WithDocking(2, 7).WithSelection(CostWeights(), 2).Run(context.Background(), tgt, deck)
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != "protease1" {
		t.Fatalf("target %q", res.Target)
	}
	if !reflect.DeepEqual(res.ScorerNames, []string{"coherent"}) {
		t.Fatalf("scorer names %v", res.ScorerNames)
	}
	if res.Compounds != len(deck) {
		t.Fatalf("compounds %d, want %d", res.Compounds, len(deck))
	}
	if res.Docked == 0 || res.Docked != len(res.Predictions) || res.Scored != res.Docked {
		t.Fatalf("stage counts inconsistent: docked %d, scored %d, predictions %d", res.Docked, res.Scored, len(res.Predictions))
	}
	if res.Rejected != len(res.Problems) {
		t.Fatalf("rejected %d but %d problems recorded", res.Rejected, len(res.Problems))
	}
	if res.Attempts < 1 {
		t.Fatalf("attempts %d", res.Attempts)
	}
	if len(res.Selected) != 2 || len(res.Scores) == 0 {
		t.Fatalf("selection stage: %d selected of %d scores", len(res.Selected), len(res.Scores))
	}
}

// TestPipelineWithPrecision runs the same funnel on the f64 reference
// and the f32 fast path: the f32 run must complete, select the same
// number of compounds, and keep its per-pose scores within the
// engine's accumulation tolerance of the reference.
func TestPipelineWithPrecision(t *testing.T) {
	m := tinyTestModels()
	deck := testDeck(t, 4)
	tgt := TargetByName("protease1")

	run := func(p Precision) *Result {
		res, err := NewPipeline(m).WithDocking(2, 7).WithPrecision(p).Run(context.Background(), tgt, deck)
		if err != nil {
			t.Fatalf("%s pipeline: %v", p, err)
		}
		return res
	}
	ref := run(PrecisionF64)
	fast := run(PrecisionF32)
	if len(fast.Predictions) != len(ref.Predictions) {
		t.Fatalf("f32 scored %d poses, f64 %d", len(fast.Predictions), len(ref.Predictions))
	}
	for i, pr := range ref.Predictions {
		fp := fast.Predictions[i]
		if fp.CompoundID != pr.CompoundID || fp.PoseRank != pr.PoseRank {
			t.Fatalf("pose %d: f32 scored %s/%d, f64 %s/%d", i, fp.CompoundID, fp.PoseRank, pr.CompoundID, pr.PoseRank)
		}
		a, b := pr.Fusion, fp.Fusion
		den := 1.0
		if d := a; d > 1 || d < -1 {
			den = d
			if den < 0 {
				den = -den
			}
		}
		if e := (a - b) / den; e > 1e-4 || e < -1e-4 {
			t.Fatalf("pose %d: f32 score %v vs f64 %v", i, b, a)
		}
	}
}

// TestPipelineEnsembleScores runs the pipeline under a 3-scorer
// ensemble and checks per-scorer pose columns reach the Result.
func TestPipelineEnsembleScores(t *testing.T) {
	m := tinyTestModels()
	deck := testDeck(t, 3)
	tgt := TargetByName("spike2")

	res, err := NewPipeline(m).
		WithScorers(m.Coherent, VinaScorer(), MMGBSAScorer()).
		WithDocking(2, 9).
		Run(context.Background(), tgt, deck)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.ScorerNames, []string{"coherent", "vina", "mmgbsa"}) {
		t.Fatalf("scorer names %v", res.ScorerNames)
	}
	for _, pr := range res.Predictions {
		if len(pr.Scores) != 3 {
			t.Fatalf("prediction carries %d scorer columns, want 3: %+v", len(pr.Scores), pr)
		}
		if pr.Fusion != pr.Scores["coherent"] {
			t.Fatal("primary scorer does not fill the selection-facing column")
		}
	}
}

// TestPipelineCancellation: a cancelled context aborts the run with
// the context error instead of partial results.
func TestPipelineCancellation(t *testing.T) {
	m := tinyTestModels()
	deck := testDeck(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewPipeline(m).Run(ctx, TargetByName("spike1"), deck); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled pipeline returned %v, want context.Canceled", err)
	}
}

// TestModelsScorer exercises the by-name scorer accessor.
func TestModelsScorer(t *testing.T) {
	m := tinyTestModels()
	for _, name := range []string{"cnn3d", "sgcnn", "late", "mid", "coherent"} {
		s, err := m.Scorer(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("Scorer(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := m.Scorer("bogus"); err == nil {
		t.Fatal("unknown scorer name must error")
	}
}
