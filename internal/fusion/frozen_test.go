package fusion

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/target"
	"deepfusion/internal/tensor"
)

// allParams returns every parameter of a fusion model, heads included,
// whatever its Coherent flag.
func allParams(f *Fusion) []*nn.Param {
	ps := append([]*nn.Param{}, f.FusionParams()...)
	ps = append(ps, f.CNN.Params()...)
	return append(ps, f.SG.Params()...)
}

// frozenTestModel builds a coherent model on a grid large enough for
// the active box to be a strict part of it, with batch norm in both the
// head and the trunk and non-zero conv biases, so every weight-derived
// form — packed panels, scatter taps, f32 vectors, the folded
// normalization, the baseline and empty-grid responses — is live.
func frozenTestModel(seed int64) *Fusion {
	cfg := tinyCNNConfig()
	cfg.Voxel = featurize.VoxelOptions{GridSize: 16, Resolution: 2.0, Sigma: 0.8}
	cfg.BatchNorm = true
	cnn := NewCNN3D(cfg, seed)
	setConvBiases(cnn, func(b *tensor.Tensor) { fill(b, 0.05) })
	fc := DefaultCoherentConfig()
	fc.BatchNorm = true
	return NewFusion(fc, cnn, NewSGCNN(tinySGConfig(), seed+1), seed+2)
}

func frozenTestSamples(f *Fusion) []*Sample {
	pre := featurize.NewPocketPrefeature(target.Protease2, f.CNN.Cfg.Voxel, f.SG.Cfg.Graph)
	var out []*Sample
	for _, m := range boxTestPoses(newRand(9), target.Protease2, 4) {
		out = append(out, FeaturizeComplexWithPrefeature(nil, pre, m.Name, m, 0))
	}
	return out
}

// scoresOf scores through fresh workspaces at both precisions.
func scoresOf(f *Fusion, samples []*Sample) [2][]float64 {
	var out [2][]float64
	for i, p := range []Precision{PrecisionF64, PrecisionF32} {
		out[i] = make([]float64, len(samples))
		f.PredictBatchInto(samples, NewWorkspaceFor(p), out[i])
	}
	return out
}

// freshCopyScores scores a newly constructed model holding f's current
// weights (and running statistics): what f itself must score once its
// caches have caught up with its weights.
func freshCopyScores(t *testing.T, f *Fusion, samples []*Sample) [2][]float64 {
	t.Helper()
	g := frozenTestModel(1234)
	g.Cfg = f.Cfg
	if err := nn.CopyParams(allParams(g), allParams(f)); err != nil {
		t.Fatal(err)
	}
	copy(g.CNN.bn.RunMean, f.CNN.bn.RunMean)
	copy(g.CNN.bn.RunVar, f.CNN.bn.RunVar)
	for i := range f.bns {
		copy(g.bns[i].RunMean, f.bns[i].RunMean)
		copy(g.bns[i].RunVar, f.bns[i].RunVar)
	}
	return scoresOf(g, samples)
}

// TestWeightChangesInvalidateCompiledForms walks one warm model through
// every way weights change — an optimizer step, a training pass that
// moves the batch-norm statistics, CopyParams, LoadParams, FineTune —
// and after each requires its scores, at both precisions and through a
// workspace that was warm before the change, to equal a freshly built
// model's. A stale packed panel, scatter-tap layout, folded
// normalization or baseline response would break the equality.
func TestWeightChangesInvalidateCompiledForms(t *testing.T) {
	f := frozenTestModel(7)
	samples := frozenTestSamples(f)
	ws := [2]*Workspace{NewWorkspaceFor(PrecisionF64), NewWorkspaceFor(PrecisionF32)}
	check := func(step string) {
		t.Helper()
		want := freshCopyScores(t, f, samples)
		for i := range ws {
			got := make([]float64, len(samples))
			f.PredictBatchInto(samples, ws[i], got)
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("after %s, %s sample %d: warm model scores %v, fresh model %v", step, ws[i].Precision(), j, got[j], want[i][j])
				}
			}
		}
	}
	check("construction") // also warms every form
	before := scoresOf(f, samples)

	// An optimizer step over every parameter.
	params := allParams(f)
	rng := newRand(3)
	for _, p := range params {
		randNormal(p.Grad, rng, 0.5)
	}
	nn.NewAdam(params, 0.05).Step()
	check("optimizer step")
	if after := scoresOf(f, samples); after[0][0] == before[0][0] || after[1][0] == before[1][0] {
		t.Fatal("the optimizer step did not change the scores: the test would pass on stale caches")
	}

	// A training pass: more steps, and the batch-norm running
	// statistics move.
	for i, s := range samples {
		s.Label = float64(i)
	}
	f.Cfg.Epochs, f.Cfg.BatchSize = 1, 2
	TrainFusion(f, samples, nil, 11)
	check("TrainFusion")

	// CopyParams from another model.
	donor := frozenTestModel(21)
	if err := nn.CopyParams(allParams(f), allParams(donor)); err != nil {
		t.Fatal(err)
	}
	check("CopyParams")

	// A weight load.
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, allParams(frozenTestModel(33))); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParams(&buf, allParams(f)); err != nil {
		t.Fatal(err)
	}
	check("LoadParams")

	// FineTune adapts a clone: the clone must not inherit the base's
	// forms, and the base must keep scoring as before.
	base := scoresOf(f, samples)
	o := DefaultFineTuneOptions()
	o.Epochs, o.LearningRate, o.BatchSize = 1, 0.01, 2
	ft, _ := FineTune(f, samples, nil, o, 5)
	want := freshCopyScores(t, ft, samples)
	got := scoresOf(ft, samples)
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("fine-tuned model sample %d: scores %v, fresh model %v", j, got[i][j], want[i][j])
			}
			if got[i][j] == base[i][j] {
				t.Fatalf("fine-tuned model sample %d scores like its base", j)
			}
		}
	}
	check("FineTune of a clone")
}

// TestSharedModelConcurrentScoring scores one model from many
// goroutines at once — the pooled path on the shared instance, both
// precisions, cold forms — and requires every result to equal the
// serial one. Run under -race it pins that sharing weights and forms
// across ranks is sound.
func TestSharedModelConcurrentScoring(t *testing.T) {
	f := frozenTestModel(51)
	samples := frozenTestSamples(f)
	want := scoresOf(frozenTestModel(51), samples)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prec := []Precision{PrecisionF64, PrecisionF32}[g%2]
			ws := NewWorkspaceFor(prec)
			got := make([]float64, len(samples))
			for round := 0; round < 3; round++ {
				f.PredictBatchInto(samples, ws, got)
				for j := range got {
					if got[j] != want[g%2][j] {
						t.Errorf("goroutine %d %s sample %d: %v != serial %v", g, prec, j, got[j], want[g%2][j])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
