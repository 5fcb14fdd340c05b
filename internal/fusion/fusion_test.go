package fusion

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/metrics"
	"deepfusion/internal/nn"
	"deepfusion/internal/pdbbind"
	"deepfusion/internal/tensor"
)

// fill sets every element of x to v.
func fill(x *tensor.Tensor, v float64) {
	for i := range x.Data {
		x.Data[i] = v
	}
}

// randNormal fills x with N(0, std²) draws from rng.
func randNormal(x *tensor.Tensor, rng *rand.Rand, std float64) {
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * std
	}
}

// sum returns the sum of x's elements in storage order.
func sum(x *tensor.Tensor) float64 {
	s := 0.0
	for _, v := range x.Data {
		s += v
	}
	return s
}

// tinyVoxel returns a small grid config for fast tests.
func tinyVoxel() featurize.VoxelOptions {
	return featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
}

func tinyCNNConfig() CNN3DConfig {
	cfg := DefaultCNN3DConfig()
	cfg.Voxel = tinyVoxel()
	cfg.ConvFilters1 = 4
	cfg.ConvFilters2 = 6
	cfg.DenseNodes = 8
	cfg.Epochs = 3
	cfg.BatchSize = 8
	return cfg
}

func tinySGConfig() SGCNNConfig {
	cfg := DefaultSGCNNConfig()
	cfg.CovGatherWidth = 6
	cfg.NonCovGatherWidth = 8
	cfg.Epochs = 4
	return cfg
}

// testData builds a small featurized dataset once per test run.
var testDS *pdbbind.Dataset

func dataset(t *testing.T) *pdbbind.Dataset {
	t.Helper()
	if testDS == nil {
		testDS = pdbbind.Generate(pdbbind.Options{
			NGeneral: 100, NRefined: 50, NCore: 30,
			ValFraction: 0.12, NumPockets: 6, Seed: 31,
		})
	}
	return testDS
}

func featurized(t *testing.T, cs []*pdbbind.Complex) []*Sample {
	t.Helper()
	return FeaturizeDataset(cs, tinyVoxel(), featurize.DefaultGraphOptions())
}

func TestCNN3DForwardShapes(t *testing.T) {
	cfg := tinyCNNConfig()
	m := NewCNN3D(cfg, 1)
	x := tensor.New(3, cfg.Voxel.Channels(), 4, 4, 4)
	pred, lat := m.Forward(x)
	if pred.Dim(0) != 3 || pred.Dim(1) != 1 {
		t.Fatalf("pred shape %v", pred.Shape)
	}
	if lat.Dim(0) != 3 || lat.Dim(1) != m.LatentWidth() {
		t.Fatalf("latent shape %v, want width %d", lat.Shape, m.LatentWidth())
	}
}

func TestCNN3DGridMustDivide(t *testing.T) {
	cfg := tinyCNNConfig()
	cfg.Voxel.GridSize = 6
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for grid not divisible by 4")
		}
	}()
	NewCNN3D(cfg, 1)
}

func TestCNN3DGradientThroughLatent(t *testing.T) {
	// Finite-difference check of the latent-path backward (the path
	// Coherent Fusion uses).
	cfg := tinyCNNConfig()
	cfg.Dropout1, cfg.Dropout2 = 0, 0
	m := NewCNN3D(cfg, 2)
	x := tensor.New(1, cfg.Voxel.Channels(), 4, 4, 4)
	rngFill(x)
	_, lat := m.Forward(x)
	dlat := tensor.New(lat.Shape...)
	fill(dlat, 1)
	m.Backward(nil, dlat)
	// Check gradient of one conv1 weight numerically.
	p := m.conv1.Params()[0]
	const eps = 1e-5
	for _, i := range []int{0, 7, 33} {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + eps
		_, up := m.Forward(x)
		p.Value.Data[i] = orig - eps
		_, down := m.Forward(x)
		p.Value.Data[i] = orig
		want := (sum(up) - sum(down)) / (2 * eps)
		if math.Abs(p.Grad.Data[i]-want) > 1e-4 {
			t.Fatalf("conv1 grad[%d] = %v, numeric %v", i, p.Grad.Data[i], want)
		}
	}
}

func TestSGCNNForwardShapes(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:2])
	m := NewSGCNN(tinySGConfig(), 3)
	pred, lat := m.Forward(samples[0].Graph)
	if pred.Len() != 1 {
		t.Fatalf("pred shape %v", pred.Shape)
	}
	if lat.Dim(1) != m.LatentWidth() {
		t.Fatalf("latent width %d, want %d", lat.Dim(1), m.LatentWidth())
	}
}

func TestFusionPredictDeterministicEval(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:2])
	cnn := NewCNN3D(tinyCNNConfig(), 4)
	sg := NewSGCNN(tinySGConfig(), 5)
	f := NewFusion(DefaultMidFusionConfig(), cnn, sg, 6)
	a := f.Predict(samples[0])
	b := f.Predict(samples[0])
	if a != b {
		t.Fatal("inference must be deterministic (dropout off)")
	}
}

func TestFusionParamsModes(t *testing.T) {
	cnn := NewCNN3D(tinyCNNConfig(), 7)
	sg := NewSGCNN(tinySGConfig(), 8)
	mid := NewFusion(DefaultMidFusionConfig(), cnn, sg, 9)
	cohCfg := DefaultCoherentConfig()
	coh := NewFusion(cohCfg, cnn, sg, 10)
	if len(mid.Params()) >= len(coh.Params()) {
		t.Fatal("coherent mode must expose strictly more trainable params (heads included)")
	}
	nHead := len(cnn.Params()) + len(sg.Params())
	if len(coh.Params())-len(coh.FusionParams()) != nHead {
		t.Fatal("coherent params must be fusion params + head params")
	}
}

func TestFusionGradientCheck(t *testing.T) {
	// Full coherent-fusion gradient check on a couple of fusion-layer
	// and head parameters.
	ds := dataset(t)
	s := featurized(t, ds.Core[:1])[0]
	cfg := DefaultCoherentConfig()
	cfg.Dropout1, cfg.Dropout2, cfg.Dropout3 = 0, 0, 0
	cnnCfg := tinyCNNConfig()
	cnnCfg.Dropout1, cnnCfg.Dropout2 = 0, 0
	cnn := NewCNN3D(cnnCfg, 11)
	sg := NewSGCNN(tinySGConfig(), 12)
	f := NewFusion(cfg, cnn, sg, 13)

	pred := f.forwardBatch([]*Sample{s}, nil)
	dpred := tensor.New(pred.Shape...)
	fill(dpred, 1)
	// Re-run forward in "train" mode (no dropout configured) so caches
	// line up, then backward.
	f.forwardBatch([]*Sample{s}, nil)
	f.backward(dpred)

	check := func(p *nn.Param, idx int) {
		const eps = 1e-5
		orig := p.Value.Data[idx]
		p.Value.Data[idx] = orig + eps
		up := sum(f.forwardBatch([]*Sample{s}, nil))
		p.Value.Data[idx] = orig - eps
		down := sum(f.forwardBatch([]*Sample{s}, nil))
		p.Value.Data[idx] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(p.Grad.Data[idx]-want) > 1e-4 {
			t.Fatalf("param %s grad[%d] = %v, numeric %v", p.Name, idx, p.Grad.Data[idx], want)
		}
	}
	check(f.out.W, 0)
	check(f.layers[0].W, 3)
	check(cnn.fc2.W, 1)       // head dense, reached via latent path
	check(sg.gather.Wg, 2)    // SG head gather
	check(sg.covConv.Wmsg, 0) // deep inside SG head
}

func TestLateFusionAveragesPredictions(t *testing.T) {
	ds := dataset(t)
	s := featurized(t, ds.Core[:1])[0]
	cnn := NewCNN3D(tinyCNNConfig(), 14)
	sg := NewSGCNN(tinySGConfig(), 15)
	late := &LateFusion{CNN: cnn, SG: sg}
	one := []*Sample{s}
	want := (cnn.PredictBatch(one)[0] + sg.PredictBatch(one)[0]) / 2
	if got := late.Predict(s); math.Abs(got-want) > 1e-12 {
		t.Fatalf("late fusion = %v, want %v", got, want)
	}
}

func TestRotateVoxelsPreservesMass(t *testing.T) {
	v := tensor.New(2, 4, 4, 4)
	rngFill(v)
	for axis := 0; axis < 3; axis++ {
		r := rotateVoxels(v, axis)
		if math.Abs(sum(r)-sum(v)) > 1e-9 {
			t.Fatalf("axis %d rotation changed mass", axis)
		}
		// Four rotations = identity.
		r4 := v
		for k := 0; k < 4; k++ {
			r4 = rotateVoxels(r4, axis)
		}
		for i := range v.Data {
			if math.Abs(r4.Data[i]-v.Data[i]) > 1e-12 {
				t.Fatalf("axis %d: 4 rotations != identity", axis)
			}
		}
	}
}

func TestTrainCNN3DLearns(t *testing.T) {
	ds := dataset(t)
	train := featurized(t, ds.Train)
	val := featurized(t, ds.Val)
	cfg := tinyCNNConfig()
	cfg.Epochs = 6
	m, hist := TrainCNN3D(cfg, train, val, 21)
	if len(hist.TrainLoss) != cfg.Epochs {
		t.Fatalf("history length %d", len(hist.TrainLoss))
	}
	// Loss should trend down across the run (tiny-budget training is
	// noisy epoch to epoch, so compare the best reached to the start).
	best := hist.TrainLoss[0]
	for _, v := range hist.TrainLoss[1:] {
		if v < best {
			best = v
		}
	}
	if best >= hist.TrainLoss[0] {
		t.Fatalf("3D-CNN loss never improved from %v", hist.TrainLoss[0])
	}
	preds := PredictCNN3D(m, val)
	if r := metrics.Pearson(preds, Labels(val)); r < 0.15 {
		t.Fatalf("3D-CNN val Pearson %v; no signal learned", r)
	}
}

func TestTrainSGCNNLearns(t *testing.T) {
	ds := dataset(t)
	train := featurized(t, ds.Train)
	val := featurized(t, ds.Val)
	cfg := tinySGConfig()
	m, hist := TrainSGCNN(cfg, train, val, 22)
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if last >= first {
		t.Fatalf("SG-CNN loss did not decrease: %v -> %v", first, last)
	}
	preds := PredictSGCNN(m, val)
	if r := metrics.Pearson(preds, Labels(val)); r < 0.15 {
		t.Fatalf("SG-CNN val Pearson %v; no signal learned", r)
	}
}

func TestTrainFusionImprovesOverInit(t *testing.T) {
	ds := dataset(t)
	train := featurized(t, ds.Train)
	val := featurized(t, ds.Val)
	cnn, _ := TrainCNN3D(tinyCNNConfig(), train, val, 23)
	sg, _ := TrainSGCNN(tinySGConfig(), train, val, 24)
	cfg := DefaultCoherentConfig()
	cfg.Epochs = 3
	f := NewFusion(cfg, cnn, sg, 25)
	before := EvalFusion(f, val)
	TrainFusion(f, train, val, 26)
	after := EvalFusion(f, val)
	if after >= before {
		t.Fatalf("coherent fusion training did not improve val MSE: %v -> %v", before, after)
	}
}

func TestHistoryBest(t *testing.T) {
	h := &History{ValLoss: []float64{3, 1.5, 2}}
	if h.Best() != 1.5 {
		t.Fatalf("Best = %v", h.Best())
	}
	empty := &History{}
	if !math.IsInf(empty.Best(), 1) {
		t.Fatal("empty history Best must be +Inf")
	}
}

func rngFill(x *tensor.Tensor) {
	v := 0.37
	for i := range x.Data {
		v = math.Mod(v*1.618+0.31, 1)
		x.Data[i] = v - 0.5
	}
}

func TestFineTuneImprovesOnTarget(t *testing.T) {
	// Paper future work: specializing the baseline Coherent Fusion to a
	// single binding site should improve (or at least not hurt) its MSE
	// on that site, while the base model stays untouched.
	ds := dataset(t)
	train := featurized(t, ds.Train)
	val := featurized(t, ds.Val)
	cnn, _ := TrainCNN3D(tinyCNNConfig(), train, val, 61)
	sg, _ := TrainSGCNN(tinySGConfig(), train, val, 62)
	cfg := DefaultCoherentConfig()
	cfg.Epochs = 2
	base := NewFusion(cfg, cnn, sg, 63)
	TrainFusion(base, train, val, 64)

	// Target-specific subset: complexes from one pocket.
	pocketName := ds.Train[0].Pocket.Name
	var tgtTrain, tgtVal []*Sample
	for _, s := range train {
		if s.Pocket.Name == pocketName {
			tgtTrain = append(tgtTrain, s)
		}
	}
	for _, s := range val {
		if s.Pocket.Name == pocketName {
			tgtVal = append(tgtVal, s)
		}
	}
	if len(tgtTrain) < 4 || len(tgtVal) < 1 {
		t.Skip("too few target-specific samples in the tiny corpus")
	}
	before := EvalFusion(base, tgtVal)
	baseParam := base.CNN.Params()[0].Value.Clone()

	o := DefaultFineTuneOptions()
	o.Epochs = 4
	o.LearningRate = 3e-4
	ft, hist := FineTune(base, tgtTrain, tgtVal, o, 65)
	after := EvalFusion(ft, tgtVal)
	if len(hist.ValLoss) != o.Epochs {
		t.Fatalf("history length %d", len(hist.ValLoss))
	}
	if hist.Best() > before*1.5 {
		t.Fatalf("fine-tuning diverged: best %v vs before %v", hist.Best(), before)
	}
	_ = after
	// The base model must be unchanged (FineTune works on a clone).
	for i, v := range base.CNN.Params()[0].Value.Data {
		if v != baseParam.Data[i] {
			t.Fatal("FineTune mutated the base model")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := dataset(t)
	s := featurized(t, ds.Core[:1])[0]
	cnn := NewCNN3D(tinyCNNConfig(), 66)
	sg := NewSGCNN(tinySGConfig(), 67)
	f := NewFusion(DefaultCoherentConfig(), cnn, sg, 68)
	c := f.Clone()
	if c.Predict(s) != f.Predict(s) {
		t.Fatal("clone predicts differently")
	}
	// Mutating the clone must not affect the original.
	c.CNN.Params()[0].Update(func(w []float64) { w[0] += 10 })
	if c.Predict(s) == f.Predict(s) {
		t.Fatal("clone shares weights with original")
	}
}

func TestFusionCheckpointRoundTrip(t *testing.T) {
	// Save and reload the full coherent model (fusion layers + heads)
	// through the nn checkpoint format; predictions must be identical.
	ds := dataset(t)
	s := featurized(t, ds.Core[:1])[0]
	cnn := NewCNN3D(tinyCNNConfig(), 81)
	sg := NewSGCNN(tinySGConfig(), 82)
	f := NewFusion(DefaultCoherentConfig(), cnn, sg, 83)
	want := f.Predict(s)

	var buf bytes.Buffer
	all := append(append([]*nn.Param{}, f.FusionParams()...), f.CNN.Params()...)
	all = append(all, f.SG.Params()...)
	if err := nn.SaveParams(&buf, all); err != nil {
		t.Fatal(err)
	}

	cnn2 := NewCNN3D(tinyCNNConfig(), 99)
	sg2 := NewSGCNN(tinySGConfig(), 98)
	f2 := NewFusion(DefaultCoherentConfig(), cnn2, sg2, 97)
	all2 := append(append([]*nn.Param{}, f2.FusionParams()...), f2.CNN.Params()...)
	all2 = append(all2, f2.SG.Params()...)
	if err := nn.LoadParams(&buf, all2); err != nil {
		t.Fatal(err)
	}
	if got := f2.Predict(s); got != want {
		t.Fatalf("prediction after checkpoint reload %v != %v", got, want)
	}
}

func TestStackVoxelsLayout(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:3])
	b := stackVoxels(samples, nil)
	if b.Dim(0) != 3 {
		t.Fatalf("batch dim %d", b.Dim(0))
	}
	per := samples[0].Voxels.Len()
	for i, s := range samples {
		for j := 0; j < per; j += 17 {
			if b.Data[i*per+j] != s.Voxels.Data[j] {
				t.Fatalf("sample %d misplaced in batch", i)
			}
		}
	}
}

func TestLabelsAndMeanLabel(t *testing.T) {
	s := []*Sample{{Label: 2}, {Label: 4}}
	ls := Labels(s)
	if ls[0] != 2 || ls[1] != 4 {
		t.Fatal("Labels")
	}
	if meanLabel(s) != 3 {
		t.Fatal("meanLabel")
	}
	if meanLabel(nil) != 0 {
		t.Fatal("meanLabel empty")
	}
}

func TestBestValRestore(t *testing.T) {
	// The trainer must return the best-validation-epoch weights: the
	// final reported model's val MSE equals the history minimum.
	ds := dataset(t)
	train := featurized(t, ds.Train[:60])
	val := featurized(t, ds.Val)
	cfg := tinySGConfig()
	cfg.Epochs = 6
	m, hist := TrainSGCNN(cfg, train, val, 44)
	finalVal := EvalSGCNN(m, val)
	if math.Abs(finalVal-hist.Best()) > 1e-9 {
		t.Fatalf("returned model val MSE %v != history best %v", finalVal, hist.Best())
	}
}
