package mmgbsa

import (
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/libgen"
	"deepfusion/internal/metrics"
	"deepfusion/internal/target"
)

func mustMol(t *testing.T, s, name string) *chem.Mol {
	t.Helper()
	m, err := chem.ParseSMILES(s)
	if err != nil {
		t.Fatal(err)
	}
	m.Name = name
	chem.Embed3D(m, 5)
	return m
}

func TestRescoreFiniteDeterministic(t *testing.T) {
	m := mustMol(t, "CC(=O)Oc1ccccc1C(=O)O", "asp")
	target.Protease1.PlaceLigand(m)
	a := Rescore(target.Protease1, m)
	if a != Rescore(target.Protease1, m) {
		t.Fatal("Rescore not deterministic")
	}
	if math.IsNaN(a) || math.IsInf(a, 0) {
		t.Fatalf("Rescore = %v", a)
	}
}

func TestRescorePrefersPocket(t *testing.T) {
	smiles := []string{"c1ccccc1CCN", "CC(=O)Oc1ccccc1C(=O)O", "c1ccc2ccccc2c1", "CCCCCCC", "NCCO"}
	better := 0
	for _, s := range smiles {
		m := mustMol(t, s, s)
		target.Protease1.PlaceLigand(m)
		in := Rescore(target.Protease1, m)
		m.Translate(chem.Vec3{X: 60})
		out := Rescore(target.Protease1, m)
		if in < out {
			better++
		}
	}
	if better < 4 {
		t.Fatalf("pocket poses better for only %d/5 compounds", better)
	}
}

func TestThroughputConstants(t *testing.T) {
	// Paper Section 4.1: Vina ~10 poses/s/node, MM/GBSA ~0.067.
	if VinaPosesPerSecPerNode != 10.0 {
		t.Fatal("Vina throughput constant drifted from paper value")
	}
	if MMGBSAPosesPerSecPerNode != 0.067 {
		t.Fatal("MM/GBSA throughput constant drifted from paper value")
	}
	ratio := VinaPosesPerSecPerNode / MMGBSAPosesPerSecPerNode
	if ratio < 100 {
		t.Fatalf("cost ratio %v; MM/GBSA must be orders of magnitude slower", ratio)
	}
}

func testCompounds(t *testing.T, n int) []*chem.Mol {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	p := libgen.Profile{MinFragments: 1, MaxFragments: 4, AromaticBias: 0.7, HeteroBias: 0.5, ChainBias: 0.4}
	var mols []*chem.Mol
	for i := 0; len(mols) < n; i++ {
		s := libgen.RandomSMILES(rng, p)
		m, err := chem.ParseSMILES(s)
		if err != nil {
			continue
		}
		m.Name = s
		prep, err := chem.Prepare(m, int64(i))
		if err != nil {
			continue
		}
		prep.Name = s
		mols = append(mols, prep)
	}
	return mols
}

func TestAMPLFitPredict(t *testing.T) {
	mols := testCompounds(t, 60)
	a := NewAMPL(target.Protease1)
	if a.fitted {
		t.Fatal("fresh AMPL must be unfitted")
	}
	if err := a.Fit(mols[:40]); err != nil {
		t.Fatal(err)
	}
	if !a.fitted {
		t.Fatal("Fit did not mark model fitted")
	}
	// Surrogate must correlate with real MM/GBSA on held-out compounds.
	var pred, truth []float64
	for _, m := range mols[40:] {
		posed := m.Clone()
		target.Protease1.PlaceLigand(posed)
		pred = append(pred, a.Predict(m))
		truth = append(truth, Rescore(target.Protease1, posed))
	}
	if r := metrics.Pearson(pred, truth); r < 0.4 {
		t.Fatalf("AMPL held-out correlation %v, want > 0.4", r)
	}
}

func TestAMPLTooFewCompounds(t *testing.T) {
	a := NewAMPL(target.Spike1)
	if err := a.Fit(testCompounds(t, 4)); err == nil {
		t.Fatal("Fit must reject tiny training sets")
	}
}

func TestAMPLPredictBeforeFitPanics(t *testing.T) {
	a := NewAMPL(target.Spike1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Predict(mustMol(t, "CCO", "eth"))
}

func TestSolveGaussian(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	w, err := solveGaussian(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
	if math.Abs(w[0]-1) > 1e-9 || math.Abs(w[1]-3) > 1e-9 {
		t.Fatalf("solution %v", w)
	}
}

func TestSolveGaussianSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	b := []float64{1, 2}
	if _, err := solveGaussian(a, b); err == nil {
		t.Fatal("singular system must error")
	}
}

// Calibration guard: both physics scores must carry real signal about
// the planted truth, with MM/GBSA at least as correlated as Vina tends
// to be (checked properly at the bench level on docked poses).
func TestPhysicsScoresTrackOracle(t *testing.T) {
	mols := testCompounds(t, 80)
	var truth, gb []float64
	for _, m := range mols {
		posed := m.Clone()
		target.Protease1.PlaceLigand(posed)
		truth = append(truth, target.Protease1.TrueAffinity(posed))
		gb = append(gb, -Rescore(target.Protease1, posed)) // negate: lower energy = stronger
	}
	if r := metrics.Pearson(gb, truth); r < 0.25 {
		t.Fatalf("MM/GBSA carries almost no signal: r = %v", r)
	}
}
