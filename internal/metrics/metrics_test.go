package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRMSEMAEKnown(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 4, 2}
	if got := RMSE(pred, truth); !almost(got, math.Sqrt(5.0/3), 1e-12) {
		t.Fatalf("RMSE = %v", got)
	}
	if got := MAE(pred, truth); !almost(got, 1, 1e-12) {
		t.Fatalf("MAE = %v", got)
	}
}

func TestRMSEEmpty(t *testing.T) {
	if RMSE(nil, nil) != 0 || MAE(nil, nil) != 0 || R2(nil, nil) != 0 {
		t.Fatal("empty series must give 0")
	}
}

func TestRMSEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestR2PerfectAndMean(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	if got := R2(truth, truth); !almost(got, 1, 1e-12) {
		t.Fatalf("perfect R2 = %v", got)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(mean, truth); !almost(got, 0, 1e-12) {
		t.Fatalf("mean-predictor R2 = %v", got)
	}
}

func TestR2ConstantTruth(t *testing.T) {
	if got := R2([]float64{1, 2}, []float64{3, 3}); got != 0 {
		t.Fatalf("constant-truth R2 = %v, want 0", got)
	}
}

func TestPearsonKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", got)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yneg); !almost(got, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", got)
	}
	if got := Pearson(x, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Fatalf("constant Pearson = %v, want 0", got)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125} // monotone nonlinear
	if got := Spearman(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1", got)
	}
	if p := Pearson(x, y); p >= 0.999 {
		t.Fatalf("sanity: Pearson should be < 1 for nonlinear, got %v", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	y := []float64{1, 2, 2, 3}
	if got := Spearman(x, y); !almost(got, 1, 1e-12) {
		t.Fatalf("tied Spearman = %v, want 1", got)
	}
}

func TestRanksAverageTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestPRCurvePerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	curve := PRCurve(scores, labels)
	if len(curve) != 4 {
		t.Fatalf("curve length %d", len(curve))
	}
	if curve[0].Precision != 1 || curve[0].Recall != 0.5 {
		t.Fatalf("first point %+v", curve[0])
	}
	last := curve[len(curve)-1]
	if last.Recall != 1 || !almost(last.Precision, 0.5, 1e-12) {
		t.Fatalf("last point %+v", last)
	}
	f1, thr := BestF1(scores, labels)
	if !almost(f1, 1, 1e-12) || thr != 0.8 {
		t.Fatalf("BestF1 = %v at %v", f1, thr)
	}
}

func TestPRCurveTiedScores(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5}
	labels := []bool{true, false, true}
	curve := PRCurve(scores, labels)
	if len(curve) != 1 {
		t.Fatalf("tied scores must collapse to one point, got %d", len(curve))
	}
	if !almost(curve[0].Precision, 2.0/3, 1e-12) || curve[0].Recall != 1 {
		t.Fatalf("point %+v", curve[0])
	}
}

func TestCohenKappaPerfectAndRandom(t *testing.T) {
	labels := []bool{true, true, false, false}
	if got := CohenKappa(labels, labels); !almost(got, 1, 1e-12) {
		t.Fatalf("perfect kappa = %v", got)
	}
	// A constant classifier has kappa 0.
	all := []bool{true, true, true, true}
	if got := CohenKappa(all, labels); !almost(got, 0, 1e-12) {
		t.Fatalf("constant-classifier kappa = %v", got)
	}
}

func TestCohenKappaRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20000
	pred := make([]bool, n)
	labels := make([]bool, n)
	for i := range pred {
		pred[i] = rng.Float64() < 0.3
		labels[i] = rng.Float64() < 0.3
	}
	if got := CohenKappa(pred, labels); math.Abs(got) > 0.03 {
		t.Fatalf("random kappa = %v, want ~0", got)
	}
}

func TestPositiveRate(t *testing.T) {
	if got := PositiveRate([]bool{true, false, false, true}); !almost(got, 0.5, 1e-12) {
		t.Fatalf("rate = %v", got)
	}
	if PositiveRate(nil) != 0 {
		t.Fatal("empty rate must be 0")
	}
}

// Property: Pearson is invariant under positive affine transforms.
func TestPearsonAffineInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = x[i]*0.5 + rng.NormFloat64()
		}
		base := Pearson(x, y)
		x2 := make([]float64, n)
		for i := range x2 {
			x2[i] = 3*x[i] + 7
		}
		return almost(Pearson(x2, y), base, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Spearman is invariant under strictly monotone transforms.
func TestSpearmanMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		base := Spearman(x, y)
		x2 := make([]float64, n)
		for i := range x2 {
			x2[i] = math.Exp(x[i])
		}
		return almost(Spearman(x2, y), base, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: RMSE >= MAE always.
func TestRMSEDominatesMAEProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		return RMSE(a, b) >= MAE(a, b)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: PR curve recall is non-decreasing as the threshold drops.
func TestPRCurveRecallMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Float64() < 0.4
		}
		curve := PRCurve(scores, labels)
		for i := 1; i < len(curve); i++ {
			if curve[i].Recall < curve[i-1].Recall-1e-12 {
				return false
			}
			if curve[i].Threshold >= curve[i-1].Threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
