package nn

// Property-based tests (testing/quick) for the neural-network
// substrate: activation monotonicity, loss axioms, and the affine
// structure of the Dense layer.

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deepfusion/internal/tensor"
)

// boundedInputs converts arbitrary quick floats into a well-scaled,
// finite input tensor.
func boundedInputs(vals []float64, n int) *tensor.Tensor {
	x := tensor.New(1, n)
	for i := 0; i < n; i++ {
		v := 0.0
		if i < len(vals) {
			v = vals[i]
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		x.Data[i] = math.Mod(v, 10)
	}
	return x
}

func TestActivationsMonotoneProperty(t *testing.T) {
	// ReLU, Leaky-ReLU and SELU are all non-decreasing scalar maps.
	for _, kind := range []string{"relu", "lrelu", "selu"} {
		act := NewActivation(kind)
		check := func(a, b float64) bool {
			if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
				return true
			}
			lo, hi := math.Mod(a, 50), math.Mod(b, 50)
			if lo > hi {
				lo, hi = hi, lo
			}
			x := tensor.FromSlice([]float64{lo, hi}, 1, 2)
			y := act.Forward(x)
			return y.Data[0] <= y.Data[1]+1e-12
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestActivationsFixZeroProperty(t *testing.T) {
	// All three activations map 0 to 0.
	for _, kind := range []string{"relu", "lrelu", "selu"} {
		act := NewActivation(kind)
		x := tensor.New(1, 1)
		y := act.Forward(x)
		if y.Data[0] != 0 {
			t.Fatalf("%s(0) = %g, want 0", kind, y.Data[0])
		}
	}
}

func TestMSELossAxiomsProperty(t *testing.T) {
	check := func(vals []float64) bool {
		n := 4
		pred := boundedInputs(vals, n)
		// Loss against itself is zero with zero gradient.
		self, g := MSELoss(pred, pred.Clone())
		if self != 0 {
			return false
		}
		for _, gi := range g.Data {
			if gi != 0 {
				return false
			}
		}
		// Loss against anything else is strictly non-negative.
		other := pred.Clone()
		other.Data[0] += 1
		loss, _ := MSELoss(pred, other)
		return loss > 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMSEGradientDirectionProperty(t *testing.T) {
	// A small step along the negative gradient must not increase the
	// loss (first-order descent property).
	check := func(vals []float64, seed int64) bool {
		n := 6
		pred := boundedInputs(vals, n)
		rng := rand.New(rand.NewSource(seed))
		truth := tensor.New(1, n)
		for i := range truth.Data {
			truth.Data[i] = rng.NormFloat64()
		}
		loss0, grad := MSELoss(pred, truth)
		stepped := pred.Clone()
		for i, g := range grad.Data {
			stepped.Data[i] -= 1e-4 * g
		}
		loss1, _ := MSELoss(stepped, truth)
		return loss1 <= loss0+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseIsAffineProperty(t *testing.T) {
	// For an affine map f, f(x+y) + f(0) = f(x) + f(y) exactly (up to
	// float round-off). This pins Dense to having no hidden
	// non-linearity.
	rng := rand.New(rand.NewSource(99))
	d := NewDense(rng, 5, 3)
	check := func(xs, ys []float64) bool {
		x := boundedInputs(xs, 5)
		y := boundedInputs(ys, 5)
		xy := tensor.Add(x, y)
		z := tensor.New(1, 5)
		fx := d.Forward(x)
		fy := d.Forward(y)
		fxy := d.Forward(xy)
		f0 := d.Forward(z)
		for i := range fx.Data {
			lhs := fxy.Data[i] + f0.Data[i]
			rhs := fx.Data[i] + fy.Data[i]
			if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDropoutEvalIsIdentityProperty(t *testing.T) {
	do := NewDropout(rand.New(rand.NewSource(7)), 0.4)
	ws := NewWorkspace()
	check := func(vals []float64) bool {
		x := boundedInputs(vals, 8)
		y := Infer(do, x, ws)
		for i := range x.Data {
			if y.Data[i] != x.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSELUContinuousAtZeroProperty(t *testing.T) {
	// SELU's two branches must agree at the origin: values straddling
	// zero map to nearby outputs (Lipschitz continuity with the SELU
	// scale constant ~1.758 on the negative side).
	act := NewActivation("selu")
	check := func(eps float64) bool {
		e := math.Abs(math.Mod(eps, 1e-3)) + 1e-12
		x := tensor.FromSlice([]float64{-e, e}, 1, 2)
		y := act.Forward(x)
		return math.Abs(y.Data[1]-y.Data[0]) < 4*e
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
