package nn

import (
	"math/rand"
	"testing"

	"deepfusion/internal/tensor"
)

// inferInput builds a sparse voxel-like batch (many exact zeros, like
// splatted grids) so the scatter conv path is exercised realistically.
func inferInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		if rng.Float64() < 0.2 {
			x.Data[i] = rng.NormFloat64()
		}
	}
	return x
}

// TestForwardInferMatchesForward pins every layer's inference variant
// byte-identical to its training Forward wherever the two compute the
// same function (no dropout mask, batch norm on a batch of one): the
// scoring path and the training path are one arithmetic.
func TestForwardInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()

	check := func(name string, want, got *tensor.Tensor) {
		t.Helper()
		if !want.SameShape(got) {
			t.Fatalf("%s: shape %v vs %v", name, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s: elem %d: infer %v != forward %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}

	// Conv3D, scatter path (small output) and both kernel sizes.
	for _, k := range []int{3, 5} {
		c := NewConv3D(rng, 2, 3, k)
		x := inferInput(rng, 2, 2, 4, 4, 4)
		check("Conv3D/scatter", c.Forward(x), c.ForwardInfer(x, ws))
		ws.Reset()
	}
	// Conv3D, inference on the direct reference loops.
	{
		c := NewConv3D(rng, 2, 3, 3)
		c.Direct = true
		x := inferInput(rng, 2, 2, 4, 4, 4)
		check("Conv3D/direct", c.Forward(x), c.ForwardInfer(x, ws))
		ws.Reset()
	}
	// Dense (widths exercising full panels and the tail).
	for _, out := range []int{1, 7, 8, 19, 32} {
		d := NewDense(rng, 13, out)
		x := inferInput(rng, 4, 13)
		check("Dense", d.Forward(x), Infer(d, x, ws))
		ws.Reset()
	}
	// Activations.
	for _, kind := range []string{ActReLU, ActLReLU, ActSELU} {
		a := NewActivation(kind)
		x := inferInput(rng, 3, 9)
		check("Activation/"+kind, a.Forward(x), Infer(a, x, ws))
		ws.Reset()
	}
	// MaxPool3D.
	{
		m := NewMaxPool3D(2)
		x := inferInput(rng, 2, 3, 4, 4, 4)
		check("MaxPool3D", m.Forward(x), Infer(m, x, ws))
		ws.Reset()
	}
	// BatchNorm on a batch of one, which trains with the running
	// stats; set them non-trivial.
	{
		b := NewBatchNorm(6)
		for j := 0; j < 6; j++ {
			b.RunMean[j] = rng.NormFloat64()
			b.RunVar[j] = 1 + rng.Float64()
		}
		x := inferInput(rng, 1, 6)
		check("BatchNorm", b.Forward(x), Infer(b, x, ws))
		ws.Reset()
	}
	// Dropout is the identity at inference.
	{
		d := NewDropout(rng, 0.5)
		x := inferInput(rng, 3, 4)
		if got := Infer(d, x, ws); got != x {
			t.Fatalf("Dropout.ForwardInfer should return its input")
		}
	}
	// Flatten + Sequential plumbing.
	{
		s := &Sequential{Layers: []Layer{NewMaxPool3D(2), &Flatten{}, NewDense(rng, 3*2*2*2, 4), NewActivation(ActReLU)}}
		x := inferInput(rng, 2, 3, 4, 4, 4)
		check("Sequential", s.Forward(x), Infer(s, x, ws))
		ws.Reset()
	}
}

// TestForwardInferZeroAlloc pins the steady state: a warm ForwardInfer
// pass through a conv/pool/dense stack performs zero heap allocations.
func TestForwardInferZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	conv := NewConv3D(rng, 2, 3, 3)
	pool := NewMaxPool3D(2)
	flat := &Flatten{}
	dense := NewDense(rng, 3*2*2*2, 4)
	act := NewActivation(ActReLU)
	x := inferInput(rng, 2, 2, 4, 4, 4)
	ws := NewWorkspace()
	pass := func() {
		ws.Reset()
		h := conv.ForwardInfer(x, ws)
		h = Infer(pool, h, ws)
		h = Infer(flat, h, ws)
		h = Infer(act, Infer(dense, h, ws), ws)
	}
	for i := 0; i < 3; i++ {
		pass()
	}
	if avg := testing.AllocsPerRun(50, pass); avg != 0 {
		t.Fatalf("warm ForwardInfer pass allocates %.1f times per run, want 0", avg)
	}
}
