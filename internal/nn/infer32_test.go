package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepfusion/internal/tensor"
)

// randInput32Pair builds the same random input at both precisions
// (f32 values widened back to f64, so the inputs are bit-equal).
func randInput32Pair(rng *rand.Rand, sparse bool, shape ...int) (*tensor.Tensor, *tensor.F32) {
	x32 := tensor.NewF32(shape...)
	x64 := tensor.New(shape...)
	for i := range x32.Data {
		v := float32(rng.NormFloat64())
		if sparse && rng.Intn(3) != 0 {
			v = 0 // voxel-like sparsity exercises the zero-skip paths
		}
		x32.Data[i] = v
		x64.Data[i] = float64(v)
	}
	return x64, x32
}

// maxRelErr32 returns max |got-want| / max(1, |want|) over the pair.
func maxRelErr32(got *tensor.F32, want *tensor.Tensor) float64 {
	worst := 0.0
	for i, w := range want.Data {
		den := math.Abs(w)
		if den < 1 {
			den = 1
		}
		if e := math.Abs(float64(got.Data[i])-w) / den; e > worst {
			worst = e
		}
	}
	return worst
}

// TestConv3DInfer32BoundaryClipping pins the f32 scatter convolution
// against the f32 direct reference bitwise: surviving terms arrive in
// the same ascending (ci, input-position) order in both kernels, so
// boundary clipping must not change a single bit. Grids are chosen so
// kernel footprints clip on every face; the largest (41^3 at 64
// filters, 17 MB of f32 output a sample) is paper-scale.
func TestConv3DInfer32BoundaryClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := []struct {
		name       string
		in, out, k int
		d, h, w    int
	}{
		// 4^3 grid with k=5: footprints clip on both faces of every axis.
		{"scatter-k5-tiny", 2, 8, 5, 4, 4, 4},
		// Non-unrollable channel count exercises the vector kernel's
		// scalar tail lanes.
		{"scatter-k3-odd-out", 3, 6, 3, 5, 4, 3},
		// A paper-scale grid and filter count.
		{"tile-k3", 1, 64, 3, 41, 41, 41},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv3D(rng, tc.in, tc.out, tc.k)
			_, x32 := randInput32Pair(rng, true, 2, tc.in, tc.d, tc.h, tc.w)

			ws := NewWorkspace()
			y := c.ForwardInfer32(x32, ws)

			ref := tensor.NewF32(2, tc.out, tc.d, tc.h, tc.w)
			grid := tensor.GridBox(tc.d, tc.h, tc.w)
			directBox(c, Vec[float32](c.W), Vec[float32](c.B), x32, ref, grid, grid)
			for i := range ref.Data {
				if y.Data[i] != ref.Data[i] {
					t.Fatalf("elem %d = %g, want %g (bitwise)", i, y.Data[i], ref.Data[i])
				}
			}
		})
	}
}

// TestInfer32MatchesF64Tolerance pins the f32 accumulation error of
// every layer kind against the f64 reference at ≤1e-4 relative — the
// explicit per-layer tolerance contract of the fast path (the funnel
// repeats this per pose at the fusion level).
func TestInfer32MatchesF64Tolerance(t *testing.T) {
	const tol = 1e-4
	rng := rand.New(rand.NewSource(72))

	t.Run("dense-chain", func(t *testing.T) {
		seq := &Sequential{Layers: []Layer{
			NewDense(rng, 33, 20),
			NewActivation(ActReLU),
			NewDense(rng, 20, 12),
			NewActivation(ActLReLU),
			NewDense(rng, 12, 7),
			NewActivation(ActSELU),
			NewDropout(rng, 0.25),
			NewDense(rng, 7, 1),
		}}
		x64, x32 := randInput32Pair(rng, false, 9, 33)
		ws := NewWorkspace()
		want := Infer(seq, x64, ws)
		got := Infer(seq, x32, ws)
		if e := maxRelErr32(got, want); e > tol {
			t.Fatalf("dense chain rel err %g > %g", e, tol)
		}
	})

	t.Run("batchnorm", func(t *testing.T) {
		bn := NewBatchNorm(11)
		bn.Gamma.Update(func(gamma []float64) {
			bn.Beta.Update(func(beta []float64) {
				for j := 0; j < 11; j++ {
					bn.RunMean[j] = rng.NormFloat64()
					bn.RunVar[j] = 0.5 + rng.Float64()
					gamma[j] = 1 + 0.3*rng.NormFloat64()
					beta[j] = rng.NormFloat64()
				}
			})
		})
		x64, x32 := randInput32Pair(rng, false, 6, 11)
		ws := NewWorkspace()
		want := Infer(bn, x64, ws)
		got := Infer(bn, x32, ws)
		if e := maxRelErr32(got, want); e > tol {
			t.Fatalf("batchnorm rel err %g > %g", e, tol)
		}
	})

	t.Run("conv-pool-flatten", func(t *testing.T) {
		conv := NewConv3D(rng, 3, 8, 3)
		pool := NewMaxPool3D(2)
		flat := &Flatten{}
		x64, x32 := randInput32Pair(rng, true, 2, 3, 6, 6, 6)
		ws := NewWorkspace()
		want := Infer(flat, Infer(pool, conv.ForwardInfer(x64, ws), ws), ws)
		got := Infer(flat, Infer(pool, conv.ForwardInfer32(x32, ws), ws), ws)
		if want.Dim(0) != got.Dim(0) || want.Dim(1) != got.Dim(1) {
			t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
		}
		if e := maxRelErr32(got, want); e > tol {
			t.Fatalf("conv/pool rel err %g > %g", e, tol)
		}
	})
}

// TestInfer32WarmZeroAlloc pins the f32 layer path to the same
// zero-allocation steady state as the f64 one.
func TestInfer32WarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	conv := NewConv3D(rng, 2, 8, 3)
	pool := NewMaxPool3D(2)
	flat := &Flatten{}
	dense := NewDense(rng, 8*3*3*3, 5)
	act := NewActivation(ActReLU)
	_, x32 := randInput32Pair(rng, true, 2, 2, 6, 6, 6)
	ws := NewWorkspace()
	pass := func() {
		y := conv.ForwardInfer32(x32, ws)
		y = Infer(pool, y, ws)
		f := Infer(flat, y, ws)
		o := Infer(act, Infer(dense, f, ws), ws)
		_ = o
		ws.Reset()
	}
	pass()
	pass()
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("warm f32 layer pass allocates %v times", allocs)
	}
}
