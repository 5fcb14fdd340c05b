package nn

import (
	"math/rand"
	"testing"

	"deepfusion/internal/tensor"
)

// sparseVoxels fills x like a voxelized complex: mostly zero, with
// clustered Gaussian-ish density.
func sparseVoxels(rng *rand.Rand, x *tensor.Tensor) {
	for i := range x.Data {
		if rng.Float64() < 0.15 {
			x.Data[i] = rng.NormFloat64()
		}
	}
}

// TestConv3DLoweredMatchesDirect asserts the lowered paths (the
// scatter forward and backward) agree with the reference loops to
// floating-point reassociation tolerance — the property that lets the
// screening engine swap algorithms freely.
func TestConv3DLoweredMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ batch, in, out, k, g int }{
		{1, 3, 4, 3, 4},
		{3, 4, 5, 5, 6},
		{2, 2, 3, 3, 8},
		{1, 2, 5, 3, 21}, // large grid: 21³ = 9261 positions
	} {
		c := NewConv3D(rand.New(rand.NewSource(11)), tc.in, tc.out, tc.k)
		x := tensor.New(tc.batch, tc.in, tc.g, tc.g, tc.g)
		sparseVoxels(rng, x)

		lowered := c.Forward(x)
		c.Direct = true
		direct := c.Forward(x)
		for i := range direct.Data {
			if diff := direct.Data[i] - lowered.Data[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("case %+v: forward diverges at %d: direct %v lowered %v",
					tc, i, direct.Data[i], lowered.Data[i])
			}
		}

		grad := tensor.New(lowered.Shape...)
		sparseVoxels(rng, grad)
		// Direct backward (caches from the direct forward just run).
		zeroGrads(c.Params())
		dxDirect := c.Backward(grad)
		wgDirect := c.W.Grad.Clone()
		bgDirect := c.B.Grad.Clone()
		// Lowered backward.
		c.Direct = false
		c.Forward(x)
		zeroGrads(c.Params())
		dxLowered := c.Backward(grad)
		for i := range dxDirect.Data {
			if diff := dxDirect.Data[i] - dxLowered.Data[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("case %+v: dx diverges at %d: %v vs %v", tc, i, dxDirect.Data[i], dxLowered.Data[i])
			}
		}
		for i := range wgDirect.Data {
			if diff := wgDirect.Data[i] - c.W.Grad.Data[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("case %+v: dW diverges at %d: %v vs %v", tc, i, wgDirect.Data[i], c.W.Grad.Data[i])
			}
		}
		for i := range bgDirect.Data {
			if diff := bgDirect.Data[i] - c.B.Grad.Data[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("case %+v: dB diverges at %d: %v vs %v", tc, i, bgDirect.Data[i], c.B.Grad.Data[i])
			}
		}
	}
}

// TestConv3DBackwardParamsMatchesBackward pins that skipping the input
// gradient changes no parameter gradient bit, on the direct reference
// path and on the lowered one, on a small and a large grid.
func TestConv3DBackwardParamsMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ batch, in, out, k, g int }{
		{3, 4, 5, 5, 6},
		{1, 2, 5, 3, 21},
	} {
		for _, direct := range []bool{false, true} {
			c := NewConv3D(rand.New(rand.NewSource(13)), tc.in, tc.out, tc.k)
			c.Direct = direct
			x := tensor.New(tc.batch, tc.in, tc.g, tc.g, tc.g)
			sparseVoxels(rng, x)
			grad := tensor.New(c.Forward(x).Shape...)
			sparseVoxels(rng, grad)
			// Accumulate twice, as training does across a batch's
			// contributions, so the sums land on non-zero gradients.
			zeroGrads(c.Params())
			c.Backward(grad)
			c.Backward(grad)
			wantW, wantB := c.W.Grad.Clone(), c.B.Grad.Clone()
			zeroGrads(c.Params())
			c.BackwardParams(grad)
			c.BackwardParams(grad)
			for i := range wantW.Data {
				if c.W.Grad.Data[i] != wantW.Data[i] {
					t.Fatalf("case %+v direct=%v: dW[%d] %v != Backward's %v", tc, direct, i, c.W.Grad.Data[i], wantW.Data[i])
				}
			}
			for i := range wantB.Data {
				if c.B.Grad.Data[i] != wantB.Data[i] {
					t.Fatalf("case %+v direct=%v: dB[%d] %v != Backward's %v", tc, direct, i, c.B.Grad.Data[i], wantB.Data[i])
				}
			}
		}
	}
}

// BenchmarkConv3DForward compares the training forward's scatter
// against the direct reference loops at the screening-default geometry.
func BenchmarkConv3DForward(b *testing.B) {
	for _, bench := range []struct {
		name   string
		direct bool
		batch  int
	}{
		{"scatter/b1", false, 1},
		{"scatter/b8", false, 8},
		{"direct/b1", true, 1},
		{"direct/b8", true, 8},
	} {
		b.Run(bench.name, func(b *testing.B) {
			c := NewConv3D(rand.New(rand.NewSource(1)), 16, 8, 5)
			c.Direct = bench.direct
			x := tensor.New(bench.batch, 16, 8, 8, 8)
			sparseVoxels(rand.New(rand.NewSource(2)), x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Forward(x)
			}
		})
	}
}
