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

// refBackward is the reference backward matching directBox, over the
// input x the forward read: it adds the gradients of grad into c.W.Grad
// and c.B.Grad and, when dx is not nil, the input gradient into dx.
func refBackward(c *Conv3D, x, grad, dx *tensor.Tensor) {
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	pad := c.K / 2
	k := c.K
	for ni := 0; ni < n; ni++ {
		for co := 0; co < c.Out; co++ {
			for zd := 0; zd < d; zd++ {
				for zh := 0; zh < h; zh++ {
					for zw := 0; zw < w; zw++ {
						g := grad.At(ni, co, zd, zh, zw)
						if g == 0 {
							continue
						}
						c.B.Grad.Data[co] += g
						for ci := 0; ci < c.In; ci++ {
							for kd := 0; kd < k; kd++ {
								id := zd + kd - pad
								if id < 0 || id >= d {
									continue
								}
								for kh := 0; kh < k; kh++ {
									ih := zh + kh - pad
									if ih < 0 || ih >= h {
										continue
									}
									xBase := (((ni*c.In+ci)*d+id)*h + ih) * w
									wBase := ((((co*c.In+ci)*k+kd)*k + kh) * k)
									for kw := 0; kw < k; kw++ {
										iw := zw + kw - pad
										if iw < 0 || iw >= w {
											continue
										}
										c.W.Grad.Data[wBase+kw] += g * x.Data[xBase+iw]
										if dx != nil {
											dx.Data[xBase+iw] += g * c.W.Value.Data[wBase+kw]
										}
									}
								}
							}
						}
					}
				}
			}
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
		direct := tensor.New(lowered.Shape...)
		grid := tensor.GridBox(tc.g, tc.g, tc.g)
		directBox(c, c.W.Value.Data, c.B.Value.Data, x, direct, grid, grid)
		for i := range direct.Data {
			if diff := direct.Data[i] - lowered.Data[i]; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("case %+v: forward diverges at %d: direct %v lowered %v",
					tc, i, direct.Data[i], lowered.Data[i])
			}
		}

		grad := tensor.New(lowered.Shape...)
		sparseVoxels(rng, grad)
		zeroGrads(c.Params())
		dxDirect := tensor.New(x.Shape...)
		refBackward(c, x, grad, dxDirect)
		wgDirect := c.W.Grad.Clone()
		bgDirect := c.B.Grad.Clone()
		// Lowered backward, over the x the lowered forward stashed.
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
// gradient changes no parameter gradient bit, on the lowered path and
// on the reference loops, on a small and a large grid.
func TestConv3DBackwardParamsMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct{ batch, in, out, k, g int }{
		{3, 4, 5, 5, 6},
		{1, 2, 5, 3, 21},
	} {
		for _, direct := range []bool{false, true} {
			c := NewConv3D(rand.New(rand.NewSource(13)), tc.in, tc.out, tc.k)
			x := tensor.New(tc.batch, tc.in, tc.g, tc.g, tc.g)
			sparseVoxels(rng, x)
			grad := tensor.New(c.Forward(x).Shape...)
			sparseVoxels(rng, grad)
			backward, backwardParams := func() { c.Backward(grad) }, func() { c.BackwardParams(grad) }
			if direct {
				backward = func() { refBackward(c, x, grad, tensor.New(x.Shape...)) }
				backwardParams = func() { refBackward(c, x, grad, nil) }
			}
			// Accumulate twice, as training does across a batch's
			// contributions, so the sums land on non-zero gradients.
			zeroGrads(c.Params())
			backward()
			backward()
			wantW, wantB := c.W.Grad.Clone(), c.B.Grad.Clone()
			zeroGrads(c.Params())
			backwardParams()
			backwardParams()
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
			x := tensor.New(bench.batch, 16, 8, 8, 8)
			sparseVoxels(rand.New(rand.NewSource(2)), x)
			grid := tensor.GridBox(8, 8, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bench.direct {
					directBox(c, c.W.Value.Data, c.B.Value.Data, x, tensor.New(bench.batch, 8, 8, 8, 8), grid, grid)
				} else {
					c.Forward(x)
				}
			}
		})
	}
}
