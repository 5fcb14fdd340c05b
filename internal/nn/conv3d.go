package nn

import (
	"fmt"
	"math/rand"

	"deepfusion/internal/tensor"
)

// Conv3D is a 3-dimensional convolution over voxel grids shaped
// [N, C, D, H, W] with cubic kernels, stride 1 and "same" zero padding
// (pad = K/2), matching the 5x5x5 and 3x3x3 stages of the paper's
// 3D-CNN.
//
// Training and inference run one forward body: Forward, Infer and
// InferBox all scatter each non-zero input voxel's kernel footprint
// into the output (scatterBox), or run the seven-loop reference
// (directBox) when Direct is set. Both add an output element's
// non-zero terms in ascending (input channel, tap) order after its
// bias. Backward lowers to matrix multiplication (tensor.Im2Col3D +
// GEMM) over tiles of convTile positions.
type Conv3D struct {
	In, Out, K int
	W          *Param // [Out, In, K, K, K]
	B          *Param // [Out]

	// Direct selects the reference (unlowered) convolution loops.
	// It exists for verification and as the per-sample baseline of
	// the screening throughput benchmarks.
	Direct bool

	lastX *tensor.Tensor
}

// convTile caps the number of output positions Backward lowers per
// im2col patch matrix, bounding the scratch footprint at paper-scale
// grids (48^3 positions would otherwise materialize gigabyte matrices).
const convTile = 8192

// NewConv3D constructs a Glorot-initialized 3D convolution.
func NewConv3D(rng *rand.Rand, in, out, k int) *Conv3D {
	if k%2 == 0 {
		panic("nn: Conv3D kernel size must be odd for same padding")
	}
	c := &Conv3D{
		In:  in,
		Out: out,
		K:   k,
		W:   NewParam("conv3d.w", out, in, k, k, k),
		B:   NewParam("conv3d.b", out),
	}
	fan := in * k * k * k
	GlorotInit(rng, c.W, fan, out*k*k*k)
	return c
}

// Forward implements Layer: the inference kernel over the whole grid
// of each sample (scatterBox, or directBox when Direct is set), one
// sample per ParallelFor worker at a time, into a heap output. The taps
// are laid out from W's values on every call, so training never reads
// a form compiled from an earlier generation of the weights.
func (c *Conv3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 5 || x.Dim(1) != c.In {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,D,H,W], got %v", c.In, x.Shape))
	}
	c.lastX = x
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	out := tensor.New(n, c.Out, d, h, w)
	grid := tensor.GridBox(d, h, w)
	var taps []float64
	if !c.Direct {
		taps = scatterLayout[float64](c.W.Value.Data, c.Out, c.In, c.K)
	}
	inPer, outPer := c.In*d*h*w, c.Out*d*h*w
	tensor.ParallelFor(n, func(lo, hi int) {
		xs := tensor.FromSlice(x.Data[lo*inPer:hi*inPer], hi-lo, c.In, d, h, w)
		ys := tensor.FromSlice(out.Data[lo*outPer:hi*outPer], hi-lo, c.Out, d, h, w)
		if c.Direct {
			directBox(c, c.W.Value.Data, c.B.Value.Data, xs, ys, grid, grid)
		} else {
			scatterBox(c, taps, c.B.Value.Data, xs, ys, grid, grid, NewWorkspace())
		}
	})
	return out
}

// Backward implements Layer.
func (c *Conv3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(c.lastX.Shape...)
	c.backward(grad, dx)
	return dx
}

// BackwardParams accumulates W.Grad and B.Grad exactly as Backward
// does, bit for bit, but computes no input gradient: for a first layer,
// whose input needs none. It skips the widest work of the backward
// pass, the product into the column tile and its scatter onto the grid.
func (c *Conv3D) BackwardParams(grad *tensor.Tensor) { c.backward(grad, nil) }

// backward accumulates the parameter gradients of grad and, when dx is
// not nil, the input gradient into dx.
func (c *Conv3D) backward(grad, dx *tensor.Tensor) {
	if c.Direct {
		c.backwardDirect(grad, dx)
		return
	}
	x := c.lastX
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k := c.K
	dhw := d * h * w
	ck3 := c.In * k * k * k
	wmat := c.W.Value.Reshape(c.Out, ck3)
	tile := dhw
	if tile > convTile {
		tile = convTile
	}
	// Per-worker-block parameter-gradient buffers keep the parallel
	// region race-free at O(workers) scratch; blocks are reduced in
	// batch order below so accumulation stays deterministic.
	dws := make([]*tensor.Tensor, n)
	dbs := make([]*tensor.Tensor, n)
	tensor.ParallelFor(n, func(blo, bhi int) {
		cols := tensor.New(tile, ck3)
		dyT := tensor.New(tile, c.Out)
		var dcols *tensor.Tensor
		if dx != nil {
			dcols = tensor.New(tile, ck3)
		}
		dw := tensor.New(c.Out, ck3)
		db := tensor.New(c.Out)
		dws[blo], dbs[blo] = dw, db
		for b := blo; b < bhi; b++ {
			for lo := 0; lo < dhw; lo += tile {
				hi := lo + tile
				if hi > dhw {
					hi = dhw
				}
				rows := hi - lo
				ct, dyt := cols, dyT
				if rows != tile {
					ct = tensor.FromSlice(cols.Data[:rows*ck3], rows, ck3)
					dyt = tensor.FromSlice(dyT.Data[:rows*c.Out], rows, c.Out)
				}
				tensor.Im2Col3D(x, b, k, lo, hi, ct)
				// Gather the output gradient tile position-major.
				for o := 0; o < c.Out; o++ {
					src := grad.Data[(b*c.Out+o)*dhw+lo : (b*c.Out+o)*dhw+hi]
					for r, g := range src {
						dyt.Data[r*c.Out+o] = g
						db.Data[o] += g
					}
				}
				dw.AddInPlace(tensor.MatMulTransA(dyt, ct)) // [Out, CK^3]
				if dx == nil {
					continue
				}
				dct := dcols
				if rows != tile {
					dct = tensor.FromSlice(dcols.Data[:rows*ck3], rows, ck3)
				}
				dct.Zero()
				tensor.MatMulAcc(dct, dyt, wmat) // [rows, CK^3]
				tensor.Col2Im3D(dct, b, k, lo, hi, dx)
			}
		}
	})
	for b := 0; b < n; b++ {
		if dws[b] == nil {
			continue
		}
		c.W.Grad.AddInPlace(dws[b])
		c.B.Grad.AddInPlace(dbs[b])
	}
}

// backwardDirect is the reference backward matching directBox; dx as
// in backward.
func (c *Conv3D) backwardDirect(grad, dx *tensor.Tensor) {
	x := c.lastX
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	pad := c.K / 2
	k := c.K
	// Parameter gradients are accumulated serially per output channel to
	// avoid write races; input gradients are accumulated per sample.
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

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool3D downsamples [N, C, D, H, W] by taking the maximum over
// non-overlapping cubic windows of size K (dimensions must divide K).
type MaxPool3D struct {
	K int

	lastArg []int // winning input flat index per output element
	inShape []int
}

// NewMaxPool3D constructs a max-pooling layer with window k.
func NewMaxPool3D(k int) *MaxPool3D { return &MaxPool3D{K: k} }

// Forward implements Layer.
func (m *MaxPool3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	k := m.K
	if d%k != 0 || h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool3D window %d does not divide grid %v", k, x.Shape))
	}
	od, oh, ow := d/k, h/k, w/k
	out := tensor.New(n, c, od, oh, ow)
	m.lastArg = make([]int, out.Len())
	m.inShape = append([]int(nil), x.Shape...)
	perChan := od * oh * ow
	tensor.ParallelFor(n*c, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			ni, ci := nc/c, nc%c
			oi := nc * perChan
			for zd := 0; zd < od; zd++ {
				for zh := 0; zh < oh; zh++ {
					for zw := 0; zw < ow; zw++ {
						best := 0
						bestV := 0.0
						first := true
						for kd := 0; kd < k; kd++ {
							for kh := 0; kh < k; kh++ {
								for kw := 0; kw < k; kw++ {
									fi := ((((ni*c+ci)*d+zd*k+kd)*h + zh*k + kh) * w) + zw*k + kw
									if first || x.Data[fi] > bestV {
										best, bestV = fi, x.Data[fi]
										first = false
									}
								}
							}
						}
						out.Data[oi] = bestV
						m.lastArg[oi] = best
						oi++
					}
				}
			}
		}
	})
	return out
}

// Backward implements Layer.
func (m *MaxPool3D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(m.inShape...)
	for oi, fi := range m.lastArg {
		dx.Data[fi] += grad.Data[oi]
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool3D) Params() []*Param { return nil }

// Flatten reshapes [N, ...] to [N, prod(...)]; its backward restores the
// original shape.
type Flatten struct {
	inShape []int
}

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append([]int(nil), x.Shape...)
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
