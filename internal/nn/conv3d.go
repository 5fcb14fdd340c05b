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
// bias. Backward scatters too: dW through the same tap-block leaf with
// the output gradient as its rows, dx one row of Σ_o g·W per output
// position (backward), or the reference loops (backwardDirect) when
// Direct is set.
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

// gradBlock is how many samples of a batch share one partial sum of
// the parameter gradients in Backward.
const gradBlock = 2

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
// pass, the per-position rows of Σ_o g·W and their scatter onto the
// grid.
func (c *Conv3D) BackwardParams(grad *tensor.Tensor) { c.backward(grad, nil) }

// backward accumulates the parameter gradients of grad and, when dx is
// not nil, the input gradient into dx, from each sample's output
// gradient gathered position-major ([positions, Out]). The parameter
// gradients are reduced over fixed blocks of gradBlock samples: a block
// sums its samples' partials, each begun from zero, and the block
// partials are added in block order, so the bits do not depend on how
// many workers ParallelFor runs.
func (c *Conv3D) backward(grad, dx *tensor.Tensor) {
	if c.Direct {
		c.backwardDirect(grad, dx)
		return
	}
	x := c.lastX
	n, vol := x.Dim(0), x.Dim(2)*x.Dim(3)*x.Dim(4)
	nW := len(c.W.Value.Data)
	blocks := (n + gradBlock - 1) / gradBlock
	dws := make([][]float64, blocks) // in the scatter layout
	dbs := make([][]float64, blocks)
	tensor.ParallelFor(blocks, func(blo, bhi int) {
		gT := make([]float64, vol*c.Out)
		dwb := make([]float64, nW)
		var row []float64
		if dx != nil {
			row = make([]float64, c.In*c.K*c.K*c.K)
		}
		for blk := blo; blk < bhi; blk++ {
			dw, db := make([]float64, nW), make([]float64, c.Out)
			dws[blk], dbs[blk] = dw, db
			for b := blk * gradBlock; b < min((blk+1)*gradBlock, n); b++ {
				g := grad.Data[b*c.Out*vol : (b+1)*c.Out*vol]
				for o := 0; o < c.Out; o++ {
					for pos, v := range g[o*vol : (o+1)*vol] {
						gT[pos*c.Out+o] = v
						db[o] += v
					}
				}
				clear(dwb)
				c.weightGradScatter(dwb, gT, x, b)
				for i, v := range dwb {
					dw[i] += v
				}
				if dx != nil {
					c.inputGradRows(dx, row, gT, b)
				}
			}
		}
	})
	k := c.K
	for blk := range dws {
		for o := 0; o < c.Out; o++ {
			for r := 0; r < c.In*k*k; r++ {
				for kw := 0; kw < k; kw++ {
					c.W.Grad.Data[(o*c.In*k*k+r)*k+kw] += dws[blk][(r*k+k-1-kw)*c.Out+o]
				}
			}
		}
		for o, v := range dbs[blk] {
			c.B.Grad.Data[o] += v
		}
	}
}

// weightGradScatter adds sample b's weight gradient into dw, which is
// in the scatter layout (scatterLayout): each non-zero input voxel v
// sends v·g to its clipped block of taps through the tap-block leaf,
// with the position-major output gradient gT as the rows the leaf reads
// and dw as the accumulator it writes. The block runs from the taps
// (kdHi, khHi) downward, so the output positions it reads run upward
// and both strides stay positive. Voxels are visited in ascending
// position, so each element of dw adds its terms in ascending output
// position, as the product gTᵀ·im2col(x) does; a zero voxel's terms
// are ±0 and change no sum that starts at +0.
func (c *Conv3D) weightGradScatter(dw, gT []float64, x *tensor.Tensor, b int) {
	d, h, w := x.Dim(2), x.Dim(3), x.Dim(4)
	k, pad, nOut := c.K, c.K/2, c.Out
	st := tensor.TapStrides{PPlane: k * k * nOut, PRow: k * nOut, WPlane: h * w * nOut, WRow: w * nOut}
	tap := tensor.TapBlockKernel[float64]()
	for ci := 0; ci < c.In; ci++ {
		for xd := 0; xd < d; xd++ {
			// The centre tap keeps every voxel's tap ranges non-empty.
			kdLo, kdHi := clipK(xd+pad, d, k)
			for xh := 0; xh < h; xh++ {
				khLo, khHi := clipK(xh+pad, h, k)
				// The block's first row: tap (kdHi, khHi) in dw, output
				// row (xd+pad-kdHi, xh+pad-khHi) in gT.
				pRow := ((ci*k+kdHi)*k + khHi) * k
				gRow := ((xd+pad-kdHi)*h + xh + pad - khHi) * w
				nd, nh := kdHi-kdLo+1, khHi-khLo+1
				base := (((b*c.In+ci)*d+xd)*h + xh) * w
				for xw, v := range x.Data[base : base+w] {
					if v == 0 {
						continue
					}
					kwLo, kwHi := clipK(xw+pad, w, k)
					tap(dw, gT, v, (pRow+k-1-kwHi)*nOut, (gRow+xw+pad-kwHi)*nOut, nd, nh, (kwHi-kwLo+1)*nOut, st)
				}
			}
		}
	}
}

// inputGradRows adds sample b's input gradient into dx. For each output
// position in ascending order it forms the row Σ_o g[o]·W[o, ·] over
// the [In, K, K, K] taps, o ascending from a zeroed row, and adds each
// in-range tap's entry onto the input voxel that tap reads: the product
// gT·W followed by col2im, one position at a time. A position whose
// gradient is zero adds a row of +0, which changes nothing.
func (c *Conv3D) inputGradRows(dx *tensor.Tensor, row, gT []float64, b int) {
	d, h, w := dx.Dim(2), dx.Dim(3), dx.Dim(4)
	k, pad, nOut := c.K, c.K/2, c.Out
	ck3 := len(row)
	wv := c.W.Value.Data
	pos := 0
	for zd := 0; zd < d; zd++ {
		kdLo, kdHi := readK(zd, d, k)
		for zh := 0; zh < h; zh++ {
			khLo, khHi := readK(zh, h, k)
			for zw := 0; zw < w; zw, pos = zw+1, pos+1 {
				kwLo, kwHi := readK(zw, w, k)
				clear(row)
				zero := true
				for o, g := range gT[pos*nOut : (pos+1)*nOut] {
					if g == 0 {
						continue
					}
					zero = false
					for j, wj := range wv[o*ck3 : (o+1)*ck3] {
						row[j] += g * wj
					}
				}
				if zero {
					continue
				}
				for ci := 0; ci < c.In; ci++ {
					for kd := kdLo; kd <= kdHi; kd++ {
						for kh := khLo; kh <= khHi; kh++ {
							dxRow := dx.Data[(((b*c.In+ci)*d+zd+kd-pad)*h+zh+kh-pad)*w:]
							src := row[((ci*k+kd)*k+kh)*k:]
							for kw := kwLo; kw <= kwHi; kw++ {
								dxRow[zw+kw-pad] += src[kw]
							}
						}
					}
				}
			}
		}
	}
}

// readK returns the inclusive kernel-tap range [lo, hi] through which
// output position z reads an input position z+t-k/2 inside [0, dim).
func readK(z, dim, k int) (lo, hi int) {
	pad := k / 2
	return max(pad-z, 0), min(dim-1+pad-z, k-1)
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
