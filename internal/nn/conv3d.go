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
// The training Forward scatters each non-zero input voxel's kernel
// footprint into the output when the output is cache-sized and lowers
// the convolution to matrix multiplication (tensor.Im2Col3D +
// accumulating GEMM) above that; inference (Infer, InferBox) always
// scatters. Setting Direct selects the original seven-loop reference
// implementation. Every path adds an output element's non-zero terms
// in ascending (input channel, tap) order after its bias; the nn
// equivalence tests compare them.
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

// convTile caps the number of output positions lowered per im2col
// patch matrix, bounding the scratch footprint at paper-scale grids
// (48^3 positions would otherwise materialize gigabyte matrices).
const convTile = 8192

// scatterMaxBytes bounds the per-sample output footprint for which the
// training Forward scatters; above it Forward lowers to im2col tiles,
// which keep its scratch bounded. 32 MB covers the paper grid's largest
// layer (32 filters x 48^3 x 8 bytes = 28 MB).
const scatterMaxBytes = 1 << 25

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

// Forward implements Layer.
func (c *Conv3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 5 || x.Dim(1) != c.In {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,D,H,W], got %v", c.In, x.Shape))
	}
	c.lastX = x
	if c.Direct {
		return c.forwardDirect(x)
	}
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k := c.K
	dhw := d * h * w
	ck3 := c.In * k * k * k
	out := tensor.New(n, c.Out, d, h, w)
	// Kernel matrix transposed once per batch call: [CK^3, Out].
	wt := tensor.Transpose(c.W.Value.Reshape(c.Out, ck3))
	if c.Out*dhw*8 <= scatterMaxBytes {
		c.forwardScatter(x, out, wt)
		return out
	}
	tile := dhw
	if tile > convTile {
		tile = convTile
	}
	type unit struct{ b, lo, hi int }
	var units []unit
	for b := 0; b < n; b++ {
		for lo := 0; lo < dhw; lo += tile {
			hi := lo + tile
			if hi > dhw {
				hi = dhw
			}
			units = append(units, unit{b, lo, hi})
		}
	}
	tensor.ParallelFor(len(units), func(ulo, uhi int) {
		cols := tensor.New(tile, ck3)
		y := tensor.New(tile, c.Out)
		for ui := ulo; ui < uhi; ui++ {
			u := units[ui]
			rows := u.hi - u.lo
			ct, yt := cols, y
			if rows != tile {
				ct = tensor.FromSlice(cols.Data[:rows*ck3], rows, ck3)
				yt = tensor.FromSlice(y.Data[:rows*c.Out], rows, c.Out)
			}
			tensor.Im2Col3D(x, u.b, k, u.lo, u.hi, ct)
			// Seed every position with the bias, then accumulate the
			// patch GEMM on top (same term order as the direct loops).
			for r := 0; r < rows; r++ {
				copy(yt.Data[r*c.Out:(r+1)*c.Out], c.B.Value.Data)
			}
			tensor.MatMulAcc(yt, ct, wt)
			// Scatter the position-major tile into [Out, D, H, W].
			for o := 0; o < c.Out; o++ {
				dst := out.Data[(u.b*c.Out+o)*dhw+u.lo : (u.b*c.Out+o)*dhw+u.hi]
				for r := range dst {
					dst[r] = yt.Data[r*c.Out+o]
				}
			}
		}
	})
	return out
}

// forwardScatter is the sparse-input forward used for cache-resident
// outputs: it walks the nonzero input voxels once and scatters each
// one's kernel footprint into every output channel, so work scales
// with occupied grid cells instead of grid volume. wt is the kernel
// matrix transposed to [C*K^3, Out], making the per-offset channel
// row contiguous.
func (c *Conv3D) forwardScatter(x, out, wt *tensor.Tensor) {
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k := c.K
	pad := k / 2
	dhw := d * h * w
	hw := h * w
	tensor.ParallelFor(n, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			outS := out.Data[b*c.Out*dhw : (b+1)*c.Out*dhw]
			for o := 0; o < c.Out; o++ {
				bias := c.B.Value.Data[o]
				row := outS[o*dhw : (o+1)*dhw]
				for i := range row {
					row[i] = bias
				}
			}
			for ci := 0; ci < c.In; ci++ {
				chBase := (b*c.In + ci) * dhw
				for ip, v := range x.Data[chBase : chBase+dhw] {
					if v == 0 {
						continue
					}
					id, rem := ip/hw, ip%hw
					ih, iw := rem/w, rem%w
					for kd := 0; kd < k; kd++ {
						zd := id + pad - kd
						if zd < 0 || zd >= d {
							continue
						}
						for kh := 0; kh < k; kh++ {
							zh := ih + pad - kh
							if zh < 0 || zh >= h {
								continue
							}
							wBase := ((ci*k+kd)*k + kh) * k
							for kw := 0; kw < k; kw++ {
								zw := iw + pad - kw
								if zw < 0 || zw >= w {
									continue
								}
								pos := (zd*h+zh)*w + zw
								wRow := wt.Data[(wBase+kw)*c.Out : (wBase+kw+1)*c.Out]
								for o, wv := range wRow {
									outS[o*dhw+pos] += wv * v
								}
							}
						}
					}
				}
			}
		}
	})
}

// forwardDirect is the reference seven-loop convolution.
func (c *Conv3D) forwardDirect(x *tensor.Tensor) *tensor.Tensor {
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	pad := c.K / 2
	out := tensor.New(n, c.Out, d, h, w)
	k := c.K
	tensor.ParallelFor(n*c.Out, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			ni, co := idx/c.Out, idx%c.Out
			bias := c.B.Value.Data[co]
			for zd := 0; zd < d; zd++ {
				for zh := 0; zh < h; zh++ {
					for zw := 0; zw < w; zw++ {
						s := bias
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
									xBase := ((ni*c.In+ci)*d+id)*h + ih
									wBase := (((co*c.In+ci)*k+kd)*k + kh) * k
									xRow := x.Data[xBase*w : xBase*w+w]
									wRow := c.W.Value.Data[wBase : wBase+k]
									for kw := 0; kw < k; kw++ {
										iw := zw + kw - pad
										if iw < 0 || iw >= w {
											continue
										}
										s += xRow[iw] * wRow[kw]
									}
								}
							}
						}
						out.Set(s, ni, co, zd, zh, zw)
					}
				}
			}
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

// backwardDirect is the reference backward matching forwardDirect; dx
// as in backward.
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
func (m *MaxPool3D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
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
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
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
