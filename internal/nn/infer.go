package nn

import (
	"fmt"
	"math"

	"deepfusion/internal/tensor"
)

// This file is the zero-allocation inference surface of the layer
// framework. Every layer gains a ForwardInfer variant that reads its
// weights, writes its output into workspace-pooled buffers, and caches
// nothing for Backward — the steady-state path of the screening
// engine. After one warm-up batch a ForwardInfer pass performs zero
// heap allocations, and its outputs are byte-identical to
// Forward(x, false): identical loops, identical per-element term
// order, only the buffer ownership changes.
//
// ForwardInfer runs serially in the calling goroutine (no ParallelFor)
// — the screening engine's rank goroutines are the parallelism, one
// workspace each, mirroring the paper's one-model-instance-per-GPU
// deployment.

// Workspace owns the pooled buffers of one inference stream: a
// float64 and a float32 arena, so one workspace serves whichever
// precision the batch runs at. It is not safe for concurrent use; the
// screening engine gives each rank its own.
//
// A workspace holds nothing derived from weights: packed panels,
// kernel transposes and float32 conversions live on the parameters
// (frozen.go) and are shared by every workspace.
type Workspace struct {
	Arena   *tensor.Arena
	Arena32 *tensor.Arena32
}

// NewWorkspace returns an empty inference workspace.
func NewWorkspace() *Workspace {
	return &Workspace{Arena: tensor.NewArena(), Arena32: tensor.NewArena32()}
}

// Reset recycles the per-batch buffers.
func (ws *Workspace) Reset() {
	ws.Arena.Reset()
	ws.Arena32.Reset()
}

// InferLayer is the inference-mode counterpart of Layer: a forward
// pass that allocates from the workspace and caches nothing.
type InferLayer interface {
	ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor
}

// ForwardInfer implements InferLayer. Layers that do not implement the
// in-place contract fall back to Forward(x, false) (correct, but
// allocating).
func (s *Sequential) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	for _, l := range s.Layers {
		if il, ok := l.(InferLayer); ok {
			x = il.ForwardInfer(x, ws)
		} else {
			x = l.Forward(x, false)
		}
	}
	return x
}

// ForwardInfer implements InferLayer: y = x·Wᵀ + b via the packed
// panel kernel against the parameter-owned packing of Wᵀ.
func (d *Dense) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panicShape("Dense", x, d.In)
	}
	n := x.Dim(0)
	y := ws.Arena.GetUninit(n, d.Out)
	pb := d.W.PackedTransposed(d.Out, d.In)
	tensor.MatMulPackedInto(y, x, pb)
	for i := 0; i < n; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += d.B.Value.Data[j]
		}
	}
	return y
}

// ForwardInfer implements InferLayer.
func (a *Activation) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	out := ws.Arena.GetUninit(x.Shape...)
	a.apply(out.Data, x.Data)
	return out
}

// InferInPlace applies the activation to x itself — same values as
// ForwardInfer without a second tensor, for callers that hold the only
// reference to x (a conv or dense output feeding straight into its
// nonlinearity).
func (a *Activation) InferInPlace(x *tensor.Tensor) { a.apply(x.Data, x.Data) }

// apply writes the activation of src into dst, which may alias src.
func (a *Activation) apply(dst, src []float64) {
	switch a.Kind {
	case ActReLU:
		for i, v := range src {
			if v > 0 {
				dst[i] = v
			} else {
				dst[i] = 0
			}
		}
	case ActLReLU:
		for i, v := range src {
			if v > 0 {
				dst[i] = v
			} else {
				dst[i] = a.Slope * v
			}
		}
	case ActSELU:
		for i, v := range src {
			if v > 0 {
				dst[i] = seluLambda * v
			} else {
				dst[i] = seluLambda * seluAlpha * (math.Exp(v) - 1)
			}
		}
	default:
		panic("nn: unknown activation " + a.Kind)
	}
}

// ForwardInfer implements InferLayer. Inference dropout is the
// identity, exactly like Forward with train=false.
func (d *Dropout) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor { return x }

// ForwardInfer implements InferLayer: a pooled view, the workspace
// counterpart of Reshape.
func (f *Flatten) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	n := x.Dim(0)
	return ws.Arena.View(x.Data, n, x.Len()/n)
}

// ForwardInfer implements InferLayer: evaluation-mode normalization
// with running statistics, as Forward(x, false).
func (b *BatchNorm) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != b.F {
		panic("nn: BatchNorm expects [N, F] input matching layer width")
	}
	n := x.Dim(0)
	out := ws.Arena.GetUninit(x.Shape...)
	for i := 0; i < n; i++ {
		xr, or := x.Row(i), out.Row(i)
		for j := 0; j < b.F; j++ {
			xh := (xr[j] - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
			or[j] = b.Gamma.Value.Data[j]*xh + b.Beta.Value.Data[j]
		}
	}
	return out
}

// ForwardInfer implements InferLayer: Forward's window maximum without
// recording the winners for Backward. Each output row folds its k*k
// input rows in (kd, kh) order with the kw taps innermost — the tap
// order of Forward's window loops, so ties and NaNs resolve the same
// way — reading every input row contiguously from a hoisted base.
func (m *MaxPool3D) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	n, c, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	k := m.K
	if d%k != 0 || h%k != 0 || w%k != 0 {
		panic("nn: MaxPool3D window does not divide grid")
	}
	od, oh, ow := d/k, h/k, w/k
	out := ws.Arena.GetUninit(n, c, od, oh, ow)
	for nc := 0; nc < n*c; nc++ {
		src := x.Data[nc*d*h*w : (nc+1)*d*h*w]
		dst := out.Data[nc*od*oh*ow : (nc+1)*od*oh*ow]
		for zd := 0; zd < od; zd++ {
			for zh := 0; zh < oh; zh++ {
				orow := dst[(zd*oh+zh)*ow:][:ow]
				for kd := 0; kd < k; kd++ {
					for kh := 0; kh < k; kh++ {
						row := src[((zd*k+kd)*h+zh*k+kh)*w:][:w]
						if kd == 0 && kh == 0 {
							for zw := range orow {
								orow[zw] = row[zw*k]
							}
						}
						for zw := range orow {
							best := orow[zw]
							for _, v := range row[zw*k:][:k] {
								if v > best {
									best = v
								}
							}
							orow[zw] = best
						}
					}
				}
			}
		}
	}
	return out
}

// ForwardInfer implements InferLayer for the convolution over a whole
// grid: the same algorithm selection as Forward (direct reference
// loops, sparse scatter for cache-resident outputs, im2col GEMM tiles
// otherwise) with workspace-pooled scratch. The direct and scatter
// algorithms are ForwardInferBox over the box that is the whole grid.
// Per-element accumulation order is identical to Forward, so outputs
// are byte-identical.
func (c *Conv3D) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor {
	if x.Rank() != 5 || x.Dim(1) != c.In {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,D,H,W], got %v", c.In, x.Shape))
	}
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k := c.K
	dhw := d * h * w
	ck3 := c.In * k * k * k
	if c.Direct || c.Out*dhw*8 <= scatterMaxBytes {
		grid := tensor.GridBox(d, h, w)
		return c.ForwardInferBox(x, grid, grid, ws)
	}
	out := ws.Arena.GetUninit(n, c.Out, d, h, w)
	// Tile path: im2col patches are sparse (voxel occupancy), so the
	// zero-skip scalar kernel against the cached kernel transpose beats
	// the panel kernel — one data-dependent branch per patch value,
	// skipping a whole Out-wide row. The packed panel kernel is for the
	// dense x·Wᵀ layer products.
	wt := c.W.Transposed(c.Out, ck3)
	tile := dhw
	if tile > convTile {
		tile = convTile
	}
	for b := 0; b < n; b++ {
		for lo := 0; lo < dhw; lo += tile {
			hi := lo + tile
			if hi > dhw {
				hi = dhw
			}
			rows := hi - lo
			ct := ws.Arena.GetUninit(rows, ck3) // Im2Col3D zeroes it
			yt := ws.Arena.GetUninit(rows, c.Out)
			tensor.Im2Col3D(x, b, k, lo, hi, ct)
			// Seed every position with the bias, then accumulate the
			// patch GEMM on top (same term order as Forward).
			for r := 0; r < rows; r++ {
				copy(yt.Data[r*c.Out:(r+1)*c.Out], c.B.Value.Data)
			}
			tensor.MatMulAcc(yt, ct, wt)
			for o := 0; o < c.Out; o++ {
				dst := out.Data[(b*c.Out+o)*dhw+lo : (b*c.Out+o)*dhw+hi]
				for r := range dst {
					dst[r] = yt.Data[r*c.Out+o]
				}
			}
			ws.Arena.Put(yt)
			ws.Arena.Put(ct)
		}
	}
	return out
}

// ForwardInferBox is the convolution between two boxes of one voxel
// grid: x holds the input over box in ([N, In, in's dims]), the result
// holds the output over box out ([N, Out, out's dims]), and the input
// is zero everywhere outside in. The kernel never sees the grid — "same"
// zero padding at the grid border is just the statement that nothing
// outside the grid is non-zero — so callers keep both boxes inside the
// grid, and give in every non-zero voxel within kernel reach of out.
// The two boxes need not nest: the voxel head grows out by the kernel
// radius over in at every stage.
//
// Each output element accumulates its bias and then its non-zero terms
// in ascending (input channel, input position) order, whichever boxes
// carry them: the result over any out equals the whole-grid result
// restricted to out, bit for bit.
func (c *Conv3D) ForwardInferBox(x *tensor.Tensor, in, out tensor.Box, ws *Workspace) *tensor.Tensor {
	id, ih, iw := in.Dims()
	if x.Rank() != 5 || x.Dim(1) != c.In || x.Dim(2) != id || x.Dim(3) != ih || x.Dim(4) != iw {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,%d,%d,%d] over box %v, got %v", c.In, id, ih, iw, in, x.Shape))
	}
	od, oh, ow := out.Dims()
	y := ws.Arena.GetUninit(x.Dim(0), c.Out, od, oh, ow)
	if c.Direct {
		c.directBox(x, y, in, out)
	} else {
		c.scatterBox(x, y, in, out, ws)
	}
	return y
}

// boxShift returns, per axis, the offset s such that the input voxel
// at in-local coordinate i reaches, through kernel tap t, the out-local
// coordinate i + s - t (the scatter view), and the output voxel at
// out-local z reads, through tap t, the in-local coordinate z + t - s
// (the gather view).
func boxShift(in, out tensor.Box, pad int) (sd, sh, sw int) {
	return in.Lo[0] - out.Lo[0] + pad, in.Lo[1] - out.Lo[1] + pad, in.Lo[2] - out.Lo[2] + pad
}

// fillRows seeds every row-wide row of buf with row, doubling the
// filled prefix so the bulk of the fill runs at memmove speed.
func fillRows[T any](buf, row []T) {
	if len(buf) == 0 {
		return
	}
	filled := copy(buf, row)
	for filled < len(buf) {
		filled += copy(buf[filled:], buf[:filled])
	}
}

// transposeTile is how many positions the scatter kernels move per
// channel when they turn the position-major accumulator into channel
// planes: one cache line of float32 output per channel, read from a
// tile of the accumulator that stays in L1.
const transposeTile = 16

// untranspose writes the position-major accumulator pd ([vol, nOut])
// into the channel-major block dst ([nOut, vol]).
func untranspose[T any](dst, pd []T, vol, nOut int) {
	for p0 := 0; p0 < vol; p0 += transposeTile {
		p1 := min(p0+transposeTile, vol)
		for o := 0; o < nOut; o++ {
			row := dst[o*vol+p0 : o*vol+p1]
			src := pd[p0*nOut+o:]
			for j := range row {
				row[j] = src[j*nOut]
			}
		}
	}
}

// scatterBox is the pooled sparse-scatter convolution between boxes.
// It walks the non-zero input voxels row by row — the kernel-tap
// ranges that land inside the output box are hoisted per row and per
// voxel, so the surviving taps run branch-free — and accumulates into
// a position-major [out volume, Out] buffer: each tap updates Out
// contiguous values, one cache line, where forwardScatter strides Out
// channel planes, and the taps a voxel sends along one grid row update
// adjacent positions, so a whole row of taps is one contiguous axpy
// against the parameter's ScatterTaps layout. The accumulator is then
// transposed once into the [Out, out's dims] block. Every output
// element receives one term per input voxel and tap, and voxels are
// visited in ascending (ci, input-position) order, so per-element term
// order matches forwardScatter exactly.
func (c *Conv3D) scatterBox(x, y *tensor.Tensor, in, out tensor.Box, ws *Workspace) {
	n := x.Dim(0)
	id, ih, iw := in.Dims()
	od, oh, ow := out.Dims()
	inVol, outVol := id*ih*iw, od*oh*ow
	k := c.K
	sd, sh, sw := boxShift(in, out, k/2)
	nOut := c.Out
	posBuf := ws.Arena.GetUninit(outVol, nOut)
	pd := posBuf.Data
	wd := c.W.ScatterTaps(c.Out, c.In, k).Data
	for b := 0; b < n; b++ {
		fillRows(pd, c.B.Value.Data)
		for ci := 0; ci < c.In; ci++ {
			chBase := (b*c.In + ci) * inVol
			for xd := 0; xd < id; xd++ {
				kdLo, kdHi := clipK(xd+sd, od, k)
				if kdLo > kdHi {
					continue
				}
				for xh := 0; xh < ih; xh++ {
					khLo, khHi := clipK(xh+sh, oh, k)
					if khLo > khHi {
						continue
					}
					rowBase := chBase + (xd*ih+xh)*iw
					for xw, v := range x.Data[rowBase : rowBase+iw] {
						if v == 0 {
							continue
						}
						kwLo, kwHi := clipK(xw+sw, ow, k)
						span := (kwHi - kwLo + 1) * nOut
						if span <= 0 {
							continue
						}
						for kd := kdLo; kd <= kdHi; kd++ {
							zd := xd + sd - kd
							for kh := khLo; kh <= khHi; kh++ {
								zh := xh + sh - kh
								// The surviving taps kwLo..kwHi update the
								// adjacent positions zw = xw+sw-kw; the
								// reversed tap axis puts their weight rows in
								// that same ascending-zw order.
								wOff := (((ci*k+kd)*k+kh)*k + k - 1 - kwHi) * nOut
								pOff := ((zd*oh+zh)*ow + xw + sw - kwHi) * nOut
								axpy64(pd[pOff:pOff+span], wd[wOff:wOff+span], v)
							}
						}
					}
				}
			}
		}
		untranspose(y.Data[b*nOut*outVol:(b+1)*nOut*outVol], pd, outVol, nOut)
	}
	ws.Arena.Put(posBuf)
}

// axpy64 computes dst[i] += w[i] * v, unrolled 8 lanes at a time (the
// production filter counts are multiples of 8).
func axpy64(dst, w []float64, v float64) {
	w = w[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		dr := dst[i : i+8 : i+8]
		wr := w[i : i+8 : i+8]
		dr[0] += wr[0] * v
		dr[1] += wr[1] * v
		dr[2] += wr[2] * v
		dr[3] += wr[3] * v
		dr[4] += wr[4] * v
		dr[5] += wr[5] * v
		dr[6] += wr[6] * v
		dr[7] += wr[7] * v
	}
	for ; i < len(dst); i++ {
		dst[i] += w[i] * v
	}
}

// clipK returns the inclusive kernel-tap range [lo, hi] for which the
// mirrored position s-t stays inside [0, dim); s is the voxel's
// coordinate plus the box shift (boxShift). The range is empty
// (lo > hi) when no tap lands inside.
func clipK(s, dim, k int) (lo, hi int) {
	lo, hi = s-dim+1, s
	if lo < 0 {
		lo = 0
	}
	if hi > k-1 {
		hi = k - 1
	}
	return lo, hi
}

// directBox is the serial reference convolution between boxes —
// forwardDirect's gather loops without the ParallelFor (rank
// goroutines are the inference parallelism), reading taps that fall
// outside the input box as the zeros they are.
func (c *Conv3D) directBox(x, y *tensor.Tensor, in, out tensor.Box) {
	n := x.Dim(0)
	id, ih, iw := in.Dims()
	od, oh, ow := out.Dims()
	inVol, outVol := id*ih*iw, od*oh*ow
	k := c.K
	sd, sh, sw := boxShift(in, out, k/2)
	for ni := 0; ni < n; ni++ {
		for co := 0; co < c.Out; co++ {
			bias := c.B.Value.Data[co]
			oBase := (ni*c.Out + co) * outVol
			for zd := 0; zd < od; zd++ {
				for zh := 0; zh < oh; zh++ {
					for zw := 0; zw < ow; zw++ {
						s := bias
						for ci := 0; ci < c.In; ci++ {
							xBase := (ni*c.In + ci) * inVol
							for kd := 0; kd < k; kd++ {
								xd := zd + kd - sd
								if xd < 0 || xd >= id {
									continue
								}
								for kh := 0; kh < k; kh++ {
									xh := zh + kh - sh
									if xh < 0 || xh >= ih {
										continue
									}
									rowBase := xBase + (xd*ih+xh)*iw
									wBase := (((co*c.In+ci)*k+kd)*k + kh) * k
									xRow := x.Data[rowBase : rowBase+iw]
									wRow := c.W.Value.Data[wBase : wBase+k]
									for kw := 0; kw < k; kw++ {
										xw := zw + kw - sw
										if xw < 0 || xw >= iw {
											continue
										}
										s += xRow[xw] * wRow[kw]
									}
								}
							}
						}
						y.Data[oBase+(zd*oh+zh)*ow+zw] = s
					}
				}
			}
		}
	}
}
