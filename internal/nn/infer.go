package nn

import (
	"fmt"
	"math"

	"deepfusion/internal/tensor"
)

// This file is the zero-allocation inference surface of the layer
// framework, written once for both element widths. Infer runs any
// layer's evaluation forward: it reads the layer's weights through
// their compiled forms at the input's width (frozen.go), writes its
// output into workspace-pooled buffers, and caches nothing for
// Backward — the path of the screening engine and of training-side
// evaluation alike. After one warm-up batch an inference pass performs
// zero heap allocations. Each layer has one forward body: the training
// Forward runs the same kernels (the convolution's scatterBox,
// activate) or the same per-element expressions in the same term order,
// and adds only its stash for Backward, dropout's mask and batch norm's
// batch statistics. At float32 the same loops run at half the width, so
// results differ from float64 only in rounding. The convolution's
// direct reference loops (directBox) run at inference only, when
// Conv3D.Direct is set.
//
// Inference runs serially in the calling goroutine (no ParallelFor) —
// the screening engine's rank goroutines are the parallelism, one
// workspace each, mirroring the paper's one-model-instance-per-GPU
// deployment.

// Workspace owns the pooled buffers of one inference stream: one arena
// per element width, so one workspace serves whichever precision the
// batch runs at. It is not safe for concurrent use; the screening
// engine gives each rank its own.
//
// A workspace holds nothing derived from weights: packed panels,
// scatter layouts and float32 conversions live on the parameters
// (frozen.go) and are shared by every workspace.
type Workspace struct {
	f64 tensor.Arena[float64]
	f32 tensor.Arena[float32]
}

// NewWorkspace returns an empty inference workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles the per-batch buffers.
func (ws *Workspace) Reset() {
	ws.f64.Reset()
	ws.f32.Reset()
}

// Arena returns the workspace's pool of T tensors.
func Arena[T tensor.Float](ws *Workspace) *tensor.Arena[T] {
	return tensor.Select[*tensor.Arena[T]](&ws.f64, &ws.f32)
}

// Infer runs layer l's inference forward over x at x's element width.
// Sequential chains its layers; dropout is the identity and Flatten a
// pooled view. A layer this package does not define has no inference
// path and panics.
func Infer[T tensor.Float](l Layer, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	switch l := l.(type) {
	case *Sequential:
		for _, sub := range l.Layers {
			x = Infer(sub, x, ws)
		}
		return x
	case *Dense:
		return denseInfer(l, x, ws)
	case *Activation:
		out := Arena[T](ws).GetUninit(x.Shape...)
		activate(l, out.Data, x.Data)
		return out
	case *Dropout:
		return x
	case *Flatten:
		n := x.Dim(0)
		return Arena[T](ws).View(x.Data, n, x.Len()/n)
	case *BatchNorm:
		return batchNormInfer(l, x, ws)
	case *MaxPool3D:
		return poolInfer(l, x, ws)
	case *Conv3D:
		if x.Rank() != 5 || x.Dim(1) != l.In {
			panic(fmt.Sprintf("nn: Conv3D expects [N,%d,D,H,W], got %v", l.In, x.Shape))
		}
		grid := tensor.GridBox(x.Dim(2), x.Dim(3), x.Dim(4))
		return InferBox(l, x, grid, grid, ws)
	}
	panic(fmt.Sprintf("nn: layer %T has no inference path", l))
}

// InferInPlace applies the activation to x itself — the values Infer
// returns, without a second tensor, for callers that hold the only
// reference to x (a conv or dense output feeding straight into its
// nonlinearity).
func InferInPlace[T tensor.Float](a *Activation, x *tensor.Dense[T]) { activate(a, x.Data, x.Data) }

// ForwardInfer is Infer at float64: the convolution over the whole
// grid.
func (c *Conv3D) ForwardInfer(x *tensor.Tensor, ws *Workspace) *tensor.Tensor { return Infer(c, x, ws) }

// ForwardInfer32 is Infer at float32.
func (c *Conv3D) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 { return Infer(c, x, ws) }

// denseInfer is y = x·Wᵀ + b via the packed panel kernel against the
// parameter-owned packing of Wᵀ.
func denseInfer[T tensor.Float](d *Dense, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: Dense expects [N, %d] input, got %v", d.In, x.Shape))
	}
	y := Arena[T](ws).GetUninit(x.Dim(0), d.Out)
	tensor.MatMulPackedInto(y, x, PackedTransposed[T](d.W, d.Out, d.In))
	y.AddToRows(Vec[T](d.B))
	return y
}

// activate writes the activation of src into dst, which may alias
// src. The negative SELU branch exponentiates in float64 (the standard
// library has no float32 exp) and rounds once to T.
func activate[T tensor.Float](a *Activation, dst, src []T) {
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
		slope := T(a.Slope)
		for i, v := range src {
			if v > 0 {
				dst[i] = v
			} else {
				dst[i] = slope * v
			}
		}
	case ActSELU:
		for i, v := range src {
			if v > 0 {
				dst[i] = T(seluLambda) * v
			} else {
				dst[i] = T(seluLambda * seluAlpha * (math.Exp(float64(v)) - 1))
			}
		}
	default:
		panic("nn: unknown activation " + a.Kind)
	}
}

// batchNormInfer is evaluation-mode normalization with the running
// statistics. It is the one layer whose two widths compute differently:
// float64 repeats the per-element expression Forward applies to a batch
// of one, which the goldens pin bitwise; float32 applies the folded scale and shift (one
// multiply-add per element; algebraically identical, differing only in
// rounding).
func batchNormInfer[T tensor.Float](b *BatchNorm, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	if x.Rank() != 2 || x.Dim(1) != b.F {
		panic("nn: BatchNorm expects [N, F] input matching layer width")
	}
	out := Arena[T](ws).GetUninit(x.Shape...)
	n := x.Dim(0)
	switch o := any(out).(type) {
	case *tensor.Tensor:
		x := any(x).(*tensor.Tensor)
		for i := 0; i < n; i++ {
			xr, or := x.Row(i), o.Row(i)
			for j := 0; j < b.F; j++ {
				xh := (xr[j] - b.RunMean[j]) / math.Sqrt(b.RunVar[j]+b.Eps)
				or[j] = b.Gamma.Value.Data[j]*xh + b.Beta.Value.Data[j]
			}
		}
	case *tensor.F32:
		x := any(x).(*tensor.F32)
		f := b.folded32()
		for i := 0; i < n; i++ {
			xr, or := x.Row(i), o.Row(i)
			for j := 0; j < b.F; j++ {
				or[j] = f.scale[j]*xr[j] + f.shift[j]
			}
		}
	}
	return out
}

// poolInfer is Forward's window maximum without recording the winners
// for Backward. Each output row folds its k*k input rows in (kd, kh)
// order with the kw taps innermost — the tap order of Forward's window
// loops, so ties and NaNs resolve the same way — reading every input
// row contiguously from a hoisted base.
func poolInfer[T tensor.Float](m *MaxPool3D, x *tensor.Dense[T], ws *Workspace) *tensor.Dense[T] {
	n, c, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	k := m.K
	if d%k != 0 || h%k != 0 || w%k != 0 {
		panic("nn: MaxPool3D window does not divide grid")
	}
	od, oh, ow := d/k, h/k, w/k
	out := Arena[T](ws).GetUninit(n, c, od, oh, ow)
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

// InferBox is the convolution between two boxes of one voxel grid: x
// holds the input over box in ([N, In, in's dims]), the result holds
// the output over box out ([N, Out, out's dims]), and the input is zero
// everywhere outside in. The kernel never sees the grid — "same" zero
// padding at the grid border is just the statement that nothing
// outside the grid is non-zero — so callers keep both boxes inside the
// grid, and give in every non-zero voxel within kernel reach of out.
// The two boxes need not nest: the voxel head grows out by the kernel
// radius over in at every stage.
//
// Each output element accumulates its bias and then its non-zero terms
// in ascending (input channel, input position) order, whichever boxes
// carry them: the result over any out equals the whole-grid result
// restricted to out, bit for bit. The scatter computes it, or the
// direct reference loops when c.Direct is set.
func InferBox[T tensor.Float](c *Conv3D, x *tensor.Dense[T], in, out tensor.Box, ws *Workspace) *tensor.Dense[T] {
	id, ih, iw := in.Dims()
	if x.Rank() != 5 || x.Dim(1) != c.In || x.Dim(2) != id || x.Dim(3) != ih || x.Dim(4) != iw {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,%d,%d,%d] over box %v, got %v", c.In, id, ih, iw, in, x.Shape))
	}
	od, oh, ow := out.Dims()
	y := Arena[T](ws).GetUninit(x.Dim(0), c.Out, od, oh, ow)
	if c.Direct {
		directBox(c, Vec[T](c.W), Vec[T](c.B), x, y, in, out)
	} else {
		scatterBox(c, scatterTaps[T](c.W, c.Out, c.In, c.K), Vec[T](c.B), x, y, in, out, ws)
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

// transposeTile is how many positions the scatter kernel moves per
// channel when it turns the position-major accumulator into channel
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

// scatterBox is the sparse-scatter convolution between boxes, with the
// kernel in the scatter layout (scatterLayout) and the bias given by
// the caller. It walks the non-zero input voxels row by row — the
// kernel-tap ranges that land inside the output box are hoisted per
// row and per voxel, so the surviving taps run branch-free — and
// accumulates into a pooled position-major [out volume, Out] buffer:
// each tap updates Out contiguous values, one cache line, and the taps
// a voxel sends along one grid row update adjacent positions, so a
// whole row of taps is one contiguous axpy against the layout. All the
// rows one voxel reaches — its clipped (kd, kh) block — go to the
// width's tap-block leaf in one call. The accumulator is then
// transposed once into the [Out, out's dims] block. Every output
// element receives its bias and then one term per input voxel and tap,
// with voxels visited in ascending (ci, input-position) order.
func scatterBox[T tensor.Float](c *Conv3D, wd, bias []T, x, y *tensor.Dense[T], in, out tensor.Box, ws *Workspace) {
	n := x.Dim(0)
	id, ih, iw := in.Dims()
	od, oh, ow := out.Dims()
	inVol, outVol := id*ih*iw, od*oh*ow
	k := c.K
	sd, sh, sw := boxShift(in, out, k/2)
	nOut := c.Out
	// Each next kd moves one kernel plane on in the weights and one grid
	// plane back in the accumulator; each next kh one kernel row on and
	// one grid row back.
	st := tensor.TapStrides{PPlane: oh * ow * nOut, PRow: ow * nOut, WPlane: k * k * nOut, WRow: k * nOut}
	arena := Arena[T](ws)
	posBuf := arena.GetUninit(outVol, nOut)
	pd := posBuf.Data
	tap := tensor.TapBlockKernel[T]()
	for b := 0; b < n; b++ {
		fillRows(pd, bias)
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
					// The block's first row: tap (kdLo, khLo) in the weights,
					// grid row (xd+sd-kdLo, xh+sh-khLo) in the accumulator.
					wRow := ((ci*k+kdLo)*k + khLo) * k
					pRow := ((xd+sd-kdLo)*oh + xh + sh - khLo) * ow
					nd, nh := kdHi-kdLo+1, khHi-khLo+1
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
						// The surviving taps kwLo..kwHi update the adjacent
						// positions zw = xw+sw-kw; the reversed tap axis puts
						// their weight rows in that same ascending-zw order.
						tap(pd, wd, v, (pRow+xw+sw-kwHi)*nOut, (wRow+k-1-kwHi)*nOut, nd, nh, span, st)
					}
				}
			}
		}
		untranspose(y.Data[b*nOut*outVol:(b+1)*nOut*outVol], pd, outVol, nOut)
	}
	arena.Put(posBuf)
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

// directBox is the serial reference convolution between boxes, with
// the kernel ([Out, In, K, K, K]) and bias given by the caller: for
// each output element, its bias and then a gather over every input
// channel and tap, reading taps that fall outside the input box as the
// zeros they are. InferBox runs it when Conv3D.Direct is set; the
// equivalence tests hold the scatter to it.
func directBox[T tensor.Float](c *Conv3D, wf, bias []T, x, y *tensor.Dense[T], in, out tensor.Box) {
	n := x.Dim(0)
	id, ih, iw := in.Dims()
	od, oh, ow := out.Dims()
	inVol, outVol := id*ih*iw, od*oh*ow
	k := c.K
	sd, sh, sw := boxShift(in, out, k/2)
	for ni := 0; ni < n; ni++ {
		for co := 0; co < c.Out; co++ {
			oBase := (ni*c.Out + co) * outVol
			for zd := 0; zd < od; zd++ {
				for zh := 0; zh < oh; zh++ {
					for zw := 0; zw < ow; zw++ {
						s := bias[co]
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
									wRow := wf[wBase : wBase+k]
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
