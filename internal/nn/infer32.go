package nn

import (
	"fmt"
	"math"

	"deepfusion/internal/tensor"
)

// This file is the float32 inference fast path: a ForwardInfer32
// variant of every inference layer, mirroring infer.go loop for loop
// at half the element width. Weights convert from the f64 training
// tensors exactly once per parameter generation — when the parameter
// builds its packed, transposed or vector form (frozen.go) — and
// everything between the batch tensor and the final score stays
// float32. Algorithm selection (scatter vs tile
// convolution, panel widths, tile sizes) is byte-for-byte the same as
// the f64 path so both precisions run the same code shape per config;
// only rounding differs, which the A/B harness pins at the funnel
// level and the tolerance tests pin per layer.

// InferLayer32 is the float32 counterpart of InferLayer.
type InferLayer32 interface {
	ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32
}

// ForwardInfer32 implements InferLayer32. Unlike the f64 chain there
// is no allocating fallback — every inference layer implements the
// f32 contract, and a layer that does not is a programming error.
func (s *Sequential) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 {
	for _, l := range s.Layers {
		il, ok := l.(InferLayer32)
		if !ok {
			panic(fmt.Sprintf("nn: layer %T has no float32 inference path", l))
		}
		x = il.ForwardInfer32(x, ws)
	}
	return x
}

// ForwardInfer32 implements InferLayer32: y = x·Wᵀ + b via the f32
// panel kernel against the parameter-owned packing of Wᵀ.
func (d *Dense) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 {
	if x.Rank() != 2 || x.Dim(1) != d.In {
		panic(fmt.Sprintf("nn: Dense expects [N, %d] input, got %v", d.In, x.Shape))
	}
	n := x.Dim(0)
	y := ws.Arena32.GetUninit(n, d.Out)
	pb := d.W.Packed32Transposed(d.Out, d.In)
	tensor.MatMulPacked32Into(y, x, pb)
	b := d.B.Vec32()
	for i := 0; i < n; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
	return y
}

// ForwardInfer32 implements InferLayer32.
func (a *Activation) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 {
	out := ws.Arena32.GetUninit(x.Shape...)
	a.apply32(out.Data, x.Data)
	return out
}

// InferInPlace32 is the float32 InferInPlace.
func (a *Activation) InferInPlace32(x *tensor.F32) { a.apply32(x.Data, x.Data) }

// apply32 writes the activation of src into dst, which may alias src.
func (a *Activation) apply32(dst, src []float32) {
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
		slope := float32(a.Slope)
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
				dst[i] = float32(seluLambda) * v
			} else {
				// The exponential runs in f64 (stdlib has no float32
				// exp); the result narrows like every other op.
				dst[i] = float32(seluLambda * seluAlpha * (math.Exp(float64(v)) - 1))
			}
		}
	default:
		panic("nn: unknown activation " + a.Kind)
	}
}

// ForwardInfer32 implements InferLayer32: inference dropout is the
// identity.
func (d *Dropout) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 { return x }

// ForwardInfer32 implements InferLayer32: a pooled view.
func (f *Flatten) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 {
	n := x.Dim(0)
	return ws.Arena32.View(x.Data, n, x.Len()/n)
}

// ForwardInfer32 implements InferLayer32: evaluation-mode
// normalization via the cached folded scale/shift (one multiply-add
// per element; algebraically identical to the f64 form, differing
// only in rounding).
func (b *BatchNorm) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 {
	if x.Rank() != 2 || x.Dim(1) != b.F {
		panic("nn: BatchNorm expects [N, F] input matching layer width")
	}
	n := x.Dim(0)
	f := b.folded32()
	out := ws.Arena32.GetUninit(x.Shape...)
	for i := 0; i < n; i++ {
		xr, or := x.Row(i), out.Row(i)
		for j := 0; j < b.F; j++ {
			or[j] = f.scale[j]*xr[j] + f.shift[j]
		}
	}
	return out
}

// ForwardInfer32 implements InferLayer32: the same row-folding window
// maximum as the f64 path.
func (m *MaxPool3D) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 {
	n, c, d, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	k := m.K
	if d%k != 0 || h%k != 0 || w%k != 0 {
		panic("nn: MaxPool3D window does not divide grid")
	}
	od, oh, ow := d/k, h/k, w/k
	out := ws.Arena32.GetUninit(n, c, od, oh, ow)
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

// ForwardInfer32 implements InferLayer32 for the convolution. The
// algorithm selection is deliberately byte-identical to ForwardInfer —
// including the 8-bytes-per-element scatter threshold — so a given
// layer shape runs the same algorithm at both precisions and the f32
// path differs from the reference only in rounding, never in code
// shape.
func (c *Conv3D) ForwardInfer32(x *tensor.F32, ws *Workspace) *tensor.F32 {
	if x.Rank() != 5 || x.Dim(1) != c.In {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,D,H,W], got %v", c.In, x.Shape))
	}
	n, d, h, w := x.Dim(0), x.Dim(2), x.Dim(3), x.Dim(4)
	k := c.K
	dhw := d * h * w
	ck3 := c.In * k * k * k
	if c.Direct || c.Out*dhw*8 <= scatterMaxBytes {
		grid := tensor.GridBox(d, h, w)
		return c.ForwardInferBox32(x, grid, grid, ws)
	}
	out := ws.Arena32.GetUninit(n, c.Out, d, h, w)
	// Tile path: sparse im2col patches, zero-skip scalar GEMM against
	// the cached f32 kernel transpose (see ForwardInfer for why the
	// panel kernel loses here).
	wt := c.W.Transposed32(c.Out, ck3)
	bias := c.B.Vec32()
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
			ct := ws.Arena32.GetUninit(rows, ck3) // Im2Col3D32 zeroes it
			yt := ws.Arena32.GetUninit(rows, c.Out)
			tensor.Im2Col3D32(x, b, k, lo, hi, ct)
			for r := 0; r < rows; r++ {
				copy(yt.Data[r*c.Out:(r+1)*c.Out], bias)
			}
			tensor.MatMulAcc32(yt, ct, wt)
			for o := 0; o < c.Out; o++ {
				dst := out.Data[(b*c.Out+o)*dhw+lo : (b*c.Out+o)*dhw+hi]
				for r := range dst {
					dst[r] = yt.Data[r*c.Out+o]
				}
			}
			ws.Arena32.Put(yt)
			ws.Arena32.Put(ct)
		}
	}
	return out
}

// ForwardInferBox32 is the float32 ForwardInferBox: the same contract,
// the same term order, half the element width.
func (c *Conv3D) ForwardInferBox32(x *tensor.F32, in, out tensor.Box, ws *Workspace) *tensor.F32 {
	id, ih, iw := in.Dims()
	if x.Rank() != 5 || x.Dim(1) != c.In || x.Dim(2) != id || x.Dim(3) != ih || x.Dim(4) != iw {
		panic(fmt.Sprintf("nn: Conv3D expects [N,%d,%d,%d,%d] over box %v, got %v", c.In, id, ih, iw, in, x.Shape))
	}
	od, oh, ow := out.Dims()
	y := ws.Arena32.GetUninit(x.Dim(0), c.Out, od, oh, ow)
	if c.Direct {
		c.directBox32(x, y, in, out)
	} else {
		c.scatterBox32(x, y, in, out, ws)
	}
	return y
}

// scatterBox32 is the f32 pooled sparse-scatter convolution between
// boxes, mirroring scatterBox: position-major [out volume, Out]
// accumulator, tap ranges hoisted per row and per voxel, one axpy per
// row of taps, final transpose into the [Out, out's dims] block. The
// accumulation runs through tensor.Axpy32 — the lanes are independent
// accumulators, so the vector kernel is bit-identical to the reference
// scalar order.
func (c *Conv3D) scatterBox32(x, y *tensor.F32, in, out tensor.Box, ws *Workspace) {
	n := x.Dim(0)
	id, ih, iw := in.Dims()
	od, oh, ow := out.Dims()
	inVol, outVol := id*ih*iw, od*oh*ow
	k := c.K
	sd, sh, sw := boxShift(in, out, k/2)
	nOut := c.Out
	bias := c.B.Vec32()
	posBuf := ws.Arena32.GetUninit(outVol, nOut)
	pd := posBuf.Data
	wd := c.W.ScatterTaps32(c.Out, c.In, k).Data
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
								wOff := (((ci*k+kd)*k+kh)*k + k - 1 - kwHi) * nOut
								pOff := ((zd*oh+zh)*ow + xw + sw - kwHi) * nOut
								tensor.Axpy32(pd[pOff:pOff+span], wd[wOff:wOff+span], v)
							}
						}
					}
				}
			}
		}
		untranspose(y.Data[b*nOut*outVol:(b+1)*nOut*outVol], pd, outVol, nOut)
	}
	ws.Arena32.Put(posBuf)
}

// directBox32 is the serial reference convolution between boxes over
// f32 operands, reading the parameter's f32 conversion of the flat
// kernel tensor.
func (c *Conv3D) directBox32(x, y *tensor.F32, in, out tensor.Box) {
	n := x.Dim(0)
	id, ih, iw := in.Dims()
	od, oh, ow := out.Dims()
	inVol, outVol := id*ih*iw, od*oh*ow
	k := c.K
	sd, sh, sw := boxShift(in, out, k/2)
	wf := c.W.Vec32()
	bias := c.B.Vec32()
	for ni := 0; ni < n; ni++ {
		for co := 0; co < c.Out; co++ {
			b := bias[co]
			oBase := (ni*c.Out + co) * outVol
			for zd := 0; zd < od; zd++ {
				for zh := 0; zh < oh; zh++ {
					for zw := 0; zw < ow; zw++ {
						s := b
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
