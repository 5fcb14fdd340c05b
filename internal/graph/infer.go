package graph

import (
	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// This file is the zero-allocation inference surface of the graph
// stages, written once for both element widths on the nn package's
// contract: outputs come from the workspace arena, weight matrices are
// multiplied through their parameter-owned panel packings at the
// input's width, and nothing is cached for Backward. At float64 outputs
// are byte-identical to the training Forward methods — same loops, same
// per-element term order; at float32 the same loops differ only in
// rounding.

// InferProject is the inference-mode projection: x·Wᵀ + b into pooled
// buffers.
func InferProject[T tensor.Float](p *Project, x *tensor.Dense[T], ws *nn.Workspace) *tensor.Dense[T] {
	out := nn.Arena[T](ws).GetUninit(x.Dim(0), p.Out)
	tensor.MatMulPackedInto(out, x, nn.PackedTransposed[T](p.W, p.Out, p.In))
	out.AddToRows(nn.Vec[T](p.B))
	return out
}

// InferGGConv runs the K gated message-passing steps of Forward with
// workspace-pooled step tensors and packed weight products, caching
// nothing.
func InferGGConv[T tensor.Float](g *GGConv, h *tensor.Dense[T], edges []featurize.Edge, ws *nn.Workspace) *tensor.Dense[T] {
	a := nn.Arena[T](ws)
	n := h.Dim(0)
	inDeg := a.Get(n)
	for _, e := range edges {
		inDeg.Data[e.To]++
	}
	wmsg := nn.PackedTransposed[T](g.Wmsg, g.H, g.H)
	uz := nn.PackedTransposed[T](g.Uz, g.H, g.H)
	wz := nn.PackedTransposed[T](g.Wz, g.H, g.H)
	uh := nn.PackedTransposed[T](g.Uh, g.H, g.H)
	wh := nn.PackedTransposed[T](g.Wh, g.H, g.H)
	bz, bh := nn.Vec[T](g.Bz), nn.Vec[T](g.Bh)
	for step := 0; step < g.K; step++ {
		hw := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(hw, h, wmsg)
		m := a.Get(n, g.H)
		for _, e := range edges {
			src := hw.Row(e.From)
			dst := m.Row(e.To)
			inv := 1 / inDeg.Data[e.To]
			for j, v := range src {
				dst[j] += v * inv
			}
		}
		zpre := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(zpre, m, uz)
		tmp := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(tmp, h, wz)
		zpre.AddInPlace(tmp)
		htpre := a.GetUninit(n, g.H)
		tensor.MatMulPackedInto(htpre, m, uh)
		tensor.MatMulPackedInto(tmp, h, wh)
		htpre.AddInPlace(tmp)
		for i := 0; i < n; i++ {
			sigmoidRow(zpre.Row(i), bz)
			tanhRow(htpre.Row(i), bh)
		}
		hOut := a.GetUninit(n, g.H)
		for i := range hOut.Data {
			hOut.Data[i] = (1-zpre.Data[i])*h.Data[i] + zpre.Data[i]*htpre.Data[i]
		}
		a.Put(tmp)
		a.Put(htpre)
		a.Put(zpre)
		a.Put(m)
		a.Put(hw)
		h = hOut
	}
	return h
}

// ForwardInfer is InferGGConv at float64.
func (g *GGConv) ForwardInfer(h *tensor.Tensor, edges []featurize.Edge, ws *nn.Workspace) *tensor.Tensor {
	return InferGGConv(g, h, edges, ws)
}

// ForwardInfer32 is InferGGConv at float32.
func (g *GGConv) ForwardInfer32(h *tensor.F32, edges []featurize.Edge, ws *nn.Workspace) *tensor.F32 {
	return InferGGConv(g, h, edges, ws)
}

// InferGather is the inference-mode gated gather pooling: identical
// math to ForwardSegments into pooled buffers, with no state retained
// for Backward.
func InferGather[T tensor.Float](ga *Gather, h, x *tensor.Dense[T], segs []Segment, ws *nn.Workspace) *tensor.Dense[T] {
	a := nn.Arena[T](ws)
	nl := 0
	for _, s := range segs {
		nl += s.NumLigand
	}
	hx := a.GetUninit(nl, ga.HIn+ga.XIn)
	hl := a.GetUninit(nl, ga.HIn)
	r := 0
	for _, s := range segs {
		for i := 0; i < s.NumLigand; i++ {
			copy(hx.Row(r)[:ga.HIn], h.Row(s.Start+i))
			copy(hx.Row(r)[ga.HIn:], x.Row(s.Start+i))
			copy(hl.Row(r), h.Row(s.Start+i))
			r++
		}
	}
	gate := a.GetUninit(nl, ga.Out)
	tensor.MatMulPackedInto(gate, hx, nn.PackedTransposed[T](ga.Wg, ga.Out, ga.HIn+ga.XIn))
	th := a.GetUninit(nl, ga.Out)
	tensor.MatMulPackedInto(th, hl, nn.PackedTransposed[T](ga.Wo, ga.Out, ga.HIn))
	bg, bo := nn.Vec[T](ga.Bg), nn.Vec[T](ga.Bo)
	out := a.Get(len(segs), ga.Out)
	r = 0
	for b, s := range segs {
		dst := out.Row(b)
		for i := 0; i < s.NumLigand; i++ {
			gr, tr := gate.Row(r), th.Row(r)
			sigmoidRow(gr, bg)
			tanhRow(tr, bo)
			for j := range dst {
				dst[j] += gr[j] * tr[j]
			}
			r++
		}
	}
	a.Put(th)
	a.Put(gate)
	a.Put(hl)
	a.Put(hx)
	return out
}
