package graph

import (
	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// This file is the zero-allocation inference surface of the graph
// stages, mirroring the nn package's ForwardInfer contract: outputs
// come from the workspace arena, weight matrices are multiplied
// through their parameter-owned panel packings, and nothing is
// cached for Backward. Outputs are byte-identical to the training
// Forward methods — same loops, same per-element term order.

// ForwardInfer is the inference-mode projection: x·Wᵀ + b into pooled
// buffers.
func (p *Project) ForwardInfer(x *tensor.Tensor, ws *nn.Workspace) *tensor.Tensor {
	out := ws.Arena.GetUninit(x.Dim(0), p.Out)
	tensor.MatMulPackedInto(out, x, p.W.PackedTransposed(p.Out, p.In))
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += p.B.Value.Data[j]
		}
	}
	return out
}

// ForwardInfer runs the K gated message-passing steps of Forward with
// workspace-pooled step tensors and packed weight products, caching
// nothing.
func (g *GGConv) ForwardInfer(h *tensor.Tensor, edges []featurize.Edge, ws *nn.Workspace) *tensor.Tensor {
	n := h.Dim(0)
	inDeg := ws.Arena.Get(n)
	for _, e := range edges {
		inDeg.Data[e.To]++
	}
	wmsg := g.Wmsg.PackedTransposed(g.H, g.H)
	uz := g.Uz.PackedTransposed(g.H, g.H)
	wz := g.Wz.PackedTransposed(g.H, g.H)
	uh := g.Uh.PackedTransposed(g.H, g.H)
	wh := g.Wh.PackedTransposed(g.H, g.H)
	for step := 0; step < g.K; step++ {
		hw := ws.Arena.GetUninit(n, g.H)
		tensor.MatMulPackedInto(hw, h, wmsg)
		m := ws.Arena.Get(n, g.H)
		for _, e := range edges {
			src := hw.Row(e.From)
			dst := m.Row(e.To)
			inv := 1 / inDeg.Data[e.To]
			for j, v := range src {
				dst[j] += v * inv
			}
		}
		zpre := ws.Arena.GetUninit(n, g.H)
		tensor.MatMulPackedInto(zpre, m, uz)
		tmp := ws.Arena.GetUninit(n, g.H)
		tensor.MatMulPackedInto(tmp, h, wz)
		zpre.AddInPlace(tmp)
		htpre := ws.Arena.GetUninit(n, g.H)
		tensor.MatMulPackedInto(htpre, m, uh)
		tensor.MatMulPackedInto(tmp, h, wh)
		htpre.AddInPlace(tmp)
		for i := 0; i < n; i++ {
			zr, hr := zpre.Row(i), htpre.Row(i)
			for j := 0; j < g.H; j++ {
				zr[j] = sigmoid(zr[j] + g.Bz.Value.Data[j])
				hr[j] = tanh(hr[j] + g.Bh.Value.Data[j])
			}
		}
		hOut := ws.Arena.GetUninit(n, g.H)
		for i := range hOut.Data {
			hOut.Data[i] = (1-zpre.Data[i])*h.Data[i] + zpre.Data[i]*htpre.Data[i]
		}
		ws.Arena.Put(tmp)
		ws.Arena.Put(htpre)
		ws.Arena.Put(zpre)
		ws.Arena.Put(m)
		ws.Arena.Put(hw)
		h = hOut
	}
	return h
}

// ForwardSegmentsInfer is the inference-mode gated gather pooling:
// identical math to ForwardSegments into pooled buffers, with no state
// retained for Backward.
func (ga *Gather) ForwardSegmentsInfer(h, x *tensor.Tensor, segs []Segment, ws *nn.Workspace) *tensor.Tensor {
	nl := 0
	for _, s := range segs {
		nl += s.NumLigand
	}
	hx := ws.Arena.GetUninit(nl, ga.HIn+ga.XIn)
	hl := ws.Arena.GetUninit(nl, ga.HIn)
	r := 0
	for _, s := range segs {
		for i := 0; i < s.NumLigand; i++ {
			copy(hx.Row(r)[:ga.HIn], h.Row(s.Start+i))
			copy(hx.Row(r)[ga.HIn:], x.Row(s.Start+i))
			copy(hl.Row(r), h.Row(s.Start+i))
			r++
		}
	}
	gate := ws.Arena.GetUninit(nl, ga.Out)
	tensor.MatMulPackedInto(gate, hx, ga.Wg.PackedTransposed(ga.Out, ga.HIn+ga.XIn))
	th := ws.Arena.GetUninit(nl, ga.Out)
	tensor.MatMulPackedInto(th, hl, ga.Wo.PackedTransposed(ga.Out, ga.HIn))
	out := ws.Arena.Get(len(segs), ga.Out)
	r = 0
	for b, s := range segs {
		dst := out.Row(b)
		for i := 0; i < s.NumLigand; i++ {
			gr, tr := gate.Row(r), th.Row(r)
			for j := 0; j < ga.Out; j++ {
				gr[j] = sigmoid(gr[j] + ga.Bg.Value.Data[j])
				tr[j] = tanh(tr[j] + ga.Bo.Value.Data[j])
				dst[j] += gr[j] * tr[j]
			}
			r++
		}
	}
	ws.Arena.Put(th)
	ws.Arena.Put(gate)
	ws.Arena.Put(hl)
	ws.Arena.Put(hx)
	return out
}
