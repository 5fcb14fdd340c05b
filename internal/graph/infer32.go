package graph

import (
	"deepfusion/internal/featurize"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// Float32 inference surface of the graph stages, mirroring infer.go:
// the same loops and per-element term order at half the element width,
// with weight matrices converted once per parameter through their f32
// panel packings. The gate nonlinearities keep the f64 versions'
// branch structure and clamps; the exponential itself runs in f64
// (stdlib) and narrows, like the nn package's SELU.

func sigmoid32(v float32) float32 {
	if v >= 0 {
		e := float32(exp(float64(-v)))
		return 1 / (1 + e)
	}
	e := float32(exp(float64(v)))
	return e / (1 + e)
}

func tanh32(v float32) float32 {
	if v > 20 {
		return 1
	}
	if v < -20 {
		return -1
	}
	e2 := float32(exp(float64(2 * v)))
	return (e2 - 1) / (e2 + 1)
}

// ForwardInfer32 is the f32 inference projection: x·Wᵀ + b into
// pooled buffers.
func (p *Project) ForwardInfer32(x *tensor.F32, ws *nn.Workspace) *tensor.F32 {
	out := ws.Arena32.GetUninit(x.Dim(0), p.Out)
	tensor.MatMulPacked32Into(out, x, p.W.Packed32Transposed(p.Out, p.In))
	b := p.B.Vec32()
	n := x.Dim(0)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += b[j]
		}
	}
	return out
}

// ForwardInfer32 runs the K gated message-passing steps over f32
// operands with workspace-pooled step tensors and packed products.
func (g *GGConv) ForwardInfer32(h *tensor.F32, edges []featurize.Edge, ws *nn.Workspace) *tensor.F32 {
	n := h.Dim(0)
	inDeg := ws.Arena32.Get(n)
	for _, e := range edges {
		inDeg.Data[e.To]++
	}
	wmsg := g.Wmsg.Packed32Transposed(g.H, g.H)
	uz := g.Uz.Packed32Transposed(g.H, g.H)
	wz := g.Wz.Packed32Transposed(g.H, g.H)
	uh := g.Uh.Packed32Transposed(g.H, g.H)
	wh := g.Wh.Packed32Transposed(g.H, g.H)
	bz := g.Bz.Vec32()
	bh := g.Bh.Vec32()
	for step := 0; step < g.K; step++ {
		hw := ws.Arena32.GetUninit(n, g.H)
		tensor.MatMulPacked32Into(hw, h, wmsg)
		m := ws.Arena32.Get(n, g.H)
		for _, e := range edges {
			src := hw.Row(e.From)
			dst := m.Row(e.To)
			inv := 1 / inDeg.Data[e.To]
			for j, v := range src {
				dst[j] += v * inv
			}
		}
		zpre := ws.Arena32.GetUninit(n, g.H)
		tensor.MatMulPacked32Into(zpre, m, uz)
		tmp := ws.Arena32.GetUninit(n, g.H)
		tensor.MatMulPacked32Into(tmp, h, wz)
		for i, v := range tmp.Data {
			zpre.Data[i] += v
		}
		htpre := ws.Arena32.GetUninit(n, g.H)
		tensor.MatMulPacked32Into(htpre, m, uh)
		tensor.MatMulPacked32Into(tmp, h, wh)
		for i, v := range tmp.Data {
			htpre.Data[i] += v
		}
		for i := 0; i < n; i++ {
			zr, hr := zpre.Row(i), htpre.Row(i)
			for j := 0; j < g.H; j++ {
				zr[j] = sigmoid32(zr[j] + bz[j])
				hr[j] = tanh32(hr[j] + bh[j])
			}
		}
		hOut := ws.Arena32.GetUninit(n, g.H)
		for i := range hOut.Data {
			hOut.Data[i] = (1-zpre.Data[i])*h.Data[i] + zpre.Data[i]*htpre.Data[i]
		}
		ws.Arena32.Put(tmp)
		ws.Arena32.Put(htpre)
		ws.Arena32.Put(zpre)
		ws.Arena32.Put(m)
		ws.Arena32.Put(hw)
		h = hOut
	}
	return h
}

// ForwardSegmentsInfer32 is the f32 gated gather pooling.
func (ga *Gather) ForwardSegmentsInfer32(h, x *tensor.F32, segs []Segment, ws *nn.Workspace) *tensor.F32 {
	nl := 0
	for _, s := range segs {
		nl += s.NumLigand
	}
	hx := ws.Arena32.GetUninit(nl, ga.HIn+ga.XIn)
	hl := ws.Arena32.GetUninit(nl, ga.HIn)
	r := 0
	for _, s := range segs {
		for i := 0; i < s.NumLigand; i++ {
			copy(hx.Row(r)[:ga.HIn], h.Row(s.Start+i))
			copy(hx.Row(r)[ga.HIn:], x.Row(s.Start+i))
			copy(hl.Row(r), h.Row(s.Start+i))
			r++
		}
	}
	gate := ws.Arena32.GetUninit(nl, ga.Out)
	tensor.MatMulPacked32Into(gate, hx, ga.Wg.Packed32Transposed(ga.Out, ga.HIn+ga.XIn))
	th := ws.Arena32.GetUninit(nl, ga.Out)
	tensor.MatMulPacked32Into(th, hl, ga.Wo.Packed32Transposed(ga.Out, ga.HIn))
	bg := ga.Bg.Vec32()
	bo := ga.Bo.Vec32()
	out := ws.Arena32.Get(len(segs), ga.Out)
	r = 0
	for b, s := range segs {
		dst := out.Row(b)
		for i := 0; i < s.NumLigand; i++ {
			gr, tr := gate.Row(r), th.Row(r)
			for j := 0; j < ga.Out; j++ {
				gr[j] = sigmoid32(gr[j] + bg[j])
				tr[j] = tanh32(tr[j] + bo[j])
				dst[j] += gr[j] * tr[j]
			}
			r++
		}
	}
	ws.Arena32.Put(th)
	ws.Arena32.Put(gate)
	ws.Arena32.Put(hl)
	ws.Arena32.Put(hx)
	return out
}
