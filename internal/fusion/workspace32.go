package fusion

import (
	"deepfusion/internal/featurize"
	"deepfusion/internal/graph"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// This file is the float32 leg of the pooled inference surface:
// forward passes mirroring workspace.go stage for stage over the nn
// and graph packages' ForwardInfer32 kernels. Per-pose features stay
// float64 (shared with the reference path and the prefeature caches)
// and narrow exactly once per batch, at assembly time, via
// featurize.EmitF32; scores widen back to float64 at the output
// boundary so Prediction and every consumer above the workspace are
// precision-blind. Dispatch happens inside PredictBatchInto on the
// workspace's precision — there is no separate f32 scorer type.

// stackVoxels32 assembles the box region of the per-sample [C,G,G,G]
// float64 grids into a pooled float32 [B,C,box dims] batch tensor —
// the narrowing twin of stackVoxels.
func (ws *Workspace) stackVoxels32(samples []*Sample, box tensor.Box) *tensor.F32 {
	s0 := samples[0].Voxels
	c, g := s0.Dim(0), s0.Dim(1)
	d, h, w := box.Dims()
	b := ws.nn.Arena32.GetUninit(len(samples), c, d, h, w)
	per := c * d * h * w
	grid := tensor.GridBox(g, g, g)
	for i, s := range samples {
		dst, src := b.Data[i*per:(i+1)*per], s.Voxels.Data
		boxRows(box, grid, box, c, func(d, s, w int) { featurize.EmitF32(dst[d:d+w], src[s:s+w]) })
	}
	return b
}

// unionSamples32 builds the disjoint union of the samples' complex
// graphs into pooled float32 buffers — identical layout and edge
// order to unionSamples, with node rows narrowed at emission.
func (ws *Workspace) unionSamples32(samples []*Sample) (nodes *tensor.F32, cov, nc []featurize.Edge, segs []graph.Segment) {
	totalNodes := 0
	for _, s := range samples {
		totalNodes += s.Graph.NumNodes()
	}
	nodes = ws.nn.Arena32.GetUninit(totalNodes, featurize.NodeFeatures)
	ws.cov, ws.nc, ws.segs = ws.cov[:0], ws.nc[:0], ws.segs[:0]
	off := 0
	for _, s := range samples {
		g := s.Graph
		featurize.EmitF32(nodes.Data[off*featurize.NodeFeatures:(off+g.NumNodes())*featurize.NodeFeatures], g.Nodes.Data)
		ws.segs = append(ws.segs, graph.Segment{Start: off, NumLigand: g.NumLigand})
		for _, e := range g.Covalent {
			ws.cov = append(ws.cov, featurize.Edge{From: e.From + off, To: e.To + off, Dist: e.Dist})
		}
		for _, e := range g.NonCov {
			ws.nc = append(ws.nc, featurize.Edge{From: e.From + off, To: e.To + off, Dist: e.Dist})
		}
		off += g.NumNodes()
	}
	return nodes, ws.cov, ws.nc, ws.segs
}

// addInfer32 is the pooled counterpart of tensor addition for the
// residual connections.
func addInfer32(ws *nn.Workspace, a, b *tensor.F32) *tensor.F32 {
	if len(a.Data) != len(b.Data) {
		panic("fusion: addInfer32 length mismatch")
	}
	r := ws.Arena32.GetUninit(a.Shape...)
	for i := range a.Data {
		r.Data[i] = a.Data[i] + b.Data[i]
	}
	return r
}

// convStages32 is the f32 convStages.
type convStages32 struct {
	a1, p1, a3, p2 *tensor.F32
}

// halo32 is the f32 halo.
func halo32(x *tensor.F32, in tensor.Box, empty []float32, grid, out tensor.Box, pad int, ws *nn.Workspace) (*tensor.F32, tensor.Box) {
	reach := out.Dilate(pad).Intersect(grid)
	if empty == nil || reach == in {
		return x, in
	}
	n, c := x.Dim(0), x.Dim(1)
	d, h, w := reach.Dims()
	y := ws.Arena32.GetUninit(n, c, d, h, w)
	per, xper := c*d*h*w, c*in.Volume()
	for i := 0; i < n; i++ {
		copyBox(y.Data[i*per:(i+1)*per], reach, empty, grid, reach, c)
		copyBox(y.Data[i*per:(i+1)*per], reach, x.Data[i*xper:(i+1)*xper], in, in, c)
	}
	return y, reach
}

// convStack32 is the f32 conv half of the voxel head over the boxes of
// p, mirroring convStack stage for stage.
func (m *CNN3D) convStack32(x *tensor.F32, p boxPlan, e *emptyResponse[float32], ws *nn.Workspace) convStages32 {
	g := m.Cfg.Voxel.GridSize
	full, half := tensor.GridBox(g, g, g), tensor.GridBox(g/2, g/2, g/2)
	var st convStages32

	h := m.conv1.ForwardInferBox32(x, p.in, p.c1, ws)
	m.act[0].InferInPlace32(h)
	st.a1 = h
	hin, hbox := halo32(h, p.c1, e.a1, full, p.c2, m.conv2.K/2, ws)
	h2 := m.conv2.ForwardInferBox32(hin, hbox, p.c2, ws)
	m.act[1].InferInPlace32(h2)
	if m.Cfg.Residual1 {
		addBox(h2.Data, p.c2, hin.Data, hbox, h2.Dim(0)*h2.Dim(1))
	}
	st.p1 = m.pool1.ForwardInfer32(h2, ws)

	pin, pbox := halo32(st.p1, p.c2.Downscale(2), e.p1, half, p.c3, m.conv3.K/2, ws)
	h3 := m.conv3.ForwardInferBox32(pin, pbox, p.c3, ws)
	m.act[2].InferInPlace32(h3)
	st.a3 = h3
	hin, hbox = halo32(h3, p.c3, e.a3, half, p.c4, m.conv4.K/2, ws)
	h4 := m.conv4.ForwardInferBox32(hin, hbox, p.c4, ws)
	m.act[3].InferInPlace32(h4)
	if m.Cfg.Residual2 {
		addBox(h4.Data, p.c4, hin.Data, hbox, h4.Dim(0)*h4.Dim(1))
	}
	st.p2 = m.pool2.ForwardInfer32(h4, ws)
	return st
}

// forwardInfer32 is the f32 pooled forward of the voxel head,
// mirroring forwardInfer stage for stage.
func (m *CNN3D) forwardInfer32(samples []*Sample, ws *Workspace) (pred, latent *tensor.F32) {
	p := m.planBoxes(m.batchBox(samples))
	e := m.empty32()
	st := m.convStack32(ws.stackVoxels32(samples, p.in), p, e, ws.nn)

	q := m.Cfg.Voxel.GridSize / 4
	c2 := m.Cfg.ConvFilters2
	f := ws.nn.Arena32.GetUninit(len(samples), c2*q*q*q)
	per := c2 * p.flat.Volume()
	for i := range samples {
		fillFlat(f.Row(i), tensor.GridBox(q, q, q), e.p2, st.p2.Data[i*per:(i+1)*per], p.flat, c2)
	}
	// drop1/drop2 are the identity at inference.
	d1 := m.fc1.ForwardInfer32(f, ws.nn)
	if m.bn != nil {
		d1 = m.bn.ForwardInfer32(d1, ws.nn)
	}
	m.act[4].InferInPlace32(d1)
	latent = m.fc2.ForwardInfer32(d1, ws.nn)
	m.act[5].InferInPlace32(latent)
	pred = m.out.ForwardInfer32(latent, ws.nn)
	return pred, latent
}

// forwardBatchInfer32 is the f32 pooled forward of the graph head
// over the disjoint union of the samples' graphs.
func (m *SGCNN) forwardBatchInfer32(samples []*Sample, ws *Workspace) (pred, latent *tensor.F32) {
	nodes, cov, nc, segs := ws.unionSamples32(samples)
	h := m.proj.ForwardInfer32(nodes, ws.nn)
	h = m.covConv.ForwardInfer32(h, cov, ws.nn)
	h = m.bridge.ForwardInfer32(h, ws.nn)
	h = m.ncConv.ForwardInfer32(h, nc, ws.nn)
	latent = m.gather.ForwardSegmentsInfer32(h, nodes, segs, ws.nn)
	y := m.act1.ForwardInfer32(m.d1.ForwardInfer32(latent, ws.nn), ws.nn)
	y = m.act2.ForwardInfer32(m.d2.ForwardInfer32(y, ws.nn), ws.nn)
	pred = m.out.ForwardInfer32(y, ws.nn)
	return pred, latent
}

// widenScores copies an f32 prediction column into the caller's
// float64 out slice — the single f32→f64 point of the fast path.
func widenScores(out []float64, pred []float32) {
	for i, v := range pred {
		out[i] = float64(v)
	}
}

// predictBatchInto32 is the f32 leg of CNN3D.PredictBatchInto.
func (m *CNN3D) predictBatchInto32(samples []*Sample, ws *Workspace, out []float64) {
	pred, _ := m.forwardInfer32(samples, ws)
	widenScores(out, pred.Data)
}

// predictBatchInto32 is the f32 leg of SGCNN.PredictBatchInto.
func (m *SGCNN) predictBatchInto32(samples []*Sample, ws *Workspace, out []float64) {
	pred, _ := m.forwardBatchInfer32(samples, ws)
	widenScores(out, pred.Data)
}

// predictBatchInto32 is the f32 leg of LateFusion.PredictBatchInto:
// both heads evaluate at f32 and the head average runs in f32 too,
// widening only the final score.
func (l *LateFusion) predictBatchInto32(samples []*Sample, ws *Workspace, out []float64) {
	cnnPred, _ := l.CNN.forwardInfer32(samples, ws)
	sgPred, _ := l.SG.forwardBatchInfer32(samples, ws)
	for i := range out {
		out[i] = float64((cnnPred.Data[i] + sgPred.Data[i]) / 2)
	}
}

// predictBatchInto32 is the f32 leg of Fusion.PredictBatchInto
// (Mid-level and Coherent fusion).
func (f *Fusion) predictBatchInto32(samples []*Sample, ws *Workspace, out []float64) {
	_, cnnLat := f.CNN.forwardInfer32(samples, ws)
	_, sgLat := f.SG.forwardBatchInfer32(samples, ws)

	b := len(samples)
	concat := ws.nn.Arena32.GetUninit(b, f.concatWidth)
	for i := 0; i < b; i++ {
		copy(concat.Row(i)[:f.cnnLatW], cnnLat.Row(i))
		copy(concat.Row(i)[f.cnnLatW:f.cnnLatW+f.sgLatW], sgLat.Row(i))
	}
	if f.msCNN != nil {
		mc := f.msActC.ForwardInfer32(f.msCNN.ForwardInfer32(cnnLat, ws.nn), ws.nn)
		ms := f.msActS.ForwardInfer32(f.msSG.ForwardInfer32(sgLat, ws.nn), ws.nn)
		off := f.cnnLatW + f.sgLatW
		for i := 0; i < b; i++ {
			copy(concat.Row(i)[off:off+f.msW], mc.Row(i))
			copy(concat.Row(i)[off+f.msW:], ms.Row(i))
		}
	}
	h := concat
	for i, l := range f.layers {
		prev := h
		h = l.ForwardInfer32(h, ws.nn)
		if f.bns[i] != nil {
			h = f.bns[i].ForwardInfer32(h, ws.nn)
		}
		h = f.acts[i].ForwardInfer32(h, ws.nn)
		// drops are the identity at inference.
		if f.Cfg.ResidualFusion && prev.Dim(1) == h.Dim(1) {
			h = addInfer32(ws.nn, h, prev)
		}
	}
	pred := f.out.ForwardInfer32(h, ws.nn)
	widenScores(out, pred.Data)
}
