package fusion

import (
	"fmt"

	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/graph"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// This file is the scoring path of the fusion models: every family's
// PredictBatchInto (behind ScoreInto, scorer.go) scores a batch
// through workspace-pooled buffers and writes predictions into a
// caller-owned slice. It stashes nothing in the model, so one instance
// is shared by every goroutine that scores with it, each with its own
// Workspace. After one warm-up batch, a steady-state call performs
// zero heap allocations. Each family's forward is one generic body
// over the element width, run at the precision the workspace was built
// for: float64 is the reference, which training evaluation
// (PredictBatch, PredictAll) and the goldens read, and float32 is the
// fast path, widened to float64 only at the output.

// Workspace owns the pooled buffers of one inference stream: the
// tensor arenas (via nn.Workspace) plus the batch-assembly scratch —
// disjoint-union edge lists and gather segments. The screening engine
// gives each rank (and each session) one workspace, shared by every
// scorer it scores with; each PredictBatchInto call recycles the
// previous call's buffers, so results must be copied out before the
// next call (PredictBatchInto's out slice satisfies this by
// construction).
//
// A Workspace is not safe for concurrent use. It holds nothing derived
// from weights — packed panels, transposes, f32 conversions and the
// voxel head's reference-grid responses belong to the model (or to the
// prefeature the response was built over) and are shared by every
// workspace — so it never goes stale when weights change.
type Workspace struct {
	nn        *nn.Workspace
	precision Precision
	cov       []featurize.Edge
	nc        []featurize.Edge
	segs      []graph.Segment
}

// NewWorkspaceFor returns an empty inference workspace running at the
// given precision: every PredictBatchInto/ScoreInto call through it
// dispatches to that numeric width, so the engine selects the whole
// funnel's precision by constructing rank workspaces once. It
// panics on an unknown precision (Validate upstream for an error).
func NewWorkspaceFor(p Precision) *Workspace {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Workspace{nn: nn.NewWorkspace(), precision: p.Normalize()}
}

// Precision reports the numeric width this workspace dispatches to.
func (ws *Workspace) Precision() Precision { return ws.precision }

// Reset recycles the per-batch buffers.
func (ws *Workspace) Reset() { ws.nn.Reset() }

// stackBox assembles the box region of the per-sample [C,G,G,G]
// float64 grids into a pooled [B,C,box dims] batch tensor of width T —
// the inference counterpart of stackVoxels (no augmentation; inference
// never rotates), copying only the voxels the conv stack will read.
// Per-pose features stay float64 (shared with the reference path and
// the prefeature caches); at float32 this is where they narrow, once
// per batch.
func stackBox[T tensor.Float](ws *Workspace, samples []*Sample, box tensor.Box) *tensor.Dense[T] {
	s0 := samples[0].Voxels
	c, g := s0.Dim(0), s0.Dim(1)
	d, h, w := box.Dims()
	b := nn.Arena[T](ws.nn).GetUninit(len(samples), c, d, h, w)
	per := c * d * h * w
	for i, s := range samples {
		convertBox(b.Data[i*per:(i+1)*per], box, s.Voxels.Data, tensor.GridBox(g, g, g), c)
	}
	return b
}

// unionSamples builds the disjoint union of the samples' complex
// graphs into pooled buffers of width T — the inference counterpart of
// unionGraphs, identical layout and edge order.
func unionSamples[T tensor.Float](ws *Workspace, samples []*Sample) (nodes *tensor.Dense[T], cov, nc []featurize.Edge, segs []graph.Segment) {
	totalNodes := 0
	for _, s := range samples {
		totalNodes += s.Graph.NumNodes()
	}
	nodes = nn.Arena[T](ws.nn).GetUninit(totalNodes, featurize.NodeFeatures)
	ws.cov, ws.nc, ws.segs = ws.cov[:0], ws.nc[:0], ws.segs[:0]
	off := 0
	for _, s := range samples {
		g := s.Graph
		tensor.Convert(nodes.Data[off*featurize.NodeFeatures:(off+g.NumNodes())*featurize.NodeFeatures], g.Nodes.Data)
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

// addInfer is the pooled counterpart of tensor.Add.
func addInfer[T tensor.Float](ws *nn.Workspace, a, b *tensor.Dense[T]) *tensor.Dense[T] {
	if len(a.Data) != len(b.Data) {
		panic("fusion: addInfer length mismatch")
	}
	r := nn.Arena[T](ws).GetUninit(a.Shape...)
	for i := range a.Data {
		r.Data[i] = a.Data[i] + b.Data[i]
	}
	return r
}

// convStages are the conv stack's activations at the four points a
// reference-grid response records (see response); p2 is what the dense
// stack consumes.
type convStages[T tensor.Float] struct {
	a1, p1, a3, p2 *tensor.Dense[T]
}

// halo returns the input a conv stage must read to produce out
// exactly: x itself when the outside response around it is zero (or
// there is nothing around it), otherwise the outside response over the
// stage's reach with x laid over its box.
func halo[T tensor.Float](x *tensor.Dense[T], in tensor.Box, outside []T, grid, out tensor.Box, pad int, ws *nn.Workspace) (*tensor.Dense[T], tensor.Box) {
	reach := out.Dilate(pad).Intersect(grid)
	if outside == nil || reach == in {
		return x, in
	}
	n, c := x.Dim(0), x.Dim(1)
	d, h, w := reach.Dims()
	y := nn.Arena[T](ws).GetUninit(n, c, d, h, w)
	per, xper := c*d*h*w, c*in.Volume()
	for i := 0; i < n; i++ {
		copyBox(y.Data[i*per:(i+1)*per], reach, outside, grid, reach, c)
		copyBox(y.Data[i*per:(i+1)*per], reach, x.Data[i*xper:(i+1)*xper], in, in, c)
	}
	return y, reach
}

// convStack is the pooled conv half of the voxel head over the boxes
// of p: Forward's conv stages, stage for stage, into arena buffers. x is the batch over p.in; e supplies what lies
// outside the boxes.
func convStack[T tensor.Float](m *CNN3D, x *tensor.Dense[T], p boxPlan, e *response[T], ws *nn.Workspace) convStages[T] {
	g := m.Cfg.Voxel.GridSize
	full, half := tensor.GridBox(g, g, g), tensor.GridBox(g/2, g/2, g/2)
	var st convStages[T]

	h := nn.InferBox(m.conv1, x, p.in, p.c1, ws)
	nn.InferInPlace(m.act[0], h)
	st.a1 = h
	hin, hbox := halo(h, p.c1, e.a1, full, p.c2, m.conv2.K/2, ws)
	h2 := nn.InferBox(m.conv2, hin, hbox, p.c2, ws)
	nn.InferInPlace(m.act[1], h2)
	if m.Cfg.Residual1 {
		addBox(h2.Data, p.c2, hin.Data, hbox, h2.Dim(0)*h2.Dim(1))
	}
	st.p1 = nn.Infer(m.pool1, h2, ws)

	pin, pbox := halo(st.p1, p.c2.Downscale(2), e.p1, half, p.c3, m.conv3.K/2, ws)
	h3 := nn.InferBox(m.conv3, pin, pbox, p.c3, ws)
	nn.InferInPlace(m.act[2], h3)
	st.a3 = h3
	hin, hbox = halo(h3, p.c3, e.a3, half, p.c4, m.conv4.K/2, ws)
	h4 := nn.InferBox(m.conv4, hin, hbox, p.c4, ws)
	nn.InferInPlace(m.act[3], h4)
	if m.Cfg.Residual2 {
		addBox(h4.Data, p.c4, hin.Data, hbox, h4.Dim(0)*h4.Dim(1))
	}
	st.p2 = nn.Infer(m.pool2, h4, ws)
	return st
}

// forwardInfer is the pooled inference forward of the voxel head: the
// conv stack over the batch's cone, then the dense stack on the
// flattened pooled grid — the cone's values over the reference grid's
// response. A cone that covers the grid reads no response.
func forwardInfer[T tensor.Float](m *CNN3D, samples []*Sample, ws *Workspace) (pred, latent *tensor.Dense[T]) {
	p, pf := m.plan(samples)
	e := &response[T]{}
	if p.c1 != m.gridBox() { // a c1 that covers the grid makes every later box cover its grid too
		e = responseOf[T](m, pf)
	}
	st := convStack(m, stackBox[T](ws, samples, p.in), p, e, ws.nn)

	q := m.Cfg.Voxel.GridSize / 4
	c2 := m.Cfg.ConvFilters2
	f := nn.Arena[T](ws.nn).GetUninit(len(samples), c2*q*q*q)
	per := c2 * p.flat.Volume()
	for i := range samples {
		fillFlat(f.Row(i), tensor.GridBox(q, q, q), e.p2, st.p2.Data[i*per:(i+1)*per], p.flat, c2)
	}
	// drop1/drop2 are the identity at inference.
	d1 := nn.Infer(m.fc1, f, ws.nn)
	if m.bn != nil {
		d1 = nn.Infer(m.bn, d1, ws.nn)
	}
	nn.InferInPlace(m.act[4], d1)
	latent = nn.Infer(m.fc2, d1, ws.nn)
	nn.InferInPlace(m.act[5], latent)
	pred = nn.Infer(m.out, latent, ws.nn)
	return pred, latent
}

// forwardBatchInfer is the pooled inference forward of the graph head
// over the disjoint union of the samples' graphs.
func forwardBatchInfer[T tensor.Float](m *SGCNN, samples []*Sample, ws *Workspace) (pred, latent *tensor.Dense[T]) {
	nodes, cov, nc, segs := unionSamples[T](ws, samples)
	h := graph.InferProject(m.proj, nodes, ws.nn)
	h = graph.InferGGConv(m.covConv, h, cov, ws.nn)
	h = graph.InferProject(m.bridge, h, ws.nn)
	h = graph.InferGGConv(m.ncConv, h, nc, ws.nn)
	latent = graph.InferGather(m.gather, h, nodes, segs, ws.nn)
	y := nn.Infer(m.act1, nn.Infer(m.d1, latent, ws.nn), ws.nn)
	y = nn.Infer(m.act2, nn.Infer(m.d2, y, ws.nn), ws.nn)
	pred = nn.Infer(m.out, y, ws.nn)
	return pred, latent
}

// predictInto is the frame of every family's PredictBatchInto: it
// checks the output slice, recycles the workspace and runs the family's
// one generic body at the workspace's precision. Scores leave the body
// as float64 whatever the width, so Prediction and every consumer above
// the workspace are precision-blind.
func predictInto[M any](m M, samples []*Sample, ws *Workspace, out []float64, f64, f32 func(M, []*Sample, *Workspace, []float64)) {
	if len(out) != len(samples) {
		panic(fmt.Sprintf("fusion: PredictBatchInto out length %d != batch size %d", len(out), len(samples)))
	}
	if len(samples) == 0 {
		return
	}
	ws.Reset()
	if ws.precision == PrecisionF32 {
		f32(m, samples, ws, out)
	} else {
		f64(m, samples, ws, out)
	}
}

// widen copies a prediction column into the caller's float64 scores.
func widen[T tensor.Float](out []float64, pred []T) {
	for i, v := range pred {
		out[i] = float64(v)
	}
}

// PredictBatchInto scores featurized samples through the pooled
// engine at the workspace's precision, writing one prediction per
// sample into out (which must have the batch's length). A warm
// workspace makes the call allocation-free.
func (m *CNN3D) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	predictInto(m, samples, ws, out, predictCNN[float64], predictCNN[float32])
}

func predictCNN[T tensor.Float](m *CNN3D, samples []*Sample, ws *Workspace, out []float64) {
	pred, _ := forwardInfer[T](m, samples, ws)
	widen(out, pred.Data)
}

// PredictBatchInto scores featurized samples through the pooled graph
// engine; see CNN3D.PredictBatchInto for the contract.
func (m *SGCNN) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	predictInto(m, samples, ws, out, predictSG[float64], predictSG[float32])
}

func predictSG[T tensor.Float](m *SGCNN, samples []*Sample, ws *Workspace, out []float64) {
	pred, _ := forwardBatchInfer[T](m, samples, ws)
	widen(out, pred.Data)
}

// PredictBatchInto evaluates both heads through the pooled engine and
// averages them at the workspace's precision.
func (l *LateFusion) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	predictInto(l, samples, ws, out, predictLate[float64], predictLate[float32])
}

func predictLate[T tensor.Float](l *LateFusion, samples []*Sample, ws *Workspace, out []float64) {
	cnnPred, _ := forwardInfer[T](l.CNN, samples, ws)
	sgPred, _ := forwardBatchInfer[T](l.SG, samples, ws)
	for i := range out {
		out[i] = float64((cnnPred.Data[i] + sgPred.Data[i]) / 2)
	}
}

// PredictBatchInto runs the pooled inference pass of the Mid-level /
// Coherent fusion stack; see CNN3D.PredictBatchInto for the contract.
func (f *Fusion) PredictBatchInto(samples []*Sample, ws *Workspace, out []float64) {
	predictInto(f, samples, ws, out, predictFusion[float64], predictFusion[float32])
}

func predictFusion[T tensor.Float](f *Fusion, samples []*Sample, ws *Workspace, out []float64) {
	_, cnnLat := forwardInfer[T](f.CNN, samples, ws)
	_, sgLat := forwardBatchInfer[T](f.SG, samples, ws)

	b := len(samples)
	concat := nn.Arena[T](ws.nn).GetUninit(b, f.concatWidth)
	for i := 0; i < b; i++ {
		copy(concat.Row(i)[:f.cnnLatW], cnnLat.Row(i))
		copy(concat.Row(i)[f.cnnLatW:f.cnnLatW+f.sgLatW], sgLat.Row(i))
	}
	if f.msCNN != nil {
		mc := nn.Infer(f.msActC, nn.Infer(f.msCNN, cnnLat, ws.nn), ws.nn)
		ms := nn.Infer(f.msActS, nn.Infer(f.msSG, sgLat, ws.nn), ws.nn)
		off := f.cnnLatW + f.sgLatW
		for i := 0; i < b; i++ {
			copy(concat.Row(i)[off:off+f.msW], mc.Row(i))
			copy(concat.Row(i)[off+f.msW:], ms.Row(i))
		}
	}
	h := concat
	for i, l := range f.layers {
		prev := h
		h = nn.Infer(l, h, ws.nn)
		if f.bns[i] != nil {
			h = nn.Infer(f.bns[i], h, ws.nn)
		}
		h = nn.Infer(f.acts[i], h, ws.nn)
		// drops are the identity at inference.
		if f.Cfg.ResidualFusion && prev.Dim(1) == h.Dim(1) {
			h = addInfer(ws.nn, h, prev)
		}
	}
	widen(out, nn.Infer(f.out, h, ws.nn).Data)
}

// FeaturizeComplexWithPrefeature featurizes a posed complex into s
// through a shared target-invariant prefeature cache
// (featurize.PocketPrefeature): per-pose voxelization splats only the
// ligand over the cached pocket baseline, and graph construction
// copies the cached pocket node rows and finds pocket neighbors
// through the prefeature's cell list. Results are byte-identical to
// FeaturizeComplex with the prefeature's options; a warm slot
// allocates nothing. A nil s allocates a fresh sample.
func FeaturizeComplexWithPrefeature(s *Sample, pre *featurize.PocketPrefeature, id string, mol *chem.Mol, label float64) *Sample {
	if s == nil {
		s = &Sample{}
	}
	s.ID, s.Pocket, s.Mol, s.Label = id, pre.Pocket(), mol, label
	s.Voxels = pre.VoxelizeInto(s.Voxels, &s.voxState, mol)
	s.Graph = pre.BuildGraphInto(s.Graph, mol)
	return s
}
