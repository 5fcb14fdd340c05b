package fusion

import (
	"sync"

	"deepfusion/internal/featurize"
	"deepfusion/internal/graph"
	"deepfusion/internal/tensor"
)

// This file is the training side's batch assembly and its prediction
// helpers. Training stacks voxel grids into a leading batch dimension
// (stackVoxels, with the rotation augmentation) and joins complex
// graphs into one disjoint union scored in one pass, so every layer of
// the training forward sees a real batch.
//
// PredictBatch and its chunked form PredictAll serve training
// evaluation, fine-tuning and the experiments' tables. They score
// through the family's PredictBatchInto on a pooled float64 workspace:
// the inference path, which stashes nothing in the model, so any number
// of goroutines may evaluate one instance at once. Inference is
// batch-invariant, so Predict is just the B=1 case and batch
// composition never changes a prediction.

// predictChunk is the batch size PredictAll uses: the paper's
// production jobs score up to 56 poses per device; 16 keeps the
// pooled batch buffers modest on repro-scale grids while amortizing
// per-layer dispatch.
const predictChunk = 16

// unionGraphs builds the disjoint union of complex graphs: node
// feature rows concatenated in order, edges shifted by each graph's
// node offset, and one gather segment per graph (ligand rows lead
// each block). Message passing never crosses segment boundaries
// because no edge does.
func unionGraphs(gs []*featurize.Graph) (nodes *tensor.Tensor, cov, nc []featurize.Edge, segs []graph.Segment) {
	totalNodes, totalCov, totalNC := 0, 0, 0
	for _, g := range gs {
		totalNodes += g.NumNodes()
		totalCov += len(g.Covalent)
		totalNC += len(g.NonCov)
	}
	nodes = tensor.New(totalNodes, featurize.NodeFeatures)
	cov = make([]featurize.Edge, 0, totalCov)
	nc = make([]featurize.Edge, 0, totalNC)
	segs = make([]graph.Segment, len(gs))
	off := 0
	for i, g := range gs {
		copy(nodes.Data[off*featurize.NodeFeatures:], g.Nodes.Data)
		segs[i] = graph.Segment{Start: off, NumLigand: g.NumLigand}
		for _, e := range g.Covalent {
			cov = append(cov, featurize.Edge{From: e.From + off, To: e.To + off, Dist: e.Dist})
		}
		for _, e := range g.NonCov {
			nc = append(nc, featurize.Edge{From: e.From + off, To: e.To + off, Dist: e.Dist})
		}
		off += g.NumNodes()
	}
	return nodes, cov, nc, segs
}

func sampleGraphs(samples []*Sample) []*featurize.Graph {
	gs := make([]*featurize.Graph, len(samples))
	for i, s := range samples {
		gs[i] = s.Graph
	}
	return gs
}

// f64Workspaces pools the float64 workspaces that training-side
// prediction scores through.
var f64Workspaces = sync.Pool{New: func() any { return NewWorkspaceFor(PrecisionF64) }}

// predictPooled scores samples through into, a family's
// PredictBatchInto, chunk samples at a time on one pooled float64
// workspace.
func predictPooled(samples []*Sample, chunk int, into func([]*Sample, *Workspace, []float64)) []float64 {
	if len(samples) == 0 {
		return nil
	}
	ws := f64Workspaces.Get().(*Workspace)
	defer f64Workspaces.Put(ws)
	out := make([]float64, len(samples))
	for lo := 0; lo < len(samples); lo += chunk {
		hi := min(lo+chunk, len(samples))
		into(samples[lo:hi], ws, out[lo:hi])
	}
	return out
}

// PredictBatch evaluates featurized samples as one batch.
func (m *CNN3D) PredictBatch(samples []*Sample) []float64 {
	return predictPooled(samples, len(samples), m.PredictBatchInto)
}

// PredictAll evaluates many samples in predictChunk batches.
func (m *CNN3D) PredictAll(samples []*Sample) []float64 {
	return predictPooled(samples, predictChunk, m.PredictBatchInto)
}

// PredictBatch evaluates featurized samples as one batch.
func (m *SGCNN) PredictBatch(samples []*Sample) []float64 {
	return predictPooled(samples, len(samples), m.PredictBatchInto)
}

// PredictAll evaluates many samples in predictChunk batches.
func (m *SGCNN) PredictAll(samples []*Sample) []float64 {
	return predictPooled(samples, predictChunk, m.PredictBatchInto)
}

// PredictBatch evaluates samples through both heads as one batch and
// averages the predictions (paper Section 2.1).
func (l *LateFusion) PredictBatch(samples []*Sample) []float64 {
	return predictPooled(samples, len(samples), l.PredictBatchInto)
}

// PredictBatch evaluates samples through both heads and the fusion
// stack as one batch.
func (f *Fusion) PredictBatch(samples []*Sample) []float64 {
	return predictPooled(samples, len(samples), f.PredictBatchInto)
}
