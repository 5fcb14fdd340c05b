package fusion

import (
	"deepfusion/internal/featurize"
	"deepfusion/internal/graph"
	"deepfusion/internal/tensor"
)

// This file is the training side's batched prediction.
// PredictBatch([]*Sample) []float64 runs the training Forward in
// inference mode: voxel grids stack into a leading batch dimension,
// complex graphs join into a disjoint union scored in one pass, and
// the dense stacks run one GEMM per layer for the whole batch. Per-row
// math matches single-sample evaluation exactly, so Predict is just
// the B=1 case and batch composition never changes a prediction.
//
// PredictBatch and its chunked form PredictAll serve training
// evaluation, fine-tuning and the experiments' tables. Forward stashes
// each layer's input for Backward, so one instance must not run them
// on two goroutines at once. Scoring never calls them: it goes through
// ScoreInto → PredictBatchInto (workspace.go), which stashes nothing
// and at f64 is pinned byte-identical to PredictBatch.

// predictChunk is the batch size PredictAll uses: the paper's
// production jobs score up to 56 poses per device; 16 keeps the
// im2col scratch modest on repro-scale grids while amortizing
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

// PredictBatch evaluates featurized samples in one batched forward
// pass of the voxel head.
func (m *CNN3D) PredictBatch(samples []*Sample) []float64 {
	if len(samples) == 0 {
		return nil
	}
	pred, _ := m.Forward(stackVoxels(samples, nil), false)
	out := make([]float64, len(samples))
	copy(out, pred.Data)
	return out
}

// PredictAll evaluates many samples in PredictBatch chunks.
func (m *CNN3D) PredictAll(samples []*Sample) []float64 {
	return chunked(samples, m.PredictBatch)
}

// PredictBatch evaluates featurized samples as one disjoint-union
// graph forward pass.
func (m *SGCNN) PredictBatch(samples []*Sample) []float64 {
	if len(samples) == 0 {
		return nil
	}
	pred, _ := m.ForwardBatch(sampleGraphs(samples), false)
	out := make([]float64, len(samples))
	copy(out, pred.Data)
	return out
}

// PredictAll evaluates many samples in PredictBatch chunks.
func (m *SGCNN) PredictAll(samples []*Sample) []float64 {
	return chunked(samples, m.PredictBatch)
}

// PredictBatch evaluates samples through both heads in one batched
// pass each and averages the predictions (paper Section 2.1).
func (l *LateFusion) PredictBatch(samples []*Sample) []float64 {
	if len(samples) == 0 {
		return nil
	}
	cnnPred, _ := l.CNN.Forward(stackVoxels(samples, nil), false)
	sgPred, _ := l.SG.ForwardBatch(sampleGraphs(samples), false)
	out := make([]float64, len(samples))
	for i := range out {
		out[i] = (cnnPred.Data[i] + sgPred.Data[i]) / 2
	}
	return out
}

// PredictBatch evaluates samples in one batched inference pass through
// both heads and the fusion stack.
func (f *Fusion) PredictBatch(samples []*Sample) []float64 {
	if len(samples) == 0 {
		return nil
	}
	pred := f.forwardBatch(samples, false, nil)
	out := make([]float64, len(samples))
	copy(out, pred.Data)
	return out
}

// chunked folds a batch predictor over samples in predictChunk-sized
// batches, preserving order.
func chunked(samples []*Sample, predict func([]*Sample) []float64) []float64 {
	out := make([]float64, 0, len(samples))
	for lo := 0; lo < len(samples); lo += predictChunk {
		hi := lo + predictChunk
		if hi > len(samples) {
			hi = len(samples)
		}
		out = append(out, predict(samples[lo:hi])...)
	}
	return out
}
