package fusion

import (
	"math/rand"

	"deepfusion/internal/featurize"
	"deepfusion/internal/graph"
	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// SGCNN is the spatial-graph head (PotentialNet architecture, as in
// the original FAST code): a covalent gated-graph stage over the bond
// graph, a non-covalent stage over the distance-thresholded contact
// graph (including protein nodes), the gated gather pooling over
// ligand atoms, and a dense stack whose sizes follow the Non-covalent
// Gather Width reduced by 1.5x and then 2x. The gather output is the
// latent vector consumed by the fusion layers (Layer N-3).
type SGCNN struct {
	Cfg SGCNNConfig

	proj    *graph.Project // node features -> covalent width
	covConv *graph.GGConv
	bridge  *graph.Project // covalent width -> non-covalent width
	ncConv  *graph.GGConv
	gather  *graph.Gather
	d1, d2  *nn.Dense
	out     *nn.Dense
	act1    *nn.Activation
	act2    *nn.Activation
}

// LatentWidth returns the fusion-visible latent vector width (the
// gather output width).
func (m *SGCNN) LatentWidth() int { return m.Cfg.NonCovGatherWidth }

// NewSGCNN constructs the model.
func NewSGCNN(cfg SGCNNConfig, seed int64) *SGCNN {
	rng := rand.New(rand.NewSource(seed))
	w1 := cfg.CovGatherWidth
	w2 := cfg.NonCovGatherWidth
	d1w := max(2, w2*2/3) // reduce by 1.5x
	d2w := max(1, d1w/2)  // then by 2x
	return &SGCNN{
		Cfg:     cfg,
		proj:    graph.NewProject(rng, featurize.NodeFeatures, w1),
		covConv: graph.NewGGConv(rng, w1, cfg.CovK),
		bridge:  graph.NewProject(rng, w1, w2),
		ncConv:  graph.NewGGConv(rng, w2, cfg.NonCovK),
		gather:  graph.NewGather(rng, w2, featurize.NodeFeatures, w2),
		d1:      nn.NewDense(rng, w2, d1w),
		d2:      nn.NewDense(rng, d1w, d2w),
		out:     nn.NewDense(rng, d2w, 1),
		act1:    nn.NewActivation(nn.ActReLU),
		act2:    nn.NewActivation(nn.ActReLU),
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Params returns all trainable parameters.
func (m *SGCNN) Params() []*nn.Param {
	ps := append([]*nn.Param{}, m.proj.Params()...)
	ps = append(ps, m.covConv.Params()...)
	ps = append(ps, m.bridge.Params()...)
	ps = append(ps, m.ncConv.Params()...)
	ps = append(ps, m.gather.Params()...)
	ps = append(ps, m.d1.Params()...)
	ps = append(ps, m.d2.Params()...)
	ps = append(ps, m.out.Params()...)
	return ps
}

// Forward runs the training forward over one complex graph, returning
// the prediction ([1, 1]) and the latent gather vector
// ([1, NonCovGatherWidth]). It is the B=1 case of ForwardBatch.
func (m *SGCNN) Forward(g *featurize.Graph) (pred, latent *tensor.Tensor) {
	return m.ForwardBatch([]*featurize.Graph{g})
}

// ForwardBatch runs the training forward over a batch of complex
// graphs in one pass over their disjoint union: every message-passing GEMM runs once on the
// stacked node rows, and the gather pools each graph's segment into
// its own latent row. Returns the predictions ([B, 1]) and latent
// vectors ([B, NonCovGatherWidth]). Per-row math matches Forward
// exactly because no edge crosses a segment boundary.
func (m *SGCNN) ForwardBatch(gs []*featurize.Graph) (pred, latent *tensor.Tensor) {
	nodes, cov, nc, segs := unionGraphs(gs)
	h := m.proj.Forward(nodes)
	h = m.covConv.Forward(h, cov)
	h = m.bridge.Forward(h)
	h = m.ncConv.Forward(h, nc)
	latent = m.gather.ForwardSegments(h, nodes, segs)
	y := m.act1.Forward(m.d1.Forward(latent))
	y = m.act2.Forward(m.d2.Forward(y))
	pred = m.out.Forward(y)
	return pred, latent
}

// Backward propagates gradients from the prediction (dpred, [B, 1])
// and/or the latent vector (dlatent, [B, W]) of the most recent
// forward pass; either may be nil.
func (m *SGCNN) Backward(dpred, dlatent *tensor.Tensor) {
	var g *tensor.Tensor
	if dpred != nil {
		g = m.out.Backward(dpred)
		g = m.act2.Backward(g)
		g = m.d2.Backward(g)
		g = m.act1.Backward(g)
		g = m.d1.Backward(g)
	}
	if dlatent != nil {
		if g == nil {
			g = dlatent.Clone()
		} else {
			g.AddInPlace(dlatent)
		}
	}
	if g == nil {
		return
	}
	dh := m.gather.Backward(g)
	dh = m.ncConv.Backward(dh)
	dh = m.bridge.Backward(dh)
	dh = m.covConv.Backward(dh)
	m.proj.Backward(dh)
}
