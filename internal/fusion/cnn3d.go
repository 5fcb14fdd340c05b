package fusion

import (
	"math/rand"

	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// CNN3D is the voxel-grid head: two convolution stages (the paper's
// 5x5x5 then 3x3x3 filters) with optional residual connections and a
// reduced dense stack. The penultimate dense activation is the latent
// vector consumed by the fusion layers (Layer M-1 of the M-layer
// model).
type CNN3D struct {
	Cfg CNN3DConfig

	conv1, conv2 *nn.Conv3D // stage 1 (k=5 then k=3)
	conv3, conv4 *nn.Conv3D // stage 2 (k=3)
	pool1, pool2 *nn.MaxPool3D
	act          []*nn.Activation
	flat         *nn.Flatten
	drop1, drop2 *nn.Dropout
	bn           *nn.BatchNorm
	fc1, fc2     *nn.Dense
	out          *nn.Dense

	// resp is the conv stack's reference-grid responses (box.go).
	resp *responseCache
}

// LatentWidth returns the fusion-visible latent vector width.
func (m *CNN3D) LatentWidth() int { return m.Cfg.DenseNodes / 2 }

// NewCNN3D constructs the model. The voxel grid must be divisible by 4
// (two 2x pooling stages).
func NewCNN3D(cfg CNN3DConfig, seed int64) *CNN3D {
	rng := rand.New(rand.NewSource(seed))
	c := cfg.Voxel.Channels()
	g := cfg.Voxel.GridSize
	if g%4 != 0 {
		panic("fusion: voxel grid size must be divisible by 4")
	}
	flatWidth := cfg.ConvFilters2 * (g / 4) * (g / 4) * (g / 4)
	m := &CNN3D{
		Cfg:   cfg,
		conv1: nn.NewConv3D(rng, c, cfg.ConvFilters1, 5),
		conv2: nn.NewConv3D(rng, cfg.ConvFilters1, cfg.ConvFilters1, 3),
		conv3: nn.NewConv3D(rng, cfg.ConvFilters1, cfg.ConvFilters2, 3),
		conv4: nn.NewConv3D(rng, cfg.ConvFilters2, cfg.ConvFilters2, 3),
		pool1: nn.NewMaxPool3D(2),
		pool2: nn.NewMaxPool3D(2),
		flat:  &nn.Flatten{},
		drop1: nn.NewDropout(rng, cfg.Dropout1),
		drop2: nn.NewDropout(rng, cfg.Dropout2),
		fc1:   nn.NewDense(rng, flatWidth, cfg.DenseNodes),
		fc2:   nn.NewDense(rng, cfg.DenseNodes, cfg.DenseNodes/2),
		out:   nn.NewDense(rng, cfg.DenseNodes/2, 1),
		resp:  &responseCache{},
	}
	if cfg.BatchNorm {
		m.bn = nn.NewBatchNorm(cfg.DenseNodes)
	}
	for i := 0; i < 6; i++ {
		m.act = append(m.act, nn.NewActivation(nn.ActReLU))
	}
	return m
}

// SetDirectConv switches every convolution stage between the scatter
// convolution (default) and the direct reference loops. The
// screening throughput benchmarks use it to measure the batched
// engine against the seed's per-sample baseline.
func (m *CNN3D) SetDirectConv(direct bool) {
	for _, c := range []*nn.Conv3D{m.conv1, m.conv2, m.conv3, m.conv4} {
		c.Direct = direct
	}
}

// Params returns all trainable parameters.
func (m *CNN3D) Params() []*nn.Param {
	ps := append([]*nn.Param{}, m.conv1.Params()...)
	ps = append(ps, m.conv2.Params()...)
	ps = append(ps, m.conv3.Params()...)
	ps = append(ps, m.conv4.Params()...)
	ps = append(ps, m.fc1.Params()...)
	ps = append(ps, m.fc2.Params()...)
	ps = append(ps, m.out.Params()...)
	if m.bn != nil {
		ps = append(ps, m.bn.Params()...)
	}
	return ps
}

// Forward computes the binding-affinity prediction ([N, 1]) and the
// latent vector ([N, DenseNodes/2]) for a voxel batch [N, C, G, G, G]
// in training mode, stashing what Backward needs.
func (m *CNN3D) Forward(x *tensor.Tensor) (pred, latent *tensor.Tensor) {
	h := m.act[0].Forward(m.conv1.Forward(x))
	h2 := m.act[1].Forward(m.conv2.Forward(h))
	if m.Cfg.Residual1 {
		h2 = tensor.Add(h2, h)
	}
	h2 = m.pool1.Forward(h2)
	h3 := m.act[2].Forward(m.conv3.Forward(h2))
	h4 := m.act[3].Forward(m.conv4.Forward(h3))
	if m.Cfg.Residual2 {
		h4 = tensor.Add(h4, h3)
	}
	h4 = m.pool2.Forward(h4)
	f := m.flat.Forward(h4)
	f = m.drop1.Forward(f)
	d1 := m.fc1.Forward(f)
	if m.bn != nil {
		d1 = m.bn.Forward(d1)
	}
	d1 = m.act[4].Forward(d1)
	d1 = m.drop2.Forward(d1)
	latent = m.act[5].Forward(m.fc2.Forward(d1))
	pred = m.out.Forward(latent)
	return pred, latent
}

// Backward propagates gradients. dpred is the gradient w.r.t. the
// prediction ([N, 1]) and dlatent w.r.t. the latent vector; either may
// be nil. Parameter gradients accumulate; the input gradient is
// discarded (inputs are data).
func (m *CNN3D) Backward(dpred, dlatent *tensor.Tensor) {
	var g *tensor.Tensor
	if dpred != nil {
		g = m.out.Backward(dpred)
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
	g = m.fc2.Backward(m.act[5].Backward(g))
	g = m.drop2.Backward(g)
	g = m.act[4].Backward(g)
	if m.bn != nil {
		g = m.bn.Backward(g)
	}
	g = m.fc1.Backward(g)
	g = m.drop1.Backward(g)
	g = m.flat.Backward(g)
	g = m.pool2.Backward(g)
	// Residual 2: gradient flows through conv4 and the skip.
	gConv := m.conv4.Backward(m.act[3].Backward(g))
	if m.Cfg.Residual2 {
		gConv.AddInPlace(g)
	}
	g = m.conv3.Backward(m.act[2].Backward(gConv))
	g = m.pool1.Backward(g)
	gConv = m.conv2.Backward(m.act[1].Backward(g))
	if m.Cfg.Residual1 {
		gConv.AddInPlace(g)
	}
	// The input is the voxel grid: conv1 needs no input gradient.
	m.conv1.BackwardParams(m.act[0].Backward(gConv))
}
