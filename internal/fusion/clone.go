package fusion

import "deepfusion/internal/nn"

// Two ways to copy a model.
//
// Replica is what the screening engine gives each rank: fresh layer
// structs aliasing the source's parameters. What makes one instance
// unsafe to score concurrently is the allocating ScoreBatch path — it
// runs the training Forward in inference mode, and Forward stashes its
// inputs in the layer structs for Backward. The weights are only read,
// so replicas share them, and with them every weight form the model
// has built (nn.Param: packed panels, kernel transposes, f32
// conversions) plus the voxel head's reference-grid responses. Nothing is
// initialized, copied or allocated per parameter. PredictBatchInto
// stashes nothing: it is safe on one shared instance from any number
// of goroutines, each with its own Workspace.
//
// Clone is an independent trainable copy — own parameters, own
// gradients, own dropout streams — for fine-tuning and for fusion
// models that train their heads. It goes through the seeded
// constructor on purpose: the clone's dropout streams continue from
// where construction leaves the generator, and training results are
// pinned to that.

// Replica returns an inference replica of the voxel head that aliases
// m's parameters and shares its compiled inference state.
func (m *CNN3D) Replica() *CNN3D {
	r := &CNN3D{
		Cfg:   m.Cfg,
		conv1: m.conv1.Replica(), conv2: m.conv2.Replica(),
		conv3: m.conv3.Replica(), conv4: m.conv4.Replica(),
		pool1: m.pool1.Replica(), pool2: m.pool2.Replica(),
		flat:  &nn.Flatten{},
		drop1: m.drop1.Replica(), drop2: m.drop2.Replica(),
		fc1: m.fc1.Replica(), fc2: m.fc2.Replica(), out: m.out.Replica(),
		resp: m.resp,
	}
	if m.bn != nil {
		r.bn = m.bn.Replica()
	}
	for _, a := range m.act {
		r.act = append(r.act, a.Replica())
	}
	return r
}

// Replica returns an inference replica of the graph head that aliases
// m's parameters.
func (m *SGCNN) Replica() *SGCNN {
	return &SGCNN{
		Cfg:     m.Cfg,
		proj:    m.proj.Replica(),
		covConv: m.covConv.Replica(),
		bridge:  m.bridge.Replica(),
		ncConv:  m.ncConv.Replica(),
		gather:  m.gather.Replica(),
		d1:      m.d1.Replica(), d2: m.d2.Replica(), out: m.out.Replica(),
		act1: m.act1.Replica(), act2: m.act2.Replica(),
	}
}

// Replica returns an inference replica of the fusion model, heads
// included, that aliases f's parameters.
func (f *Fusion) Replica() *Fusion {
	r := &Fusion{
		Cfg: f.Cfg, CNN: f.CNN.Replica(), SG: f.SG.Replica(),
		out:         f.out.Replica(),
		concatWidth: f.concatWidth, cnnLatW: f.cnnLatW, sgLatW: f.sgLatW, msW: f.msW,
	}
	if f.msCNN != nil {
		r.msCNN, r.msSG = f.msCNN.Replica(), f.msSG.Replica()
		r.msActC, r.msActS = f.msActC.Replica(), f.msActS.Replica()
	}
	for i := range f.layers {
		r.layers = append(r.layers, f.layers[i].Replica())
		r.acts = append(r.acts, f.acts[i].Replica())
		r.drops = append(r.drops, f.drops[i].Replica())
		var bn *nn.BatchNorm
		if f.bns[i] != nil {
			bn = f.bns[i].Replica()
		}
		r.bns = append(r.bns, bn)
	}
	return r
}

// Clone returns an independent trainable copy of the model with
// identical weights.
func (m *CNN3D) Clone() *CNN3D {
	c := NewCNN3D(m.Cfg, 0)
	if err := nn.CopyParams(c.Params(), m.Params()); err != nil {
		panic("fusion: CNN3D clone shape mismatch: " + err.Error())
	}
	// Preserve the convolution algorithm selection (the screening
	// benchmarks pin replicas to the direct reference path).
	c.conv1.Direct = m.conv1.Direct
	c.conv2.Direct = m.conv2.Direct
	c.conv3.Direct = m.conv3.Direct
	c.conv4.Direct = m.conv4.Direct
	return c
}

// Clone returns an independent trainable copy of the model with
// identical weights.
func (m *SGCNN) Clone() *SGCNN {
	c := NewSGCNN(m.Cfg, 0)
	if err := nn.CopyParams(c.Params(), m.Params()); err != nil {
		panic("fusion: SGCNN clone shape mismatch: " + err.Error())
	}
	return c
}

// Clone returns an independent trainable copy of the fusion model,
// including both heads.
func (f *Fusion) Clone() *Fusion {
	c := NewFusion(f.Cfg, f.CNN.Clone(), f.SG.Clone(), 0)
	if err := nn.CopyParams(c.FusionParams(), f.FusionParams()); err != nil {
		panic("fusion: Fusion clone shape mismatch: " + err.Error())
	}
	return c
}
