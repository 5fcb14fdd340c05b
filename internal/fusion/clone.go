package fusion

import "deepfusion/internal/nn"

// Clone is an independent trainable copy — own parameters, own
// gradients, own dropout streams — for fine-tuning and for fusion
// models that train their heads. It goes through the seeded
// constructor on purpose: the clone's dropout streams continue from
// where construction leaves the generator, and training results are
// pinned to that. Scoring needs no copy at all: PredictBatchInto
// stashes nothing, so one instance serves every goroutine, each with
// its own Workspace.

// Clone returns an independent trainable copy of the model with
// identical weights.
func (m *CNN3D) Clone() *CNN3D {
	c := NewCNN3D(m.Cfg, 0)
	if err := nn.CopyParams(c.Params(), m.Params()); err != nil {
		panic("fusion: CNN3D clone shape mismatch: " + err.Error())
	}
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
