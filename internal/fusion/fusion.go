package fusion

import (
	"math/rand"

	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// LateFusion predicts the unweighted arithmetic mean of the two base
// model predictions (paper Section 2.1).
type LateFusion struct {
	CNN *CNN3D
	SG  *SGCNN
}

// Predict evaluates one sample (the B=1 case of PredictBatch).
func (l *LateFusion) Predict(s *Sample) float64 {
	return l.PredictBatch([]*Sample{s})[0]
}

// PredictAll evaluates many samples in predictChunk batches.
func (l *LateFusion) PredictAll(samples []*Sample) []float64 {
	return predictPooled(samples, predictChunk, l.PredictBatchInto)
}

// Fusion is the Mid-level / Coherent Fusion model: latent vectors from
// both heads, optional model-specific dense layers, concatenation, and
// a stack of fusion dense layers ending in a single affinity output
// (Figure 1, yellow block). With Cfg.Coherent the backward pass
// continues into both heads (the paper's new Coherent Fusion); without
// it the heads are frozen feature extractors (Mid-level Fusion).
type Fusion struct {
	Cfg FusionConfig
	CNN *CNN3D
	SG  *SGCNN

	msCNN, msSG *nn.Dense // model-specific layers (optional)
	msActC      *nn.Activation
	msActS      *nn.Activation
	layers      []*nn.Dense
	acts        []*nn.Activation
	drops       []*nn.Dropout
	bns         []*nn.BatchNorm
	out         *nn.Dense

	concatWidth int
	cnnLatW     int
	sgLatW      int
	msW         int
}

// NewFusion wires a fusion head around trained (or fresh) base models.
func NewFusion(cfg FusionConfig, cnn *CNN3D, sg *SGCNN, seed int64) *Fusion {
	rng := rand.New(rand.NewSource(seed))
	f := &Fusion{Cfg: cfg, CNN: cnn, SG: sg, cnnLatW: cnn.LatentWidth(), sgLatW: sg.LatentWidth()}
	f.concatWidth = f.cnnLatW + f.sgLatW
	if cfg.ModelSpecific {
		f.msW = cfg.DenseNodes
		f.msCNN = nn.NewDense(rng, f.cnnLatW, f.msW)
		f.msSG = nn.NewDense(rng, f.sgLatW, f.msW)
		f.msActC = nn.NewActivation(cfg.Activation)
		f.msActS = nn.NewActivation(cfg.Activation)
		f.concatWidth += 2 * f.msW
	}
	width := f.concatWidth
	dropRates := []float64{cfg.Dropout1, cfg.Dropout2, cfg.Dropout3}
	for i := 0; i < cfg.NumFusionLayers; i++ {
		next := cfg.DenseNodes
		f.layers = append(f.layers, nn.NewDense(rng, width, next))
		f.acts = append(f.acts, nn.NewActivation(cfg.Activation))
		rate := 0.0
		if i < len(dropRates) {
			rate = dropRates[i]
		}
		f.drops = append(f.drops, nn.NewDropout(rng, rate))
		if cfg.BatchNorm {
			f.bns = append(f.bns, nn.NewBatchNorm(next))
		} else {
			f.bns = append(f.bns, nil)
		}
		width = next
	}
	f.out = nn.NewDense(rng, width, 1)
	return f
}

// FusionParams returns the fusion-layer parameters only (what
// Mid-level Fusion trains).
func (f *Fusion) FusionParams() []*nn.Param {
	var ps []*nn.Param
	if f.msCNN != nil {
		ps = append(ps, f.msCNN.Params()...)
		ps = append(ps, f.msSG.Params()...)
	}
	for i, l := range f.layers {
		ps = append(ps, l.Params()...)
		if f.bns[i] != nil {
			ps = append(ps, f.bns[i].Params()...)
		}
	}
	return append(ps, f.out.Params()...)
}

// Params returns the trainable parameters for the configured mode:
// fusion layers only (Mid-level) or fusion layers plus both heads
// (Coherent).
func (f *Fusion) Params() []*nn.Param {
	ps := f.FusionParams()
	if f.Cfg.Coherent {
		ps = append(ps, f.CNN.Params()...)
		ps = append(ps, f.SG.Params()...)
	}
	return ps
}

// forwardBatch runs the training forward over a batch of samples,
// returning the prediction tensor ([B, 1]); dropout is active in the
// fusion stack. Under Coherent Fusion the heads train too: voxels
// stack into one [B, C, G, G, G] head input (rotated when rng is not
// nil) and the graphs run as a disjoint union, so every layer sees a
// real batch dimension. Frozen heads (Mid-level Fusion) run the
// inference path and stay deterministic.
func (f *Fusion) forwardBatch(samples []*Sample, rng *rand.Rand) *tensor.Tensor {
	var cnnLat, sgLat *tensor.Tensor
	if f.Cfg.Coherent {
		_, cnnLat = f.CNN.Forward(stackVoxels(samples, rng))
		_, sgLat = f.SG.ForwardBatch(sampleGraphs(samples))
	} else {
		cnnLat, sgLat = f.headLatents(samples)
	}

	b := len(samples)
	concat := tensor.New(b, f.concatWidth)
	for i := 0; i < b; i++ {
		copy(concat.Row(i)[:f.cnnLatW], cnnLat.Row(i))
		copy(concat.Row(i)[f.cnnLatW:f.cnnLatW+f.sgLatW], sgLat.Row(i))
	}
	if f.msCNN != nil {
		mc := f.msActC.Forward(f.msCNN.Forward(cnnLat))
		ms := f.msActS.Forward(f.msSG.Forward(sgLat))
		off := f.cnnLatW + f.sgLatW
		for i := 0; i < b; i++ {
			copy(concat.Row(i)[off:off+f.msW], mc.Row(i))
			copy(concat.Row(i)[off+f.msW:], ms.Row(i))
		}
	}
	h := concat
	for i, l := range f.layers {
		prev := h
		h = l.Forward(h)
		if f.bns[i] != nil {
			h = f.bns[i].Forward(h)
		}
		h = f.acts[i].Forward(h)
		h = f.drops[i].Forward(h)
		if f.Cfg.ResidualFusion && prev.Dim(1) == h.Dim(1) {
			h = tensor.Add(h, prev)
		}
	}
	return f.out.Forward(h)
}

// headLatents runs the frozen heads through the inference path and
// returns heap copies of their latents, which the fusion stack's
// layers stash for backward after the workspace is recycled.
func (f *Fusion) headLatents(samples []*Sample) (cnnLat, sgLat *tensor.Tensor) {
	ws := f64Workspaces.Get().(*Workspace)
	defer f64Workspaces.Put(ws)
	ws.Reset()
	_, c := forwardInfer[float64](f.CNN, samples, ws)
	_, s := forwardBatchInfer[float64](f.SG, samples, ws)
	return c.Clone(), s.Clone()
}

// backward propagates the prediction gradient ([B, 1], matching the
// most recent forwardBatch) through the fusion stack and, under
// Coherent Fusion, into both heads.
func (f *Fusion) backward(dpred *tensor.Tensor) {
	g := f.out.Backward(dpred)
	for i := len(f.layers) - 1; i >= 0; i-- {
		skip := f.Cfg.ResidualFusion && residualApplied(f, i)
		gd := f.drops[i].Backward(g)
		gd = f.acts[i].Backward(gd)
		if f.bns[i] != nil {
			gd = f.bns[i].Backward(gd)
		}
		gd = f.layers[i].Backward(gd)
		if skip {
			gd.AddInPlace(g)
		}
		g = gd
	}
	// Split the concat gradient row-wise into the head latents.
	b := g.Dim(0)
	dcnnLat := tensor.New(b, f.cnnLatW)
	dsgLat := tensor.New(b, f.sgLatW)
	for i := 0; i < b; i++ {
		copy(dcnnLat.Row(i), g.Row(i)[:f.cnnLatW])
		copy(dsgLat.Row(i), g.Row(i)[f.cnnLatW:f.cnnLatW+f.sgLatW])
	}
	if f.msCNN != nil {
		off := f.cnnLatW + f.sgLatW
		dmc := tensor.New(b, f.msW)
		dms := tensor.New(b, f.msW)
		for i := 0; i < b; i++ {
			copy(dmc.Row(i), g.Row(i)[off:off+f.msW])
			copy(dms.Row(i), g.Row(i)[off+f.msW:])
		}
		dcnnLat.AddInPlace(f.msCNN.Backward(f.msActC.Backward(dmc)))
		dsgLat.AddInPlace(f.msSG.Backward(f.msActS.Backward(dms)))
	}
	if f.Cfg.Coherent {
		f.CNN.Backward(nil, dcnnLat)
		f.SG.Backward(nil, dsgLat)
	}
}

// residualApplied reports whether the skip connection fired for layer
// i during forward (widths must match).
func residualApplied(f *Fusion, i int) bool {
	inW := f.concatWidth
	if i > 0 {
		inW = f.Cfg.DenseNodes
	}
	return inW == f.Cfg.DenseNodes
}

// Predict evaluates one sample (the B=1 case of PredictBatch).
func (f *Fusion) Predict(s *Sample) float64 {
	return f.PredictBatch([]*Sample{s})[0]
}

// PredictAll evaluates many samples in predictChunk batches (see
// batch.go).
func (f *Fusion) PredictAll(samples []*Sample) []float64 {
	return predictPooled(samples, predictChunk, f.PredictBatchInto)
}
