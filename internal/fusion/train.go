package fusion

import (
	"math"
	"math/rand"

	"deepfusion/internal/nn"
	"deepfusion/internal/tensor"
)

// History records per-epoch training and validation MSE losses.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
}

// Best returns the minimum validation loss (or +Inf when empty).
func (h *History) Best() float64 {
	best := math.Inf(1)
	for _, v := range h.ValLoss {
		if v < best {
			best = v
		}
	}
	return best
}

// TrainCNN3D trains a 3D-CNN on the featurized samples with MSE loss,
// Adam, mini-batches and the rotation augmentation of the paper.
func TrainCNN3D(cfg CNN3DConfig, train, val []*Sample, seed int64) (*CNN3D, *History) {
	m := NewCNN3D(cfg, seed)
	m.out.B.Update(func(w []float64) { w[0] = meanLabel(train) })
	return m, ContinueCNN3D(m, cfg, train, val, seed)
}

// TrainCNN3DNoAugment trains a fresh 3D-CNN without the rotation
// augmentation; the ablation benchmarks use it to isolate the
// augmentation's effect.
func TrainCNN3DNoAugment(cfg CNN3DConfig, train, val []*Sample, seed int64) (*CNN3D, *History) {
	m := NewCNN3D(cfg, seed)
	m.out.B.Update(func(w []float64) { w[0] = meanLabel(train) })
	return m, continueCNN3D(m, cfg, train, val, seed, false)
}

// ContinueCNN3D resumes training an existing 3D-CNN (PB2 exploits
// clone a running trial and keep training it).
func ContinueCNN3D(m *CNN3D, cfg CNN3DConfig, train, val []*Sample, seed int64) *History {
	return continueCNN3D(m, cfg, train, val, seed, true)
}

func continueCNN3D(m *CNN3D, cfg CNN3DConfig, train, val []*Sample, seed int64, augment bool) *History {
	opt := nn.NewAdam(m.Params(), cfg.LearningRate)
	bestVal := math.Inf(1)
	var bestSnap []*tensor.Tensor
	rng := rand.New(rand.NewSource(seed + 1))
	hist := &History{}
	idx := indices(len(train))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		nb := 0
		for lo := 0; lo < len(idx); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			batch := make([]*Sample, 0, hi-lo)
			for _, i := range idx[lo:hi] {
				batch = append(batch, train[i])
			}
			aug := rng
			if !augment {
				aug = nil
			}
			x := stackVoxels(batch, aug)
			y := labelTensor(batch)
			pred, _ := m.Forward(x)
			loss, dpred := nn.MSELoss(pred, y)
			m.Backward(dpred, nil)
			opt.Step()
			epochLoss += loss
			nb++
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(nb))
		v := EvalCNN3D(m, val)
		hist.ValLoss = append(hist.ValLoss, v)
		if v < bestVal && len(val) > 0 {
			bestVal = v
			bestSnap = snapshotParams(m.Params())
		}
	}
	if bestSnap != nil {
		restoreParams(m.Params(), bestSnap)
	}
	return hist
}

// EvalCNN3D returns the MSE of the model on samples.
func EvalCNN3D(m *CNN3D, samples []*Sample) float64 {
	return mseOf(m.PredictAll(samples), samples)
}

// PredictCNN3D evaluates the model on samples through the batched
// engine.
func PredictCNN3D(m *CNN3D, samples []*Sample) []float64 {
	return m.PredictAll(samples)
}

// mseOf folds batched predictions into a mean squared error.
func mseOf(preds []float64, samples []*Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	se := 0.0
	for i, s := range samples {
		d := preds[i] - s.Label
		se += d * d
	}
	return se / float64(len(samples))
}

// TrainSGCNN trains an SG-CNN. Graphs vary in size, so each
// mini-batch runs as one disjoint-union ForwardBatch (no edge crosses
// a segment boundary) with a single batched backward pass.
func TrainSGCNN(cfg SGCNNConfig, train, val []*Sample, seed int64) (*SGCNN, *History) {
	m := NewSGCNN(cfg, seed)
	m.out.B.Update(func(w []float64) { w[0] = meanLabel(train) })
	return m, ContinueSGCNN(m, cfg, train, val, seed)
}

// ContinueSGCNN resumes training an existing SG-CNN (PB2 exploits
// clone a running trial and keep training it).
func ContinueSGCNN(m *SGCNN, cfg SGCNNConfig, train, val []*Sample, seed int64) *History {
	opt := nn.NewAdam(m.Params(), cfg.LearningRate)
	bestVal := math.Inf(1)
	var bestSnap []*tensor.Tensor
	rng := rand.New(rand.NewSource(seed + 2))
	hist := &History{}
	idx := indices(len(train))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		nb := 0
		for lo := 0; lo < len(idx); lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(idx) {
				hi = len(idx)
			}
			batch := make([]*Sample, 0, hi-lo)
			for _, i := range idx[lo:hi] {
				batch = append(batch, train[i])
			}
			// One disjoint-union forward/backward per mini-batch; the
			// batch-mean MSE gradient matches the former per-sample
			// accumulation with 1/|batch| scaling.
			pred, _ := m.ForwardBatch(sampleGraphs(batch))
			loss, dpred := nn.MSELoss(pred, labelTensor(batch))
			m.Backward(dpred, nil)
			opt.Step()
			epochLoss += loss
			nb++
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(nb))
		v := EvalSGCNN(m, val)
		hist.ValLoss = append(hist.ValLoss, v)
		if v < bestVal && len(val) > 0 {
			bestVal = v
			bestSnap = snapshotParams(m.Params())
		}
	}
	if bestSnap != nil {
		restoreParams(m.Params(), bestSnap)
	}
	return hist
}

// EvalSGCNN returns the MSE of the model on samples.
func EvalSGCNN(m *SGCNN, samples []*Sample) float64 {
	return mseOf(m.PredictAll(samples), samples)
}

// PredictSGCNN evaluates the model on samples through the batched
// engine.
func PredictSGCNN(m *SGCNN, samples []*Sample) []float64 {
	return m.PredictAll(samples)
}

// TrainFusion trains the fusion stack (and, when cfg.Coherent, the
// heads) on the featurized samples.
func TrainFusion(f *Fusion, train, val []*Sample, seed int64) *History {
	cfg := f.Cfg
	if f.out.B.Value.Data[0] == 0 {
		f.out.B.Update(func(w []float64) { w[0] = meanLabel(train) })
	}
	opt := nn.NewOptimizer(cfg.Optimizer, f.Params(), cfg.LearningRate)
	rng := rand.New(rand.NewSource(seed + 3))
	hist := &History{}
	idx := indices(len(train))
	// Model selection: keep the weights of the best validation epoch
	// (the paper's PB2 objective is minimum validation MSE).
	bestVal := math.Inf(1)
	var bestSnap []*tensor.Tensor
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		nb := 0
		bs := cfg.BatchSize
		if bs < 1 {
			bs = 1
		}
		for lo := 0; lo < len(idx); lo += bs {
			hi := lo + bs
			if hi > len(idx) {
				hi = len(idx)
			}
			batch := make([]*Sample, 0, hi-lo)
			for _, i := range idx[lo:hi] {
				batch = append(batch, train[i])
			}
			pred := f.forwardBatch(batch, rng)
			loss, dpred := nn.MSELoss(pred, labelTensor(batch))
			f.backward(dpred)
			opt.Step()
			epochLoss += loss
			nb++
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(nb))
		v := EvalFusion(f, val)
		hist.ValLoss = append(hist.ValLoss, v)
		if v < bestVal && len(val) > 0 {
			bestVal = v
			bestSnap = snapshotParams(f.Params())
		}
	}
	if bestSnap != nil {
		restoreParams(f.Params(), bestSnap)
	}
	return hist
}

// EvalFusion returns the MSE of the fusion model on samples.
func EvalFusion(f *Fusion, samples []*Sample) float64 {
	return mseOf(f.PredictAll(samples), samples)
}

func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func labelTensor(samples []*Sample) *tensor.Tensor {
	y := tensor.New(len(samples), 1)
	for i, s := range samples {
		y.Data[i] = s.Label
	}
	return y
}

// snapshotParams copies parameter values (model-selection checkpoint).
func snapshotParams(ps []*nn.Param) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Value.Clone()
	}
	return out
}

// restoreParams writes a snapshot back into the parameters.
func restoreParams(ps []*nn.Param, snap []*tensor.Tensor) {
	for i, p := range ps {
		p.Update(func(w []float64) { copy(w, snap[i].Data) })
	}
}

// meanLabel returns the mean training label, used to initialize output
// biases so early epochs are not spent learning the dataset mean.
func meanLabel(samples []*Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range samples {
		s += x.Label
	}
	return s / float64(len(samples))
}
