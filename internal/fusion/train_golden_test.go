package fusion

import (
	"testing"

	"deepfusion/internal/nn"
)

// trainGoldenFile holds the float64 bit patterns TestTrainBitsGolden
// pins, in the format of f64GoldenFile.
const trainGoldenFile = "testdata/train_bits.golden"

// TestTrainBitsGolden pins the exact bits of training: tiny models of
// every trained family — the 3D-CNN with batch norm and dropout, the
// SG-CNN, Mid-level Fusion with model-specific layers and Coherent
// Fusion — train a few epochs from fixed seeds, and the golden records
// every parameter (and running statistic) they end with, each epoch's
// losses and their predictions over held-out samples. Thirteen training
// samples in batches of four leave a batch of one each epoch, so batch
// norm's single-sample branch runs too. Any change to a training
// forward or backward, to an optimizer, or to the evaluation that picks
// the best epoch shows here; the file changes only with an intended
// change of trained weights.
//
// Training passes through math.Exp (SELU, the SG-CNN gates), so where
// this host's math.Exp rounds differently from the recording host
// (expProbe, as in TestF64BitsGolden) nothing here is comparable and
// the test skips.
func TestTrainBitsGolden(t *testing.T) {
	want := readBitsGolden(t, trainGoldenFile)
	got := map[string]string{expProbe: expBits()}
	if got[expProbe] != want[expProbe] {
		t.Skipf("math.Exp rounds differently here than where %s was recorded", trainGoldenFile)
	}
	ds := dataset(t)
	train := featurized(t, ds.Train[:13])
	val := featurized(t, ds.Val[:5])
	held := featurized(t, ds.Core[:6])

	record := func(name string, h *History, ps []*nn.Param, bns []*nn.BatchNorm, preds []float64) {
		var vals []float64
		for _, p := range ps {
			vals = append(vals, p.Value.Data...)
		}
		for _, b := range bns {
			if b != nil {
				vals = append(append(vals, b.RunMean...), b.RunVar...)
			}
		}
		got["Train/"+name+"/params"] = bitsOf(vals)
		got["Train/"+name+"/TrainLoss"] = bitsOf(h.TrainLoss)
		got["Train/"+name+"/ValLoss"] = bitsOf(h.ValLoss)
		got["Train/"+name+"/PredictAll"] = bitsOf(preds)
	}

	cnnCfg := tinyCNNConfig()
	cnnCfg.BatchNorm = true
	cnnCfg.Dropout1, cnnCfg.Dropout2 = 0.25, 0.125
	cnnCfg.Epochs, cnnCfg.BatchSize = 3, 4
	cnn, h := TrainCNN3D(cnnCfg, train, val, 501)
	record("CNN3D", h, cnn.Params(), []*nn.BatchNorm{cnn.bn}, cnn.PredictAll(held))

	sgCfg := tinySGConfig()
	sgCfg.Epochs, sgCfg.BatchSize = 3, 4
	sg, h := TrainSGCNN(sgCfg, train, val, 502)
	record("SGCNN", h, sg.Params(), nil, sg.PredictAll(held))

	midCfg := DefaultMidFusionConfig()
	midCfg.BatchNorm = true
	midCfg.Epochs, midCfg.BatchSize = 3, 4
	mid := NewFusion(midCfg, cnn, sg, 503)
	h = TrainFusion(mid, train, val, 504)
	record("Mid", h, mid.Params(), mid.bns, mid.PredictAll(held))

	cohCfg := DefaultCoherentConfig()
	cohCfg.BatchNorm = true
	cohCfg.Epochs, cohCfg.BatchSize = 3, 4
	coh := NewFusion(cohCfg, cnn.Clone(), sg.Clone(), 505)
	h = TrainFusion(coh, train, val, 506)
	record("Coherent", h, coh.Params(), append([]*nn.BatchNorm{coh.CNN.bn}, coh.bns...), coh.PredictAll(held))

	compareBitsGolden(t, trainGoldenFile, want, got)
}
