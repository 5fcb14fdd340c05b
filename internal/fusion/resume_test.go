package fusion

// Pause/resume invariants. The paper's training ran under Lassen's LSF
// scheduler, "pausing, rescheduling, and resuming training jobs after
// a maximum run-time" (Section 3.2). These tests pin the property that
// makes requeueing safe: checkpointing a model mid-run and resuming
// from the restored weights behaves exactly like continuing in memory.

import (
	"bytes"
	"testing"

	"deepfusion/internal/nn"
)

// zeroParams wipes every parameter so a later LoadParams provably does
// the restoration work.
func zeroParams(params []*nn.Param) {
	for _, p := range params {
		p.Update(func(w []float64) { clear(w) })
	}
}

func TestSGCNNCheckpointResumeMatchesInMemory(t *testing.T) {
	ds := dataset(t)
	train, val := featurized(t, ds.Train[:48]), featurized(t, ds.Val[:12])
	cfg := tinySGConfig()
	cfg.Epochs = 2

	// Phase 1: two epochs.
	m, _ := TrainSGCNN(cfg, train, val, 11)

	// Path A: continue in memory.
	inMem := m.Clone()
	histA := ContinueSGCNN(inMem, cfg, train, val, 12)

	// Path B: checkpoint to bytes, restore into a wiped clone
	// (simulating an LSF requeue onto a fresh allocation), continue
	// with the same seed.
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	restored := m.Clone()
	zeroParams(restored.Params())
	if err := nn.LoadParams(&buf, restored.Params()); err != nil {
		t.Fatal(err)
	}
	histB := ContinueSGCNN(restored, cfg, train, val, 12)

	if len(histA.ValLoss) == 0 || len(histA.ValLoss) != len(histB.ValLoss) {
		t.Fatalf("mismatched histories: %d vs %d epochs", len(histA.ValLoss), len(histB.ValLoss))
	}
	for i := range histA.ValLoss {
		if histA.ValLoss[i] != histB.ValLoss[i] {
			t.Fatalf("epoch %d: in-memory val loss %v != resumed val loss %v — checkpointing perturbs training",
				i, histA.ValLoss[i], histB.ValLoss[i])
		}
	}
	if a, b := EvalSGCNN(inMem, val), EvalSGCNN(restored, val); a != b {
		t.Fatalf("final val MSE differs after resume: %v != %v", a, b)
	}
}

func TestCNN3DCheckpointResumeMatchesInMemory(t *testing.T) {
	ds := dataset(t)
	train, val := featurized(t, ds.Train[:48]), featurized(t, ds.Val[:12])
	cfg := tinyCNNConfig()
	cfg.Epochs = 1

	m, _ := TrainCNN3D(cfg, train, val, 21)

	inMem := m.Clone()
	histA := ContinueCNN3D(inMem, cfg, train, val, 22)

	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	restored := m.Clone()
	zeroParams(restored.Params())
	if err := nn.LoadParams(&buf, restored.Params()); err != nil {
		t.Fatal(err)
	}
	histB := ContinueCNN3D(restored, cfg, train, val, 22)

	if len(histA.ValLoss) != len(histB.ValLoss) {
		t.Fatalf("mismatched histories: %d vs %d epochs", len(histA.ValLoss), len(histB.ValLoss))
	}
	for i := range histA.ValLoss {
		if histA.ValLoss[i] != histB.ValLoss[i] {
			t.Fatalf("epoch %d: in-memory %v != resumed %v", i, histA.ValLoss[i], histB.ValLoss[i])
		}
	}
	if a, b := EvalCNN3D(inMem, val), EvalCNN3D(restored, val); a != b {
		t.Fatalf("final val MSE differs after resume: %v != %v", a, b)
	}
}

func coherentAllParams(f *Fusion) []*nn.Param {
	all := append([]*nn.Param{}, f.FusionParams()...)
	all = append(all, f.CNN.Params()...)
	return append(all, f.SG.Params()...)
}

func TestCoherentCheckpointRoundTripPreservesPredictions(t *testing.T) {
	// Save -> load alone (no further training) is prediction-exact for
	// the full coherent fusion model, whose checkpoint cmd/train ships.
	ds := dataset(t)
	train, val := featurized(t, ds.Train[:48]), featurized(t, ds.Val[:12])
	cnnCfg := tinyCNNConfig()
	cnnCfg.Epochs = 1
	cnn, _ := TrainCNN3D(cnnCfg, train, val, 31)
	sgCfg := tinySGConfig()
	sgCfg.Epochs = 1
	sg, _ := TrainSGCNN(sgCfg, train, val, 32)
	cfg := DefaultCoherentConfig()
	cfg.Epochs = 1
	f := NewFusion(cfg, cnn, sg, 33)
	TrainFusion(f, train, val, 34)

	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, coherentAllParams(f)); err != nil {
		t.Fatal(err)
	}
	g := f.Clone()
	zeroParams(coherentAllParams(g))
	if err := nn.LoadParams(&buf, coherentAllParams(g)); err != nil {
		t.Fatal(err)
	}
	for i, s := range val {
		if a, b := f.Predict(s), g.Predict(s); a != b {
			t.Fatalf("val sample %d: %v != %v after checkpoint round trip", i, a, b)
		}
	}
}
