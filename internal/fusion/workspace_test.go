package fusion

import (
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/pdbbind"
)

// TestPredictBatchIntoByteIdentical is the golden guarantee of the
// pooled engine: for every model family and batch size, a pooled
// PredictBatchInto over a (dirty, reused) workspace must reproduce the
// training forward bit for bit on models where the two compute the
// same function — no dropout, no batch norm — so scoring and training
// run one arithmetic.
func TestPredictBatchIntoByteIdentical(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	cnnCfg := tinyCNNConfig()
	cnnCfg.Dropout1, cnnCfg.Dropout2 = 0, 0
	cnn := NewCNN3D(cnnCfg, 91)
	sg := NewSGCNN(tinySGConfig(), 92)
	late := &LateFusion{CNN: cnn, SG: sg}
	noDropout := func(cfg FusionConfig) FusionConfig {
		cfg.Dropout1, cfg.Dropout2, cfg.Dropout3 = 0, 0, 0
		return cfg
	}
	mid := NewFusion(noDropout(DefaultMidFusionConfig()), cnn, sg, 93)
	coh := NewFusion(noDropout(DefaultCoherentConfig()), cnn, sg, 94)
	cnnTrain := func(ss []*Sample) []float64 {
		pred, _ := cnn.Forward(stackVoxels(ss, nil))
		return pred.Data
	}
	sgTrain := func(ss []*Sample) []float64 {
		pred, _ := sg.ForwardBatch(sampleGraphs(ss))
		return pred.Data
	}

	ws := NewWorkspaceFor(PrecisionF64) // one workspace shared across families and batches
	models := []struct {
		name  string
		batch func(ss []*Sample) []float64
		into  func(ss []*Sample, out []float64)
	}{
		{"CNN3D", cnnTrain, func(ss []*Sample, out []float64) { cnn.PredictBatchInto(ss, ws, out) }},
		{"SGCNN", sgTrain, func(ss []*Sample, out []float64) { sg.PredictBatchInto(ss, ws, out) }},
		{"Late", func(ss []*Sample) []float64 {
			c, g := cnnTrain(ss), sgTrain(ss)
			for i := range c {
				c[i] = (c[i] + g[i]) / 2
			}
			return c
		}, func(ss []*Sample, out []float64) { late.PredictBatchInto(ss, ws, out) }},
		{"Mid", func(ss []*Sample) []float64 { return mid.forwardBatch(ss, nil).Data }, func(ss []*Sample, out []float64) { mid.PredictBatchInto(ss, ws, out) }},
		{"Coherent", func(ss []*Sample) []float64 { return coh.forwardBatch(ss, nil).Data }, func(ss []*Sample, out []float64) { coh.PredictBatchInto(ss, ws, out) }},
	}
	for _, m := range models {
		for _, bs := range []int{1, 3, 8} {
			for lo := 0; lo < len(samples); lo += bs {
				hi := lo + bs
				if hi > len(samples) {
					hi = len(samples)
				}
				want := m.batch(samples[lo:hi])
				got := make([]float64, hi-lo)
				m.into(samples[lo:hi], got)
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s: batch size %d sample %d: pooled %v != training forward %v",
							m.name, bs, lo+j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestWorkspaceInterleavedScorersNoLeakage guards against cross-batch
// buffer leakage: two different models alternate batches over ONE
// workspace, and every result must equal the model's PredictBatch,
// which scores through a workspace of its own.
// Stale data surviving a Reset, a packed-weight cache collision, or a
// buffer handed to two tensors would all break the equality.
func TestWorkspaceInterleavedScorersNoLeakage(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	cnnA := NewCNN3D(tinyCNNConfig(), 31)
	sgA := NewSGCNN(tinySGConfig(), 32)
	a := NewFusion(DefaultCoherentConfig(), cnnA, sgA, 33)
	cnnB := NewCNN3D(tinyCNNConfig(), 41)
	sgB := NewSGCNN(tinySGConfig(), 42)
	b := NewFusion(DefaultMidFusionConfig(), cnnB, sgB, 43)

	ws := NewWorkspaceFor(PrecisionF64)
	out := make([]float64, len(samples))
	for round := 0; round < 3; round++ {
		for bi, m := range []*Fusion{a, b} {
			// Vary batch geometry across rounds to stress the size classes.
			bs := 2 + round*2 + bi
			for lo := 0; lo < len(samples); lo += bs {
				hi := lo + bs
				if hi > len(samples) {
					hi = len(samples)
				}
				m.PredictBatchInto(samples[lo:hi], ws, out[lo:hi])
				want := m.PredictBatch(samples[lo:hi])
				for j := range want {
					if out[lo+j] != want[j] {
						t.Fatalf("round %d model %d batch [%d,%d) sample %d: interleaved %v != fresh %v",
							round, bi, lo, hi, lo+j, out[lo+j], want[j])
					}
				}
			}
		}
	}
}

// TestPredictBatchIntoZeroAlloc pins the tentpole: a warm steady-state
// batch through the full Coherent Fusion stack (both heads, fusion
// layers) performs zero heap allocations.
func TestPredictBatchIntoZeroAlloc(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	cnn := NewCNN3D(tinyCNNConfig(), 51)
	sg := NewSGCNN(tinySGConfig(), 52)
	f := NewFusion(DefaultCoherentConfig(), cnn, sg, 53)
	ws := NewWorkspaceFor(PrecisionF64)
	out := make([]float64, len(samples))
	run := func() { f.PredictBatchInto(samples, ws, out) }
	for i := 0; i < 3; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("warm PredictBatchInto allocates %.1f times per run, want 0", avg)
	}
}

// TestFeaturizeComplexWithPrefeatureMatchesFresh pins the cached
// loader path at the Sample level: featurizing through a shared pocket
// prefeature into a recycled slot — including a slot whose grid holds
// another pocket's baseline, and across two different pockets'
// prefeatures — equals a fresh FeaturizeComplex bit-for-bit.
func TestFeaturizeComplexWithPrefeatureMatchesFresh(t *testing.T) {
	ds := dataset(t)
	vo := tinyCNNConfig().Voxel
	gro := tinySGConfig().Graph
	c1, c2, c3 := ds.Core[0], ds.Core[1], ds.Core[2]
	pre1 := featurize.NewPocketPrefeature(c1.Pocket, vo, gro)
	pre3 := featurize.NewPocketPrefeature(c3.Pocket, vo, gro)

	// Start the slot on another pocket's prefeature, then move it to
	// pre1 — the slot must detect the foreign grid.
	slot := FeaturizeComplexWithPrefeature(nil, pre3, c3.ID, c3.Mol, 3)
	steps := []struct {
		pre *featurize.PocketPrefeature
		c   *pdbbind.Complex
	}{
		{pre1, c1},
		{pre1, c2},
		{pre3, c3},
		{pre1, c1},
	}
	for i, st := range steps {
		slot = FeaturizeComplexWithPrefeature(slot, st.pre, st.c.ID, st.c.Mol, float64(i))
		want := FeaturizeComplex(st.c.ID, st.c.Pocket, st.c.Mol, float64(i), vo, gro)
		if slot.ID != want.ID || slot.Label != want.Label || slot.Pocket != want.Pocket {
			t.Fatalf("step %d identity: got %s/%v want %s/%v", i, slot.ID, slot.Label, want.ID, want.Label)
		}
		for j := range want.Voxels.Data {
			if slot.Voxels.Data[j] != want.Voxels.Data[j] {
				t.Fatalf("step %d: voxel %d differs from fresh featurization", i, j)
			}
		}
		if slot.Graph.NumNodes() != want.Graph.NumNodes() ||
			len(slot.Graph.Covalent) != len(want.Graph.Covalent) ||
			len(slot.Graph.NonCov) != len(want.Graph.NonCov) {
			t.Fatalf("step %d: graph geometry differs from fresh featurization", i)
		}
		for j := range want.Graph.Nodes.Data {
			if slot.Graph.Nodes.Data[j] != want.Graph.Nodes.Data[j] {
				t.Fatalf("step %d: node feature %d differs from fresh featurization", i, j)
			}
		}
		for j, e := range want.Graph.NonCov {
			if slot.Graph.NonCov[j] != e {
				t.Fatalf("step %d: non-covalent edge %d differs from fresh featurization", i, j)
			}
		}
	}
}
