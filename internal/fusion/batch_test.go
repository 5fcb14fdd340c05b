package fusion

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestPredictBatchMatchesPredict is the golden equivalence guarantee
// of the batched inference engine: for every model family and batch
// size, PredictBatch must reproduce per-sample Predict within 1e-9
// (in practice bitwise — batch composition never touches per-row
// math).
func TestPredictBatchMatchesPredict(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:8])
	cnn := NewCNN3D(tinyCNNConfig(), 91)
	sg := NewSGCNN(tinySGConfig(), 92)
	late := &LateFusion{CNN: cnn, SG: sg}
	mid := NewFusion(DefaultMidFusionConfig(), cnn, sg, 93)
	cohCfg := DefaultCoherentConfig()
	coh := NewFusion(cohCfg, cnn, sg, 94)

	models := []struct {
		name   string
		single func(s *Sample) float64
		batch  func(ss []*Sample) []float64
	}{
		{"CNN3D", func(s *Sample) float64 { return cnn.PredictBatch([]*Sample{s})[0] }, cnn.PredictBatch},
		{"SGCNN", func(s *Sample) float64 { return sg.PredictBatch([]*Sample{s})[0] }, sg.PredictBatch},
		{"Late", late.Predict, late.PredictBatch},
		{"Mid", mid.Predict, mid.PredictBatch},
		{"Coherent", coh.Predict, coh.PredictBatch},
	}
	for _, m := range models {
		want := make([]float64, len(samples))
		for i, s := range samples {
			want[i] = m.single(s)
		}
		for _, bs := range []int{1, 3, 8} {
			for lo := 0; lo < len(samples); lo += bs {
				hi := lo + bs
				if hi > len(samples) {
					hi = len(samples)
				}
				got := m.batch(samples[lo:hi])
				for j := range got {
					if d := math.Abs(got[j] - want[lo+j]); d > 1e-9 {
						t.Fatalf("%s: batch size %d sample %d: batched %v vs per-sample %v (|d|=%v)",
							m.name, bs, lo+j, got[j], want[lo+j], d)
					}
				}
			}
		}
	}
}

// TestPredictBatchEmpty keeps the degenerate case defined.
func TestPredictBatchEmpty(t *testing.T) {
	cnn := NewCNN3D(tinyCNNConfig(), 95)
	sg := NewSGCNN(tinySGConfig(), 96)
	f := NewFusion(DefaultCoherentConfig(), cnn, sg, 97)
	if got := f.PredictBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch produced %v", got)
	}
	if got := (&LateFusion{CNN: cnn, SG: sg}).PredictBatch(nil); len(got) != 0 {
		t.Fatalf("empty late batch produced %v", got)
	}
}

// TestPredictAllMatchesPredict pins the chunked path to the same
// guarantee across a batch-boundary-straddling sample count.
func TestPredictAllMatchesPredict(t *testing.T) {
	ds := dataset(t)
	n := predictChunk + 3
	if n > len(ds.Train) {
		n = len(ds.Train)
	}
	samples := featurized(t, ds.Train[:n])
	cnn := NewCNN3D(tinyCNNConfig(), 98)
	sg := NewSGCNN(tinySGConfig(), 99)
	f := NewFusion(DefaultCoherentConfig(), cnn, sg, 100)
	all := f.PredictAll(samples)
	if len(all) != len(samples) {
		t.Fatalf("PredictAll returned %d of %d", len(all), len(samples))
	}
	for i, s := range samples {
		if d := math.Abs(all[i] - f.Predict(s)); d > 1e-9 {
			t.Fatalf("sample %d: PredictAll %v vs Predict %v", i, all[i], f.Predict(s))
		}
	}
}

// TestPredictConcurrentOnOneModel has several goroutines evaluate one
// instance of every family at once, through PredictAll and
// PredictBatch, and checks each result against a serial run. Training
// evaluation scores through the inference path, which stashes nothing
// in the model, so under -race this shows no write to shared state.
func TestPredictConcurrentOnOneModel(t *testing.T) {
	ds := dataset(t)
	samples := featurized(t, ds.Core[:predictChunk+3])
	cnn := NewCNN3D(tinyCNNConfig(), 101)
	sg := NewSGCNN(tinySGConfig(), 102)
	late := &LateFusion{CNN: cnn, SG: sg}
	mid := NewFusion(DefaultMidFusionConfig(), cnn, sg, 103)
	coh := NewFusion(DefaultCoherentConfig(), cnn, sg, 104)
	models := []struct {
		name       string
		all, batch func([]*Sample) []float64
	}{
		{"CNN3D", cnn.PredictAll, cnn.PredictBatch},
		{"SGCNN", sg.PredictAll, sg.PredictBatch},
		{"Late", late.PredictAll, late.PredictBatch},
		{"Mid", mid.PredictAll, mid.PredictBatch},
		{"Coherent", coh.PredictAll, coh.PredictBatch},
	}
	want := make([][]float64, len(models))
	for i, m := range models {
		want[i] = m.all(samples)
	}
	const goroutines = 4
	errs := make(chan string, goroutines*len(models)*2)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := g * 3 // each goroutine's PredictBatch takes its own slice
			for i, m := range models {
				for j, v := range m.all(samples) {
					if v != want[i][j] {
						errs <- fmt.Sprintf("%s PredictAll sample %d: %v, serial %v", m.name, j, v, want[i][j])
					}
				}
				for j, v := range m.batch(samples[lo : lo+5]) {
					if v != want[i][lo+j] {
						errs <- fmt.Sprintf("%s PredictBatch sample %d: %v, serial %v", m.name, lo+j, v, want[i][lo+j])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
