package fusion

import (
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/libgen"
	"deepfusion/internal/target"
)

// benchBatch featurizes n library poses at the production options.
func benchBatch(b *testing.B, n int) []*Sample {
	b.Helper()
	vo := featurize.DefaultVoxelOptions()
	gro := featurize.DefaultGraphOptions()
	var samples []*Sample
	for i := 0; len(samples) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		samples = append(samples, FeaturizeComplex(m.Name, target.Protease1, m, 0, vo, gro))
	}
	return samples
}

// BenchmarkPredictBatchInto pairs the whole Coherent Fusion forward
// (voxel head + graph head + fusion trunk) at both engine precisions
// on one production batch of 8. The workspace is warmed before the
// timer so the steady state is measured: the f32 sub-benchmark must
// stay at 0 allocs/op just like the reference. `make bench-precision`
// runs this pair.
func BenchmarkPredictBatchInto(b *testing.B) {
	cnn := NewCNN3D(DefaultCNN3DConfig(), 64)
	sg := NewSGCNN(DefaultSGCNNConfig(), 65)
	coh := NewFusion(DefaultCoherentConfig(), cnn, sg, 66)
	samples := benchBatch(b, 8)
	out := make([]float64, len(samples))

	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		b.Run(string(p), func(b *testing.B) {
			b.ReportAllocs()
			ws := NewWorkspaceFor(p)
			coh.PredictBatchInto(samples, ws, out) // warm packs and pools
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				coh.PredictBatchInto(samples, ws, out)
			}
		})
	}
}
