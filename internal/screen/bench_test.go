package screen

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"deepfusion/internal/chem"
	"deepfusion/internal/dock"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/target"
)

// The screening throughput benchmarks measure the tentpole of the
// batched inference engine: RunJob at the production BatchSize against
// the seed's per-sample baseline (BatchSize 1 with the direct
// reference convolution — exactly the pre-batching engine).
//
//	go test ./internal/screen/ -run xxx -bench BenchmarkRunJob -benchtime 5s
//
// reports poses/sec for both; the acceptance bar is >= 2x.

// benchFusion builds an untrained screening-default model (default
// voxel grid, default SG-CNN widths — the production configuration,
// not the test-sized one).
func benchFusion(tb testing.TB) *fusion.Fusion {
	tb.Helper()
	cnnCfg := fusion.DefaultCNN3DConfig()
	sgCfg := fusion.DefaultSGCNNConfig()
	cnn := fusion.NewCNN3D(cnnCfg, 1)
	sg := fusion.NewSGCNN(sgCfg, 2)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 3)
}

// benchPoses places the first n library compounds that build into the
// protease pocket, one pose each.
func benchPoses(tb testing.TB, n int) []Pose {
	tb.Helper()
	var poses []Pose
	for i := 0; len(poses) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		poses = append(poses, Pose{CompoundID: m.Name, PoseRank: 0, Mol: m, VinaScore: -6})
	}
	return poses
}

func runJobBench(b *testing.B, batchSize int, direct bool, precision Precision) {
	b.ReportAllocs()
	f := benchFusion(b)
	f.CNN.SetDirectConv(direct)
	poses := benchPoses(b, 24)
	o := DefaultJobOptions()
	o.Ranks = 2
	o.LoadersPerRank = 2
	o.BatchSize = batchSize
	o.Precision = precision
	var scored int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds, err := RunJob(context.Background(), f, target.Protease1, poses, o)
		if err != nil {
			b.Fatal(err)
		}
		atomic.AddInt64(&scored, int64(len(preds)))
	}
	b.StopTimer()
	b.ReportMetric(float64(scored)/b.Elapsed().Seconds(), "poses/s")
}

// BenchmarkRunJobPerSample is the seed baseline: one pose per
// inference call, direct convolution loops.
func BenchmarkRunJobPerSample(b *testing.B) { runJobBench(b, 1, true, PrecisionF64) }

// BenchmarkRunJobBatchSize1 isolates the batch-dimension win: the
// scatter convolution still scoring one pose at a time.
func BenchmarkRunJobBatchSize1(b *testing.B) { runJobBench(b, 1, false, PrecisionF64) }

// BenchmarkRunJobBatched is the production path: BatchSize 8 on the
// scatter convolution, f64 reference arithmetic.
func BenchmarkRunJobBatched(b *testing.B) { runJobBench(b, 8, false, PrecisionF64) }

// BenchmarkRunJobBatchedF32 is the production path on the f32 fast
// path — the engine-level memory-traffic win of the precision knob.
func BenchmarkRunJobBatchedF32(b *testing.B) { runJobBench(b, 8, false, PrecisionF32) }

// BenchmarkRunJobBatched56 is the paper's per-GPU maximum batch.
func BenchmarkRunJobBatched56(b *testing.B) {
	b.ReportAllocs()
	f := benchFusion(b)
	poses := benchPoses(b, 56)
	o := DefaultJobOptions()
	o.Ranks = 1
	o.LoadersPerRank = 4
	o.BatchSize = 56
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunJob(context.Background(), f, target.Protease1, poses, o); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchedBeatsPerSample is the acceptance guard for the batched
// engine: scoring the same job must be at least 2x faster than the
// seed's per-sample baseline (BenchmarkRunJobPerSample's job). It takes
// a few seconds, so it stays in tier 1; -short skips it.
func TestBatchedBeatsPerSample(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	f := benchFusion(t)
	poses := benchPoses(t, 16)
	o := DefaultJobOptions()
	o.Ranks = 2
	o.LoadersPerRank = 2

	timeJob := func(batchSize int, direct bool) float64 {
		f.CNN.SetDirectConv(direct)
		defer f.CNN.SetDirectConv(false)
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := RunJob(context.Background(), f, target.Protease1, poses, o); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start).Seconds(); rep == 0 || el < best {
				best = el
			}
		}
		return best
	}
	o.BatchSize = 1
	baseline := timeJob(1, true)
	o.BatchSize = 8
	batched := timeJob(8, false)
	t.Logf("per-sample baseline %.3fs, batched %.3fs, speedup %.2fx", baseline, batched, baseline/batched)
	if batched*2 > baseline {
		t.Fatalf("batched engine %.3fs not 2x faster than per-sample baseline %.3fs (%.2fx)",
			batched, baseline, baseline/batched)
	}
}

// benchEnsemble is the consensus-bench scorer set: the Coherent model
// plus both physics surrogates — the paper's method families side by
// side.
func benchEnsemble(b *testing.B) []Scorer {
	return []Scorer{benchFusion(b), dock.VinaScorer{}, mmgbsa.Scorer{}}
}

// BenchmarkConsensusFeaturizeOnce measures the ensemble engine:
// featurize each pose once, score it with all three scorers in the
// same batch pass (`make bench-consensus`).
func BenchmarkConsensusFeaturizeOnce(b *testing.B) {
	b.ReportAllocs()
	scorers := benchEnsemble(b)
	poses := benchPoses(b, 24)
	o := DefaultJobOptions()
	o.Ranks = 2
	o.LoadersPerRank = 2
	var scored int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preds, err := RunJobEnsemble(context.Background(), scorers, target.Protease1, poses, o)
		if err != nil {
			b.Fatal(err)
		}
		atomic.AddInt64(&scored, int64(len(preds)))
	}
	b.StopTimer()
	b.ReportMetric(float64(scored)/b.Elapsed().Seconds(), "poses/s")
}

// BenchmarkConsensusIndependentRuns is the naive alternative the
// ensemble engine replaces: one full job per scorer, featurizing
// every pose N times.
func BenchmarkConsensusIndependentRuns(b *testing.B) {
	b.ReportAllocs()
	scorers := benchEnsemble(b)
	poses := benchPoses(b, 24)
	o := DefaultJobOptions()
	o.Ranks = 2
	o.LoadersPerRank = 2
	var scored int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scorers {
			preds, err := RunJob(context.Background(), s, target.Protease1, poses, o)
			if err != nil {
				b.Fatal(err)
			}
			atomic.AddInt64(&scored, int64(len(preds)))
		}
	}
	b.StopTimer()
	// poses/s of complete 3-scorer consensus rows, comparable to the
	// featurize-once number.
	b.ReportMetric(float64(scored)/float64(len(scorers))/b.Elapsed().Seconds(), "poses/s")
}

// fillConvBiases writes v into every convolution bias of the voxel
// head: zero leaves the background of the grid identically zero through
// the whole conv stack, non-zero makes every voxel carry the model's
// empty-grid response (and the pocket's baseline response a bias term),
// as a trained model's does.
func fillConvBiases(cnn *fusion.CNN3D, v float64) {
	for _, p := range cnn.Params() {
		if p.Name == "conv3d.b" {
			p.Update(func(w []float64) {
				for i := range w {
					w[i] = v
				}
			})
		}
	}
}

// paperFusion builds the untrained Coherent model at the paper shape
// (48^3 grid at 1 A, conv 32/64, dense 128) with convBias in every
// convolution bias.
func paperFusion(convBias float64) *fusion.Fusion {
	cfg := fusion.DefaultCNN3DConfig()
	cfg.Voxel = featurize.PaperVoxelOptions()
	cfg.ConvFilters1, cfg.ConvFilters2, cfg.DenseNodes = 32, 64, 128
	cnn := fusion.NewCNN3D(cfg, 46)
	fillConvBiases(cnn, convBias)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 47)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 48)
}

// runJobPaperBench is the screen_paper job of the repo benchmark as a
// `go test -bench` run: 12 poses, batch 2, 2 ranks, f32, shared
// prefeature, one warm-up job before the clock.
func runJobPaperBench(b *testing.B, convBias float64) {
	b.ReportAllocs()
	f := paperFusion(convBias)
	poses := benchPoses(b, 12)
	o := DefaultJobOptions()
	o.Ranks, o.LoadersPerRank, o.BatchSize, o.Precision = 2, 1, 2, PrecisionF32
	pre, err := PrefeatureFor([]Scorer{f}, target.Protease1, o)
	if err != nil {
		b.Fatal(err)
	}
	o.Prefeature = pre
	if _, err := RunJob(context.Background(), f, target.Protease1, poses, o); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunJob(context.Background(), f, target.Protease1, poses, o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(poses))/b.Elapsed().Seconds(), "poses/s")
}

// BenchmarkRunJobPaperF32 is the paper-shape job with zero conv
// biases (a freshly initialized model): the conv stack's background
// is exactly zero.
func BenchmarkRunJobPaperF32(b *testing.B) { runJobPaperBench(b, 0) }

// BenchmarkRunJobPaperF32Biased is the same job on a model whose conv
// biases are non-zero, as after training: dense inside the ligand's
// cone, the baseline response outside it.
func BenchmarkRunJobPaperF32Biased(b *testing.B) { runJobPaperBench(b, 0.01) }

// BenchmarkDockCompound docks one prepared library compound per
// operation through DockCompounds at the service's settings (3 poses;
// DockCompounds' 30 Monte-Carlo steps and 4 restarts), cycling over
// eight compounds: the per-compound cost the benchmark's
// dock.compound_ms reports.
//
//	make profile-dock
//
// profiles it.
func BenchmarkDockCompound(b *testing.B) {
	b.ReportAllocs()
	var mols []*chem.Mol
	for i := 0; len(mols) < 8; i++ {
		m, err := libgen.Enamine.Mol(i)
		if err != nil {
			continue
		}
		mols = append(mols, m)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DockCompounds(ctx, target.Protease1, mols[i%len(mols):][:1], 3, 41); err != nil {
			b.Fatal(err)
		}
	}
}
