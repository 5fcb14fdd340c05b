package deepfusion

// Ablation benchmarks for the design choices DESIGN.md calls out:
// the rotation augmentation of the 3D-CNN input, PB2 against random
// search at equal budget, coherent backpropagation against frozen
// heads, and the real (goroutine-measured) strong scaling of the
// distributed scoring job.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"deepfusion/internal/assay"
	"deepfusion/internal/chem"
	"deepfusion/internal/dock"
	"deepfusion/internal/experiments"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/hpo"
	"deepfusion/internal/libgen"
	"deepfusion/internal/md"
	"deepfusion/internal/pdbbind"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

func ablationSamples(n int) (train, val []*fusion.Sample) {
	ds := pdbbind.Generate(pdbbind.Options{
		NGeneral: n, NRefined: n / 2, NCore: 8, ValFraction: 0.15, NumPockets: 6, Seed: 505,
	})
	vo := featurize.DefaultVoxelOptions()
	gr := featurize.DefaultGraphOptions()
	return fusion.FeaturizeDataset(ds.Train, vo, gr), fusion.FeaturizeDataset(ds.Val, vo, gr)
}

// BenchmarkAblationRotationAugmentation compares 3D-CNN validation MSE
// with and without the paper's 10%-per-axis rotation augmentation
// (Section 3.3.1 argues it prevents learning rotation-dependent
// features).
func BenchmarkAblationRotationAugmentation(b *testing.B) {
	b.ReportAllocs()
	var withAug, noAug float64
	for i := 0; i < b.N; i++ {
		train, val := ablationSamples(160)
		cfg := fusion.DefaultCNN3DConfig()
		cfg.Epochs = 4
		_, histAug := fusion.TrainCNN3D(cfg, train, val, 71)
		withAug = histAug.Best()
		// Disable augmentation by pre-rotating nothing: training without
		// the augmented stack is modeled by a zero-probability variant.
		noAugTrain := make([]*fusion.Sample, len(train))
		copy(noAugTrain, train)
		_, histNo := fusion.TrainCNN3DNoAugment(cfg, noAugTrain, val, 71)
		noAug = histNo.Best()
	}
	b.StopTimer()
	fmt.Printf("Ablation (rotation augmentation): val MSE with=%.3f without=%.3f\n\n", withAug, noAug)
	b.ReportMetric(withAug, "val-mse-aug")
	b.ReportMetric(noAug, "val-mse-noaug")
}

// BenchmarkAblationPB2VsRandom compares PB2 against pure random search
// at an equal training budget on the SG-CNN space.
func BenchmarkAblationPB2VsRandom(b *testing.B) {
	b.ReportAllocs()
	var pb2Best, randBest float64
	for i := 0; i < b.N; i++ {
		train, val := ablationSamples(140)
		space := hpo.SGCNNSpaceRepro()
		obj := func(cfg hpo.Config, prev hpo.State, seed int64) (hpo.State, float64) {
			c := fusion.DefaultSGCNNConfig()
			c.BatchSize = int(cfg.Num["batch_size"])
			c.LearningRate = cfg.Num["learning_rate"]
			c.CovK = int(cfg.Num["cov_k"])
			c.NonCovK = int(cfg.Num["noncov_k"])
			c.CovGatherWidth = int(cfg.Num["cov_gather_width"])
			c.NonCovGatherWidth = int(cfg.Num["noncov_gather_width"])
			c.Epochs = 2
			if prev != nil {
				m := prev.(*fusion.SGCNN)
				h := fusion.ContinueSGCNN(m, c, train, val, seed)
				return m, h.ValLoss[len(h.ValLoss)-1]
			}
			m, h := fusion.TrainSGCNN(c, train, val, seed)
			return m, h.ValLoss[len(h.ValLoss)-1]
		}
		res := hpo.Run(space, obj, hpo.Options{Population: 6, QuantileFraction: 0.5, Rounds: 3, UCBBeta: 1, Seed: 81})
		pb2Best = res.Best.Loss
		// Random search: same number of trials, no exploit/explore.
		rng := rand.New(rand.NewSource(82))
		randBest = 1e18
		for t := 0; t < 6; t++ {
			var st hpo.State
			var loss float64
			cfg := space.Sample(rng)
			for r := 0; r < 3; r++ {
				st, loss = obj(cfg, st, int64(83+t*10+r))
			}
			if loss < randBest {
				randBest = loss
			}
		}
	}
	b.StopTimer()
	fmt.Printf("Ablation (PB2 vs random search, equal budget): PB2 best val MSE %.3f, random %.3f\n\n", pb2Best, randBest)
	b.ReportMetric(pb2Best, "pb2-best-mse")
	b.ReportMetric(randBest, "random-best-mse")
}

// BenchmarkAblationCoherence isolates the paper's key claim: with an
// identical fusion architecture, coherent backpropagation into the
// heads against frozen heads.
func BenchmarkAblationCoherence(b *testing.B) {
	b.ReportAllocs()
	var frozen, coherent float64
	for i := 0; i < b.N; i++ {
		train, val := ablationSamples(160)
		cnnCfg := fusion.DefaultCNN3DConfig()
		cnnCfg.Epochs = 3
		sgCfg := fusion.DefaultSGCNNConfig()
		cnn, _ := fusion.TrainCNN3D(cnnCfg, train, val, 91)
		sg, _ := fusion.TrainSGCNN(sgCfg, train, val, 92)
		base := fusion.DefaultCoherentConfig()
		base.Epochs = 4

		frozenCfg := base
		frozenCfg.Coherent = false
		fFrozen := fusion.NewFusion(frozenCfg, cnn.Clone(), sg.Clone(), 93)
		fusion.TrainFusion(fFrozen, train, val, 94)
		frozen = fusion.EvalFusion(fFrozen, val)

		cohCfg := base
		fCoh := fusion.NewFusion(cohCfg, cnn.Clone(), sg.Clone(), 93)
		fusion.TrainFusion(fCoh, train, val, 94)
		coherent = fusion.EvalFusion(fCoh, val)
	}
	b.StopTimer()
	fmt.Printf("Ablation (coherent backprop): val MSE frozen-heads=%.3f coherent=%.3f\n\n", frozen, coherent)
	b.ReportMetric(frozen, "frozen-val-mse")
	b.ReportMetric(coherent, "coherent-val-mse")
}

// BenchmarkRealRankScaling measures the actual wall-clock throughput
// of the distributed scoring job at 1, 2, 4 and 8 goroutine ranks —
// the real-concurrency counterpart of the simulated Figure 4.
func BenchmarkRealRankScaling(b *testing.B) {
	b.ReportAllocs()
	coherent := experiments.Coherent(experiments.Smoke)
	var mols []*chem.Mol
	for i := 0; len(mols) < 12; i++ {
		m, err := libgen.Enamine.Mol(i)
		if err != nil {
			continue
		}
		mols = append(mols, m)
	}
	poses, _, _ := screen.DockCompounds(context.Background(), target.Protease1, mols, 4, 303)
	fmt.Printf("Real rank scaling (%d poses, one model shared by every rank):\n", len(poses))
	for _, ranks := range []int{1, 2, 4, 8} {
		o := screen.DefaultJobOptions()
		o.Ranks = ranks
		var rate float64
		for i := 0; i < b.N; i++ {
			start := time.Now()
			preds, err := screen.RunJob(context.Background(), coherent, target.Protease1, poses, o)
			if err != nil {
				b.Fatal(err)
			}
			rate = float64(len(preds)) / time.Since(start).Seconds()
		}
		fmt.Printf("  ranks=%d  %.0f poses/s\n", ranks, rate)
		b.ReportMetric(rate, fmt.Sprintf("poses/s-r%d", ranks))
	}
	fmt.Println()
}

// BenchmarkFutureWorkFineTune demonstrates the paper's future-work
// direction: target-specific fine-tuning of the baseline Coherent
// Fusion model. It reports validation MSE on one binding site before
// and after specialization.
func BenchmarkFutureWorkFineTune(b *testing.B) {
	b.ReportAllocs()
	var before, after float64
	for i := 0; i < b.N; i++ {
		train, val := ablationSamples(160)
		cnnCfg := fusion.DefaultCNN3DConfig()
		cnnCfg.Epochs = 3
		cnn, _ := fusion.TrainCNN3D(cnnCfg, train, val, 301)
		sg, _ := fusion.TrainSGCNN(fusion.DefaultSGCNNConfig(), train, val, 302)
		cfg := fusion.DefaultCoherentConfig()
		cfg.Epochs = 3
		base := fusion.NewFusion(cfg, cnn, sg, 303)
		fusion.TrainFusion(base, train, val, 304)

		pocketName := train[0].Pocket.Name
		var tgtTrain, tgtVal []*fusion.Sample
		for _, s := range train {
			if s.Pocket.Name == pocketName {
				tgtTrain = append(tgtTrain, s)
			}
		}
		for _, s := range val {
			if s.Pocket.Name == pocketName {
				tgtVal = append(tgtVal, s)
			}
		}
		if len(tgtVal) == 0 {
			tgtVal = tgtTrain[:1]
		}
		before = fusion.EvalFusion(base, tgtVal)
		o := fusion.DefaultFineTuneOptions()
		o.Epochs = 4
		o.LearningRate = 3e-4
		ft, _ := fusion.FineTune(base, tgtTrain, tgtVal, o, 305)
		after = fusion.EvalFusion(ft, tgtVal)
	}
	b.StopTimer()
	fmt.Printf("Future work (target-specific fine-tuning): target val MSE before=%.3f after=%.3f\n\n", before, after)
	b.ReportMetric(before, "base-val-mse")
	b.ReportMetric(after, "finetuned-val-mse")
}

// BenchmarkFunnelMDRefinement measures the molecular-dynamics stage
// the paper cites as the final funnel step before experimental
// candidates are locked in (Section 3.1): how much the
// minimize-anneal-quench protocol improves docked top poses, and what
// it costs per pose relative to docking.
func BenchmarkFunnelMDRefinement(b *testing.B) {
	b.ReportAllocs()
	var mols []*chem.Mol
	for i := 0; len(mols) < 6; i++ {
		m, err := libgen.Enamine.Mol(i)
		if err != nil {
			continue
		}
		mols = append(mols, m)
	}
	var vinaBefore, vinaAfter, dockSec, mdSec float64
	var nPoses int
	for i := 0; i < b.N; i++ {
		vinaBefore, vinaAfter, dockSec, mdSec, nPoses = 0, 0, 0, 0, 0
		o := md.DefaultOptions()
		for j, m := range mols {
			so := dock.DefaultSearchOptions()
			so.Seed = int64(j + 1)
			start := time.Now()
			poses := dock.Dock(target.Protease1, m, so)
			dockSec += time.Since(start).Seconds()
			if len(poses) > 3 {
				poses = poses[:3]
			}
			start = time.Now()
			refined := md.RefineDockPoses(target.Protease1, poses, o)
			mdSec += time.Since(start).Seconds()
			vinaBefore += poses[0].Score
			vinaAfter += refined[0].Score
			nPoses += len(poses)
		}
	}
	b.StopTimer()
	n := float64(len(mols))
	fmt.Printf("Funnel (MD refinement): mean top-pose Vina %.2f -> %.2f kcal/mol; "+
		"%.1fms/pose MD vs %.1fms/compound docking\n\n",
		vinaBefore/n, vinaAfter/n, 1000*mdSec/float64(nPoses), 1000*dockSec/n)
	b.ReportMetric(vinaBefore/n, "vina-docked")
	b.ReportMetric(vinaAfter/n, "vina-mdrefined")
	b.ReportMetric(1000*mdSec/float64(nPoses), "md-ms/pose")
}

// BenchmarkAblationPB2VsPBT separates the two ingredients of the
// paper's optimizer: population training with exploit/explore (PBT,
// Jaderberg 2017) and the time-varying GP-bandit explore step that
// PB2 (Parker-Holder 2020) adds on top. All three optimizers get the
// identical training budget on the SG-CNN space.
func BenchmarkAblationPB2VsPBT(b *testing.B) {
	b.ReportAllocs()
	var pb2Best, pbtBest, randBest float64
	for i := 0; i < b.N; i++ {
		train, val := ablationSamples(140)
		space := hpo.SGCNNSpaceRepro()
		obj := func(cfg hpo.Config, prev hpo.State, seed int64) (hpo.State, float64) {
			c := fusion.DefaultSGCNNConfig()
			c.BatchSize = int(cfg.Num["batch_size"])
			c.LearningRate = cfg.Num["learning_rate"]
			c.CovK = int(cfg.Num["cov_k"])
			c.NonCovK = int(cfg.Num["noncov_k"])
			c.CovGatherWidth = int(cfg.Num["cov_gather_width"])
			c.NonCovGatherWidth = int(cfg.Num["noncov_gather_width"])
			c.Epochs = 2
			if prev != nil {
				m := prev.(*fusion.SGCNN)
				h := fusion.ContinueSGCNN(m, c, train, val, seed)
				return m, h.ValLoss[len(h.ValLoss)-1]
			}
			m, h := fusion.TrainSGCNN(c, train, val, seed)
			return m, h.ValLoss[len(h.ValLoss)-1]
		}
		o := hpo.Options{Population: 6, QuantileFraction: 0.5, Rounds: 3, UCBBeta: 1, Seed: 91}
		pb2Best = hpo.Run(space, obj, o).Best.Loss
		pbtBest = hpo.RunPBT(space, obj, o).Best.Loss
		randBest = hpo.RunRandomSearch(space, obj, o).Best.Loss
	}
	b.StopTimer()
	fmt.Printf("Ablation (optimizer ladder, equal budget): best val MSE PB2 %.3f, PBT %.3f, random %.3f "+
		"(ordering asserted on the clean synthetic objective in internal/hpo)\n\n",
		pb2Best, pbtBest, randBest)
	b.ReportMetric(pb2Best, "pb2-best-mse")
	b.ReportMetric(pbtBest, "pbt-best-mse")
	b.ReportMetric(randBest, "random-best-mse")
}

// BenchmarkAblationFlexibleDocking measures Vina-style torsional
// flexibility against the rigid-body default at the same Monte-Carlo
// proposal budget, on compounds with several rotatable bonds.
func BenchmarkAblationFlexibleDocking(b *testing.B) {
	b.ReportAllocs()
	smiles := []string{
		"CCOC(=O)CCc1ccccc1",
		"CCN(CC)CCNC(=O)c1ccccc1",
		"CC(C)CC(N)C(=O)OCC",
		"CCOC(=O)c1ccc(NC(C)=O)cc1",
	}
	var mols []*chem.Mol
	var totalRotors int
	for _, s := range smiles {
		m, err := chem.ParseSMILES(s)
		if err != nil {
			b.Fatal(err)
		}
		chem.Embed3D(m, 23)
		totalRotors += m.RotatableBonds()
		mols = append(mols, m)
	}
	var rigidBest, flexBest float64
	for i := 0; i < b.N; i++ {
		rigidBest, flexBest = 0, 0
		for j, m := range mols {
			o := dock.DefaultSearchOptions()
			o.MCSteps = 80
			o.Seed = int64(300 + j)
			rigidBest += dock.Dock(target.Protease1, m, o)[0].Score
			o.TorsionMoves = true
			flexBest += dock.Dock(target.Protease1, m, o)[0].Score
		}
	}
	b.StopTimer()
	n := float64(len(mols))
	fmt.Printf("Ablation (flexible docking): mean best score rigid %.2f vs flexible %.2f kcal/mol "+
		"(%d rotors across %d compounds)\n\n", rigidBest/n, flexBest/n, totalRotors, len(mols))
	b.ReportMetric(rigidBest/n, "rigid-best-kcal")
	b.ReportMetric(flexBest/n, "flex-best-kcal")
}

// BenchmarkLoaderVsInference quantifies Section 4.3's bottleneck
// claim: "the computational cost of pre-processing (file reading and
// data featurization) is the most significant bottleneck" and the GPU
// (here, the model forward pass) is intermittently idle. It measures
// per-pose featurization time against per-pose model inference time.
func BenchmarkLoaderVsInference(b *testing.B) {
	b.ReportAllocs()
	coherent := experiments.Coherent(experiments.Smoke)
	var mols []*chem.Mol
	for i := 0; len(mols) < 8; i++ {
		m, err := libgen.ChEMBL.Mol(i)
		if err != nil {
			continue
		}
		mols = append(mols, m)
	}
	poses, _, _ := screen.DockCompounds(context.Background(), target.Protease1, mols, 3, 777)
	vo := coherent.CNN.Cfg.Voxel
	gro := featurize.DefaultGraphOptions()

	var featSec, inferSec float64
	for i := 0; i < b.N; i++ {
		samples := make([]*fusion.Sample, len(poses))
		start := time.Now()
		for j, ps := range poses {
			samples[j] = fusion.FeaturizeComplex(ps.CompoundID, target.Protease1, ps.Mol, 0, vo, gro)
		}
		featSec = time.Since(start).Seconds()
		start = time.Now()
		for _, s := range samples {
			coherent.Predict(s)
		}
		inferSec = time.Since(start).Seconds()
	}
	b.StopTimer()
	perPoseFeat := 1000 * featSec / float64(len(poses))
	perPoseInfer := 1000 * inferSec / float64(len(poses))
	fmt.Printf("Bottleneck (Section 4.3): featurization %.2f ms/pose vs inference %.2f ms/pose. "+
		"On Lassen the ratio favors the V100 so featurization dominates; with this repo's CPU forward "+
		"pass inference dominates instead — the cluster simulator carries the paper-calibrated ratio.\n\n",
		perPoseFeat, perPoseInfer)
	b.ReportMetric(perPoseFeat, "featurize-ms/pose")
	b.ReportMetric(perPoseInfer, "infer-ms/pose")
}

// BenchmarkConfirmationScreen runs the paper's two-stage experimental
// protocol (Section 5.1: primary FRET / pseudo-virus screen, then an
// orthogonal confirmation assay) over a compound deck and reports the
// primary hit and confirmation rates per target.
func BenchmarkConfirmationScreen(b *testing.B) {
	b.ReportAllocs()
	mols := libgen.Draw(libgen.All(), 150)
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		for _, tgt := range target.All() {
			c := assay.Screen(tgt, mols, 33)
			lines = append(lines, fmt.Sprintf("  %-10s primary hits %3d/%d, confirmed %3d (rate %.2f)",
				tgt.Name, len(c.PrimaryHits), len(mols), len(c.Confirmed), c.ConfirmationRate()))
		}
	}
	b.StopTimer()
	fmt.Println("Confirmation screen (Section 5.1, two-stage assay protocol):")
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Println()
}
