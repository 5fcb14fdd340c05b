package screen

import (
	"context"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/target"
)

func allocTestScorer(seed int64) *fusion.Fusion {
	cnn := fusion.NewCNN3D(fusion.DefaultCNN3DConfig(), seed)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), seed+1)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, seed+2)
}

func allocTestSamples(t testing.TB, f *fusion.Fusion, n int) []*fusion.Sample {
	t.Helper()
	vo := f.CNN.Cfg.Voxel
	gro := f.SG.Cfg.Graph
	var samples []*fusion.Sample
	for i := 0; len(samples) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		samples = append(samples, fusion.FeaturizeComplex(m.Name, target.Protease1, m, 0, vo, gro))
	}
	return samples
}

// TestWarmRankLoopZeroAlloc is the allocation-regression pin of the
// tentpole: the steady-state scoring step of a rank — a full batch
// through the production-config Coherent Fusion scorer's ScoreInto,
// exactly what runRanks' flush does — performs zero heap allocations
// once the rank's workspace is warm. The pin
// covers both engine precisions: the f32 fast path must hold the same
// zero-allocation bar as the f64 reference.
func TestWarmRankLoopZeroAlloc(t *testing.T) {
	for _, p := range []Precision{PrecisionF64, PrecisionF32} {
		t.Run(string(p), func(t *testing.T) {
			f := allocTestScorer(61)
			samples := allocTestSamples(t, f, 8)
			ws := fusion.NewWorkspaceFor(p)
			out := make([]float64, len(samples))
			var s Scorer = f
			loop := func() { s.ScoreInto(samples, ws, out) }
			for i := 0; i < 3; i++ {
				loop() // warm the workspace pools and packed-weight caches
			}
			if avg := testing.AllocsPerRun(50, loop); avg != 0 {
				t.Fatalf("warm rank scoring loop allocates %.1f times per batch, want 0", avg)
			}
		})
	}
}

// TestSteadyStatePrefeatureReuse pins the fix for a steady-state
// allocation regression: jobs that do not inject a prefeature made
// the engine rebuild the target-invariant cache (~500 allocations,
// ~300 KB) on every RunJob call. The regressed configuration — the
// default job options, nil Prefeature — must now reuse the previous
// job's prefeature: same pointer, zero allocations once warm.
func TestSteadyStatePrefeatureReuse(t *testing.T) {
	vo := featurize.DefaultVoxelOptions()
	gro := featurize.DefaultGraphOptions()
	a := cachedPrefeature(target.Protease1, vo, gro)
	b := cachedPrefeature(target.Protease1, vo, gro)
	if a != b {
		t.Fatal("consecutive same-target jobs rebuilt the prefeature")
	}
	if avg := testing.AllocsPerRun(10, func() { cachedPrefeature(target.Protease1, vo, gro) }); avg != 0 {
		t.Fatalf("warm prefeature lookup allocates %.1f times per job, want 0", avg)
	}
	// A different target (or options) must rebuild, then re-steady.
	po := featurize.PaperVoxelOptions()
	c := cachedPrefeature(target.Protease1, po, gro)
	if c == a {
		t.Fatal("option change did not rebuild the prefeature")
	}
	if d := cachedPrefeature(target.Protease1, po, gro); d != c {
		t.Fatal("second job after option change rebuilt the prefeature again")
	}
}

// TestWarmFeaturizingLoaderZeroAlloc extends the allocation pin to the
// loader side of the rank loop: featurizing a stream of poses into one
// recycled slot through a shared pocket prefeature — exactly what a
// warm loader does per pose — performs zero heap allocations. Together
// with TestWarmRankLoopZeroAlloc this covers the whole steady-state
// path from pose to prediction.
func TestWarmFeaturizingLoaderZeroAlloc(t *testing.T) {
	vo := featurize.DefaultVoxelOptions()
	gro := featurize.DefaultGraphOptions()
	pre := featurize.NewPocketPrefeature(target.Protease1, vo, gro)
	var poses []Pose
	for i := 0; len(poses) < 6; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		poses = append(poses, Pose{CompoundID: m.Name, Mol: m})
	}
	slot := &fusion.Sample{}
	i := 0
	loop := func() {
		ps := poses[i%len(poses)]
		fusion.FeaturizeComplexWithPrefeature(slot, pre, ps.CompoundID, ps.Mol, 0)
		i++
	}
	// Warm-up must see every pose so the slot's buffers and scratch
	// grow to the stream's maximum before measuring.
	for w := 0; w < 2*len(poses); w++ {
		loop()
	}
	if avg := testing.AllocsPerRun(60, loop); avg != 0 {
		t.Fatalf("warm featurizing loader allocates %.1f times per pose, want 0", avg)
	}
}

// TestEnsembleSharedWorkspaceMatchesSoloRuns guards the engine-level
// buffer-isolation contract: a rank's single workspace is shared by
// every scorer it scores with, so an ensemble job's per-scorer
// predictions must be byte-identical to running each scorer in its own
// job (its own workspaces). Cross-scorer buffer leakage or a packing
// cache collision would break the equality.
func TestEnsembleSharedWorkspaceMatchesSoloRuns(t *testing.T) {
	a := allocTestScorer(71)
	b := allocTestScorer(81)
	// Distinct names so the ensemble accepts both Coherent models.
	sa := renamed{Scorer: a, name: "coherent_a"}
	sb := renamed{Scorer: b, name: "coherent_b"}
	var poses []Pose
	for i := 0; len(poses) < 10; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		poses = append(poses, Pose{CompoundID: m.Name, PoseRank: 0, Mol: m, VinaScore: -6})
	}
	o := DefaultJobOptions()
	o.Ranks = 2
	o.LoadersPerRank = 2
	o.BatchSize = 3 // remainder batch exercises mixed shapes in one workspace

	both, err := RunJobEnsemble(context.Background(), []Scorer{sa, sb}, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	soloA, err := RunJob(context.Background(), sa, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	soloB, err := RunJob(context.Background(), sb, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range poses {
		if got, want := both[i].Scores["coherent_a"], soloA[i].Fusion; got != want {
			t.Fatalf("pose %d scorer a: shared-workspace %v != solo %v", i, got, want)
		}
		if got, want := both[i].Scores["coherent_b"], soloB[i].Fusion; got != want {
			t.Fatalf("pose %d scorer b: shared-workspace %v != solo %v", i, got, want)
		}
	}
}

// renamed wraps a scorer with a distinct stable name, forwarding the
// rest of the contract to the wrapped scorer.
type renamed struct {
	Scorer
	name string
}

func (r renamed) Name() string { return r.name }
