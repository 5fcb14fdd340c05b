package screen

import (
	"context"
	"sync"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/nn"
	"deepfusion/internal/target"
)

// sparseGridScorer is a Coherent model on a grid the pocket fills only
// partly, with non-zero conv biases: the voxel head runs over a cone
// smaller than the grid and reads the pocket's baseline response — built
// over a non-zero empty-grid response — around it, so jobs exercise
// every piece of state the model shares across ranks.
func sparseGridScorer(seed int64) *fusion.Fusion {
	cfg := fusion.DefaultCNN3DConfig()
	cfg.Voxel = featurize.VoxelOptions{GridSize: 16, Resolution: 2.0, Sigma: 0.8}
	cnn := fusion.NewCNN3D(cfg, seed)
	fillConvBiases(cnn, 0.03)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), seed+1)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, seed+2)
}

// TestRanksAndSessionShareOneModel runs, all at once on one cold model,
// a multi-rank f32 job, a multi-rank f64 job and a session scoring
// batch after batch — every rank and the session read the same weight
// tensors and build or wait for the same weight forms and baseline
// response — and requires every score to equal a serial single-rank
// job on an identical model. Run under -race (CI does) it pins that
// nothing shared is written after it is published.
func TestRanksAndSessionShareOneModel(t *testing.T) {
	poses := sessionTestPoses(t, 13)
	o := DefaultJobOptions()
	o.Ranks, o.LoadersPerRank, o.BatchSize = 1, 1, 3

	serial := func(p Precision) []Prediction {
		oo := o
		oo.Precision = p
		preds, err := RunJob(context.Background(), sparseGridScorer(71), target.Protease1, poses, oo)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	want := map[Precision][]Prediction{PrecisionF64: serial(PrecisionF64), PrecisionF32: serial(PrecisionF32)}

	f := sparseGridScorer(71)
	check := func(who string, p Precision, got []Prediction) {
		for i := range got {
			if got[i].Fusion != want[p][i].Fusion {
				t.Errorf("%s pose %d: %v != serial %v", who, i, got[i].Fusion, want[p][i].Fusion)
			}
		}
	}
	var wg sync.WaitGroup
	job := func(who string, p Precision, ranks int) {
		defer wg.Done()
		oo := o
		oo.Precision, oo.Ranks = p, ranks
		got, err := RunJob(context.Background(), f, target.Protease1, poses, oo)
		if err != nil {
			t.Error(err)
			return
		}
		check(who, p, got)
	}
	wg.Add(3)
	go job("f32 job", PrecisionF32, 3)
	go job("f64 job", PrecisionF64, 2)
	go func() {
		defer wg.Done()
		oo := o
		oo.Precision = PrecisionF32
		sess, err := NewSession([]Scorer{f}, target.Protease1, oo, 0)
		if err != nil {
			t.Error(err)
			return
		}
		got := make([]Prediction, len(poses))
		for round := 0; round < 2; round++ {
			if err := sess.ScoreBatch(poses, got); err != nil {
				t.Error(err)
				return
			}
			check("session", PrecisionF32, got)
		}
	}()
	wg.Wait()
}

// TestSharedConsensusConcurrentScoring shares one cold Consensus of
// coherent, vina and mmgbsa across goroutines, each scoring through
// its own workspace and alternating f64 and f32, and requires every
// score to equal the serial one from an identical consensus. Run under
// -race it pins that a Consensus keeps no per-call state on itself.
func TestSharedConsensusConcurrentScoring(t *testing.T) {
	const name = "consensus(coherent+vina+mmgbsa)"
	samples := conformanceSamples(t, 4)
	precs := []Precision{PrecisionF64, PrecisionF32}
	serial := conformanceScorers(t)[name]
	want := make(map[Precision][]float64)
	for _, p := range precs {
		want[p] = scoreAll(serial, samples, fusion.NewWorkspaceFor(p))
	}

	shared := conformanceScorers(t)[name]
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := precs[g%2]
			ws := fusion.NewWorkspaceFor(p)
			for round := 0; round < 3; round++ {
				for j, v := range scoreAll(shared, samples, ws) {
					if v != want[p][j] {
						t.Errorf("goroutine %d %s sample %d: %v != serial %v", g, p, j, v, want[p][j])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmModelDoesNoWeightWorkPerJob counts, rather than times, what a
// job on an already-scored model must not do: no parameter is
// initialized (every rank scores the model itself instead of a copy
// constructed and overwritten) and no weight form is built (panels,
// scatter taps and f32 conversions belong to the model, not to the
// job's workspaces).
func TestWarmModelDoesNoWeightWorkPerJob(t *testing.T) {
	f := sparseGridScorer(81)
	poses := sessionTestPoses(t, 9)
	o := DefaultJobOptions()
	o.Ranks, o.LoadersPerRank, o.BatchSize, o.Precision = 2, 1, 4, PrecisionF32
	run := func() []Prediction {
		preds, err := RunJob(context.Background(), f, target.Protease1, poses, o)
		if err != nil {
			t.Fatal(err)
		}
		return preds
	}
	first := run()
	if nn.FormBuilds() == 0 {
		t.Fatal("the first job built no weight forms: the counter is not wired")
	}

	draws, builds := nn.GlorotInits(), nn.FormBuilds()
	second := run()
	sess, err := NewSession([]Scorer{f}, target.Protease1, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	third := make([]Prediction, len(poses))
	if err := sess.ScoreBatch(poses, third); err != nil {
		t.Fatal(err)
	}
	if d, b := nn.GlorotInits()-draws, nn.FormBuilds()-builds; d != 0 || b != 0 {
		t.Fatalf("a second job and a new session on a warm model initialized %d parameters and built %d weight forms, want 0 and 0", d, b)
	}
	for i := range first {
		if second[i].Fusion != first[i].Fusion || third[i].Fusion != first[i].Fusion {
			t.Fatalf("pose %d: warm job %v, session %v, first job %v", i, second[i].Fusion, third[i].Fusion, first[i].Fusion)
		}
	}
}

// TestRanksBuildOneResponsePerTarget counts, rather than times, the
// voxel head's per-target work: P ranks hitting a cold model at once,
// over several jobs at both widths on two targets, build the baseline
// response once per (target, width) — plus, since the model's conv
// biases are non-zero, the empty-grid response it is built over, once
// per width. Run under -race it pins that ranks share one build.
func TestRanksBuildOneResponsePerTarget(t *testing.T) {
	f := sparseGridScorer(91)
	poses := sessionTestPoses(t, 8)
	o := DefaultJobOptions()
	o.Ranks, o.LoadersPerRank, o.BatchSize = 3, 1, 2
	precisions := []Precision{PrecisionF64, PrecisionF32}
	targets := []*target.Pocket{target.Protease1, target.Spike1}
	builds := fusion.ResponseBuilds()
	for _, p := range targets {
		for _, prec := range precisions {
			o.Precision = prec
			for job := 0; job < 2; job++ {
				if _, err := RunJob(context.Background(), f, p, poses, o); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want := int64(len(targets)*len(precisions) + len(precisions))
	if got := fusion.ResponseBuilds() - builds; got != want {
		t.Fatalf("%d jobs on a cold model built %d responses, want %d", 2*len(targets)*len(precisions), got, want)
	}
}

// TestReproGridConeIsTheWholeGrid pins that the repro grid gains
// nothing from the cone plan and so runs the whole-grid instructions:
// for docked poses on all four pockets, scored in the engine's default
// batches at both widths by a model with non-zero conv biases, every
// batch's cone covers the whole 8^3 grid at every stage — a batch
// whose cone did not would have to build a response, and none is
// built. (A lone off-centre pose can leave the cone short of a grid
// face; it then reads the baseline response, with the same bits.)
func TestReproGridConeIsTheWholeGrid(t *testing.T) {
	cnn := fusion.NewCNN3D(fusion.DefaultCNN3DConfig(), 5)
	fillConvBiases(cnn, 0.05)
	o := DefaultJobOptions()
	o.Ranks, o.LoadersPerRank = 1, 1
	mols := testMols(t, 8)
	builds := fusion.ResponseBuilds()
	for i, p := range target.All() {
		poses, _, err := DockCompounds(context.Background(), p, mols, 3, int64(60+i))
		if err != nil {
			t.Fatal(err)
		}
		for _, prec := range []Precision{PrecisionF64, PrecisionF32} {
			o.Precision = prec
			if _, err := RunJob(context.Background(), cnn, p, poses, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := fusion.ResponseBuilds() - builds; got != 0 {
		t.Fatalf("docked poses on the repro grid built %d responses, want 0", got)
	}
}
