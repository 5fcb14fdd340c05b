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
// partly, with non-zero conv biases: the voxel head runs over an active
// box smaller than the grid and reads a non-zero empty-grid response
// around it, so jobs exercise every piece of state the model shares
// across ranks.
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
// tensors and build or wait for the same weight forms and empty-grid
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

// TestWarmModelDoesNoWeightWorkPerJob counts, rather than times, what a
// job on an already-scored model must not do: no parameter is
// initialized (rank replicas alias the model's weights instead of being
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
