package campaign_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	. "deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatchtest"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// run drives c to settlement on the campaign runtime, unobserved.
func run(ctx context.Context, c *Campaign) (*Result, error) {
	return dispatchtest.Run(ctx, c, dispatchtest.Hooks{})
}

// tinyModel builds an untrained (but functional and fully
// deterministic) Coherent Fusion model. Two calls with the same seeds
// produce identical weights, which is what lets a "separate process"
// resume reconstruct the scoring model exactly.
func tinyModel() *fusion.Fusion {
	cnnCfg := fusion.DefaultCNN3DConfig()
	cnnCfg.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	cnnCfg.ConvFilters1 = 4
	cnnCfg.ConvFilters2 = 6
	cnnCfg.DenseNodes = 8
	sgCfg := fusion.DefaultSGCNNConfig()
	sgCfg.CovGatherWidth = 6
	sgCfg.NonCovGatherWidth = 8
	cnn := fusion.NewCNN3D(cnnCfg, 1)
	sg := fusion.NewSGCNN(sgCfg, 2)
	return fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 3)
}

// tinyScorers is the single-Coherent scorer set most campaign tests
// run under; the ensemble and refusal semantics get their own tests.
func tinyScorers() []screen.Scorer {
	return []screen.Scorer{tinyModel()}
}

// tinyConfig is a two-target, six-compound campaign: three work units
// per target, small enough for unit tests, structured enough to
// exercise chunking, pooling and resume.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Targets = []string{"protease1", "spike1"}
	cfg.Compounds = 6
	cfg.ChunkSize = 2
	cfg.MaxPoses = 2
	cfg.Workers = 2
	cfg.TopN = 4
	cfg.Shards = 2
	cfg.Job = screen.DefaultJobOptions()
	cfg.Job.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	cfg.Seed = 11
	return cfg
}

// TestCampaignPrefeatureReusedAcrossChunks pins the campaign-level
// featurization cache: every compound chunk of a target shares one
// PocketPrefeature — built on the target's first unit, living with the
// campaign, not the unit — and a full run materializes exactly one
// cache entry per target.
func TestCampaignPrefeatureReusedAcrossChunks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := New(dir, tinyConfig(), tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	p1 := target.ByName("protease1")
	pfA, err := c.PrefeatureFor(p1)
	if err != nil {
		t.Fatal(err)
	}
	if pfA == nil {
		t.Fatal("featurizing scorer set must get a prefeature")
	}
	pfB, err := c.PrefeatureFor(p1)
	if err != nil {
		t.Fatal(err)
	}
	if pfA != pfB {
		t.Fatal("second chunk of the same target rebuilt the prefeature instead of reusing it")
	}
	if pfA.Pocket() != p1 {
		t.Fatalf("cached prefeature is for %s, want %s", pfA.Pocket().Name, p1.Name)
	}
	if _, err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if got := c.Prefeatures(); got != len(c.Config().Targets) {
		t.Fatalf("campaign built %d prefeatures for %d targets", got, len(c.Config().Targets))
	}
}

func TestCampaignRunsToCompletion(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := New(dir, tinyConfig(), tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerTarget) != 2 {
		t.Fatalf("want 2 target results, got %d", len(res.PerTarget))
	}
	for _, tr := range res.PerTarget {
		if len(tr.Selections) == 0 {
			t.Fatalf("target %s selected no compounds", tr.Target)
		}
		if tr.Screened == 0 {
			t.Fatalf("target %s screened no compounds", tr.Target)
		}
	}
	st := c.Status()
	if st.Done != st.Total || st.Total != 6 {
		t.Fatalf("want 6/6 units done, got %d/%d", st.Done, st.Total)
	}
	if !st.Finalized {
		t.Fatal("campaign not finalized")
	}
	// Every done unit left its shard files behind.
	for _, u := range c.Units() {
		if len(u.Shards) == 0 {
			t.Fatalf("unit %s has no shards", u.ID)
		}
		for _, s := range u.Shards {
			if _, err := os.Stat(filepath.Join(dir, s)); err != nil {
				t.Fatalf("unit %s shard missing: %v", u.ID, err)
			}
		}
	}
	// The cheap status path agrees with the live handle.
	rs, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Done != st.Done || rs.Poses != st.Poses || !rs.Finalized {
		t.Fatalf("ReadStatus %+v disagrees with Status %+v", rs, st)
	}
}

func TestNewRefusesExistingCampaign(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := New(dir, tinyConfig(), tinyScorers()); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dir, tinyConfig(), tinyScorers()); err == nil {
		t.Fatal("New must refuse a directory that already holds a campaign")
	}
}

func TestCampaignRejectsUnknownTarget(t *testing.T) {
	cfg := tinyConfig()
	cfg.Targets = []string{"protease1", "orf9b"}
	if _, err := New(filepath.Join(t.TempDir(), "camp"), cfg, tinyScorers()); err == nil {
		t.Fatal("unknown target must be rejected")
	}
}

func TestPaperScalePlanShape(t *testing.T) {
	ps := DefaultPaperScale()
	targets := []string{"protease1", "protease2", "spike1", "spike2"}
	jobs, err := ps.Plan(targets)
	if err != nil {
		t.Fatal(err)
	}
	perTarget := map[string]int{}
	poses := 0
	for _, j := range jobs {
		perTarget[j.Target]++
		poses += j.Spec.Poses
		if j.Spec.Nodes != ps.Job.Nodes {
			t.Fatalf("job shape drifted: %+v", j.Spec)
		}
	}
	want := ps.CompoundsPerTarget * ps.PosesPerCompound * len(targets)
	if poses != want {
		t.Fatalf("plan carries %d poses, want %d", poses, want)
	}
	for _, tgt := range targets {
		if perTarget[tgt] == 0 {
			t.Fatalf("target %s got no jobs", tgt)
		}
	}
}

func TestSimulateAtPaperScale(t *testing.T) {
	cfg := DefaultConfig() // all four targets
	ps := DefaultPaperScale()
	res, err := SimulateAtPaperScale(cfg, ps, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ps.CompoundsPerTarget * ps.PosesPerCompound * 4
	if res.PosesScored != want {
		t.Fatalf("scored %d poses, want %d", res.PosesScored, want)
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan must be positive")
	}
	// 500 nodes / 4-node jobs keeps ~125 jobs in flight, the paper's
	// concurrency regime.
	if res.PeakJobs < 100 || res.PeakJobs > 125 {
		t.Fatalf("peak concurrency %d outside the paper's ~125-job regime", res.PeakJobs)
	}
	if len(res.PerTarget) != 4 {
		t.Fatalf("want 4 per-target stats, got %d", len(res.PerTarget))
	}
	for _, st := range res.PerTarget {
		if st.PosesScored != ps.CompoundsPerTarget*ps.PosesPerCompound {
			t.Fatalf("target %s scored %d poses", st.Target, st.PosesScored)
		}
		if st.Finish <= 0 || st.Finish > res.Makespan {
			t.Fatalf("target %s finish %v outside campaign makespan %v", st.Target, st.Finish, res.Makespan)
		}
	}
	// At a ~3% four-node failure rate over ~125 jobs/target the paper
	// saw steady resubmissions; the simulator should too.
	if res.Resubmissions == 0 {
		t.Fatal("expected failure resubmissions at paper scale")
	}
}
