package screen

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"deepfusion/internal/chem"
	"deepfusion/internal/dock"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/libgen"
	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/target"
)

// tinyFusion builds an untrained (but functional) fusion model for
// architecture tests.
func tinyFusion(t *testing.T) *fusion.Fusion {
	t.Helper()
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
	cfg := fusion.DefaultCoherentConfig()
	return fusion.NewFusion(cfg, cnn, sg, 3)
}

func tinyJobOptions() JobOptions {
	o := DefaultJobOptions()
	o.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	return o
}

func testMols(t *testing.T, n int) []*chem.Mol {
	t.Helper()
	var mols []*chem.Mol
	for i := 0; len(mols) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		mols = append(mols, m)
	}
	return mols
}

func TestDockCompoundsProducesPoses(t *testing.T) {
	mols := testMols(t, 4)
	poses, problems, _ := DockCompounds(context.Background(), target.Spike1, mols, 3, 7)
	if len(poses) == 0 {
		t.Fatal("no poses")
	}
	if len(problems) == len(mols) {
		t.Fatal("all compounds skipped")
	}
	for _, p := range problems {
		if p.CompoundID == "" || p.Reason == "" {
			t.Fatalf("dock problem missing identity or reason: %+v", p)
		}
	}
	perCompound := map[string]int{}
	for _, p := range poses {
		perCompound[p.CompoundID]++
		if p.Mol == nil {
			t.Fatal("pose without coordinates")
		}
	}
	for id, n := range perCompound {
		if n > 3 {
			t.Fatalf("%s has %d poses, cap 3", id, n)
		}
	}
}

// TestDockCompoundsOrderIsInputOrder pins DockCompounds' output order
// to its input: poses grouped by compound in input order, then pose
// rank, and the same poses and problems on every run and at every
// GOMAXPROCS, whichever docking goroutine finishes first.
func TestDockCompoundsOrderIsInputOrder(t *testing.T) {
	mols := testMols(t, 6)
	type key struct {
		id   string
		rank int
		vina float64
	}
	run := func(procs int) ([]key, []DockProblem) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		poses, problems, err := DockCompounds(context.Background(), target.Spike1, mols, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]key, len(poses))
		for i, p := range poses {
			keys[i] = key{p.CompoundID, p.PoseRank, p.VinaScore}
		}
		return keys, problems
	}
	want, wantProblems := run(1)
	if len(want) == 0 {
		t.Fatal("no poses")
	}
	next := 0 // index in mols of the compound the next new pose must belong to
	for i, k := range want {
		if i > 0 && k.id == want[i-1].id {
			if k.rank < want[i-1].rank {
				t.Fatalf("pose %d: %s rank %d after rank %d", i, k.id, k.rank, want[i-1].rank)
			}
			continue
		}
		for next < len(mols) && mols[next].Name != k.id {
			next++
		}
		if next == len(mols) {
			t.Fatalf("pose %d: compound %s out of input order", i, k.id)
		}
		next++
	}
	for _, procs := range []int{2, 8, 1} {
		got, problems := run(procs)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(problems, wantProblems) {
			t.Fatalf("GOMAXPROCS=%d: DockCompounds output differs from the first run", procs)
		}
	}
}

// TestDockCompoundsRecoversDockingPanic pins that a panic while docking
// one compound becomes that compound's DockProblem: the process
// survives, and every other compound keeps its poses, in input order,
// exactly as a run without the failing compound produces them.
func TestDockCompoundsRecoversDockingPanic(t *testing.T) {
	mols := testMols(t, 4)
	bad := mols[1].Name
	defer func(orig func(*target.Pocket, *chem.Mol, dock.SearchOptions) []dock.Pose) { dockPoses = orig }(dockPoses)
	dockPoses = func(p *target.Pocket, m *chem.Mol, so dock.SearchOptions) []dock.Pose {
		if m.Name == bad {
			panic("bad geometry")
		}
		return dock.Dock(p, m, so)
	}
	poses, problems, err := DockCompounds(context.Background(), target.Spike1, mols, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := []DockProblem{{CompoundID: bad, Reason: "docking panicked: bad geometry"}}
	if !reflect.DeepEqual(problems, want) {
		t.Fatalf("problems = %v, want %v", problems, want)
	}
	others := append([]*chem.Mol{mols[0]}, mols[2:]...)
	wantPoses, _, err := DockCompounds(context.Background(), target.Spike1, others, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPoses) == 0 || !reflect.DeepEqual(poses, wantPoses) {
		t.Fatalf("the other compounds' poses changed: %d poses, want %d", len(poses), len(wantPoses))
	}
}

func TestRunJobScoresAllPoses(t *testing.T) {
	f := tinyFusion(t)
	mols := testMols(t, 3)
	poses, _, _ := DockCompounds(context.Background(), target.Spike1, mols, 2, 8)
	o := tinyJobOptions()
	preds, err := RunJob(context.Background(), f, target.Spike1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(poses) {
		t.Fatalf("predictions %d, poses %d", len(preds), len(poses))
	}
	ranksSeen := map[int]bool{}
	for i, pr := range preds {
		if pr.CompoundID != poses[i].CompoundID {
			t.Fatal("prediction order does not match input (allgather misaligned)")
		}
		if pr.Target != "spike1" {
			t.Fatalf("target %q", pr.Target)
		}
		ranksSeen[pr.Rank] = true
	}
	if len(ranksSeen) < 2 {
		t.Fatalf("work not distributed: only ranks %v", ranksSeen)
	}
}

func TestRunJobMatchesSerialPrediction(t *testing.T) {
	// The distributed job must produce exactly the same predictions as
	// serial inference with the same model.
	f := tinyFusion(t)
	mols := testMols(t, 2)
	poses, _, _ := DockCompounds(context.Background(), target.Protease1, mols, 2, 9)
	o := tinyJobOptions()
	preds, err := RunJob(context.Background(), f, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range poses {
		s := fusion.FeaturizeComplex(p.CompoundID, target.Protease1, p.Mol, 0, o.Voxel, o.Graph)
		want := f.Predict(s)
		if preds[i].Fusion != want {
			t.Fatalf("pose %d: distributed %v != serial %v", i, preds[i].Fusion, want)
		}
	}
}

func TestRunJobZeroRanksErrors(t *testing.T) {
	f := tinyFusion(t)
	o := tinyJobOptions()
	o.Ranks = 0
	if _, err := RunJob(context.Background(), f, target.Spike1, nil, o); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunJobFaultInjectionAndRetry(t *testing.T) {
	f := tinyFusion(t)
	mols := testMols(t, 1)
	poses, _, _ := DockCompounds(context.Background(), target.Spike1, mols, 1, 10)
	o := tinyJobOptions()
	o.FailureProb = 1.0
	if _, err := RunJob(context.Background(), f, target.Spike1, poses, o); !errors.Is(err, ErrJobFailed) {
		t.Fatalf("expected ErrJobFailed, got %v", err)
	}
	// Retry keeps resubmitting; with probability 1 it exhausts attempts.
	if _, attempts, err := RunJobWithRetry(context.Background(), f, target.Spike1, poses, o, 3); err == nil || attempts != 3 {
		t.Fatalf("retry should exhaust 3 attempts, got %d / %v", attempts, err)
	}
	// Moderate failure probability eventually succeeds.
	o.FailureProb = 0.5
	o.Seed = 2
	preds, attempts, err := RunJobWithRetry(context.Background(), f, target.Spike1, poses, o, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(poses) {
		t.Fatal("retry lost poses")
	}
	if attempts < 1 {
		t.Fatal("attempts must be >= 1")
	}
}

func TestDockCompoundsSeedsDifferForSameLengthNames(t *testing.T) {
	// The per-compound search seed hashes the compound name; two
	// compounds with identical structure but different (same-length)
	// names must not replay the same Monte-Carlo trajectory. With the
	// old len(name)-based seed their poses were coordinate-identical.
	mols := testMols(t, 1)
	a := mols[0]
	a.Name = "AAAAAAA"
	b := a.Clone()
	b.Name = "BBBBBBB"
	if compoundHash(a.Name) == compoundHash(b.Name) {
		t.Fatal("name hash collides for distinct same-length names")
	}
	poses, _, _ := DockCompounds(context.Background(), target.Spike1, []*chem.Mol{a, b}, 2, 31)
	byName := map[string][]Pose{}
	for _, p := range poses {
		byName[p.CompoundID] = append(byName[p.CompoundID], p)
	}
	pa, pb := byName["AAAAAAA"], byName["BBBBBBB"]
	if len(pa) == 0 || len(pb) == 0 {
		t.Fatalf("docking lost a compound: %d/%d poses", len(pa), len(pb))
	}
	// Same molecule, different seeds: the best poses must differ.
	if pa[0].VinaScore == pb[0].VinaScore && dock.RMSD(pa[0].Mol, pb[0].Mol) < 1e-9 {
		t.Fatal("same-length names replayed an identical search trajectory")
	}
}

func TestAggregateByCompound(t *testing.T) {
	preds := []Prediction{
		{CompoundID: "a", Target: "spike1", Fusion: 5, Vina: -6, MMGBSA: -20},
		{CompoundID: "a", Target: "spike1", Fusion: 7, Vina: -5, MMGBSA: -25},
		{CompoundID: "b", Target: "spike1", Fusion: 4, Vina: -8, MMGBSA: -15},
	}
	agg := AggregateByCompound(preds)
	if len(agg) != 2 {
		t.Fatalf("aggregated %d compounds", len(agg))
	}
	a := agg[0]
	if a.CompoundID != "a" || a.Fusion != 7 || a.Vina != -6 || a.MMGBSA != -25 {
		t.Fatalf("aggregation wrong: %+v", a)
	}
	if a.NumPoses != 2 {
		t.Fatalf("pose count %d", a.NumPoses)
	}
}

func TestAggregateSeparatesTargets(t *testing.T) {
	preds := []Prediction{
		{CompoundID: "a", Target: "spike1", Fusion: 5},
		{CompoundID: "a", Target: "spike2", Fusion: 6},
	}
	if agg := AggregateByCompound(preds); len(agg) != 2 {
		t.Fatalf("per-target aggregation collapsed: %d", len(agg))
	}
}

func TestSelectForExperiment(t *testing.T) {
	scores := []CompoundScore{
		{CompoundID: "weak", Fusion: 3, Vina: -3, AMPL: -5},
		{CompoundID: "strong", Fusion: 9, Vina: -10, AMPL: -30},
		{CompoundID: "mid", Fusion: 6, Vina: -6, AMPL: -15},
	}
	top := SelectForExperiment(scores, DefaultCostWeights(), 2)
	if len(top) != 2 || top[0].CompoundID != "strong" || top[1].CompoundID != "mid" {
		t.Fatalf("selection wrong: %+v", top)
	}
	all := SelectForExperiment(scores, DefaultCostWeights(), 10)
	if len(all) != 3 {
		t.Fatal("n > len must return all")
	}
}

func TestAttachAMPL(t *testing.T) {
	mols := testMols(t, 20)
	model := mmgbsa.NewAMPL(target.Spike1)
	if err := model.Fit(mols); err != nil {
		t.Fatal(err)
	}
	scores := []CompoundScore{{CompoundID: mols[0].Name}, {CompoundID: "missing"}}
	byID := map[string]*chem.Mol{mols[0].Name: mols[0]}
	AttachAMPL(scores, model, byID)
	if scores[0].AMPL == 0 {
		t.Fatal("AMPL score not attached")
	}
	if scores[1].AMPL != 0 {
		t.Fatal("missing compound must stay zero")
	}
}

func TestWriteShardsRoundTrip(t *testing.T) {
	preds := []Prediction{
		{CompoundID: "a", Target: "spike1", PoseRank: 0, Fusion: 5.5, Vina: -6, MMGBSA: -20},
		{CompoundID: "b", Target: "spike1", PoseRank: 1, Fusion: 4.5, Vina: -5, MMGBSA: -18},
		{CompoundID: "c", Target: "protease1", PoseRank: 0, Fusion: 6.5, Vina: -7, MMGBSA: -22},
	}
	files := WriteShards(preds, 2)
	if len(files) != 2 {
		t.Fatalf("shards %d", len(files))
	}
	// Every prediction must appear in exactly one shard, and shards
	// must survive serialization.
	total := 0
	for _, f := range files {
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := h5lite.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		dockG := back.Root().Lookup("dock")
		if dockG == nil {
			continue
		}
		for _, tgt := range dockG.Children() {
			ids, _ := dockG.Lookup(tgt).Strings("ids")
			fus, _ := dockG.Lookup(tgt).Floats("fusion_pk")
			if len(ids) != len(fus) {
				t.Fatal("column lengths differ")
			}
			total += len(ids)
		}
	}
	if total != len(preds) {
		t.Fatalf("shards hold %d rows, want %d", total, len(preds))
	}
}

func TestWriteShardsZeroShards(t *testing.T) {
	files := WriteShards(nil, 0)
	if len(files) != 1 {
		t.Fatal("zero shards must clamp to 1")
	}
}

func TestCostWeightsCombined(t *testing.T) {
	w := CostWeights{Fusion: 1, Vina: 0, AMPL: 0}
	cs := CompoundScore{Fusion: 7}
	if w.Combined(cs) != 7 {
		t.Fatal("fusion-only weighting")
	}
	w = CostWeights{Vina: 1}
	cs = CompoundScore{Vina: -13.6}
	if got := w.Combined(cs); got < 9.999 || got > 10.001 {
		t.Fatalf("vina conversion: %v", got)
	}
}

func TestWriteShardsManyPredictions(t *testing.T) {
	// At realistic volume the shards must preserve every row and keep
	// each compound's poses in a single shard (the paper's "each rank
	// writes compounds assigned to the same files").
	var preds []Prediction
	for i := 0; i < 1000; i++ {
		preds = append(preds, Prediction{
			CompoundID: "c" + string(rune('a'+i%26)),
			Target:     []string{"protease1", "spike1"}[i%2],
			PoseRank:   i % 10,
			Fusion:     float64(i) / 100,
		})
	}
	files := WriteShards(preds, 7)
	total := 0
	shardOfCompound := map[string]int{}
	for s, f := range files {
		dockG := f.Root().Lookup("dock")
		for _, tgt := range dockG.Children() {
			ids, _ := dockG.Lookup(tgt).Strings("ids")
			total += len(ids)
			for _, id := range ids {
				if prev, seen := shardOfCompound[id]; seen && prev != s {
					t.Fatalf("compound %s scattered across shards %d and %d", id, prev, s)
				}
				shardOfCompound[id] = s
			}
		}
	}
	if total != 1000 {
		t.Fatalf("lost rows: %d", total)
	}
	// The hash must still spread compounds across files (no degenerate
	// single-shard pileup).
	used := map[int]bool{}
	for _, s := range shardOfCompound {
		used[s] = true
	}
	if len(used) < 3 {
		t.Fatalf("26 compounds landed in only %d of 7 shards", len(used))
	}
}

func TestShardOfStable(t *testing.T) {
	// Shard assignment is a pure function of compound ID, matching
	// WriteShards row placement.
	preds := []Prediction{
		{CompoundID: "cmpd-a", Target: "spike1"},
		{CompoundID: "cmpd-b", Target: "spike1"},
		{CompoundID: "cmpd-a", Target: "protease1", PoseRank: 4},
	}
	files := WriteShards(preds, 5)
	for s, f := range files {
		dockG := f.Root().Lookup("dock")
		if dockG == nil {
			continue
		}
		for _, tgt := range dockG.Children() {
			ids, _ := dockG.Lookup(tgt).Strings("ids")
			for _, id := range ids {
				if want := ShardOf(id, 5); want != s {
					t.Fatalf("compound %s in shard %d, ShardOf says %d", id, s, want)
				}
			}
		}
	}
	if ShardOf("anything", 0) != 0 {
		t.Fatal("ShardOf must clamp non-positive shard counts")
	}
}

func TestRunJobConcurrentJobs(t *testing.T) {
	// Multiple jobs sharing one base model must be isolated: each rank
	// clones, so concurrent jobs cannot race (run under -race).
	f := tinyFusion(t)
	mols := testMols(t, 2)
	poses, _, _ := DockCompounds(context.Background(), target.Spike2, mols, 2, 30)
	o := tinyJobOptions()
	done := make(chan error, 3)
	for j := 0; j < 3; j++ {
		go func(seed int64) {
			oo := o
			oo.Seed = seed
			_, err := RunJob(context.Background(), f, target.Spike2, poses, oo)
			done <- err
		}(int64(j))
	}
	for j := 0; j < 3; j++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
