package screen

import (
	"context"
	"math"
	"testing"

	"deepfusion/internal/dock"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/target"
)

// The Scorer conformance suite: every implementation of the scoring
// contract — all five fusion model families, both physics surrogates,
// and consensus — must satisfy the same invariants the engine relies
// on: a stable non-empty name, deterministic scores, batch ==
// per-sample composition independence, one score per sample in input
// order, and the same scores through any workspace of one precision
// (every rank scores the one shared instance through its own).

// Every production scorer satisfies the contract at compile time.
var (
	_ Scorer = (*fusion.CNN3D)(nil)
	_ Scorer = (*fusion.SGCNN)(nil)
	_ Scorer = (*fusion.LateFusion)(nil)
	_ Scorer = (*fusion.Fusion)(nil) // "mid" and "coherent"
	_ Scorer = dock.VinaScorer{}
	_ Scorer = mmgbsa.Scorer{}
	_ Scorer = (*Consensus)(nil)
)

// conformanceScorers builds one instance of every Scorer
// implementation (tiny untrained models: the contract is about
// architecture, not accuracy).
func conformanceScorers(t *testing.T) map[string]Scorer {
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
	midCfg := fusion.DefaultMidFusionConfig()
	coh := fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn.Clone(), sg.Clone(), 3)
	consensus, err := NewConsensus(coh.Clone(), dock.VinaScorer{}, mmgbsa.Scorer{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Scorer{
		"cnn3d":                           cnn,
		"sgcnn":                           sg,
		"late":                            &fusion.LateFusion{CNN: cnn.Clone(), SG: sg.Clone()},
		"mid":                             fusion.NewFusion(midCfg, cnn.Clone(), sg.Clone(), 4),
		"coherent":                        coh,
		"vina":                            dock.VinaScorer{},
		"mmgbsa":                          mmgbsa.Scorer{},
		"consensus(coherent+vina+mmgbsa)": consensus,
	}
}

// conformanceSamples featurizes a handful of docked poses with the
// tiny-model options shared by every conformance scorer.
func conformanceSamples(t *testing.T, n int) []*fusion.Sample {
	t.Helper()
	mols := testMols(t, n)
	poses, _, err := DockCompounds(context.Background(), target.Protease1, mols, 2, 51)
	if err != nil {
		t.Fatal(err)
	}
	if len(poses) < n {
		t.Fatalf("docking produced %d poses, need %d", len(poses), n)
	}
	vo := featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	gro := featurize.DefaultGraphOptions()
	samples := make([]*fusion.Sample, n)
	for i := 0; i < n; i++ {
		samples[i] = fusion.FeaturizeComplex(poses[i].CompoundID, target.Protease1, poses[i].Mol, 0, vo, gro)
	}
	return samples
}

func TestScorerConformance(t *testing.T) {
	samples := conformanceSamples(t, 5)
	for wantName, s := range conformanceScorers(t) {
		s := s
		t.Run(wantName, func(t *testing.T) {
			runScorerConformance(t, wantName, s, samples, PrecisionF64)
		})
	}
}

// TestScorerConformanceF32 reruns the whole conformance suite with
// every scorer scoring through f32 workspaces, exactly what a rank
// does when the job's Precision knob is "f32": the fast path is a
// precision choice, not a different contract, so the same invariants
// — name stability, determinism, batch composition independence, the
// same scores through any workspace — must hold verbatim. The physics
// surrogates ignore the workspace and stay precision-blind.
func TestScorerConformanceF32(t *testing.T) {
	samples := conformanceSamples(t, 5)
	for wantName, s := range conformanceScorers(t) {
		s := s
		t.Run(wantName, func(t *testing.T) {
			runScorerConformance(t, wantName, s, samples, PrecisionF32)
		})
	}
}

// scoreAll scores samples through ws into a fresh slice whose every
// slot starts as NaN, so a slot the scorer did not write shows.
func scoreAll(s Scorer, samples []*fusion.Sample, ws *fusion.Workspace) []float64 {
	out := make([]float64, len(samples))
	for i := range out {
		out[i] = math.NaN()
	}
	s.ScoreInto(samples, ws, out)
	return out
}

// runScorerConformance is the suite body, shared by the f64 and f32
// conformance runs: s scores through workspaces of precision prec.
func runScorerConformance(t *testing.T, wantName string, s Scorer, samples []*fusion.Sample, prec Precision) {
	t.Helper()
	ws := fusion.NewWorkspaceFor(prec)
	// Name stability: non-empty, the expected constant, and identical
	// on every call.
	if s.Name() == "" {
		t.Fatal("empty scorer name")
	}
	if got := s.Name(); got != wantName {
		t.Fatalf("Name() = %q, want %q", got, wantName)
	}
	if s.Name() != s.Name() {
		t.Fatal("Name() is not stable across calls")
	}

	// One score per sample: every slot written, none NaN or infinite.
	batch := scoreAll(s, samples, ws)
	for i, v := range batch {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sample %d scored %v", i, v)
		}
	}

	// Determinism: a second call reproduces the first exactly.
	again := scoreAll(s, samples, ws)
	for i := range batch {
		if batch[i] != again[i] {
			t.Fatalf("sample %d: %v then %v — scorer is not deterministic", i, batch[i], again[i])
		}
	}

	// Batch == per-sample: composition must not change a score.
	for i, smp := range samples {
		solo := scoreAll(s, []*fusion.Sample{smp}, ws)
		if math.IsNaN(solo[0]) {
			t.Fatal("singleton batch left its score unwritten")
		}
		if math.Abs(solo[0]-batch[i]) > 1e-9 {
			t.Fatalf("sample %d: batch %v != per-sample %v", i, batch[i], solo[0])
		}
	}

	// Workspace equivalence: another rank's workspace of the same
	// precision, scoring the same shared instance, reproduces the
	// scores exactly.
	other := scoreAll(s, samples, fusion.NewWorkspaceFor(prec))
	for i := range batch {
		if other[i] != batch[i] {
			t.Fatalf("sample %d: second workspace %v != first %v", i, other[i], batch[i])
		}
	}
}

// TestConsensusOrientsKcalMembers pins the consensus mix: kcal/mol
// members (lower better) are negated and converted to pK scale before
// averaging, so a strongly-bound pose raises the consensus.
func TestConsensusOrientsKcalMembers(t *testing.T) {
	samples := conformanceSamples(t, 2)
	vina := dock.VinaScorer{}
	c, err := NewConsensus(vina)
	if err != nil {
		t.Fatal(err)
	}
	ws := fusion.NewWorkspaceFor(fusion.PrecisionF64)
	raw := scoreAll(vina, samples, ws)
	mixed := scoreAll(c, samples, ws)
	for i := range raw {
		want := -raw[i] / kcalPerPK
		if math.Abs(mixed[i]-want) > 1e-12 {
			t.Fatalf("sample %d: consensus %v, want oriented %v", i, mixed[i], want)
		}
	}
}

func TestConsensusRejectsBadMemberSets(t *testing.T) {
	if _, err := NewConsensus(); err == nil {
		t.Fatal("empty consensus must be rejected")
	}
	if _, err := NewConsensus(dock.VinaScorer{}, dock.VinaScorer{}); err == nil {
		t.Fatal("duplicate members must be rejected")
	}
	// Conflicting featurization declarations cannot share one
	// featurization pass.
	cnnCfgA := fusion.DefaultCNN3DConfig()
	cnnCfgA.Voxel = featurize.VoxelOptions{GridSize: 4, Resolution: 6.0, Sigma: 0.8}
	cnnCfgA.ConvFilters1 = 4
	cnnCfgA.ConvFilters2 = 6
	cnnCfgA.DenseNodes = 8
	cnnCfgB := cnnCfgA
	cnnCfgB.Voxel.GridSize = 8
	sgCfg := fusion.DefaultSGCNNConfig()
	a := fusion.NewFusion(fusion.DefaultCoherentConfig(), fusion.NewCNN3D(cnnCfgA, 1), fusion.NewSGCNN(sgCfg, 2), 3)
	b := fusion.NewFusion(fusion.DefaultMidFusionConfig(), fusion.NewCNN3D(cnnCfgB, 4), fusion.NewSGCNN(sgCfg, 5), 6)
	if _, err := NewConsensus(a, b); err == nil {
		t.Fatal("conflicting voxel declarations must be rejected")
	}
}
