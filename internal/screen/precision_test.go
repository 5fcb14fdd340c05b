package screen

import (
	"context"
	"math"
	"sort"
	"testing"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/libgen"
	"deepfusion/internal/target"
)

// The precision A/B harness: the acceptance contract of the f32 fast
// path is rank fidelity, not bitwise scores. For every model family
// the engine runs the same screening job twice — once on the pinned
// f64 reference, once on the f32 path — over a library drawn from the
// planted-affinity oracle, and the two score columns must agree to
// Spearman >= 0.999 with top-K overlap >= 0.98. A funnel only acts on
// ranks (top-K promotion, per-compound max), so this is the exact
// property half-precision memory traffic must preserve.

const (
	minSpearman   = 0.999
	minTopKShared = 0.98
)

// rankVector assigns average ranks (ties share the mean rank), the
// standard preparation for a Spearman correlation.
func rankVector(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		mean := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mean
		}
		i = j + 1
	}
	return ranks
}

// spearman is the rank correlation of two score columns.
func spearman(a, b []float64) float64 {
	ra, rb := rankVector(a), rankVector(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// topKOverlap is the fraction of the two columns' top-k index sets
// (higher score = better) that coincide.
func topKOverlap(a, b []float64, k int) float64 {
	top := func(x []float64) map[int]bool {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(p, q int) bool { return x[idx[p]] > x[idx[q]] })
		set := make(map[int]bool, k)
		for _, i := range idx[:k] {
			set[i] = true
		}
		return set
	}
	ta, tb := top(a), top(b)
	shared := 0
	for i := range ta {
		if tb[i] {
			shared++
		}
	}
	return float64(shared) / float64(k)
}

// precisionPoses draws n distinct planted-affinity library compounds
// posed into the pocket, plus their oracle affinities.
func precisionPoses(t *testing.T, n int) ([]Pose, []float64) {
	t.Helper()
	var poses []Pose
	var oracle []float64
	for i := 0; len(poses) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		poses = append(poses, Pose{CompoundID: m.Name, PoseRank: 0, Mol: m, VinaScore: -6})
		oracle = append(oracle, target.Protease1.TrueAffinity(m))
	}
	return poses, oracle
}

// abScores runs the same job at both precisions and returns the two
// Fusion score columns in pose order.
func abScores(t *testing.T, s Scorer, poses []Pose, o JobOptions) (f64, f32 []float64) {
	t.Helper()
	run := func(p Precision) []float64 {
		o := o
		o.Precision = p
		preds, err := RunJob(context.Background(), s, target.Protease1, poses, o)
		if err != nil {
			t.Fatalf("%s RunJob: %v", p, err)
		}
		scores := make([]float64, len(preds))
		for i, pr := range preds {
			scores[i] = pr.Fusion
		}
		return scores
	}
	return run(PrecisionF64), run(PrecisionF32)
}

// checkRankFidelity asserts the A/B acceptance bars on one family's
// two score columns.
func checkRankFidelity(t *testing.T, name string, f64s, f32s, oracle []float64, k int) {
	t.Helper()
	if rho := spearman(f64s, f32s); rho < minSpearman {
		t.Errorf("%s: f32-vs-f64 Spearman %.6f < %.3f", name, rho, minSpearman)
	}
	if ov := topKOverlap(f64s, f32s, k); ov < minTopKShared {
		t.Errorf("%s: top-%d overlap %.3f < %.2f", name, k, ov, minTopKShared)
	}
	// The two precisions must also see the planted truth identically:
	// whatever (un)trained correlation the family has with the oracle,
	// halving the arithmetic width must not move it.
	r64, r32 := spearman(f64s, oracle), spearman(f32s, oracle)
	if d := math.Abs(r64 - r32); d > 0.005 {
		t.Errorf("%s: oracle Spearman moved %.4f between precisions (f64 %.4f, f32 %.4f)",
			name, d, r64, r32)
	}
}

// TestPrecisionABRankFidelity is the engine-level A/B harness at the
// reproduction grid: every model family, production configs, 120
// library poses through RunJob at both precisions.
func TestPrecisionABRankFidelity(t *testing.T) {
	poses, oracle := precisionPoses(t, 120)
	cnn := fusion.NewCNN3D(fusion.DefaultCNN3DConfig(), 11)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 12)
	families := []struct {
		name string
		s    Scorer
	}{
		{"cnn3d", cnn.Clone()},
		{"sgcnn", sg.Clone()},
		{"late", &fusion.LateFusion{CNN: cnn.Clone(), SG: sg.Clone()}},
		{"mid", fusion.NewFusion(fusion.DefaultMidFusionConfig(), cnn.Clone(), sg.Clone(), 13)},
		{"coherent", fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn.Clone(), sg.Clone(), 14)},
	}
	o := DefaultJobOptions()
	o.Ranks = 2
	o.LoadersPerRank = 2
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			f64s, f32s := abScores(t, fam.s, poses, o)
			checkRankFidelity(t, fam.name, f64s, f32s, oracle, 100)
		})
	}
}

// TestPrecisionABPaperGrid extends the harness to the paper's 48^3
// voxel grid (~200x the per-pose compute of the repro grid). Pose
// count and conv widths are reduced to keep tier-1 time sane — the
// coverage target is the grid geometry (boundary clipping,
// 110k-position accumulations), which filter count
// does not change. At 6 poses the Spearman bar only passes if the f32
// ordering is identical to f64's.
func TestPrecisionABPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-grid voxel compute")
	}
	poses, oracle := precisionPoses(t, 4)
	cnnCfg := fusion.DefaultCNN3DConfig()
	cnnCfg.Voxel = featurize.PaperVoxelOptions()
	cnnCfg.ConvFilters1 = 8
	cnnCfg.ConvFilters2 = 12
	cnnCfg.DenseNodes = 32
	cnn := fusion.NewCNN3D(cnnCfg, 21)
	sg := fusion.NewSGCNN(fusion.DefaultSGCNNConfig(), 22)
	coh := fusion.NewFusion(fusion.DefaultCoherentConfig(), cnn, sg, 23)
	o := DefaultJobOptions()
	o.Ranks = 1
	o.LoadersPerRank = 2
	f64s, f32s := abScores(t, coh, poses, o)
	checkRankFidelity(t, "coherent@paper", f64s, f32s, oracle, len(poses)/2)
}
