package fusion

import "deepfusion/internal/featurize"

// This file adapts every model family to the screening engine's
// Scorer contract (screen.Scorer): a stable Name, the FeatureOptions
// declaring the featurization each model consumes (so the engine
// featurizes each pose once and shares the sample across an
// ensemble), ScoreInto — the pooled inference path, PredictBatchInto,
// which stashes nothing and so is safe on one shared instance from any
// number of goroutines, each with its own Workspace — and the pK
// orientation. The fusion package does not import screen; the contract
// is satisfied structurally.

// FeatureOptions is the featurization a scorer requires, nil meaning
// "no requirement". It lives here (next to Sample and
// FeaturizeComplex) so model packages can declare their needs without
// importing the engine.
type FeatureOptions struct {
	Voxel *featurize.VoxelOptions
	Graph *featurize.GraphOptions
}

// Name identifies the voxel head in shard columns and manifests.
func (m *CNN3D) Name() string { return "cnn3d" }

// FeatureOptions declares the voxel grid this head consumes.
func (m *CNN3D) FeatureOptions() FeatureOptions {
	vo := m.Cfg.Voxel
	return FeatureOptions{Voxel: &vo}
}

// ScoreInto scores a batch through ws at its precision.
func (m *CNN3D) ScoreInto(samples []*Sample, ws *Workspace, out []float64) {
	m.PredictBatchInto(samples, ws, out)
}

// LowerIsBetter is false: the model predicts pK.
func (m *CNN3D) LowerIsBetter() bool { return false }

// Name identifies the graph head in shard columns and manifests.
func (m *SGCNN) Name() string { return "sgcnn" }

// FeatureOptions declares the complex graph this head consumes.
func (m *SGCNN) FeatureOptions() FeatureOptions {
	gro := m.Cfg.Graph
	return FeatureOptions{Graph: &gro}
}

// ScoreInto scores a batch through ws at its precision.
func (m *SGCNN) ScoreInto(samples []*Sample, ws *Workspace, out []float64) {
	m.PredictBatchInto(samples, ws, out)
}

// LowerIsBetter is false: the model predicts pK.
func (m *SGCNN) LowerIsBetter() bool { return false }

// Name identifies the prediction-averaging fusion strategy.
func (l *LateFusion) Name() string { return "late" }

// FeatureOptions declares both head representations.
func (l *LateFusion) FeatureOptions() FeatureOptions {
	vo, gro := l.CNN.Cfg.Voxel, l.SG.Cfg.Graph
	return FeatureOptions{Voxel: &vo, Graph: &gro}
}

// ScoreInto scores a batch through ws at its precision.
func (l *LateFusion) ScoreInto(samples []*Sample, ws *Workspace, out []float64) {
	l.PredictBatchInto(samples, ws, out)
}

// LowerIsBetter is false: the model predicts pK.
func (l *LateFusion) LowerIsBetter() bool { return false }

// Name distinguishes the two latent-fusion strategies sharing this
// type: "coherent" backpropagates into the heads, "mid" freezes them.
func (f *Fusion) Name() string {
	if f.Cfg.Coherent {
		return "coherent"
	}
	return "mid"
}

// FeatureOptions declares both head representations.
func (f *Fusion) FeatureOptions() FeatureOptions {
	vo, gro := f.CNN.Cfg.Voxel, f.SG.Cfg.Graph
	return FeatureOptions{Voxel: &vo, Graph: &gro}
}

// ScoreInto scores a batch through ws at its precision.
func (f *Fusion) ScoreInto(samples []*Sample, ws *Workspace, out []float64) {
	f.PredictBatchInto(samples, ws, out)
}

// LowerIsBetter is false: the model predicts pK.
func (f *Fusion) LowerIsBetter() bool { return false }
