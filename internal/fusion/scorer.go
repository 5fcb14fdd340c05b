package fusion

import "deepfusion/internal/featurize"

// This file adapts every model family to the screening engine's
// Scorer contract (screen.Scorer): a stable Name, a batched
// ScoreBatch, the Featurizer handshake declaring the featurization
// each model consumes (so the engine featurizes each pose once and
// shares the sample across an ensemble), and the Cloner handshake
// that gives each simulated MPI rank its own weight-sharing replica —
// ScoreBatch runs the training Forward, whose per-layer stashes make
// one instance unsafe to score concurrently (see clone.go). The fusion
// package does not import screen; the contract is satisfied
// structurally.

// FeatureOptions is the Featurizer handshake payload: the
// featurization a scorer requires, nil meaning "no requirement". It
// lives here (next to Sample and FeaturizeComplex) so model packages
// can declare their needs without importing the engine.
type FeatureOptions struct {
	Voxel *featurize.VoxelOptions
	Graph *featurize.GraphOptions
}

// Name identifies the voxel head in shard columns and manifests.
func (m *CNN3D) Name() string { return "cnn3d" }

// ScoreBatch implements the screening scoring contract: one batched
// forward pass in inference mode.
func (m *CNN3D) ScoreBatch(samples []*Sample) []float64 { return m.PredictBatch(samples) }

// CloneScorer implements the replication handshake.
func (m *CNN3D) CloneScorer() any { return m.Replica() }

// FeatureOptions declares the voxel grid this head consumes.
func (m *CNN3D) FeatureOptions() FeatureOptions {
	vo := m.Cfg.Voxel
	return FeatureOptions{Voxel: &vo}
}

// Name identifies the graph head in shard columns and manifests.
func (m *SGCNN) Name() string { return "sgcnn" }

// ScoreBatch implements the screening scoring contract.
func (m *SGCNN) ScoreBatch(samples []*Sample) []float64 { return m.PredictBatch(samples) }

// CloneScorer implements the replication handshake.
func (m *SGCNN) CloneScorer() any { return m.Replica() }

// FeatureOptions declares the complex graph this head consumes.
func (m *SGCNN) FeatureOptions() FeatureOptions {
	gro := m.Cfg.Graph
	return FeatureOptions{Graph: &gro}
}

// Name identifies the prediction-averaging fusion strategy.
func (l *LateFusion) Name() string { return "late" }

// ScoreBatch implements the screening scoring contract.
func (l *LateFusion) ScoreBatch(samples []*Sample) []float64 { return l.PredictBatch(samples) }

// CloneScorer implements the replication handshake.
func (l *LateFusion) CloneScorer() any {
	return &LateFusion{CNN: l.CNN.Replica(), SG: l.SG.Replica()}
}

// FeatureOptions declares both head representations.
func (l *LateFusion) FeatureOptions() FeatureOptions {
	vo, gro := l.CNN.Cfg.Voxel, l.SG.Cfg.Graph
	return FeatureOptions{Voxel: &vo, Graph: &gro}
}

// Name distinguishes the two latent-fusion strategies sharing this
// type: "coherent" backpropagates into the heads, "mid" freezes them.
func (f *Fusion) Name() string {
	if f.Cfg.Coherent {
		return "coherent"
	}
	return "mid"
}

// ScoreBatch implements the screening scoring contract.
func (f *Fusion) ScoreBatch(samples []*Sample) []float64 { return f.PredictBatch(samples) }

// CloneScorer implements the replication handshake.
func (f *Fusion) CloneScorer() any { return f.Replica() }

// FeatureOptions declares both head representations.
func (f *Fusion) FeatureOptions() FeatureOptions {
	vo, gro := f.CNN.Cfg.Voxel, f.SG.Cfg.Graph
	return FeatureOptions{Voxel: &vo, Graph: &gro}
}
