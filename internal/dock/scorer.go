package dock

import "deepfusion/internal/fusion"

// VinaScorer adapts the Vina-style empirical scoring function to the
// screening engine's Scorer contract, so the docking score competes in
// the same funnel as the deep models — the paper's method comparison
// is exactly this: Vina vs the fusion families against one selection
// cost function. The scorer reads the raw posed complex off the shared
// Sample (it declares no featurization) and is stateless, so ranks
// share one instance.
type VinaScorer struct{}

// Name identifies the Vina surrogate in shard columns and manifests.
func (VinaScorer) Name() string { return "vina" }

// FeatureOptions is the zero value: the score reads the raw pose.
func (VinaScorer) FeatureOptions() fusion.FeatureOptions { return fusion.FeatureOptions{} }

// ScoreInto writes the empirical score of each posed complex, in
// kcal/mol (lower is stronger). It needs no workspace.
func (VinaScorer) ScoreInto(samples []*fusion.Sample, _ *fusion.Workspace, out []float64) {
	for i, s := range samples {
		out[i] = VinaScore(s.Pocket, s.Mol)
	}
}

// LowerIsBetter reports the kcal/mol orientation.
func (VinaScorer) LowerIsBetter() bool { return true }
