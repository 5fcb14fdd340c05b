package mmgbsa

import "deepfusion/internal/fusion"

// Scorer adapts the MM/GBSA single-point rescorer to the screening
// engine's scoring contract: the physics rescoring stage of the
// paper's funnel, runnable at scale on the same batched engine as the
// deep models. It reads the raw posed complex off the shared Sample
// (it declares no featurization) and is stateless, so ranks share one
// instance.
type Scorer struct{}

// Name identifies the MM/GBSA surrogate in shard columns and
// manifests.
func (Scorer) Name() string { return "mmgbsa" }

// FeatureOptions is the zero value: the rescore reads the raw pose.
func (Scorer) FeatureOptions() fusion.FeatureOptions { return fusion.FeatureOptions{} }

// ScoreInto writes the MM/GBSA single-point binding energy of each
// posed complex, in kcal/mol (lower is stronger). It needs no
// workspace.
func (Scorer) ScoreInto(samples []*fusion.Sample, _ *fusion.Workspace, out []float64) {
	for i, s := range samples {
		out[i] = Rescore(s.Pocket, s.Mol)
	}
}

// LowerIsBetter reports the kcal/mol orientation.
func (Scorer) LowerIsBetter() bool { return true }
