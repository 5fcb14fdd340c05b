package screen

import (
	"fmt"
	"strings"

	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/target"
)

// Scorer is the one scoring contract of the whole funnel: anything
// that can turn a batch of featurized complexes into per-pose scores
// can be screened at scale — the five fusion model families, the Vina
// docking-score surrogate, the MM/GBSA surrogate, or a consensus of
// them. The engine featurizes each pose exactly once and hands the
// shared samples to every scorer.
//
// The contract is these four methods and nothing else; the compiler
// checks every implementation (see the conformance tests):
//
//   - Name must be stable across calls: it keys the per-scorer
//     prediction columns in the h5lite shards and the campaign
//     manifest's recorded scorer set.
//   - FeatureOptions declares the featurization the scorer reads. The
//     zero value means "raw pose only": a job whose scorer set
//     declares no representation skips featurization and hands
//     ScoreInto samples that carry only identity, pocket and posed
//     molecule.
//   - ScoreInto writes exactly one score per sample, in input order,
//     into out (len(out) == len(samples)), through ws — the caller's
//     workspace, whose precision selects the numeric width of the
//     neural scorers (the physics scorers ignore it). It must be
//     deterministic, batch-composition independent (scoring a batch
//     equals scoring each sample alone), and safe to call on one
//     shared instance from any number of goroutines, each with its own
//     workspace: every rank and session of every job scores on the
//     scorer it was given, the paper's one model instance per GPU.
//   - LowerIsBetter reports the orientation of the raw score: true for
//     the kcal/mol physics surrogates, false for the models, which
//     predict pK (higher is stronger). Consensus uses it to mix
//     heterogeneous scorers on one scale.
type Scorer interface {
	Name() string
	FeatureOptions() FeatureOptions
	ScoreInto(samples []*fusion.Sample, ws *fusion.Workspace, out []float64)
	LowerIsBetter() bool
}

// FeatureOptions is the featurization a scorer requires, with nil
// meaning "no requirement". The engine merges the declarations of
// every scorer in a job — featurization happens once, shared by all of
// them — and falls back to the JobOptions for anything left
// undeclared. The type lives in fusion (next to Sample) so model
// packages can declare their needs without importing the engine.
type FeatureOptions = fusion.FeatureOptions

// orientToPK maps a raw score onto the pK scale used for mixing:
// kcal/mol scorers are negated and converted (dG = -RT ln K, 1.36
// kcal/mol per pK unit at ~300 K), pK scorers pass through.
func orientToPK(s Scorer, v float64) float64 {
	if s.LowerIsBetter() {
		return -v / kcalPerPK
	}
	return v
}

// mergeFeatureOptions folds the FeatureOptions declarations of a
// scorer set over the JobOptions fallback. Two scorers declaring
// different options for the same representation cannot share one
// featurization pass, so the merge refuses.
func mergeFeatureOptions(scorers []Scorer, vo featurize.VoxelOptions, gro featurize.GraphOptions) (featurize.VoxelOptions, featurize.GraphOptions, error) {
	var vBy, gBy string
	for _, s := range scorers {
		fo := s.FeatureOptions()
		if fo.Voxel != nil {
			if vBy != "" && *fo.Voxel != vo {
				return vo, gro, fmt.Errorf("screen: scorer %s needs voxel options %+v but %s already claimed %+v", s.Name(), *fo.Voxel, vBy, vo)
			}
			vo, vBy = *fo.Voxel, s.Name()
		}
		if fo.Graph != nil {
			if gBy != "" && *fo.Graph != gro {
				return vo, gro, fmt.Errorf("screen: scorer %s needs graph options %+v but %s already claimed %+v", s.Name(), *fo.Graph, gBy, gro)
			}
			gro, gBy = *fo.Graph, s.Name()
		}
	}
	return vo, gro, nil
}

// scorerSetNeedsFeatures reports whether any scorer in the set
// declares a featurized representation — when none does, jobs skip
// voxelization and graph construction entirely.
func scorerSetNeedsFeatures(scorers []Scorer) bool {
	for _, s := range scorers {
		if fo := s.FeatureOptions(); fo.Voxel != nil || fo.Graph != nil {
			return true
		}
	}
	return false
}

// PrefeatureFor builds the target-invariant featurization cache a job
// with this scorer set will use against p: the scorer set's merged
// featurization options applied to featurize.NewPocketPrefeature. It
// returns nil (and no error) when the set declares no featurized
// representation — such jobs skip featurization entirely. Callers that
// screen many pose batches against one target (the campaign
// orchestrator) build this once and set JobOptions.Prefeature on every
// job; the cache is immutable and safe to share across jobs and ranks.
func PrefeatureFor(scorers []Scorer, p *target.Pocket, o JobOptions) (*featurize.PocketPrefeature, error) {
	if err := ValidateScorerSet(scorers); err != nil {
		return nil, err
	}
	vo, gro, err := mergeFeatureOptions(scorers, o.Voxel, o.Graph)
	if err != nil {
		return nil, err
	}
	if !scorerSetNeedsFeatures(scorers) {
		return nil, nil
	}
	return featurize.NewPocketPrefeature(p, vo, gro), nil
}

// ScorerNames returns the stable name set of a scorer list, in list
// order — what the campaign manifest records and refuses to resume
// without.
func ScorerNames(scorers []Scorer) []string {
	names := make([]string, len(scorers))
	for i, s := range scorers {
		names[i] = s.Name()
	}
	return names
}

// ValidateScorerSet refuses an empty set and duplicate scorer names:
// Prediction.Scores, shard columns and campaign manifests all key by
// name, so a duplicate would silently overwrite its twin. Shared by
// the engine, Consensus and the campaign orchestrator.
func ValidateScorerSet(scorers []Scorer) error {
	if len(scorers) == 0 {
		return fmt.Errorf("screen: need at least one scorer")
	}
	seen := make(map[string]bool, len(scorers))
	for _, s := range scorers {
		if seen[s.Name()] {
			return fmt.Errorf("screen: duplicate scorer %q", s.Name())
		}
		seen[s.Name()] = true
	}
	return nil
}

// Consensus is itself a Scorer: the mean of its members' predictions
// after orienting every raw score onto the pK scale. It mirrors the
// consensus-docking line of ensemble screening — ranking quality lives
// in agreement across methods, not in any single scorer. Members score
// the same shared samples, so an N-way consensus still featurizes each
// pose once. It holds no per-call state, so like every Scorer one
// instance serves every rank and session at once.
type Consensus struct {
	members []Scorer
	name    string
}

// NewConsensus builds a consensus scorer over the given members. It
// refuses an empty or name-duplicated member set and members whose
// featurization declarations conflict (they could not share one
// featurization pass).
func NewConsensus(members ...Scorer) (*Consensus, error) {
	if err := ValidateScorerSet(members); err != nil {
		return nil, fmt.Errorf("screen: consensus members: %w", err)
	}
	if _, _, err := mergeFeatureOptions(members, featurize.VoxelOptions{}, featurize.GraphOptions{}); err != nil {
		return nil, fmt.Errorf("screen: consensus members cannot share featurization: %w", err)
	}
	names := ScorerNames(members)
	return &Consensus{members: members, name: "consensus(" + strings.Join(names, "+") + ")"}, nil
}

// Name identifies the consensus by its member set, so two campaigns
// built over different members never alias in a manifest.
func (c *Consensus) Name() string { return c.name }

// ScoreInto writes the mean pK-oriented member score per sample. The
// mix is per-sample (no batch statistics), keeping consensus scores
// batch-composition independent like every other Scorer. Members score
// through the caller's workspace into a buffer allocated per call:
// one small slice per batch, owned by this call alone, so concurrent
// callers and a consensus nested in another never share it.
func (c *Consensus) ScoreInto(samples []*fusion.Sample, ws *fusion.Workspace, out []float64) {
	vals := make([]float64, len(samples))
	for i := range out {
		out[i] = 0
	}
	for _, m := range c.members {
		m.ScoreInto(samples, ws, vals)
		for i, v := range vals {
			out[i] += orientToPK(m, v)
		}
	}
	n := float64(len(c.members))
	for i := range out {
		out[i] /= n
	}
}

// FeatureOptions merges the members' featurization needs (validated
// compatible at construction).
func (c *Consensus) FeatureOptions() FeatureOptions {
	var fo FeatureOptions
	for _, m := range c.members {
		mfo := m.FeatureOptions()
		if mfo.Voxel != nil {
			fo.Voxel = mfo.Voxel
		}
		if mfo.Graph != nil {
			fo.Graph = mfo.Graph
		}
	}
	return fo
}

// LowerIsBetter is false: the mix is on the pK scale.
func (c *Consensus) LowerIsBetter() bool { return false }
