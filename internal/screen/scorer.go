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
// ScoreBatch must be deterministic, must return exactly one score per
// sample in input order, and must give batch-composition-independent
// results (scoring a batch equals scoring each sample alone). Name
// must be stable across calls: it keys the per-scorer prediction
// columns in the h5lite shards and the campaign manifest's recorded
// scorer set.
type Scorer interface {
	Name() string
	ScoreBatch(samples []*fusion.Sample) []float64
}

// FeatureOptions is the Featurizer handshake payload: the featurization
// a scorer requires, with nil meaning "no requirement". The engine
// merges the declarations of every scorer in a job — featurization
// happens once, shared by all of them — and falls back to the
// JobOptions for anything left undeclared. The type lives in fusion
// (next to Sample) so model packages can declare their needs without
// importing the engine.
type FeatureOptions = fusion.FeatureOptions

// Featurizer is implemented by scorers that consume featurized
// representations (voxel grids, complex graphs) and therefore need the
// engine to featurize with specific options. Scorers that read only
// the raw pose (physics surrogates) do not implement it — and a job
// whose scorer set declares no representation at all skips
// featurization entirely, handing ScoreBatch samples that carry only
// identity, pocket and posed molecule. A scorer that reads
// Sample.Voxels or Sample.Graph MUST therefore implement Featurizer.
type Featurizer interface {
	FeatureOptions() FeatureOptions
}

// ScorerInto is the pooled-scoring handshake: scorers that can score a
// batch through a reusable fusion.Workspace — writing predictions into
// a caller-owned slice instead of allocating — implement it, and the
// engine's rank loop scores allocation-free after warm-up (each rank
// owns one workspace, shared by all of its scorer replicas).
// ScoreBatchInto must produce byte-identical results to ScoreBatch;
// scorers that do not implement it simply stay on the allocating path.
type ScorerInto interface {
	ScoreBatchInto(samples []*fusion.Sample, ws *fusion.Workspace, out []float64)
}

// Cloner is the replication handshake: scorers whose ScoreBatch is not
// safe for concurrent use (the neural models' ScoreBatch runs the
// training Forward, which stashes layer inputs for Backward) implement
// it, and each simulated MPI rank scores on its own replica — the
// paper's one-model-instance-per-GPU deployment. CloneScorer must
// return a value implementing Scorer with identical outputs; it is
// called once per rank per job, so it should share rather than copy
// whatever is only read (the fusion models alias their weights).
// Stateless scorers are shared across ranks as-is.
type Cloner interface {
	CloneScorer() any
}

// LowerIsBetter is implemented by scorers whose raw score improves
// downward (the kcal/mol physics surrogates). Model scorers predict pK
// (higher is stronger) and do not implement it. Consensus uses the
// orientation to mix heterogeneous scorers on one scale.
type LowerIsBetter interface {
	LowerIsBetter() bool
}

// lowerIsBetter reports the scorer's orientation.
func lowerIsBetter(s Scorer) bool {
	l, ok := s.(LowerIsBetter)
	return ok && l.LowerIsBetter()
}

// orientToPK maps a raw score onto the pK scale used for mixing:
// kcal/mol scorers are negated and converted (dG = -RT ln K, 1.36
// kcal/mol per pK unit at ~300 K), pK scorers pass through.
func orientToPK(s Scorer, v float64) float64 {
	if lowerIsBetter(s) {
		return -v / kcalPerPK
	}
	return v
}

// mergeFeatureOptions folds the Featurizer declarations of a scorer
// set over the JobOptions fallback. Two scorers declaring different
// options for the same representation cannot share one featurization
// pass, so the merge refuses.
func mergeFeatureOptions(scorers []Scorer, vo featurize.VoxelOptions, gro featurize.GraphOptions) (featurize.VoxelOptions, featurize.GraphOptions, error) {
	var vBy, gBy string
	for _, s := range scorers {
		f, ok := s.(Featurizer)
		if !ok {
			continue
		}
		fo := f.FeatureOptions()
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
// declares a featurized representation through the Featurizer
// handshake — when none does, jobs skip voxelization and graph
// construction entirely.
func scorerSetNeedsFeatures(scorers []Scorer) bool {
	for _, s := range scorers {
		if f, ok := s.(Featurizer); ok {
			if fo := f.FeatureOptions(); fo.Voxel != nil || fo.Graph != nil {
				return true
			}
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

// replicaOf returns the scorer a rank should score on: a private clone
// when the scorer implements the Cloner handshake, the shared instance
// otherwise.
func replicaOf(s Scorer) Scorer {
	c, ok := s.(Cloner)
	if !ok {
		return s
	}
	r, ok := c.CloneScorer().(Scorer)
	if !ok {
		return s
	}
	return r
}

// replicasOf builds the per-rank replica set of a scorer list — one
// replicaOf per scorer, in order. Shared by the engine's rank loop and
// the conformance suite.
func replicasOf(scorers []Scorer) []Scorer {
	replicas := make([]Scorer, len(scorers))
	for i, s := range scorers {
		replicas[i] = replicaOf(s)
	}
	return replicas
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
// pose once.
type Consensus struct {
	members []Scorer
	name    string

	scratch []float64 // pooled member-score buffer for ScoreBatchInto
}

// NewConsensus builds a consensus scorer over the given members. It
// refuses an empty or name-duplicated member set and members whose
// Featurizer handshakes conflict (they could not share one
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

// Members returns the member scorers in construction order.
func (c *Consensus) Members() []Scorer { return append([]Scorer(nil), c.members...) }

// Name identifies the consensus by its member set, so two campaigns
// built over different members never alias in a manifest.
func (c *Consensus) Name() string { return c.name }

// ScoreBatch returns the mean pK-oriented member score per sample. The
// mix is per-sample (no batch statistics), keeping consensus scores
// batch-composition independent like every other Scorer.
func (c *Consensus) ScoreBatch(samples []*fusion.Sample) []float64 {
	out := make([]float64, len(samples))
	for _, m := range c.members {
		vals := m.ScoreBatch(samples)
		for i, v := range vals {
			out[i] += orientToPK(m, v)
		}
	}
	n := float64(len(c.members))
	for i := range out {
		out[i] /= n
	}
	return out
}

// ScoreBatchInto implements the pooled-scoring handshake: members that
// implement ScorerInto score through the shared workspace, the rest
// fall back to ScoreBatch. The mix is byte-identical to ScoreBatch
// (same member order, same per-sample accumulation).
func (c *Consensus) ScoreBatchInto(samples []*fusion.Sample, ws *fusion.Workspace, out []float64) {
	if len(c.scratch) < len(samples) {
		c.scratch = make([]float64, len(samples))
	}
	for i := range out {
		out[i] = 0
	}
	for _, m := range c.members {
		var vals []float64
		if mi, ok := m.(ScorerInto); ok {
			vals = c.scratch[:len(samples)]
			mi.ScoreBatchInto(samples, ws, vals)
		} else {
			vals = m.ScoreBatch(samples)
		}
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
		f, ok := m.(Featurizer)
		if !ok {
			continue
		}
		mfo := f.FeatureOptions()
		if mfo.Voxel != nil {
			fo.Voxel = mfo.Voxel
		}
		if mfo.Graph != nil {
			fo.Graph = mfo.Graph
		}
	}
	return fo
}

// CloneScorer replicates the members that need replication, so a
// consensus can be scored on every rank concurrently.
func (c *Consensus) CloneScorer() any {
	members := make([]Scorer, len(c.members))
	for i, m := range c.members {
		members[i] = replicaOf(m)
	}
	return &Consensus{members: members, name: c.name}
}
