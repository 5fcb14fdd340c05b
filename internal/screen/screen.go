// Package screen implements the high-throughput distributed scoring
// architecture of paper Section 4.2 (Figure 3), executed with real
// concurrency: a job takes a set of docked poses, divides them across
// simulated MPI ranks (goroutines, one scorer replica each, as the
// paper loads one Fusion instance per GPU), runs parallel data loaders
// per rank to featurize poses ahead of inference, gathers identifiers
// and predictions across ranks (the paper's Horovod allgather), and
// writes sharded h5lite archives whose layout mirrors ConveyorLC's
// CDT3Docking output.
//
// The engine is generic over the Scorer contract (scorer.go): any
// scorer — a fusion model family, a physics surrogate, a consensus —
// or an ensemble of them runs on the same batched machinery.
// Featurization happens once per pose and is shared across the
// ensemble; every scorer contributes its own prediction column to the
// output shards. All entry points take a context.Context and stop
// within one inference batch of cancellation.
package screen

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"deepfusion/internal/chem"
	"deepfusion/internal/dock"
	"deepfusion/internal/featurize"
	"deepfusion/internal/fusion"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/target"
)

// Pose is one docked pose queued for scoring.
type Pose struct {
	CompoundID string
	PoseRank   int
	Mol        *chem.Mol
	VinaScore  float64
}

// Prediction is one scored pose: the primary scorer's prediction
// alongside the physics scores carried through the funnel, plus (for
// ensemble jobs) every scorer's prediction keyed by scorer name.
type Prediction struct {
	CompoundID string
	Target     string
	PoseRank   int
	// Fusion is the primary scorer's prediction on the pK scale
	// (higher is stronger). Scorers declaring LowerIsBetter (kcal/mol
	// surrogates) are converted at emit time, so per-compound
	// aggregation (max over poses) and the selection cost function
	// treat every scorer uniformly; pK scorers pass through unchanged.
	Fusion float64
	Vina   float64 // kcal/mol (lower is stronger)
	MMGBSA float64 // kcal/mol (lower is stronger)
	Rank   int     // which simulated MPI rank scored it
	// Scores holds every scorer's raw prediction keyed by
	// Scorer.Name(), in the scorer's native units (kcal/mol stays
	// kcal/mol — only the primary Fusion column is pK-oriented).
	// It is populated only by ensemble jobs (two or more scorers);
	// single-scorer jobs keep the legacy three-column layout so their
	// shard bytes are unchanged from the pre-Scorer engine.
	Scores map[string]float64
}

// JobOptions configures a distributed scoring job.
type JobOptions struct {
	Ranks          int // simulated MPI ranks (paper: 16 = 4 nodes x 4 GPUs)
	LoadersPerRank int // parallel data loaders per rank (paper: 12)
	BatchSize      int // poses per inference batch (paper: up to 56)
	// Voxel and Graph are the featurization fallback; scorers
	// implementing the Featurizer handshake override them (the engine
	// featurizes once with the merged options).
	Voxel featurize.VoxelOptions
	Graph featurize.GraphOptions
	// Prefeature optionally injects a shared, read-only featurization
	// cache (featurize.NewPocketPrefeature, or PrefeatureFor) built
	// for this job's target and merged featurization options — the
	// campaign layer builds one per target and reuses it across every
	// compound chunk. It must match the job's (pocket, options) pair;
	// the engine refuses a mismatch. Nil lets the engine build its own
	// per job. Never serialized: a resumed campaign rebuilds it.
	Prefeature *featurize.PocketPrefeature `json:"-"`
	// Precision selects the numeric width of the inference engine:
	// PrecisionF64 (or empty — the zero value and every pre-PR6
	// serialized job) runs the verified float64 reference path;
	// PrecisionF32 runs the float32 fast path, whose rank fidelity
	// against the reference is pinned by the A/B harness. Serialized
	// into campaign manifests via the json tag, so a resumed campaign
	// can refuse a precision mismatch.
	Precision Precision `json:"precision,omitempty"`
	// FailureProb injects the paper's observed job failures (bad
	// metadata, node failure, broken pipes). A failed job returns
	// ErrJobFailed and must be resubmitted by the caller.
	FailureProb float64
	Seed        int64
}

// Precision re-exports the funnel-wide precision knob (see
// fusion.Precision) at the engine boundary.
type Precision = fusion.Precision

// The two engine precisions: the float64 verified reference and the
// float32 fast path.
const (
	PrecisionF64 = fusion.PrecisionF64
	PrecisionF32 = fusion.PrecisionF32
)

// DefaultJobOptions mirrors the production 4-node job at repro scale.
func DefaultJobOptions() JobOptions {
	return JobOptions{
		Ranks:          4,
		LoadersPerRank: 3,
		BatchSize:      8,
		Voxel:          featurize.DefaultVoxelOptions(),
		Graph:          featurize.DefaultGraphOptions(),
		Seed:           1,
	}
}

// ErrJobFailed marks an injected job failure.
var ErrJobFailed = fmt.Errorf("screen: job failed (injected fault)")

// prefeatureCache holds the engine's most recently self-built
// target-invariant prefeature. Callers that screen one target across
// many jobs without injecting JobOptions.Prefeature — retry loops,
// benchmark iterations, ad-hoc RunJob callers — used to pay the full
// prefeature construction (pocket voxel baseline, node rows, cell
// list: ~500 allocations and ~300 KB) on every job. A prefeature is
// immutable after construction and already read concurrently by every
// loader, so one cached slot (the common same-target-again case) is
// safe; a concurrent miss at worst builds twice and keeps one.
var prefeatureCache atomic.Pointer[featurize.PocketPrefeature]

// cachedPrefeature returns a prefeature for the job's (target,
// options), reusing the previous job's when it matches.
func cachedPrefeature(p *target.Pocket, vo featurize.VoxelOptions, gro featurize.GraphOptions) *featurize.PocketPrefeature {
	if pre := prefeatureCache.Load(); pre != nil && pre.Matches(p, vo, gro) {
		return pre
	}
	pre := featurize.NewPocketPrefeature(p, vo, gro)
	prefeatureCache.Store(pre)
	return pre
}

// poseSlots carries pose slots from one job to the next. A slot that
// last held a pose of the same target re-voxelizes by restoring the
// handful of voxels that pose touched; a fresh one allocates its grid
// and copies the whole pocket baseline — 14 MB each at the paper grid,
// which a job of a few poses per rank would otherwise pay for every
// pose. Slots carry nothing job-specific: every featurization path
// rewrites them completely. Being a sync.Pool, idle slots are released
// by the collector rather than held forever.
var poseSlots = sync.Pool{New: func() any { return &fusion.Sample{} }}

// injectFailure rolls the job-failure dice (bad metadata, node
// failure, broken pipes — the paper's observed modes).
func injectFailure(o JobOptions) bool {
	if o.FailureProb <= 0 {
		return false
	}
	rng := rand.New(rand.NewSource(o.Seed))
	return rng.Float64() < o.FailureProb
}

// runRanks is the batched scoring engine behind every job entry point.
// Each rank gets its own replica of every scorer (via the Cloner
// handshake) and its index-strided share of the poses; loader
// goroutines featurize ahead of inference — once per pose, shared by
// the whole ensemble; the rank accumulates featurized samples until a
// full batch forms and scores it with one ScoreBatch call per scorer
// (the paper's up-to-56-poses-per-GPU batches). emit is called once
// per pose, from the scoring rank's goroutine, and must be safe for
// concurrent calls across ranks. runRanks returns when every rank has
// drained, or with ctx.Err() if cancelled — cancellation lands at
// batch boundaries, so a running job stops within one batch.
//
// Memory model: the steady state is allocation-free. Each rank owns
// one fusion.Workspace shared by all of its scorer replicas — scorers
// implementing the ScorerInto handshake score through it into
// rank-owned prediction buffers — and the loaders draw pose slots from
// a per-rank free list (stocked from the previous job's slots, see
// poseSlots), featurizing into recycled voxel/graph buffers and
// returning each slot once its batch has been emitted. The
// target-invariant half of featurization is computed once per job (or
// injected via JobOptions.Prefeature and shared across jobs) and read
// concurrently by every loader (FeaturizeComplexWithPrefeature), so a
// pose costs only its ligand's share of splatting and neighbor search.
// After the first few batches warm the pools, the only per-pose
// allocations left are the emit-side bookkeeping of the caller.
func runRanks(ctx context.Context, scorers []Scorer, p *target.Pocket, poses []Pose, o JobOptions, emit func(idx int, pr Prediction)) error {
	pre, err := jobPrefeature(scorers, p, o)
	if err != nil {
		return err
	}
	bs := o.BatchSize
	if bs < 1 {
		bs = 1
	}
	var wg sync.WaitGroup
	for rank := 0; rank < o.Ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			be := newBatchEmitter(scorers, p, bs, o.Precision, rank)
			// The rank's share: index-strided, as in the paper ("divide
			// the set of compounds by the number of ranks and assign
			// each rank the subset with its index").
			mine := make([]int, 0, len(poses)/o.Ranks+1)
			for i := rank; i < len(poses); i += o.Ranks {
				mine = append(mine, i)
			}
			// Parallel data loaders featurize ahead of inference.
			type loaded struct {
				idx    int
				sample *fusion.Sample
			}
			work := make(chan int, len(mine))
			ready := make(chan loaded, bs*2+1)
			var loaders sync.WaitGroup
			nLoaders := o.LoadersPerRank
			if nLoaders < 1 {
				nLoaders = 1
			}
			// Pose slots recycle featurization buffers: loaders draw a
			// slot from the free list, featurize into it, and the scoring
			// loop returns it after the slot's batch is emitted. Capacity
			// covers every place a slot can be in flight.
			slotCap := cap(ready) + bs + nLoaders
			slots := make(chan *fusion.Sample, slotCap)
			for i := 0; i < slotCap; i++ {
				slots <- poseSlots.Get().(*fusion.Sample)
			}
			// Whatever is back on the free list when the rank stops goes
			// to the next job. A cancelled job's loaders may still be
			// drawing from the list, so the drain never blocks; slots
			// still in flight are simply dropped.
			defer func() {
				for {
					select {
					case s := <-slots:
						poseSlots.Put(s)
					default:
						return
					}
				}
			}()
			for l := 0; l < nLoaders; l++ {
				loaders.Add(1)
				go func() {
					defer loaders.Done()
					for i := range work {
						if ctx.Err() != nil {
							return
						}
						var s *fusion.Sample
						select {
						case s = <-slots:
						case <-ctx.Done():
							return
						}
						featurizePose(s, pre, p, poses[i])
						select {
						case ready <- loaded{idx: i, sample: s}:
						case <-ctx.Done():
							return
						}
					}
				}()
			}
			for _, i := range mine {
				work <- i
			}
			close(work)
			go func() {
				loaders.Wait()
				close(ready)
			}()
			// Batched inference loop: accumulate featurized samples up
			// to the batch size, score them — one forward pass per
			// scorer over the shared batch via the shared batchEmitter
			// (the same per-batch path the Session seam runs) — and
			// emit.
			idxs := make([]int, 0, bs)
			batch := make([]*fusion.Sample, 0, bs)
			batchPoses := make([]Pose, 0, bs)
			emitAt := func(j int, pr Prediction) { emit(idxs[j], pr) }
			flush := func() bool {
				if len(batch) == 0 {
					return true
				}
				if ctx.Err() != nil {
					return false
				}
				batchPoses = batchPoses[:0]
				for _, idx := range idxs {
					batchPoses = append(batchPoses, poses[idx])
				}
				be.scoreBatch(batch, batchPoses, emitAt)
				// The batch is emitted; its slots go back to the loaders.
				for _, s := range batch {
					slots <- s
				}
				idxs = idxs[:0]
				batch = batch[:0]
				return true
			}
			for ld := range ready {
				idxs = append(idxs, ld.idx)
				batch = append(batch, ld.sample)
				if len(batch) == bs {
					if !flush() {
						return // cancelled mid-job; loaders exit via ctx
					}
				}
			}
			flush()
		}(rank)
	}
	wg.Wait() // the paper's allgather barrier
	return ctx.Err()
}

// jobPrefeature returns the target-invariant half of featurization
// (pocket voxel baseline, pocket node rows, the cell list) a job or
// session shares read-only across every loader: o.Prefeature when the
// caller injects one — a campaign shares one per target — refused
// unless it was built for this target and the scorers' merged options,
// otherwise the engine's cached one. It is nil when no scorer in the
// set declares a representation through the Featurizer handshake (pure
// physics surrogates, or a consensus of them).
func jobPrefeature(scorers []Scorer, p *target.Pocket, o JobOptions) (*featurize.PocketPrefeature, error) {
	vo, gro, err := mergeFeatureOptions(scorers, o.Voxel, o.Graph)
	switch {
	case err != nil:
		return nil, err
	case !scorerSetNeedsFeatures(scorers):
		return nil, nil
	case o.Prefeature == nil:
		return cachedPrefeature(p, vo, gro), nil
	case !o.Prefeature.Matches(p, vo, gro):
		return nil, fmt.Errorf("screen: prefeature was built for a different (target, featurization options) pair than (%s, %+v, %+v)", p.Name, vo, gro)
	}
	return o.Prefeature, nil
}

// featurizePose fills slot with pose ps: through the job's prefeature,
// or, when pre is nil because no scorer reads a representation, as a
// raw sample — identity, pocket and posed molecule only — instead of
// voxelizing and graph-building what nothing will read.
func featurizePose(slot *fusion.Sample, pre *featurize.PocketPrefeature, p *target.Pocket, ps Pose) {
	if pre != nil {
		fusion.FeaturizeComplexWithPrefeature(slot, pre, ps.CompoundID, ps.Mol, 0)
		return
	}
	slot.ID, slot.Pocket, slot.Mol, slot.Label = ps.CompoundID, p, ps.Mol, 0
	slot.Voxels, slot.Graph = nil, nil
}

// checkJob validates the common job invariants.
func checkJob(scorers []Scorer, o JobOptions) error {
	if err := ValidateScorerSet(scorers); err != nil {
		return err
	}
	if o.Ranks < 1 {
		return fmt.Errorf("screen: need at least 1 rank")
	}
	if err := o.Precision.Validate(); err != nil {
		return err
	}
	return nil
}

// RunJob scores all poses against the target with one scorer on the
// batched engine, gathering results across ranks into input order.
// Any Scorer runs here: a fusion model, a physics surrogate, or a
// Consensus.
func RunJob(ctx context.Context, s Scorer, p *target.Pocket, poses []Pose, o JobOptions) ([]Prediction, error) {
	return RunJobEnsemble(ctx, []Scorer{s}, p, poses, o)
}

// RunJobEnsemble scores all poses with every scorer in one pass:
// featurize once, score N ways. The primary (first) scorer fills the
// legacy Fusion column; every scorer's prediction lands in
// Prediction.Scores and becomes its own shard column.
func RunJobEnsemble(ctx context.Context, scorers []Scorer, p *target.Pocket, poses []Pose, o JobOptions) ([]Prediction, error) {
	if err := checkJob(scorers, o); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if injectFailure(o) {
		return nil, ErrJobFailed
	}
	out := make([]Prediction, len(poses))
	if err := runRanks(ctx, scorers, p, poses, o, func(idx int, pr Prediction) { out[idx] = pr }); err != nil {
		return nil, err
	}
	return out, nil
}

// RunJobWithRetry resubmits a failed job with a fresh seed, the
// paper's fault-tolerance strategy ("when a job fails ... another job
// takes its place, and only a small set of compounds are affected").
// Cancellation is not retried: a cancelled attempt aborts the loop.
func RunJobWithRetry(ctx context.Context, s Scorer, p *target.Pocket, poses []Pose, o JobOptions, maxAttempts int) ([]Prediction, int, error) {
	return RunJobEnsembleWithRetry(ctx, []Scorer{s}, p, poses, o, maxAttempts)
}

// RunJobEnsembleWithRetry is RunJobWithRetry over a scorer ensemble.
// Only ErrJobFailed — the transient, injected failure mode — is
// retried; deterministic errors (scorer-set validation, a mismatched
// prefeature, feature-option conflicts) would fail identically on
// every resubmission and surface immediately instead.
func RunJobEnsembleWithRetry(ctx context.Context, scorers []Scorer, p *target.Pocket, poses []Pose, o JobOptions, maxAttempts int) ([]Prediction, int, error) {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		preds, err := RunJobEnsemble(ctx, scorers, p, poses, o)
		if err == nil {
			return preds, attempt + 1, nil
		}
		if ctx.Err() != nil {
			return nil, attempt + 1, ctx.Err()
		}
		if !errors.Is(err, ErrJobFailed) {
			return nil, attempt + 1, err
		}
		lastErr = err
		o.Seed++
	}
	return nil, maxAttempts, fmt.Errorf("screen: job failed after %d attempts: %w", maxAttempts, lastErr)
}

// DockProblem records one compound the docking stage rejected and why
// — the funnel tolerates bad inputs, but no longer silently.
type DockProblem struct {
	CompoundID string
	Reason     string
}

func (p DockProblem) String() string { return p.CompoundID + ": " + p.Reason }

// dockPoses docks one compound; tests replace it to make docking fail.
var dockPoses = dock.Dock

// DockCompounds runs the ConveyorLC docking stage for a compound set,
// producing the pose queue for scoring. Compounds that fail
// preparation or docking — a panic in the docking code included — are
// skipped and reported as DockProblems, matching the production
// funnel's tolerance of bad inputs without discarding the evidence. Poses and problems come out in input
// compound order, whatever order the docking goroutines finish in.
// Cancelling ctx stops the stage between compounds and returns
// ctx.Err().
func DockCompounds(ctx context.Context, p *target.Pocket, mols []*chem.Mol, maxPoses int, seed int64) ([]Pose, []DockProblem, error) {
	so := dock.DefaultSearchOptions()
	so.NumPoses = maxPoses
	so.MCSteps = 30
	so.Restarts = 4
	docked := make([][]dock.Pose, len(mols))
	panicked := make([]string, len(mols))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	for i, m := range mols {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			// The docking goroutines run outside any caller's recover
			// (the service's included): a panic here would end the
			// process, so it becomes this compound's problem instead.
			defer func() {
				if r := recover(); r != nil {
					panicked[i] = fmt.Sprintf("docking panicked: %v", r)
				}
			}()
			so := so
			// Per-compound seed from a name hash: XOR-ing with the name
			// length (the old scheme) collided for any two compounds with
			// same-length names, replaying identical MC trajectories.
			so.Seed = seed ^ int64(compoundHash(m.Name))
			docked[i] = dockPoses(p, m, so)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var poses []Pose
	var problems []DockProblem
	for i, ps := range docked {
		name := mols[i].Name
		if panicked[i] != "" {
			problems = append(problems, DockProblem{CompoundID: name, Reason: panicked[i]})
			continue
		}
		if len(ps) == 0 {
			problems = append(problems, DockProblem{CompoundID: name, Reason: "no pose survived the search"})
			continue
		}
		for _, dp := range ps {
			poses = append(poses, Pose{CompoundID: name, PoseRank: dp.Rank, Mol: dp.Mol, VinaScore: dp.Score})
		}
	}
	return poses, problems, nil
}

// compoundHash is the stable FNV-1a identity used for per-compound
// seeding and shard assignment.
func compoundHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// ShardOf returns the shard a compound's poses are written to.
func ShardOf(compoundID string, shards int) int {
	if shards < 1 {
		return 0
	}
	return int(compoundHash(compoundID) % uint64(shards))
}

// scorerColumnPrefix namespaces per-scorer prediction datasets in the
// shard layout.
const scorerColumnPrefix = "score_"

// WriteShards distributes predictions across per-rank h5lite files,
// mirroring the paper's parallel output stage where each rank writes
// compounds assigned to the same files and directories: sharding is
// keyed by compound-ID hash, so every pose of a compound lands in the
// same shard file. Shard layout: root group "dock" / target /
// datasets ids, poses, fusion, vina, mmgbsa, plus one "score_<name>"
// dataset per ensemble scorer (single-scorer jobs keep the exact
// legacy layout).
func WriteShards(preds []Prediction, shards int) []*h5lite.File {
	if shards < 1 {
		shards = 1
	}
	files := make([]*h5lite.File, shards)
	type cols struct {
		ids                []string
		poseRanks          []float64
		fusion, vina, gbsa []float64
		extra              map[string][]float64
	}
	byShard := make([]map[string]*cols, shards)
	for i := range files {
		files[i] = h5lite.New()
		byShard[i] = map[string]*cols{}
	}
	for _, pr := range preds {
		s := ShardOf(pr.CompoundID, shards)
		c, ok := byShard[s][pr.Target]
		if !ok {
			c = &cols{extra: map[string][]float64{}}
			byShard[s][pr.Target] = c
		}
		c.ids = append(c.ids, pr.CompoundID)
		c.poseRanks = append(c.poseRanks, float64(pr.PoseRank))
		c.fusion = append(c.fusion, pr.Fusion)
		c.vina = append(c.vina, pr.Vina)
		c.gbsa = append(c.gbsa, pr.MMGBSA)
		// Per-scorer ensemble columns stay aligned with ids: every
		// prediction of a group carries the same scorer set (one
		// engine run), so each name grows in lockstep.
		for name, v := range pr.Scores {
			c.extra[name] = append(c.extra[name], v)
		}
	}
	for s, targets := range byShard {
		root := files[s].Root().Group("dock")
		for tgt, c := range targets {
			g := root.Group(tgt)
			g.SetStrings("ids", c.ids)
			g.SetFloats("pose_rank", c.poseRanks)
			g.SetFloats("fusion_pk", c.fusion)
			g.SetFloats("vina_kcal", c.vina)
			g.SetFloats("mmgbsa_kcal", c.gbsa)
			for name, vals := range c.extra {
				g.SetFloats(scorerColumnPrefix+name, vals)
			}
		}
	}
	return files
}

// ReadShards is the inverse of WriteShards: it folds the per-target
// prediction columns of the given shard files back into a flat
// prediction list, including any per-scorer ensemble columns. Pose
// order within a target group is preserved per shard; the
// simulated-rank attribution is not stored in shards and comes back as
// zero. Ragged column lengths report an error naming the target group.
func ReadShards(files []*h5lite.File) ([]Prediction, error) {
	var out []Prediction
	for _, f := range files {
		dock := f.Root().Lookup("dock")
		if dock == nil {
			continue
		}
		for _, tgt := range dock.Children() {
			g := dock.Lookup(tgt)
			ids, _ := g.Strings("ids")
			ranks, _ := g.Floats("pose_rank")
			fusion, _ := g.Floats("fusion_pk")
			vina, _ := g.Floats("vina_kcal")
			gbsa, _ := g.Floats("mmgbsa_kcal")
			if len(ids) != len(ranks) || len(ids) != len(fusion) ||
				len(ids) != len(vina) || len(ids) != len(gbsa) {
				return nil, fmt.Errorf("screen: ragged shard columns for target %s", tgt)
			}
			extra := map[string][]float64{}
			for _, name := range g.FloatNames() {
				if !strings.HasPrefix(name, scorerColumnPrefix) {
					continue
				}
				vals, _ := g.Floats(name)
				if len(vals) != len(ids) {
					return nil, fmt.Errorf("screen: ragged shard columns for target %s", tgt)
				}
				extra[strings.TrimPrefix(name, scorerColumnPrefix)] = vals
			}
			for i := range ids {
				pr := Prediction{
					CompoundID: ids[i],
					Target:     tgt,
					PoseRank:   int(ranks[i]),
					Fusion:     fusion[i],
					Vina:       vina[i],
					MMGBSA:     gbsa[i],
				}
				if len(extra) > 0 {
					pr.Scores = make(map[string]float64, len(extra))
					for name, vals := range extra {
						pr.Scores[name] = vals[i]
					}
				}
				out = append(out, pr)
			}
		}
	}
	return out, nil
}
