// Package campaign is the production layer above the batched scoring
// engine: a durable, resumable orchestrator for the paper's
// months-long multi-target screening run. A campaign divides each
// target's compound deck into per-chunk work units (the repro-scale
// analogue of the paper's 125 concurrent four-node, 2M-pose Fusion
// jobs), hands them to workers through a lease store, and records
// every state change in a manifest (JSON) plus compound-keyed h5lite
// shards — so a killed or failure-injected campaign resumes exactly
// where it stopped: completed chunks are skipped, in-flight chunks
// re-run, and injected job failures (screen.ErrJobFailed) are retried
// per-chunk instead of per-campaign, the paper's "another job takes
// its place" fault tolerance. The runtime that executes a campaign —
// a coordinator plus workers, in this process or others — is package
// dispatch; this package holds the state it drives.
//
// Determinism is load-bearing: the deck is regenerated from the
// manifest config, docked poses are sorted into a canonical order
// before scoring, and final selection always reads back the shard
// files in unit order — so an interrupted-and-resumed campaign
// produces byte-identical selections to an uninterrupted one.
package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/h5lite"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// Config declares a campaign. It is serialized into the manifest and
// is the single source the deck and unit grid are derived from, so a
// resumed process reconstructs exactly the run it is continuing.
type Config struct {
	// Targets lists binding-site names (target.ByName); empty means
	// all four SARS-CoV-2 sites.
	Targets []string `json:"targets"`
	// Compounds is the deck size drawn from the four libraries; the
	// same deck is screened against every target, as in the paper.
	Compounds int `json:"compounds"`
	// ChunkSize is the compounds per work unit — the repro analogue
	// of the ~2M poses a production job carried.
	ChunkSize int `json:"chunk_size"`
	// MaxPoses caps docked poses per compound.
	MaxPoses int `json:"max_poses"`
	// Workers is the number of in-process workers a run starts, so
	// the number of concurrently running units (the allocation's
	// concurrent-job capacity). Zero means 2.
	Workers int `json:"workers"`
	// Job configures each unit's distributed scoring job, including
	// FailureProb for the paper's observed job failures.
	Job screen.JobOptions `json:"job"`
	// Scorers records the stable names of the scorer set the campaign
	// screens with, in primary-first order. New fills it from the
	// injected scorers; Load refuses to resume under a different set —
	// shard columns and selections are only comparable within one set.
	Scorers []string `json:"scorers,omitempty"`
	// MaxAttempts is the per-chunk Fusion job retry budget of one
	// execution; a unit that spends it parks failed until the next
	// Load grants a fresh budget. Zero means 3.
	MaxAttempts int `json:"max_attempts"`
	// MaxRepairs is the per-unit lifetime budget of corruption
	// re-queues: each time a unit's shards fail integrity verification
	// the shards are quarantined and the unit re-runs, at most this
	// many times before it parks as failed. Zero means 3.
	MaxRepairs int `json:"max_repairs,omitempty"`
	// Shards is the number of h5lite output shards per unit.
	Shards int `json:"shards"`
	// TopN compounds per target go on the simulated purchase list.
	TopN int `json:"top_n"`
	// Weights is the compound-selection cost function.
	Weights screen.CostWeights `json:"weights"`
	// AMPLFitMax caps the compounds used to fit the per-target AMPL
	// surrogate. Zero means 60.
	AMPLFitMax int `json:"ampl_fit_max"`
	// AssayThreshold is the percent-inhibition cut for the two-stage
	// experimental confirmation. Zero means 33 (the paper's hit bar).
	AssayThreshold float64 `json:"assay_threshold"`
	// ModelScale records how the scoring model is produced
	// ("smoke"/"full" for cmd/campaign), so resume rebuilds the same
	// model. Informational to this package; the model is injected.
	ModelScale string `json:"model_scale,omitempty"`
	// Seed drives docking and failure injection. Predictions do not
	// depend on it, so retries never change the scores.
	Seed int64 `json:"seed"`
}

// DefaultConfig returns a repro-scale four-target campaign.
func DefaultConfig() Config {
	return Config{
		Compounds:      48,
		ChunkSize:      12,
		MaxPoses:       3,
		Workers:        2,
		Job:            screen.DefaultJobOptions(),
		MaxAttempts:    3,
		Shards:         2,
		TopN:           8,
		Weights:        screen.DefaultCostWeights(),
		AMPLFitMax:     60,
		AssayThreshold: 33,
		Seed:           1,
	}
}

// withDefaults fills zero-valued knobs.
func (c Config) withDefaults() Config {
	if len(c.Targets) == 0 {
		for _, t := range target.All() {
			c.Targets = append(c.Targets, t.Name)
		}
	}
	if c.Compounds < 1 {
		c.Compounds = 48
	}
	if c.ChunkSize < 1 {
		c.ChunkSize = 12
	}
	if c.MaxPoses < 1 {
		c.MaxPoses = 3
	}
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 3
	}
	if c.MaxRepairs < 1 {
		c.MaxRepairs = 3
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.TopN < 1 {
		c.TopN = 8
	}
	if c.Weights == (screen.CostWeights{}) {
		c.Weights = screen.DefaultCostWeights()
	}
	if c.AMPLFitMax < 1 {
		c.AMPLFitMax = 60
	}
	if c.AssayThreshold <= 0 {
		c.AssayThreshold = 33
	}
	return c
}

// validate rejects configs the orchestrator cannot honor.
func (c Config) validate() error {
	for _, name := range c.Targets {
		if target.ByName(name) == nil {
			return fmt.Errorf("campaign: unknown target %q", name)
		}
	}
	if err := c.Job.Precision.Validate(); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// ErrInterrupted reports a run stopped by context cancellation with
// work remaining; the manifest holds the resume point.
var ErrInterrupted = errors.New("campaign: interrupted; resume from manifest")

// ErrUnitFailed marks a unit whose scoring job exhausted its retry
// budget — a real failure to record (and retry on the next run), as
// opposed to an interruption or an infrastructure error.
var ErrUnitFailed = errors.New("campaign: unit failed")

// Campaign is a live handle on a campaign directory: the manifest,
// the deterministically regenerated deck, and the injected scorer
// set (primary first — the primary fills the legacy fusion_pk column
// the selection cost function reads).
type Campaign struct {
	dir     string
	scorers []screen.Scorer
	deck    []*chem.Mol
	byID    map[string]*chem.Mol

	mu  sync.Mutex // guards man and manifest writes
	man *Manifest

	// prefeatures caches the target-invariant featurization
	// (screen.PrefeatureFor) per target, built on the target's first
	// unit and shared read-only by every later chunk — campaign state,
	// not unit state, because every chunk of a target screens against
	// the same pocket with the same options.
	preMu       sync.Mutex
	prefeatures map[string]*featurize.PocketPrefeature

	// OnShardWrite is an optional observer called after each shard
	// file of a unit lands on disk — the fault-injection harness's
	// mid-shard-write kill point.
	OnShardWrite func(unitID, shard string)
}

// New creates a campaign directory with a fresh manifest recording
// the scorer set by name. It refuses to overwrite an existing
// manifest — that is what Load is for.
func New(dir string, cfg Config, scorers []screen.Scorer) (*Campaign, error) {
	if len(scorers) == 0 {
		return nil, fmt.Errorf("campaign: need at least one scorer")
	}
	// A duplicate name would fail every unit's scoring job; refuse it
	// before a manifest exists.
	if err := screen.ValidateScorerSet(scorers); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	cfg = cfg.withDefaults()
	cfg.Scorers = screen.ScorerNames(scorers)
	// Record the engine precision explicitly ("f64" for the legacy
	// empty knob), so the manifest states what every shard was scored
	// at and Load can hold resumers to it.
	cfg.Job.Precision = cfg.Job.Precision.Normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(manifestPath(dir)); err == nil {
		return nil, fmt.Errorf("campaign: %s already holds a campaign (use Load)", dir)
	}
	if err := os.MkdirAll(filepath.Join(dir, shardDirName), 0o755); err != nil {
		return nil, err
	}
	// The dispatch dirs exist from birth so workers can attach to a
	// campaign the moment it is created, before any coordinator pass.
	if err := ensureDispatchDirs(dir); err != nil {
		return nil, err
	}
	deck := drawDeck(cfg)
	man := &Manifest{
		Version:  manifestVersion,
		Name:     filepath.Base(dir),
		Config:   cfg,
		DeckSize: len(deck),
		Units:    unitGrid(cfg, len(deck)),
	}
	if err := saveManifest(dir, man); err != nil {
		return nil, err
	}
	return newHandle(dir, man, deck, scorers), nil
}

// Precision re-exports the engine's arithmetic knob so campaign
// callers configure Config.Job and WithPrecision without importing
// the engine package.
type Precision = screen.Precision

// Engine precisions accepted by Config.Job.Precision.
const (
	PrecisionF64 = screen.PrecisionF64
	PrecisionF32 = screen.PrecisionF32
)

// LoadOption declares an intent the resuming process holds Load to;
// Load refuses to reopen a campaign whose manifest contradicts it.
type LoadOption func(*loadChecks)

type loadChecks struct {
	precision      screen.Precision
	checkPrecision bool
}

// WithPrecision declares the engine precision the resuming process
// intends to score at. Completed shards were scored at the manifest's
// recorded precision; resuming at a different one would mix f32 and
// f64 score columns inside a campaign whose selections are only
// comparable within one arithmetic width — so, exactly like a changed
// scorer set, Load refuses the mismatch.
func WithPrecision(p screen.Precision) LoadOption {
	return func(c *loadChecks) {
		c.precision = p
		c.checkPrecision = true
	}
}

// Load reopens an existing campaign directory for a coordinator: the
// deck is regenerated from the stored config and the unit grid is
// readied for a new run (see fenceForRun) — acks the previous run left
// on disk are folded, and every unit it had in flight, every failed
// unit and every done unit whose shards have gone missing returns to
// pending at a fresh epoch. The provided scorer set must match the
// manifest's recorded names exactly — completed shards were written by
// that set, and mixing sets would corrupt the campaign's comparability
// guarantee. Options declare further intents (e.g. WithPrecision) the
// manifest must agree with.
func Load(dir string, scorers []screen.Scorer, opts ...LoadOption) (*Campaign, error) {
	return openCampaign(dir, scorers, true, opts...)
}

// Attach opens an existing campaign for a worker process: the same
// validation as Load (scorer set, deck size, declared intents), but
// it never mutates unit states and never writes the manifest — the
// coordinator is the only manifest writer, and workers take their
// units through the lease store instead.
func Attach(dir string, scorers []screen.Scorer, opts ...LoadOption) (*Campaign, error) {
	return openCampaign(dir, scorers, false, opts...)
}

func openCampaign(dir string, scorers []screen.Scorer, mutate bool, opts ...LoadOption) (*Campaign, error) {
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	got := screen.ScorerNames(scorers)
	if !slices.Equal(got, man.Config.Scorers) {
		return nil, fmt.Errorf("campaign: manifest records scorer set %v; refusing to resume with %v", man.Config.Scorers, got)
	}
	var checks loadChecks
	for _, opt := range opts {
		opt(&checks)
	}
	if checks.checkPrecision {
		if want, intent := man.Config.Job.Precision.Normalize(), checks.precision.Normalize(); intent != want {
			return nil, fmt.Errorf("campaign: manifest records precision %q; refusing to resume at %q", want, intent)
		}
	}
	deck := drawDeck(man.Config)
	if len(deck) != man.DeckSize {
		return nil, fmt.Errorf("campaign: deck regenerated to %d compounds, manifest has %d (library drift?)", len(deck), man.DeckSize)
	}
	if mutate {
		if err := fenceForRun(dir, man); err != nil {
			return nil, err
		}
	}
	return newHandle(dir, man, deck, scorers), nil
}

func newHandle(dir string, man *Manifest, deck []*chem.Mol, scorers []screen.Scorer) *Campaign {
	byID := make(map[string]*chem.Mol, len(deck))
	for _, m := range deck {
		byID[m.Name] = m
	}
	return &Campaign{dir: dir, scorers: scorers, deck: deck, byID: byID, man: man}
}

// Dir returns the campaign directory.
func (c *Campaign) Dir() string { return c.dir }

// Units returns a snapshot of the manifest's unit grid.
func (c *Campaign) Units() []UnitRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]UnitRecord(nil), c.man.Units...)
}

// Config returns the stored campaign configuration.
func (c *Campaign) Config() Config { return c.man.Config }

// Status returns the current progress summary.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.man.status(c.dir)
}

// drawDeck regenerates the campaign's screening deck. libgen.Draw is
// deterministic, so every process that reads the same config sees the
// same compounds at the same indices.
func drawDeck(cfg Config) []*chem.Mol {
	return libgen.Draw(libgen.All(), cfg.Compounds)
}

// unitGrid lays out the work units: per target, the deck split into
// ChunkSize compound ranges.
func unitGrid(cfg Config, deckSize int) []UnitRecord {
	var units []UnitRecord
	for _, tgt := range cfg.Targets {
		chunk := 0
		for lo := 0; lo < deckSize; lo += cfg.ChunkSize {
			hi := lo + cfg.ChunkSize
			if hi > deckSize {
				hi = deckSize
			}
			units = append(units, UnitRecord{
				ID:     fmt.Sprintf("%s_c%03d", tgt, chunk),
				Target: tgt,
				Chunk:  chunk,
				Lo:     lo,
				Hi:     hi,
				State:  UnitPending,
			})
			chunk++
		}
	}
	return units
}

// unitSeed derives the unit's base seed for docking and failure
// injection from the campaign seed and the unit's stable identity.
func unitSeed(cfgSeed int64, u UnitRecord) int64 {
	return cfgSeed + int64(screen.ShardOf(u.ID, 1<<20))*7919
}

// prefeatureFor returns the campaign's shared featurization cache for
// a target, building it on first use. A nil cache (scorer set declares
// no featurized representation) is cached too — the lookup, not the
// build, is what must be cheap per unit.
func (c *Campaign) prefeatureFor(tgt *target.Pocket) (*featurize.PocketPrefeature, error) {
	c.preMu.Lock()
	defer c.preMu.Unlock()
	if pf, ok := c.prefeatures[tgt.Name]; ok {
		return pf, nil
	}
	pf, err := screen.PrefeatureFor(c.scorers, tgt, c.man.Config.Job)
	if err != nil {
		return nil, err
	}
	if c.prefeatures == nil {
		c.prefeatures = make(map[string]*featurize.PocketPrefeature)
	}
	c.prefeatures[tgt.Name] = pf
	return pf, nil
}

// shardsExist reports whether every recorded shard file is present.
func shardsExist(dir string, shards []string) bool {
	if len(shards) == 0 {
		return false
	}
	for _, s := range shards {
		if _, err := os.Stat(filepath.Join(dir, s)); err != nil {
			return false
		}
	}
	return true
}

// UnitOutcome is the result of executing one work unit: the shard
// files written and the counts the manifest records. Attempts is
// filled even when execution fails, so the retry seeds keep
// advancing.
type UnitOutcome struct {
	Poses    int
	Skipped  int
	Attempts int
	Shards   []string
}

// ExecuteUnit runs one work unit end to end — dock the chunk, score
// every pose with the distributed ensemble job, write the unit's
// h5lite shards — WITHOUT touching the manifest. It is the worker
// half of the orchestrator: dispatch workers wrap it in the lease
// store's claim/ack protocol. epoch qualifies the shard
// filenames, so a fenced zombie's late shard write lands under its
// own (ignored) epoch and can never collide with the current owner's.
//
// A returned error wrapping ErrUnitFailed means the scoring job
// exhausted its retry budget (record + retry later); a context error
// means interruption (the unit is simply abandoned); anything else is
// an infrastructure error.
func (c *Campaign) ExecuteUnit(ctx context.Context, u UnitRecord, epoch int) (UnitOutcome, error) {
	var out UnitOutcome
	if err := ctx.Err(); err != nil {
		return out, err
	}
	cfg := c.man.Config
	tgt := target.ByName(u.Target)
	chunk := c.deck[u.Lo:u.Hi]
	seed := unitSeed(cfg.Seed, u)
	poses, problems, err := screen.DockCompounds(ctx, tgt, chunk, cfg.MaxPoses, seed)
	if err != nil {
		return out, err // cancelled mid-dock; unit stays in-flight for resume
	}
	// DockCompounds returns poses in deck order; shards are written in
	// the canonical (compound ID, pose-rank) order, so shard bytes — and
	// therefore final selections — match every campaign written before.
	sort.Slice(poses, func(a, b int) bool {
		if poses[a].CompoundID != poses[b].CompoundID {
			return poses[a].CompoundID < poses[b].CompoundID
		}
		return poses[a].PoseRank < poses[b].PoseRank
	})

	o := cfg.Job
	// Advance past failure-injection seeds consumed by earlier
	// attempts (this run or a previous, resumed one), so a chunk that
	// keeps drawing the failure dice eventually clears it. Scores
	// never depend on the seed, only the injected-failure roll does.
	o.Seed = seed + int64(u.Attempts)
	// Every chunk of a target shares one featurization cache; a
	// prefeature error is a configuration error (conflicting scorer
	// handshakes), not a retryable unit failure.
	pf, err := c.prefeatureFor(tgt)
	if err != nil {
		return out, fmt.Errorf("campaign: unit %s: %w", u.ID, err)
	}
	o.Prefeature = pf
	preds, attempts, jobErr := screen.RunJobEnsembleWithRetry(ctx, c.scorers, tgt, poses, o, cfg.MaxAttempts)
	out.Attempts = attempts
	if jobErr != nil {
		if ctx.Err() != nil {
			return out, ctx.Err() // interruption, not a failed unit
		}
		return out, fmt.Errorf("%w: unit %s: %v", ErrUnitFailed, u.ID, jobErr)
	}

	shardNames, err := c.writeUnitShards(ctx, u, epoch, preds)
	if err != nil {
		return out, fmt.Errorf("campaign: unit %s: %w", u.ID, err)
	}
	out.Poses = len(preds)
	out.Skipped = len(problems)
	out.Shards = shardNames
	return out, nil
}

// writeUnitShards persists one unit's predictions as compound-keyed
// h5lite shards (screen.WriteShards layout), each written to a temp
// file and renamed so a kill never leaves a torn shard behind a
// done-marked unit. Epoch 0 keeps the plain names; later epochs
// (reassignments, repairs, resumes) qualify the filename so a
// zombie's late write can never race the current owner's. The context
// is checked between shard files: a mid-shard-write kill leaves the
// earlier shards complete on disk and the unit unacked.
func (c *Campaign) writeUnitShards(ctx context.Context, u UnitRecord, epoch int, preds []screen.Prediction) ([]string, error) {
	files := screen.WriteShards(preds, c.man.Config.Shards)
	names := make([]string, 0, len(files))
	for si, f := range files {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("%s_s%02d.h5l", u.ID, si)
		if epoch > 0 {
			name = fmt.Sprintf("%s_e%03d_s%02d.h5l", u.ID, epoch, si)
		}
		rel := filepath.Join(shardDirName, name)
		if err := WriteShardFile(filepath.Join(c.dir, rel), f); err != nil {
			return nil, err
		}
		if c.OnShardWrite != nil {
			c.OnShardWrite(u.ID, rel)
		}
		names = append(names, rel)
	}
	return names, nil
}

// WriteShardFile atomically and durably writes one prediction shard
// (checksummed h5lite v2, temp-write + fsync + rename + parent-dir
// fsync via commitBytes): the durability primitive shared by campaign
// finalize and the screening service's result store.
func WriteShardFile(path string, f *h5lite.File) error {
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return err
	}
	return commitBytes(path, buf.Bytes())
}
