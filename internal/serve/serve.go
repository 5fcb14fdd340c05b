// Package serve is the screening service front door: a long-lived
// engine that loads scorers once, keeps per-worker fusion workspaces
// and per-target pocket prefeatures warm, and scores small client
// submissions by coalescing them into full inference batches.
//
// The headline mechanism is the cross-request batcher. Every target
// keeps at most one open batch; submitted poses append to it, and the
// batch is dispatched to the scoring workers when it reaches the
// engine's batch size (batch-full flush) or when the configured
// latency bound expires (deadline flush), whichever happens first.
// Deadlines run through the campaign Clock abstraction, so the whole
// flush state machine is driven deterministically by a FakeClock in
// tests — no wall-clock sleeps anywhere in the test suite. A
// generation counter per target makes the three flush causes
// (batch-full, deadline, drain) mutually exclusive: whoever flushes
// first bumps the generation, and a stale deadline timer finds the
// generation moved and does nothing.
//
// Scores are byte-identical to a solo screen.RunJob over the same
// poses: batches are scored through screen.Session, which featurizes
// and scores with literally the engine's rank-loop code, and the
// Scorer contract guarantees batch-composition independence — so how
// client submissions interleave into batches cannot change any score.
//
// Admission control is pose-denominated: the engine reserves capacity
// for a request's poses at submit time and releases it when they are
// scored. When the reservation would exceed QueueDepth full batches,
// Submit fails with an OverloadError carrying a Retry-After hint (the
// HTTP layer maps it to 429). Draining (SIGTERM) flushes every
// partial batch exactly once, lets in-flight requests finish and
// persist, and refuses new submissions with ErrDraining (503).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/chem"
	"deepfusion/internal/featurize"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// Config parameterizes the engine. The zero value is not runnable;
// use DefaultConfig and override.
type Config struct {
	// Scorers is the scorer set every request is scored with, primary
	// first (the same contract as screen.RunJobEnsemble).
	Scorers []screen.Scorer
	// Job carries the engine knobs shared with batch jobs: BatchSize
	// (the batcher's flush threshold), Precision, featurization
	// options, Seed (docking determinism for compound submissions).
	Job screen.JobOptions
	// Workers is the number of concurrent scoring sessions — the
	// service's analogue of the batch engine's ranks. Each worker owns
	// its own screen.Session per target (workspace, slots), exactly as
	// runRanks gives each rank a private emitter.
	Workers int
	// MaxWait is the cross-request batching deadline: the longest a
	// submitted pose waits for co-batching before a partial batch is
	// flushed. It is the service's latency/throughput dial.
	MaxWait time.Duration
	// QueueDepth bounds admitted-but-unscored work, measured in full
	// batches: admission reserves poses and refuses submissions beyond
	// QueueDepth*BatchSize reserved poses.
	QueueDepth int
	// MaxTargets caps the per-target runtime (prefeature) cache; the
	// least-recently-used target is evicted beyond it. Prefeatures are
	// immutable, so eviction never affects in-flight batches.
	MaxTargets int
	// MaxPosesPerRequest rejects oversized submissions outright (they
	// should be batch jobs, not service requests).
	MaxPosesPerRequest int
	// Clock drives batching deadlines and all timestamps. Nil means
	// the system clock; tests inject campaign.NewFakeClock.
	Clock campaign.Clock
	// Dir is the persistence root for request records and result
	// shards (the campaign's atomic write primitives). Empty runs the
	// engine fully in-memory.
	Dir string
}

// DefaultConfig returns production-shaped service settings.
func DefaultConfig(scorers []screen.Scorer) Config {
	return Config{
		Scorers:            scorers,
		Job:                screen.DefaultJobOptions(),
		Workers:            2,
		MaxWait:            25 * time.Millisecond,
		QueueDepth:         32,
		MaxTargets:         4,
		MaxPosesPerRequest: 256,
	}
}

// Request states.
const (
	StateQueued = "queued" // admitted, poses batched or being scored
	StateDone   = "done"   // every pose scored, results available
	StateFailed = "failed" // a scoring batch errored
	StateLost   = "lost"   // interrupted by a restart before completion
)

// ErrDraining rejects submissions while the engine shuts down.
var ErrDraining = errors.New("serve: engine is draining")

// OverloadError is the admission-control rejection: the bounded queue
// is full. RetryAfter is the engine's backoff hint (the HTTP layer
// rounds it up into a Retry-After header).
type OverloadError struct {
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: queue full, retry after %s", e.RetryAfter)
}

// Request is one admitted client submission. Fields are guarded by
// the engine mutex; handlers read consistent snapshots via Snapshot.
type Request struct {
	ID        string
	Target    string
	Submitted time.Time

	preds     []screen.Prediction // slot-indexed results
	remaining int                 // poses not yet scored
	state     string
	err       error
	completed time.Time
	done      chan struct{} // closed when state leaves "queued"
}

// Done returns a channel closed when the request finishes (done,
// failed or lost) — the wait hook for long-polling handlers.
func (r *Request) Done() <-chan struct{} { return r.done }

// RequestStatus is a consistent point-in-time view of a request.
type RequestStatus struct {
	ID        string    `json:"id"`
	Target    string    `json:"target"`
	State     string    `json:"state"`
	Poses     int       `json:"poses"`
	Scored    int       `json:"scored"`
	Submitted time.Time `json:"submitted"`
	Completed time.Time `json:"completed,omitzero"`
	Error     string    `json:"error,omitempty"`
}

// batchEntry routes one scored pose back to its request slot.
type batchEntry struct {
	req  *Request
	slot int
}

// batch is one unit of scoring work: poses coalesced from one or more
// requests against a single target.
type batch struct {
	tr      *targetRuntime
	pre     *featurize.PocketPrefeature
	poses   []screen.Pose
	entries []batchEntry
}

// targetRuntime is the per-target batcher state: the warm prefeature
// and the open (accumulating) batch with its flush generation.
type targetRuntime struct {
	name    string
	pocket  *target.Pocket
	pre     *featurize.PocketPrefeature
	lastUse time.Time
	open    *batch
	// gen counts flushes. A deadline timer armed when a batch opens
	// captures the generation it was armed for; if any other path
	// (batch-full, drain, an earlier deadline) flushed first, the
	// generation has moved and the timer does nothing — each batch is
	// flushed exactly once.
	gen int
}

// Engine is the resident screening service: warm scoring state, the
// cross-request batcher, admission control and request bookkeeping.
type Engine struct {
	cfg   Config
	clock campaign.Clock
	store *Store
	stats *Stats
	// dock docks a submission's compounds: screen.DockCompounds, or a
	// stand-in in tests of the HTTP surface.
	dock func(ctx context.Context, p *target.Pocket, mols []*chem.Mol, maxPoses int, seed int64) ([]screen.Pose, []screen.DockProblem, error)

	batches   chan *batch
	workers   sync.WaitGroup
	reqWG     sync.WaitGroup
	drainOnce sync.Once

	mu       sync.Mutex
	targets  map[string]*targetRuntime
	reqs     map[string]*Request
	reserved int // admitted poses not yet scored
	capacity int // QueueDepth * BatchSize poses
	draining bool
	seq      int
}

// NewEngine validates the configuration, restores persisted requests
// from cfg.Dir (when set) and starts the scoring workers.
func NewEngine(cfg Config) (*Engine, error) {
	if err := screen.ValidateScorerSet(cfg.Scorers); err != nil {
		return nil, err
	}
	if err := cfg.Job.Precision.Validate(); err != nil {
		return nil, err
	}
	if cfg.Job.BatchSize < 1 {
		return nil, fmt.Errorf("serve: batch size %d, want >= 1", cfg.Job.BatchSize)
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("serve: %d workers, want >= 1", cfg.Workers)
	}
	if cfg.MaxWait <= 0 {
		return nil, fmt.Errorf("serve: batching deadline %s, want > 0", cfg.MaxWait)
	}
	if cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("serve: queue depth %d, want >= 1", cfg.QueueDepth)
	}
	if cfg.MaxTargets < 1 {
		return nil, fmt.Errorf("serve: max targets %d, want >= 1", cfg.MaxTargets)
	}
	if cfg.MaxPosesPerRequest < 1 {
		cfg.MaxPosesPerRequest = cfg.Job.BatchSize
	}
	clock := cfg.Clock
	if clock == nil {
		clock = campaign.SystemClock{}
	}
	e := &Engine{
		cfg:      cfg,
		clock:    clock,
		stats:    newStats(clock),
		dock:     screen.DockCompounds,
		targets:  map[string]*targetRuntime{},
		reqs:     map[string]*Request{},
		capacity: cfg.QueueDepth * cfg.Job.BatchSize,
		// Every dispatched-but-unscored batch holds at least one
		// reserved pose and reservations never exceed capacity, so a
		// channel of capacity batches makes dispatch non-blocking by
		// construction (flushLocked sends while holding the mutex).
		batches: make(chan *batch, cfg.QueueDepth*cfg.Job.BatchSize),
	}
	if cfg.Dir != "" {
		st, err := OpenStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		e.store = st
		if err := e.restore(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		e.workers.Add(1)
		go e.worker(i)
	}
	return e, nil
}

// restore reloads persisted request records (and completed results)
// so a restarted service answers status/results queries for past
// work. Requests caught mid-flight by the previous shutdown are
// marked lost: their poses were never scored and the submitting
// client must retry.
func (e *Engine) restore() error {
	stored, err := e.store.Load()
	if err != nil {
		return err
	}
	for _, sr := range stored {
		r := &Request{
			ID:        sr.Record.ID,
			Target:    sr.Record.Target,
			Submitted: sr.Record.Submitted,
			completed: sr.Record.Completed,
			state:     sr.Record.State,
			preds:     sr.Preds,
			done:      make(chan struct{}),
		}
		if sr.Record.Error != "" {
			r.err = errors.New(sr.Record.Error)
		}
		if r.state == StateQueued {
			r.state = StateLost
			r.err = errors.New("serve: interrupted by service restart before scoring completed")
			rec := sr.Record
			rec.State = r.state
			rec.Error = r.err.Error()
			if err := e.store.SaveRequest(rec); err != nil {
				return err
			}
		}
		close(r.done) // every restored request is terminal
		e.reqs[r.ID] = r
		if n := requestSeq(r.ID); n > e.seq {
			e.seq = n
		}
	}
	return nil
}

// SubmitPoses admits pre-docked poses for scoring against the named
// target, appending them to the target's open batch. It returns as
// soon as the poses are batched (with any deadline timer armed), so a
// FakeClock test may Advance immediately after it returns.
func (e *Engine) SubmitPoses(targetName string, poses []screen.Pose) (*Request, error) {
	if len(poses) == 0 {
		return nil, fmt.Errorf("serve: empty submission")
	}
	if len(poses) > e.cfg.MaxPosesPerRequest {
		return nil, fmt.Errorf("serve: %d poses exceeds the %d-pose request limit (submit a batch job instead)", len(poses), e.cfg.MaxPosesPerRequest)
	}
	pocket := target.ByName(targetName)
	if pocket == nil {
		return nil, fmt.Errorf("serve: unknown target %q", targetName)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return nil, ErrDraining
	}
	if e.reserved+len(poses) > e.capacity {
		e.stats.rejected()
		return nil, &OverloadError{RetryAfter: e.cfg.MaxWait}
	}
	tr, err := e.runtimeLocked(pocket)
	if err != nil {
		return nil, err
	}

	e.seq++
	r := &Request{
		ID:        fmt.Sprintf("r%06d", e.seq),
		Target:    targetName,
		Submitted: e.clock.Now(),
		preds:     make([]screen.Prediction, len(poses)),
		remaining: len(poses),
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	e.reqs[r.ID] = r
	e.reqWG.Add(1)
	e.reserved += len(poses)
	if e.store != nil {
		if err := e.store.SaveRequest(r.recordLocked()); err != nil {
			// Roll the admission back; nothing was batched yet.
			delete(e.reqs, r.ID)
			e.reqWG.Done()
			e.reserved -= len(poses)
			return nil, err
		}
	}
	for i := range poses {
		e.appendPoseLocked(tr, poses[i], r, i)
	}
	return r, nil
}

// runtimeLocked returns the target's runtime, building its prefeature
// on first use and evicting the least-recently-used target beyond
// MaxTargets.
func (e *Engine) runtimeLocked(p *target.Pocket) (*targetRuntime, error) {
	if tr, ok := e.targets[p.Name]; ok {
		tr.lastUse = e.clock.Now()
		return tr, nil
	}
	for len(e.targets) >= e.cfg.MaxTargets {
		victim := ""
		for name, tr := range e.targets {
			// Never evict a target with an open batch: its deadline
			// timer holds a pointer into the runtime's flush state.
			if tr.open != nil {
				continue
			}
			if victim == "" || tr.lastUse.Before(e.targets[victim].lastUse) {
				victim = name
			}
		}
		if victim == "" {
			break // every runtime is mid-batch; admit the extra target
		}
		delete(e.targets, victim)
		e.stats.evictedTarget()
	}
	pre, err := screen.PrefeatureFor(e.cfg.Scorers, p, e.cfg.Job)
	if err != nil {
		return nil, err
	}
	tr := &targetRuntime{name: p.Name, pocket: p, pre: pre, lastUse: e.clock.Now()}
	e.targets[p.Name] = tr
	return tr, nil
}

// appendPoseLocked adds one pose to the target's open batch, opening
// a fresh batch (and arming its deadline synchronously, before Submit
// returns) when none is accumulating, and flushing on batch-full.
func (e *Engine) appendPoseLocked(tr *targetRuntime, ps screen.Pose, r *Request, slot int) {
	if tr.open == nil {
		tr.open = &batch{tr: tr, pre: tr.pre}
		gen := tr.gen
		ch := e.clock.After(e.cfg.MaxWait)
		go func() {
			<-ch
			e.deadlineFlush(tr, gen)
		}()
	}
	tr.open.poses = append(tr.open.poses, ps)
	tr.open.entries = append(tr.open.entries, batchEntry{req: r, slot: slot})
	if len(tr.open.poses) >= e.cfg.Job.BatchSize {
		e.flushLocked(tr, flushFull)
	}
}

// deadlineFlush fires when a batch's latency bound expires. The
// generation check makes it a no-op if the batch it was armed for was
// already flushed by any other path.
func (e *Engine) deadlineFlush(tr *targetRuntime, gen int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tr.open == nil || tr.gen != gen {
		return
	}
	e.flushLocked(tr, flushDeadline)
}

// flushLocked dispatches the target's open batch to the workers.
func (e *Engine) flushLocked(tr *targetRuntime, cause flushCause) {
	b := tr.open
	tr.open = nil
	tr.gen++
	e.stats.flushed(cause, len(b.poses))
	e.batches <- b // never blocks: see the channel-capacity invariant
}

// worker is one scoring loop: it owns a warm screen.Session per
// target (bounded by MaxTargets, LRU-evicted) and scores batches as
// the batcher dispatches them. idx tags predictions' Rank column.
func (e *Engine) worker(idx int) {
	defer e.workers.Done()
	type warmSession struct {
		sess    *screen.Session
		lastUse time.Time
	}
	sessions := map[string]*warmSession{}
	for b := range e.batches {
		ws, ok := sessions[b.tr.name]
		if !ok {
			for len(sessions) >= e.cfg.MaxTargets {
				victim := ""
				for name, s := range sessions {
					if victim == "" || s.lastUse.Before(sessions[victim].lastUse) {
						victim = name
					}
				}
				delete(sessions, victim)
			}
			o := e.cfg.Job
			o.Prefeature = b.pre
			sess, err := screen.NewSession(e.cfg.Scorers, b.tr.pocket, o, idx)
			if err != nil {
				e.completeBatch(b, nil, err)
				continue
			}
			ws = &warmSession{sess: sess}
			sessions[b.tr.name] = ws
		}
		ws.lastUse = e.clock.Now()
		out := make([]screen.Prediction, len(b.poses))
		panicked, err := scoreBatch(ws.sess, b.poses, out)
		if panicked {
			// The session's buffers may hold a half-scored batch.
			delete(sessions, b.tr.name)
			e.stats.panicked()
		}
		e.completeBatch(b, out, err)
	}
}

// scoreBatch scores poses on the session, turning a panic into an
// error: a fault while scoring one batch fails that batch's requests,
// not the process.
func scoreBatch(sess *screen.Session, poses []screen.Pose, out []screen.Prediction) (panicked bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			panicked, err = true, fmt.Errorf("serve: scoring panicked: %v", v)
		}
	}()
	return false, sess.ScoreBatch(poses, out)
}

// completeBatch routes scored predictions back to their requests,
// releases the batch's admission reservation and finishes any request
// whose last pose this batch carried.
func (e *Engine) completeBatch(b *batch, out []screen.Prediction, err error) {
	var finished []*Request
	e.mu.Lock()
	e.reserved -= len(b.poses)
	e.stats.scored(len(b.poses))
	for j, en := range b.entries {
		r := en.req
		if err != nil {
			r.err = err
		} else {
			r.preds[en.slot] = out[j]
		}
		r.remaining--
		if r.remaining == 0 {
			finished = append(finished, r)
		}
	}
	e.mu.Unlock()
	for _, r := range finished {
		e.finishRequest(r)
	}
}

// finishRequest persists the request's terminal record (and its
// result shard) and wakes every waiter. Persistence happens before
// the done channel closes, so a client that sees "done" can always
// read results — even from a restarted service.
func (e *Engine) finishRequest(r *Request) {
	e.mu.Lock()
	if r.err != nil {
		r.state = StateFailed
	} else {
		r.state = StateDone
	}
	r.completed = e.clock.Now()
	e.stats.latency(r.completed.Sub(r.Submitted))
	rec := r.recordLocked()
	preds := r.preds
	e.mu.Unlock()

	if e.store != nil {
		if r.err == nil {
			if err := e.store.SaveResults(r.ID, preds); err != nil {
				e.mu.Lock()
				r.state = StateFailed
				r.err = err
				rec = r.recordLocked()
				e.mu.Unlock()
			}
		}
		if err := e.store.SaveRequest(rec); err != nil && r.err == nil {
			e.mu.Lock()
			r.state = StateFailed
			r.err = err
			e.mu.Unlock()
		}
	}
	close(r.done)
	e.reqWG.Done()
}

// recordLocked snapshots the request's durable form. Caller holds
// e.mu (or has exclusive access during construction).
func (r *Request) recordLocked() RequestRecord {
	rec := RequestRecord{
		ID:        r.ID,
		Target:    r.Target,
		State:     r.state,
		Poses:     len(r.preds),
		Submitted: r.Submitted,
		Completed: r.completed,
	}
	if r.err != nil {
		rec.Error = r.err.Error()
	}
	return rec
}

// Request returns the engine's view of a request by ID.
func (e *Engine) Request(id string) (*Request, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.reqs[id]
	return r, ok
}

// Snapshot returns a consistent status view of the request.
func (e *Engine) Snapshot(r *Request) RequestStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := RequestStatus{
		ID:        r.ID,
		Target:    r.Target,
		State:     r.state,
		Poses:     len(r.preds),
		Scored:    len(r.preds) - r.remaining,
		Submitted: r.Submitted,
		Completed: r.completed,
	}
	if r.err != nil {
		st.Error = r.err.Error()
	}
	return st
}

// Results returns the request's predictions, pose-ordered. It fails
// until the request completes; long-polling callers wait on Done
// first.
func (e *Engine) Results(r *Request) ([]screen.Prediction, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch r.state {
	case StateDone:
		return r.preds, nil
	case StateFailed, StateLost:
		return nil, r.err
	default:
		return nil, fmt.Errorf("serve: request %s is still scoring (%d/%d poses)", r.ID, len(r.preds)-r.remaining, len(r.preds))
	}
}

// ServiceStatus is the /v1/status payload: live queue state plus the
// throughput/latency window.
type ServiceStatus struct {
	Draining      bool           `json:"draining"`
	ReservedPoses int            `json:"reserved_poses"`
	Capacity      int            `json:"capacity_poses"`
	BatchSize     int            `json:"batch_size"`
	MaxWaitMS     float64        `json:"max_wait_ms"`
	Workers       int            `json:"workers"`
	Targets       []string       `json:"targets,omitempty"`
	Requests      map[string]int `json:"requests"`
	Stats         StatsSnapshot  `json:"stats"`
}

// Status summarizes the live engine.
func (e *Engine) Status() ServiceStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := ServiceStatus{
		Draining:      e.draining,
		ReservedPoses: e.reserved,
		Capacity:      e.capacity,
		BatchSize:     e.cfg.Job.BatchSize,
		MaxWaitMS:     float64(e.cfg.MaxWait) / float64(time.Millisecond),
		Workers:       e.cfg.Workers,
		Requests:      map[string]int{},
		Stats:         e.stats.snapshot(),
	}
	for name := range e.targets {
		st.Targets = append(st.Targets, name)
	}
	for _, r := range e.reqs {
		st.Requests[r.state]++
	}
	return st
}

// Draining reports whether the engine has begun shutting down.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Drain shuts the engine down gracefully: refuse new submissions,
// flush every partial batch exactly once, score everything admitted,
// persist every finished request, then stop the workers. It is the
// SIGTERM path and is safe to call more than once; every call blocks
// until the drain completes.
func (e *Engine) Drain() {
	e.drainOnce.Do(func() {
		e.mu.Lock()
		e.draining = true
		for _, tr := range e.targets {
			if tr.open != nil {
				e.flushLocked(tr, flushDrain)
			}
		}
		e.mu.Unlock()
		e.reqWG.Wait()
		close(e.batches)
	})
	e.workers.Wait()
}

// requestSeq parses the numeric suffix of a request ID ("r000017"),
// so a restarted engine continues its ID sequence without collisions.
func requestSeq(id string) int {
	if len(id) < 2 || id[0] != 'r' {
		return 0
	}
	n := 0
	for i := 1; i < len(id); i++ {
		c := id[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
