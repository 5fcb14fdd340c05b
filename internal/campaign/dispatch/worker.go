// Package dispatch is the campaign runtime: the coordinator and
// worker halves of the orchestrator that turns cluster.SimulatePlan's
// simulated ~125-jobs-in-flight regime into real work. Workers claim
// (target, chunk) work units through the campaign package's
// lease-aware manifest store, heartbeat while they hold them, and ack
// completion with epoch-fenced result records; the coordinator folds
// claims and acks into the manifest, reassigns dead workers' units
// when their leases expire, and finalizes. Every campaign runs this
// way: RunLocal starts the coordinator with in-process workers, and
// workers of other processes or hosts join the same lease store —
// with selections byte-identical across kills, resumes, worker counts
// and transports.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"time"

	"deepfusion/internal/campaign"
)

// EventKind tags the worker lifecycle points the fault-injection
// harness hooks.
type EventKind string

// Worker lifecycle events, in per-unit order.
const (
	EventClaimed   EventKind = "claimed"    // lease acquired, execution about to start
	EventExecuted  EventKind = "executed"   // unit executed, shards on disk, ack not yet written
	EventAcked     EventKind = "acked"      // completion (or failure) ack written
	EventLeaseLost EventKind = "lease-lost" // heartbeat discovered the lease was fenced
)

// Event is one worker lifecycle observation.
type Event struct {
	Kind   EventKind
	Worker string
	Unit   string
	Epoch  int
}

// Worker runs the claim → execute → ack loop of one worker. It owns
// no campaign state: the manifest is read through the store, units are
// executed through a campaign handle it never writes the manifest
// with, and every durable write (claim, heartbeat, shard, ack) goes
// through the store's atomic file protocol.
type Worker struct {
	// ID names the worker in claims and the manifest's liveness
	// table. Empty means "host-pid".
	ID string
	// Camp executes the units: a worker process's campaign.Attach
	// handle, or the coordinator's own handle for RunLocal's workers.
	Camp *campaign.Campaign
	// Store is the lease backend: campaign.NewDispatchStore on a
	// shared directory, or dispatchhttp.NewClient against a
	// coordinator on another host.
	Store campaign.Dispatcher
	// Clock drives heartbeats, claim-retry polling and transient-error
	// backoff. Nil means the system clock.
	Clock campaign.Clock
	// Lease sets the heartbeat cadence (must match the coordinator's
	// TTL regime). Zero-valued means defaults.
	Lease campaign.LeaseOptions
	// Poll is the base claim-retry cadence while every unfinished unit
	// is leased elsewhere. Zero means one second. Each wait is
	// jittered to [0.5, 1.5)x so a fleet of workers woken by the same
	// lease expiry doesn't hammer the coordinator in lockstep.
	Poll time.Duration
	// StoreAttempts caps the attempts (first call included) a
	// transient Claim/Complete/Fail error is retried with capped
	// backoff before the worker gives up and exits — one
	// manifest-mid-replace blip on a network filesystem or one dropped
	// coordinator connection must not drop a worker from the fleet.
	// Zero means 4. Protocol outcomes (ErrNoWork, ErrAllDone,
	// ErrLeaseLost) and context cancellation are never retried.
	StoreAttempts int
	// StoreBackoff is the initial transient-error backoff, doubled per
	// attempt, capped at 16x, jittered, and slept on Clock. Zero means
	// 200ms.
	StoreBackoff time.Duration
	// OnEvent is an optional lifecycle observer; the chaos harness
	// uses it to kill workers at precise protocol points.
	OnEvent func(Event)

	rng *rand.Rand // poll/backoff jitter; worker-goroutine-only
}

func (w *Worker) id() string {
	if w.ID != "" {
		return w.ID
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func (w *Worker) clock() campaign.Clock {
	if w.Clock == nil {
		return campaign.SystemClock{}
	}
	return w.Clock
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return time.Second
}

// jitter spreads d uniformly over [0.5d, 1.5d). The rng is seeded
// from the worker ID, so a fleet of workers created alike still
// desynchronizes, while any single worker's schedule is reproducible.
// Only the worker goroutine touches the rng.
func (w *Worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	if w.rng == nil {
		h := fnv.New64a()
		h.Write([]byte(w.id()))
		w.rng = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	return d/2 + time.Duration(w.rng.Int63n(int64(d)))
}

func (w *Worker) storeAttempts() int {
	if w.StoreAttempts > 0 {
		return w.StoreAttempts
	}
	return 4
}

func (w *Worker) storeBackoff() time.Duration {
	if w.StoreBackoff > 0 {
		return w.StoreBackoff
	}
	return 200 * time.Millisecond
}

// retryTransient runs one dispatcher call, retrying transient
// infrastructure errors with capped exponential backoff on the worker
// Clock. Protocol outcomes — nil, ErrNoWork, ErrAllDone, ErrLeaseLost
// — and context errors return immediately: they are answers, not
// failures. Exhausting the budget returns the last error.
func (w *Worker) retryTransient(ctx context.Context, fn func() error) error {
	backoff := w.storeBackoff()
	cap := backoff * 16
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil ||
			errors.Is(err, campaign.ErrNoWork) ||
			errors.Is(err, campaign.ErrAllDone) ||
			errors.Is(err, campaign.ErrLeaseLost) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if attempt >= w.storeAttempts() {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.clock().After(w.jitter(backoff)):
		}
		if backoff < cap {
			backoff *= 2
		}
	}
}

func (w *Worker) event(kind EventKind, unit string, epoch int) {
	if w.OnEvent != nil {
		w.OnEvent(Event{Kind: kind, Worker: w.id(), Unit: unit, Epoch: epoch})
	}
}

// Run claims and executes units until the campaign settles (every
// unit done or failed), the context is cancelled, or an
// infrastructure error occurs. Returning nil means there is nothing
// left for this worker to do.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var claim *campaign.ClaimRecord
		var unit *campaign.UnitRecord
		err := w.retryTransient(ctx, func() error {
			var cerr error
			claim, unit, cerr = w.Store.Claim(w.id())
			return cerr
		})
		if errors.Is(err, campaign.ErrAllDone) {
			return nil
		}
		if errors.Is(err, campaign.ErrNoWork) {
			// Everything unfinished is leased elsewhere; poll (with
			// jitter, so a fleet woken by one lease expiry doesn't
			// stampede the coordinator in lockstep) until a unit frees
			// up or the campaign settles.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-w.clock().After(w.jitter(w.poll())):
			}
			continue
		}
		if err != nil {
			return err
		}
		if err := w.runClaim(ctx, claim, unit); err != nil {
			return err
		}
	}
}

// runClaim executes one claimed unit under a heartbeat, then acks it.
// A lease lost mid-execution cancels the unit's context (the fenced
// worker stops burning compute) and is not an error — the worker just
// moves to the next claim. A parent-context cancellation mid-unit
// abandons the claim without an ack; the lease expires and the
// coordinator reassigns.
func (w *Worker) runClaim(ctx context.Context, claim *campaign.ClaimRecord, unit *campaign.UnitRecord) error {
	w.event(EventClaimed, claim.Unit, claim.Epoch)
	uctx, cancel := context.WithCancel(ctx)
	defer cancel()

	lease := w.Lease
	hbEvery := lease.TTL / 4
	if lease.Heartbeat > 0 {
		hbEvery = lease.Heartbeat
	}
	if hbEvery <= 0 {
		hbEvery = campaign.DefaultLeaseOptions().TTL / 4
	}
	lost := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		for {
			select {
			case <-uctx.Done():
				return
			case <-w.clock().After(hbEvery):
				err := w.Store.Heartbeat(claim)
				if errors.Is(err, campaign.ErrLeaseLost) {
					w.event(EventLeaseLost, claim.Unit, claim.Epoch)
					close(lost)
					cancel()
					return
				}
				// Transient store errors (a manifest mid-replace on a
				// network filesystem) are absorbed; the next beat
				// retries well within the TTL.
			}
		}
	}()

	out, execErr := w.Camp.ExecuteUnit(uctx, *unit, claim.Epoch)
	cancel()
	<-hbDone

	leaseLost := false
	select {
	case <-lost:
		leaseLost = true
	default:
	}

	switch {
	case execErr == nil:
		w.event(EventExecuted, claim.Unit, claim.Epoch)
		if err := ctx.Err(); err != nil {
			return err // killed post-write-pre-ack: never ack, let the lease expire
		}
		err := w.retryTransient(ctx, func() error { return w.Store.Complete(claim, out) })
		if err != nil && !errors.Is(err, campaign.ErrLeaseLost) {
			return err
		}
		w.event(EventAcked, claim.Unit, claim.Epoch)
		return nil
	case errors.Is(execErr, campaign.ErrUnitFailed):
		if err := ctx.Err(); err != nil {
			return err
		}
		err := w.retryTransient(ctx, func() error { return w.Store.Fail(claim, out, execErr) })
		if err != nil && !errors.Is(err, campaign.ErrLeaseLost) {
			return err
		}
		w.event(EventAcked, claim.Unit, claim.Epoch)
		return nil
	case leaseLost && ctx.Err() == nil:
		// Fenced mid-unit: abandon and claim something else.
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	default:
		return execErr
	}
}
