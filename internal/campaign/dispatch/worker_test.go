package dispatch_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	. "deepfusion/internal/campaign/dispatch"
)

// flakyDispatcher wraps a real Dispatcher and fails a scripted count
// of calls per operation with a transient error, signalling every
// heartbeat attempt so tests can sequence virtual time around them.
type flakyDispatcher struct {
	campaign.Dispatcher
	failHeartbeats int
	failClaims     int
	failCompletes  int
	beats          chan error // non-blocking sends; buffered
}

var errTransient = errors.New("transient store blip (injected)")

func (f *flakyDispatcher) Claim(workerID string) (*campaign.ClaimRecord, *campaign.UnitRecord, error) {
	if f.failClaims > 0 {
		f.failClaims--
		return nil, nil, errTransient
	}
	return f.Dispatcher.Claim(workerID)
}

func (f *flakyDispatcher) Heartbeat(c *campaign.ClaimRecord) error {
	var err error
	if f.failHeartbeats > 0 {
		f.failHeartbeats--
		err = errTransient
	} else {
		err = f.Dispatcher.Heartbeat(c)
	}
	if f.beats != nil {
		select {
		case f.beats <- err:
		default:
		}
	}
	return err
}

func (f *flakyDispatcher) Complete(c *campaign.ClaimRecord, out campaign.UnitOutcome) error {
	if f.failCompletes > 0 {
		f.failCompletes--
		return errTransient
	}
	return f.Dispatcher.Complete(c, out)
}

// oneUnitConfig shrinks the fixture to a single work unit so lease
// timing tests have exactly one claim to reason about.
func oneUnitConfig() campaign.Config {
	cfg := tinyConfig()
	cfg.Targets = []string{"protease1"}
	cfg.Compounds = 2
	cfg.ChunkSize = 2
	cfg.MaxPoses = 1
	cfg.Workers = 1
	cfg.TopN = 2
	cfg.Shards = 1
	return cfg
}

// TestHeartbeatAbsorbsTransientErrors pins the heartbeat goroutine's
// absorption contract (worker.go): a run of transient store errors
// must neither kill the worker nor cost it the lease — the next
// successful beat renews well within the TTL and the unit is never
// reassigned. All time is virtual.
func TestHeartbeatAbsorbsTransientErrors(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fc := campaign.NewFakeClock(t0)
	// The TTL is deliberately enormous: the test advances virtual time
	// in heartbeat-sized steps until each beat is observed (the advance
	// and the goroutine's waiter registration race benignly, so a beat
	// may consume several advances), and no amount of that drift may
	// expire the lease out from under the assertion that RENEWAL — not
	// luck — is what keeps it. Renewal itself is asserted directly via
	// the worker's folded LastBeat.
	lease := campaign.LeaseOptions{TTL: 10000 * time.Hour, Heartbeat: 10 * time.Second}
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := campaign.New(dir, oneUnitConfig(), tinyScorers())
	if err != nil {
		t.Fatal(err)
	}

	// Block unit execution after its shard lands so the heartbeat
	// goroutine is provably the only thing keeping the lease alive.
	release := make(chan struct{})
	c.OnShardWrite = func(unit, shard string) { <-release }

	flaky := &flakyDispatcher{
		Dispatcher:     campaign.NewDispatchStore(dir, fc),
		failHeartbeats: 3,
		beats:          make(chan error, 64),
	}
	claimed := make(chan struct{}, 1)
	w := &Worker{
		ID:    "w1",
		Camp:  c,
		Store: flaky,
		Clock: fc,
		Lease: lease,
		OnEvent: func(e Event) {
			if e.Kind == EventClaimed {
				claimed <- struct{}{}
			}
		},
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	<-claimed
	// waitBeat advances virtual time in heartbeat steps until the next
	// beat attempt is observed. The tiny wall sleep only yields the
	// scheduler; no correctness depends on it.
	waitBeat := func() error {
		deadline := time.After(30 * time.Second)
		for {
			select {
			case err := <-flaky.beats:
				return err
			case <-deadline:
				t.Fatal("heartbeat never fired")
			default:
				fc.Advance(lease.Heartbeat)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	// Three beats, each failing transiently. After every absorbed
	// failure the worker is still alive, the lease is still held, and —
	// because a failed beat never rewrites the claim file — the folded
	// liveness timestamp has not moved past the grant.
	for i := 0; i < 3; i++ {
		if err := waitBeat(); !errors.Is(err, errTransient) {
			t.Fatalf("beat %d: err = %v, want injected transient", i+1, err)
		}
		rep, err := c.SyncDispatch(fc.Now(), lease)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Reassigned) != 0 || rep.InFlight != 1 {
			t.Fatalf("after absorbed beat %d: %+v, want lease still held", i+1, rep)
		}
		st, err := campaign.ReadStatus(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Workers) != 1 || !st.Workers[0].LastBeat.Equal(t0) {
			t.Fatalf("after absorbed beat %d: LastBeat = %v, want still at grant time %v", i+1, st.Workers, t0)
		}
	}
	// The fourth beat recovers and renews: the claim file is rewritten
	// with a fresh timestamp and the coordinator folds the advanced
	// liveness — the renewal, not TTL slack, is holding the lease.
	if err := waitBeat(); err != nil {
		t.Fatalf("recovery beat: %v, want success", err)
	}
	if _, err := c.SyncDispatch(fc.Now(), lease); err != nil {
		t.Fatal(err)
	}
	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 1 || !st.Workers[0].LastBeat.After(t0) {
		t.Fatalf("after recovery beat: LastBeat = %v, want advanced past %v (lease renewed)", st.Workers, t0)
	}

	// Unblock execution and let the worker finish on a free-running
	// virtual clock.
	fc.SetAutoAdvance(true)
	close(release)
	deadline := time.After(30 * time.Second)
	for {
		rep, err := c.SyncDispatch(fc.Now(), lease)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AllDone {
			break
		}
		select {
		case <-deadline:
			t.Fatal("campaign never settled")
		default:
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker never exited")
	}

	st, err = campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reassignments != 0 {
		t.Fatalf("reassignments = %d, want 0 (transient beats must not cost the lease)", st.Reassignments)
	}
	if st.Done != 1 || st.Done != st.Total {
		t.Fatalf("done = %d/%d, want the single unit done", st.Done, st.Total)
	}
	if st.Poses == 0 {
		t.Fatal("poses = 0, want the unit's poses counted exactly once")
	}
}

// TestWorkerRetriesTransientStoreErrors pins satellite behavior: a
// transient Claim or Complete error must not kill the worker — the
// call is retried with capped backoff on the injected clock and the
// campaign still settles with every pose counted once.
func TestWorkerRetriesTransientStoreErrors(t *testing.T) {
	fc := campaign.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	fc.SetAutoAdvance(true)
	lease := campaign.LeaseOptions{TTL: 5 * time.Minute}
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := campaign.New(dir, oneUnitConfig(), tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyDispatcher{
		Dispatcher:    campaign.NewDispatchStore(dir, fc),
		failClaims:    2,
		failCompletes: 2,
	}
	w := &Worker{ID: "w1", Camp: c, Store: flaky, Clock: fc, Lease: lease, StoreAttempts: 4}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	deadline := time.After(30 * time.Second)
	for {
		rep, err := c.SyncDispatch(fc.Now(), lease)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AllDone {
			break
		}
		select {
		case <-deadline:
			t.Fatal("campaign never settled (worker died on a transient store error?)")
		default:
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	if flaky.failClaims != 0 || flaky.failCompletes != 0 {
		t.Fatalf("injected failures unconsumed: claims=%d completes=%d", flaky.failClaims, flaky.failCompletes)
	}
	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != st.Total {
		t.Fatalf("done = %d/%d, want all", st.Done, st.Total)
	}
}

// TestWorkerGivesUpAfterRetryBudget pins the other half of the retry
// contract: a store that fails persistently (not transiently) must
// still surface as a worker error once the attempt budget is spent.
func TestWorkerGivesUpAfterRetryBudget(t *testing.T) {
	fc := campaign.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	fc.SetAutoAdvance(true)
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := campaign.New(dir, oneUnitConfig(), tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyDispatcher{
		Dispatcher: campaign.NewDispatchStore(dir, fc),
		failClaims: 1000,
	}
	w := &Worker{ID: "w1", Camp: c, Store: flaky, Clock: fc, StoreAttempts: 3}
	if err := w.Run(context.Background()); !errors.Is(err, errTransient) {
		t.Fatalf("worker exit = %v, want the persistent store error after 3 attempts", err)
	}
	if consumed := 1000 - flaky.failClaims; consumed != 3 {
		t.Fatalf("store attempts = %d, want exactly the budget of 3", consumed)
	}
}
