package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	. "deepfusion/internal/campaign/dispatch"
	"deepfusion/internal/campaign/dispatchtest"
)

// frozenClock reads one instant forever, so no lease ever expires on
// it, while its waits pass in wall time so polls still happen.
type frozenClock struct{ now time.Time }

func (c frozenClock) Now() time.Time                         { return c.now }
func (c frozenClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// TestResumeAfterKillWaitsForNoLease kills a run with units in flight
// and resumes it on a clock that never advances. The dead run's claims
// are still fresh on that clock, so only Load's fence can free their
// units: the resume must settle, claim exactly the units not done at
// the kill, and match the reference selections.
func TestResumeAfterKillWaitsForNoLease(t *testing.T) {
	cfg := tinyConfig()
	_, refBytes := referenceRun(t, cfg)

	dir := filepath.Join(t.TempDir(), "killed")
	c, err := campaign.New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	onDone := func(campaign.ResultRecord) {
		if done++; done == 2 {
			cancel()
		}
	}
	if _, err := dispatchtest.Run(ctx, c, dispatchtest.Hooks{Done: onDone}); !errors.Is(err, campaign.ErrInterrupted) {
		t.Fatalf("killed run returned %v, want ErrInterrupted", err)
	}
	notDone := map[string]bool{}
	for _, u := range c.Units() {
		if u.State != campaign.UnitDone {
			notDone[u.ID] = true
		}
	}
	if len(notDone) == 0 || len(notDone) == len(c.Units()) {
		t.Fatalf("kill left %d of %d units not done; the test needs a partial campaign", len(notDone), len(c.Units()))
	}

	cr, err := campaign.Load(dir, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	clock := frozenClock{now: time.Now()}
	rctx, stop := context.WithTimeout(context.Background(), time.Minute)
	defer stop()
	var mu sync.Mutex
	claimed := map[string]int{}
	store := campaign.NewDispatchStore(dir, clock)
	co := &Coordinator{Camp: cr, Clock: clock, Poll: dispatchtest.Poll}
	_, err = RunLocal(rctx, co, cfg.Workers, func(i int) *Worker {
		return &Worker{ID: WorkerID(i), Camp: cr, Store: store, Clock: clock, Poll: dispatchtest.Poll,
			OnEvent: func(ev Event) {
				if ev.Kind == EventClaimed {
					mu.Lock()
					claimed[ev.Unit]++
					mu.Unlock()
				}
			}}
	})
	if err != nil {
		t.Fatalf("resume on a frozen clock: %v (waiting on the dead run's leases?)", err)
	}
	for id, n := range claimed {
		if !notDone[id] || n != 1 {
			t.Fatalf("resume claimed unit %s %d time(s); want each unit not done at the kill claimed once", id, n)
		}
	}
	if len(claimed) != len(notDone) {
		t.Fatalf("resume claimed %d units, want the %d not done at the kill", len(claimed), len(notDone))
	}
	if got := selectionBytes(t, dir); !bytes.Equal(got, refBytes) {
		t.Fatalf("resumed selections differ from the reference:\ngot:\n%s\nwant:\n%s", got, refBytes)
	}
}

// TestLoadFoldsUnfoldedAck kills a run right after a worker acks its
// first unit, before any coordinator pass folds the ack. Load must
// fold it, and the resume must not claim that unit again.
func TestLoadFoldsUnfoldedAck(t *testing.T) {
	cfg := tinyConfig()
	_, refBytes := referenceRun(t, cfg)

	dir := filepath.Join(t.TempDir(), "acked")
	c, err := campaign.New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var acked string
	w := &Worker{ID: "w1", Camp: c, Store: campaign.NewDispatchStore(dir, nil), Poll: dispatchtest.Poll,
		OnEvent: func(ev Event) {
			if ev.Kind == EventAcked {
				acked = ev.Unit
				cancel()
			}
		}}
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed worker returned %v, want context.Canceled", err)
	}
	if st, err := campaign.ReadStatus(dir); err != nil || st.Done != 0 || acked == "" {
		t.Fatalf("at the kill: %d unit(s) folded done, acked %q (err %v); want one ack and none folded", st.Done, acked, err)
	}

	cr, err := campaign.Load(dir, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if st := cr.Status(); st.Done != 1 {
		t.Fatalf("Load folded %d unit(s) done, want the acked %s", st.Done, acked)
	}
	var mu sync.Mutex
	var claimed []string
	onClaimed := func(unit string) {
		mu.Lock()
		claimed = append(claimed, unit)
		mu.Unlock()
	}
	if _, err := dispatchtest.Run(context.Background(), cr, dispatchtest.Hooks{Claimed: onClaimed}); err != nil {
		t.Fatal(err)
	}
	for _, id := range claimed {
		if id == acked {
			t.Fatalf("resume claimed %s again, though its ack was on disk", acked)
		}
	}
	if want := len(cr.Units()) - 1; len(claimed) != want {
		t.Fatalf("resume claimed %d units, want %d", len(claimed), want)
	}
	if got := selectionBytes(t, dir); !bytes.Equal(got, refBytes) {
		t.Fatalf("resumed selections differ from the reference:\ngot:\n%s\nwant:\n%s", got, refBytes)
	}
}

// TestSettledRetryExhaustionIsErrUnitFailed: a run whose scoring jobs
// spend their retry budget settles with an error wrapping
// campaign.ErrUnitFailed.
func TestSettledRetryExhaustionIsErrUnitFailed(t *testing.T) {
	cfg := tinyConfig()
	cfg.Job.FailureProb = 0.5
	cfg.MaxAttempts = 1
	c, err := campaign.New(filepath.Join(t.TempDir(), "budget"), cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	_, err = dispatchtest.Run(context.Background(), c, dispatchtest.Hooks{})
	if !errors.Is(err, campaign.ErrUnitFailed) || errors.Is(err, campaign.ErrShardsQuarantined) {
		t.Fatalf("run with an exhausted retry budget returned %v, want ErrUnitFailed alone", err)
	}
}

// TestSettledRepairExhaustionIsErrShardsQuarantined: a unit whose
// shards keep landing corrupt past its repair budget parks failed, and
// the run settles with an error wrapping campaign.ErrShardsQuarantined.
func TestSettledRepairExhaustionIsErrShardsQuarantined(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxRepairs = 1
	// Epoch 0 writes protease1_c000_s00.h5l; the repair re-runs at
	// epoch 1 under the epoch-qualified name. Corrupting both spends
	// the budget of 1.
	faults := campaign.NewDiskFaults(nil,
		campaign.DiskFault{Op: "write", Kind: campaign.FaultTornWrite, Path: "protease1_c000_s00.h5l", Byte: 12},
		campaign.DiskFault{Op: "write", Kind: campaign.FaultBitFlip, Path: "protease1_c000_e001_s00.h5l", Byte: 25},
	)
	defer campaign.SetDiskFaults(faults)()
	c, err := campaign.New(filepath.Join(t.TempDir(), "repairs"), cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	_, err = dispatchtest.Run(context.Background(), c, dispatchtest.Hooks{})
	if !errors.Is(err, campaign.ErrShardsQuarantined) || errors.Is(err, campaign.ErrUnitFailed) {
		t.Fatalf("run with an exhausted repair budget returned %v, want ErrShardsQuarantined alone", err)
	}
	if n := faults.Remaining(); n != 0 {
		t.Fatalf("%d faults never fired", n)
	}
}
