package dispatch_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	. "deepfusion/internal/campaign/dispatch"
)

// killShard is the extra kill point the chaos plan drives through
// Campaign.OnShardWrite: the worker dies after a shard file lands but
// before the unit's remaining shards (and its ack) are written.
const killShard EventKind = "shard-write"

// killPlan is a scripted sequence of worker deaths, consumed in
// order: the first live incarnation to raise the head-of-sequence
// event is killed at that instant. Every kind in the sequence recurs
// in every unit's lifecycle (claim → shard writes → executed → ack),
// and each kill creates more work via reassignment, so the whole
// sequence always drains before the campaign can settle.
type killPlan struct {
	mu  sync.Mutex
	seq []EventKind
}

func (p *killPlan) hit(kind EventKind) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.seq) > 0 && p.seq[0] == kind {
		p.seq = p.seq[1:]
		return true
	}
	return false
}

func (p *killPlan) remaining() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seq)
}

// TestChaosDistributedByteIdentical is the fault-injection test of
// the distributed runtime: a 3-target campaign runs under three
// worker slots whose incarnations are killed at randomized protocol
// points — mid-chunk (just after the claim), mid-shard-write (one
// shard on disk, the rest not), and post-write-pre-ack (all shards on
// disk, ack withheld) — with every dead incarnation replaced by a
// fresh Attach handle. The coordinator must reassign every orphaned
// lease, fold each unit exactly once, and finalize selections
// byte-identical to an uninterrupted single-process run. The whole
// lease state machine runs on an auto-advancing fake clock, so lease
// expiry costs virtual, not wall, time.
func TestChaosDistributedByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	refDir, refBytes := referenceRun(t, cfg)

	dir := filepath.Join(t.TempDir(), "chaos")
	c, err := campaign.New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}

	fc := campaign.NewFakeClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	fc.SetAutoAdvance(true)
	// A TTL far above the virtual-time drift an executing worker sees
	// between heartbeat renewals: live workers renew every ~1 virtual
	// second; a dead worker's lease still expires in well under a
	// wall-clock second of auto-advanced polling.
	lease := campaign.LeaseOptions{TTL: 30 * time.Minute, Heartbeat: time.Second}

	// Two kills of each kind, shuffled with a fixed seed: the kill
	// points are "random" but the test is deterministic.
	plan := &killPlan{seq: []EventKind{
		EventClaimed, EventClaimed,
		killShard, killShard,
		EventExecuted, EventExecuted,
	}}
	rng := rand.New(rand.NewSource(17))
	rng.Shuffle(len(plan.seq), func(i, j int) { plan.seq[i], plan.seq[j] = plan.seq[j], plan.seq[i] })
	kills := len(plan.seq)

	runCtx, cancelRun := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancelRun()

	workerErrs := make(chan error, 64)
	var slotWG sync.WaitGroup
	for slot := 0; slot < 3; slot++ {
		slotWG.Add(1)
		go func(slot int) {
			defer slotWG.Done()
			for gen := 0; ; gen++ {
				if runCtx.Err() != nil {
					return
				}
				id := fmt.Sprintf("w%d-g%02d", slot, gen)
				// Each incarnation is a fresh process stand-in: its own
				// read-only campaign handle, its own store.
				h, err := campaign.Attach(dir, tinyScorers())
				if err != nil {
					workerErrs <- err
					return
				}
				ictx, kill := context.WithCancel(runCtx)
				// Only a live incarnation takes a kill from the plan: a
				// killed one still raises events while it unwinds (a
				// kill at its last shard write is followed by
				// EventExecuted), and consuming a second kill there
				// would orphan one lease for two kills.
				h.OnShardWrite = func(unit, shard string) {
					if ictx.Err() == nil && plan.hit(killShard) {
						kill()
					}
				}
				w := &Worker{
					ID:    id,
					Camp:  h,
					Store: campaign.NewDispatchStore(dir, fc),
					Clock: fc,
					Lease: lease,
					Poll:  time.Second,
					OnEvent: func(ev Event) {
						if ictx.Err() == nil && plan.hit(ev.Kind) {
							kill()
						}
					},
				}
				err = w.Run(ictx)
				kill()
				if err == nil {
					return // campaign settled; worker retired itself
				}
				if runCtx.Err() != nil {
					return
				}
				if !errors.Is(err, context.Canceled) {
					workerErrs <- fmt.Errorf("worker %s: %w", id, err)
					return
				}
				// Killed by the plan: the next incarnation takes the slot.
			}
		}(slot)
	}

	co := &Coordinator{Camp: c, Clock: fc, Lease: lease, Poll: time.Second}
	res, err := co.Run(runCtx)
	cancelRun()
	slotWG.Wait()
	close(workerErrs)
	for werr := range workerErrs {
		t.Error(werr)
	}
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if res == nil || len(res.PerTarget) != len(cfg.Targets) {
		t.Fatalf("result = %+v, want %d targets", res, len(cfg.Targets))
	}
	if left := plan.remaining(); left != 0 {
		t.Fatalf("%d planned kills never fired", left)
	}

	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reassignments < kills {
		t.Fatalf("reassignments = %d, want >= %d (every kill orphans a lease)", st.Reassignments, kills)
	}
	refSt, err := campaign.ReadStatus(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Poses != refSt.Poses {
		t.Fatalf("chaos run scored %d poses vs reference %d — a zombie ack was double-counted or a unit lost", st.Poses, refSt.Poses)
	}
	if got := selectionBytes(t, dir); !bytes.Equal(got, refBytes) {
		t.Fatalf("selections differ from the uninterrupted single-process run:\nchaos:\n%s\nreference:\n%s", got, refBytes)
	}

	// The coordinator's real-run stats fold one span per unit — acks
	// from fenced zombies must not inflate them.
	rs := co.RunStats()
	if rs.Units != st.Total {
		t.Fatalf("run stats folded %d unit spans, want exactly %d", rs.Units, st.Total)
	}
	if rs.PosesScored != st.Poses {
		t.Fatalf("run stats count %d poses, manifest %d", rs.PosesScored, st.Poses)
	}
	if rs.Reassignments != st.Reassignments {
		t.Fatalf("run stats reassignments = %d, manifest %d", rs.Reassignments, st.Reassignments)
	}
}
