package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepfusion/internal/dock"
	"deepfusion/internal/screen"
)

// leaseFixture writes a synthetic campaign directory holding only a
// manifest with the given units plus the dispatch directories — no
// deck, no scorers. The lease store and coordinator sync never touch
// either, which is exactly the isolation these tests want.
func leaseFixture(t *testing.T, units ...UnitRecord) (string, *Manifest) {
	t.Helper()
	dir := t.TempDir()
	man := &Manifest{
		Version:  manifestVersion,
		Name:     "lease-test",
		Config:   Config{},
		DeckSize: 12,
		Units:    units,
	}
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if err := ensureDispatchDirs(dir); err != nil {
		t.Fatal(err)
	}
	return dir, man
}

func leaseUnit(id string) UnitRecord {
	return UnitRecord{ID: id, Target: "protease1", Lo: 0, Hi: 2, State: UnitPending}
}

var leaseT0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestClaimExclusivity pins the claim protocol's three outcomes: a
// free unit is leased to exactly one claimer, a fully leased grid
// reports ErrNoWork (poll again), and a fully settled grid reports
// ErrAllDone (exit).
func TestClaimExclusivity(t *testing.T) {
	dir, man := leaseFixture(t, leaseUnit("a"), leaseUnit("b"))
	fc := NewFakeClock(leaseT0)
	s := NewDispatchStore(dir, fc)

	c1, u1, err := s.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Unit != "a" || u1.ID != "a" || c1.Epoch != 0 || c1.Worker != "w1" {
		t.Fatalf("first claim = %+v, want unit a epoch 0 for w1", c1)
	}
	c2, _, err := s.Claim("w2")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Unit != "b" {
		t.Fatalf("second claim took %s, want the next free unit b", c2.Unit)
	}
	if _, _, err := s.Claim("w3"); !errors.Is(err, ErrNoWork) {
		t.Fatalf("claim on a fully leased grid = %v, want ErrNoWork", err)
	}

	for i := range man.Units {
		man.Units[i].State = UnitDone
	}
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Claim("w3"); !errors.Is(err, ErrAllDone) {
		t.Fatalf("claim on a settled grid = %v, want ErrAllDone", err)
	}
}

// TestLeaseExpiryReassignsExactlyOnce drives the lease state machine
// on a fake clock: a claim whose heartbeat goes stale is fenced on the
// first sync past the TTL — epoch bumped, unit back to pending,
// reassignment counted — and subsequent syncs see the tombstoned claim
// (old epoch) without reassigning again.
func TestLeaseExpiryReassignsExactlyOnce(t *testing.T) {
	dir, man := leaseFixture(t, leaseUnit("a"))
	fc := NewFakeClock(leaseT0)
	s := NewDispatchStore(dir, fc)
	lease := LeaseOptions{TTL: 30 * time.Second}

	if _, _, err := s.Claim("w1"); err != nil {
		t.Fatal(err)
	}

	rep, _, err := syncDispatch(dir, man, leaseT0.Add(15*time.Second), lease)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InFlight != 1 || len(rep.Reassigned) != 0 {
		t.Fatalf("fresh lease: %+v, want 1 in-flight, 0 reassigned", rep)
	}

	rep, _, err = syncDispatch(dir, man, leaseT0.Add(31*time.Second), lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reassigned) != 1 || rep.Reassigned[0] != "a" {
		t.Fatalf("expired lease reassigned %v, want [a]", rep.Reassigned)
	}
	if man.Units[0].Epoch != 1 || man.Units[0].State != UnitPending {
		t.Fatalf("fenced unit = epoch %d state %s, want epoch 1 pending", man.Units[0].Epoch, man.Units[0].State)
	}
	if man.Reassignments != 1 {
		t.Fatalf("reassignments = %d, want 1", man.Reassignments)
	}

	// The tombstoned claim file (epoch 0) is still on disk; it must
	// not trigger a second reassignment.
	rep, _, err = syncDispatch(dir, man, leaseT0.Add(120*time.Second), lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reassigned) != 0 || rep.Pending != 1 {
		t.Fatalf("second sync: %+v, want no new reassignment, unit pending", rep)
	}
	if man.Reassignments != 1 {
		t.Fatalf("reassignments after second sync = %d, want still 1", man.Reassignments)
	}
}

// TestHeartbeatRenewalNeverReassigns pins the slow-but-alive
// guarantee: a worker that renews within the TTL keeps its lease
// indefinitely, however long the unit takes relative to the TTL.
func TestHeartbeatRenewalNeverReassigns(t *testing.T) {
	dir, man := leaseFixture(t, leaseUnit("a"))
	fc := NewFakeClock(leaseT0)
	s := NewDispatchStore(dir, fc)
	lease := LeaseOptions{TTL: 30 * time.Second}

	claim, _, err := s.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	// 12 renewals at 20s cadence: 240s of virtual work on a 30s TTL.
	for i := 0; i < 12; i++ {
		fc.Advance(20 * time.Second)
		if err := s.Heartbeat(claim); err != nil {
			t.Fatalf("renewal %d: %v", i, err)
		}
		rep, _, err := syncDispatch(dir, man, fc.Now(), lease)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Reassigned) != 0 || rep.InFlight != 1 {
			t.Fatalf("renewal %d: %+v, want lease held", i, rep)
		}
	}
	if man.Reassignments != 0 {
		t.Fatalf("reassignments = %d, want 0 for a renewing worker", man.Reassignments)
	}
	w := man.Workers["w1"]
	if w == nil || !w.LastBeat.Equal(fc.Now()) {
		t.Fatalf("worker table = %+v, want w1 with last beat %v", w, fc.Now())
	}
}

// TestZombieFencedByEpoch is the double-count defense: a worker that
// loses its lease mid-unit and resumes later can heartbeat, ack, even
// write shards — all under its old epoch — and none of it counts. The
// unit's poses enter the manifest exactly once, from the epoch-1
// owner's ack.
func TestZombieFencedByEpoch(t *testing.T) {
	dir, man := leaseFixture(t, leaseUnit("a"))
	fc := NewFakeClock(leaseT0)
	s := NewDispatchStore(dir, fc)
	lease := LeaseOptions{TTL: 30 * time.Second}
	c := newHandle(dir, man, nil, nil)

	zombie, _, err := s.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}

	// w1 goes silent; the lease expires and the coordinator fences it.
	fc.Advance(31 * time.Second)
	rep, err := c.SyncDispatch(fc.Now(), lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reassigned) != 1 {
		t.Fatalf("expiry sync: %+v, want 1 reassignment", rep)
	}

	// The zombie wakes up. Its heartbeat is refused...
	if err := s.Heartbeat(zombie); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie heartbeat = %v, want ErrLeaseLost", err)
	}
	// ...and its completion ack is written (epoch 0) but refused too.
	err = s.Complete(zombie, UnitOutcome{Poses: 99, Shards: []string{"shards/zombie.h5l"}})
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie ack = %v, want ErrLeaseLost", err)
	}

	// The coordinator must not fold the zombie's epoch-0 ack.
	rep, err = c.SyncDispatch(fc.Now(), lease)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 0 || len(rep.Completed) != 0 {
		t.Fatalf("sync after zombie ack: %+v, want nothing folded", rep)
	}
	if man.Units[0].Poses != 0 {
		t.Fatalf("unit poses = %d after zombie ack, want 0", man.Units[0].Poses)
	}

	// The replacement claims at epoch 1 and its ack is the one that
	// lands.
	fresh, _, err := s.Claim("w2")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Epoch != 1 {
		t.Fatalf("replacement claim epoch = %d, want 1", fresh.Epoch)
	}
	if err := s.Complete(fresh, UnitOutcome{Poses: 7}); err != nil {
		t.Fatal(err)
	}
	rep, err = c.SyncDispatch(fc.Now(), lease)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1 || len(rep.Completed) != 1 {
		t.Fatalf("final sync: %+v, want the epoch-1 ack folded", rep)
	}
	if got := man.Units[0].Poses; got != 7 {
		t.Fatalf("unit poses = %d, want 7 (counted exactly once)", got)
	}
	if w1 := man.Workers["w1"]; w1 != nil && w1.PosesDone != 0 {
		t.Fatalf("zombie w1 credited %d poses, want 0", w1.PosesDone)
	}
	if w2 := man.Workers["w2"]; w2 == nil || w2.PosesDone != 7 || w2.UnitsDone != 1 {
		t.Fatalf("w2 record = %+v, want 1 unit / 7 poses", man.Workers["w2"])
	}
}

// TestLoadRetriesFailedAtFreshEpoch pins the failed-unit retry path:
// Load returns failed units to pending at an epoch past every
// claim/result file on disk, so the fresh claim cannot collide with a
// tombstone.
func TestLoadRetriesFailedAtFreshEpoch(t *testing.T) {
	u := leaseUnit("a")
	u.State = UnitFailed
	u.Epoch = 2
	dir, _ := leaseFixture(t, u)
	fc := NewFakeClock(leaseT0)

	// Tombstones from the failed run, including one at an epoch ahead
	// of the manifest (a crash between claim and sync).
	rec := ClaimRecord{Unit: "a", Epoch: 3, Worker: "w9", Granted: fc.Now(), Heartbeat: fc.Now()}
	if err := createExclusiveJSON(claimPath(dir, "a", 3), rec); err != nil {
		t.Fatal(err)
	}
	c := loadFixture(t, dir)
	man := c.man
	if man.Units[0].State != UnitPending || man.Units[0].Epoch != 4 {
		t.Fatalf("retried unit = state %s epoch %d, want pending at epoch 4", man.Units[0].State, man.Units[0].Epoch)
	}

	// And the fresh epoch is actually claimable.
	s := NewDispatchStore(dir, fc)
	claim, _, err := s.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	if claim.Epoch != 4 {
		t.Fatalf("fresh claim epoch = %d, want 4", claim.Epoch)
	}
}

// TestLoadFencesDeadRun pins the rest of Load's fence: the acks a
// dead run left on disk are folded first (the unit is done and will
// not be claimed again), and a unit the dead run held in flight —
// its claim still fresh, so no lease expiry would free it for a TTL —
// returns to pending at once, past its claim.
func TestLoadFencesDeadRun(t *testing.T) {
	dir, _ := leaseFixture(t, leaseUnit("acked"), leaseUnit("held"), leaseUnit("idle"))
	fc := NewFakeClock(leaseT0)
	s := NewDispatchStore(dir, fc)
	acked, _, err := s.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(shardDirName, "acked_s00.h5l")
	if err := os.MkdirAll(filepath.Join(dir, shardDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	shardFixture(t, filepath.Join(dir, shard))
	if err := s.Complete(acked, UnitOutcome{Poses: 5, Attempts: 1, Shards: []string{shard}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Claim("w2"); err != nil { // "held": never acked
		t.Fatal(err)
	}

	c := loadFixture(t, dir)
	want := map[string]struct {
		state UnitState
		epoch int
	}{
		"acked": {UnitDone, 0},
		"held":  {UnitPending, 1},
		"idle":  {UnitPending, 0},
	}
	for _, u := range c.Units() {
		if w := want[u.ID]; u.State != w.state || u.Epoch != w.epoch {
			t.Fatalf("unit %s = state %s epoch %d, want %s at epoch %d", u.ID, u.State, u.Epoch, w.state, w.epoch)
		}
	}
	if st := c.Status(); st.Poses != 5 {
		t.Fatalf("status poses = %d, want the acked unit's 5", st.Poses)
	}
	for _, w := range c.Status().Workers {
		if len(w.Leases) != 0 {
			t.Fatalf("worker %s still holds %v after the fence", w.ID, w.Leases)
		}
	}

	// Both pending units are claimable right away, on a clock that
	// has not moved: nothing waits for the dead claim to expire.
	got := map[string]int{}
	for range 2 {
		claim, _, err := s.Claim("w3")
		if err != nil {
			t.Fatal(err)
		}
		got[claim.Unit] = claim.Epoch
	}
	if got["held"] != 1 || got["idle"] != 0 || len(got) != 2 {
		t.Fatalf("claims after Load = %v, want held at epoch 1 and idle at epoch 0", got)
	}
}

// loadFixture opens a leaseFixture directory with Load, as a
// coordinator would: the fixture gets a scorer set and the deck size
// Load regenerates from its config.
func loadFixture(t *testing.T, dir string) *Campaign {
	t.Helper()
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Config.Scorers = []string{"vina"}
	man.DeckSize = len(drawDeck(man.Config))
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	c, err := Load(dir, []screen.Scorer{dock.VinaScorer{}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConcurrentClaimExactlyOnce is the racing-workers property test:
// many workers hammer Claim on one unit grid while a coordinator
// folds acks. Every unit must be claimed by exactly one worker and
// completed exactly once — no double assignment, no orphan. Run under
// -race in CI.
func TestConcurrentClaimExactlyOnce(t *testing.T) {
	const nUnits, nWorkers = 12, 8
	units := make([]UnitRecord, nUnits)
	for i := range units {
		units[i] = leaseUnit(string(rune('a' + i)))
	}
	dir, man := leaseFixture(t, units...)
	c := newHandle(dir, man, nil, nil)
	lease := LeaseOptions{TTL: time.Minute}

	var mu sync.Mutex
	claimedBy := map[string][]string{} // unit -> claiming workers

	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		id := string(rune('A' + w))
		s := NewDispatchStore(dir, SystemClock{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				claim, _, err := s.Claim(id)
				if errors.Is(err, ErrAllDone) {
					return
				}
				if errors.Is(err, ErrNoWork) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				claimedBy[claim.Unit] = append(claimedBy[claim.Unit], id)
				mu.Unlock()
				if err := s.Complete(claim, UnitOutcome{Poses: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	completed := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		rep, err := c.SyncDispatch(time.Now(), lease)
		if err != nil {
			t.Fatal(err)
		}
		completed += len(rep.Completed)
		if rep.AllDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not settle: %+v", rep)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	if completed != nUnits {
		t.Fatalf("folded %d completions, want exactly %d", completed, nUnits)
	}
	for _, u := range man.Units {
		if u.State != UnitDone || u.Poses != 1 {
			t.Fatalf("unit %s = %s/%d poses, want done with exactly 1", u.ID, u.State, u.Poses)
		}
	}
	for unit, workers := range claimedBy {
		if len(workers) != 1 {
			t.Fatalf("unit %s claimed by %v, want exactly one worker", unit, workers)
		}
	}
	if len(claimedBy) != nUnits {
		t.Fatalf("%d units claimed, want all %d (none orphaned)", len(claimedBy), nUnits)
	}
	if man.Reassignments != 0 {
		t.Fatalf("reassignments = %d, want 0 (no lease ever expired)", man.Reassignments)
	}
}
