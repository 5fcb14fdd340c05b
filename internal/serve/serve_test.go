package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/dock"
	"deepfusion/internal/libgen"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// testConfig is the FakeClock engine harness every batcher test
// starts from: the free Vina physics scorer (no model training), one
// worker, small batches, a frozen virtual clock the test advances by
// hand. No test in this file sleeps wall-clock time.
func testConfig(clock campaign.Clock) Config {
	cfg := DefaultConfig([]screen.Scorer{dock.VinaScorer{}})
	cfg.Job.BatchSize = 4
	cfg.Workers = 1
	cfg.MaxWait = 50 * time.Millisecond
	cfg.QueueDepth = 8
	cfg.Clock = clock
	return cfg
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Drain)
	return e
}

// testPoses builds n ready-to-score poses in the pocket frame from
// the deterministic ZINC library, with distinct per-pose Vina scores
// so the carried column is load-bearing in identity checks.
func testPoses(t *testing.T, n int) []screen.Pose {
	t.Helper()
	var poses []screen.Pose
	for i := 0; len(poses) < n; i++ {
		m, err := libgen.ZINC.Mol(i)
		if err != nil {
			continue
		}
		target.Protease1.PlaceLigand(m)
		poses = append(poses, screen.Pose{
			CompoundID: m.Name,
			PoseRank:   len(poses) % 3,
			Mol:        m,
			VinaScore:  -5 - 0.25*float64(len(poses)),
		})
	}
	return poses
}

// flushCauses reads the batcher's flush-cause counters (full, deadline,
// drain) from the engine's status, as an operator sees them.
func flushCauses(e *Engine) (full, deadline, drain int64) {
	st := e.Status().Stats
	return st.FlushesFull, st.FlushesDeadline, st.FlushesDrain
}

func waitDone(t *testing.T, r *Request) {
	t.Helper()
	select {
	case <-r.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("request %s never completed", r.ID)
	}
}

// TestBatchFullFlush pins the no-latency path: a submission that
// fills a batch flushes immediately, with no clock advance at all.
func TestBatchFullFlush(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	poses := testPoses(t, 4)

	r, err := e.SubmitPoses("protease1", poses)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r) // completes without any Advance: batch-full flush
	full, deadline, drain := flushCauses(e)
	if full != 1 || deadline != 0 || drain != 0 {
		t.Fatalf("flush counts (full,deadline,drain) = (%d,%d,%d), want (1,0,0)", full, deadline, drain)
	}
	if st := e.Snapshot(r); st.State != StateDone || st.Scored != 4 {
		t.Fatalf("request state %+v, want done with 4 scored", st)
	}
}

// TestDeadlineFlush pins the latency-bound path: a partial batch sits
// until the virtual clock passes MaxWait, then flushes exactly once.
func TestDeadlineFlush(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	poses := testPoses(t, 2)

	r, err := e.SubmitPoses("protease1", poses)
	if err != nil {
		t.Fatal(err)
	}
	if full, deadline, _ := flushCauses(e); full != 0 || deadline != 0 {
		t.Fatalf("partial batch flushed before the deadline: full=%d deadline=%d", full, deadline)
	}
	clock.Advance(e.cfg.MaxWait) // SubmitPoses armed the timer before returning
	waitDone(t, r)
	full, deadline, drain := flushCauses(e)
	if full != 0 || deadline != 1 || drain != 0 {
		t.Fatalf("flush counts (full,deadline,drain) = (%d,%d,%d), want (0,1,0)", full, deadline, drain)
	}
}

// TestNoStarvationAcrossRequests pins the starvation bound: the
// deadline is armed when a batch opens, so a pose joining an already
// open batch waits only the remainder — no request waits past MaxWait
// from batch opening, however the traffic dribbles in.
func TestNoStarvationAcrossRequests(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	poses := testPoses(t, 3)

	r1, err := e.SubmitPoses("protease1", poses[0:1])
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(e.cfg.MaxWait / 2)
	r2, err := e.SubmitPoses("protease1", poses[1:3]) // joins r1's open batch
	if err != nil {
		t.Fatal(err)
	}
	// Advancing to exactly r1's deadline must flush both: r2 rode the
	// batch opened by r1 and cannot restart its timer.
	clock.Advance(e.cfg.MaxWait / 2)
	waitDone(t, r1)
	waitDone(t, r2)
	if full, deadline, _ := flushCauses(e); full != 0 || deadline != 1 {
		t.Fatalf("flush counts full=%d deadline=%d, want one deadline flush carrying both requests", full, deadline)
	}
}

// TestStaleDeadlineTimerIsNoOp pins the generation counter: a timer
// armed for a batch that was already flushed (batch-full here) must
// not flush the next batch early. The stale firing is driven
// synchronously, so the test is deterministic.
func TestStaleDeadlineTimerIsNoOp(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	poses := testPoses(t, 5)

	r1, err := e.SubmitPoses("protease1", poses[0:4]) // batch-full flush, gen 0 -> 1
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r1)
	if _, err := e.SubmitPoses("protease1", poses[4:5]); err != nil { // opens batch gen 1
		t.Fatal(err)
	}

	e.mu.Lock()
	tr := e.targets["protease1"]
	e.mu.Unlock()
	e.deadlineFlush(tr, 0) // r1's stale timer firing late
	e.mu.Lock()
	stillOpen := tr.open != nil
	e.mu.Unlock()
	if !stillOpen {
		t.Fatal("stale deadline timer flushed the next open batch")
	}
	if full, deadline, _ := flushCauses(e); full != 1 || deadline != 0 {
		t.Fatalf("flush counts full=%d deadline=%d after stale fire, want 1,0", full, deadline)
	}
	e.deadlineFlush(tr, 1) // the current batch's own timer
	if full, deadline, _ := flushCauses(e); full != 1 || deadline != 1 {
		t.Fatalf("flush counts full=%d deadline=%d, want 1,1", full, deadline)
	}
}

// TestDrainFlushesPartialExactlyOnce pins the shutdown path: Drain
// flushes an open partial batch exactly once (cause: drain), scores
// it, and a later deadline firing for that batch is a no-op.
func TestDrainFlushesPartialExactlyOnce(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	poses := testPoses(t, 3)

	r, err := e.SubmitPoses("protease1", poses)
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	tr := e.targets["protease1"]
	e.mu.Unlock()

	e.Drain()
	waitDone(t, r)
	if st := e.Snapshot(r); st.State != StateDone || st.Scored != 3 {
		t.Fatalf("drained request %+v, want done with 3 scored", st)
	}
	full, deadline, drain := flushCauses(e)
	if full != 0 || deadline != 0 || drain != 1 {
		t.Fatalf("flush counts (full,deadline,drain) = (%d,%d,%d), want (0,0,1)", full, deadline, drain)
	}
	// The drained batch's deadline timer fires after shutdown: no-op.
	e.deadlineFlush(tr, 0)
	if _, _, drain := flushCauses(e); drain != 1 {
		t.Fatalf("drain flushed twice")
	}
	if _, err := e.SubmitPoses("protease1", poses[:1]); err != ErrDraining {
		t.Fatalf("submit during drain returned %v, want ErrDraining", err)
	}
}

// TestBatchedScoresMatchRunJob is the service's core identity pin:
// poses submitted as three separate client requests — coalesced into
// cross-request batches by the batcher — score byte-identically to
// one solo RunJob over the same poses. Driven entirely on the
// FakeClock: full batches flush on their own, the final partial
// flushes on one Advance.
func TestBatchedScoresMatchRunJob(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	cfg := testConfig(clock)
	cfg.Workers = 2
	e := newTestEngine(t, cfg)
	poses := testPoses(t, 11)

	o := cfg.Job
	want, err := screen.RunJob(context.Background(), dock.VinaScorer{}, target.Protease1, poses, o)
	if err != nil {
		t.Fatal(err)
	}

	// Three client submissions: 4 (fills a batch), 5 (fills the next
	// with r2's first pose, leaves 2 open), 2 (joins the open batch).
	var reqs []*Request
	for _, cut := range [][2]int{{0, 4}, {4, 9}, {9, 11}} {
		r, err := e.SubmitPoses("protease1", poses[cut[0]:cut[1]])
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	clock.Advance(e.cfg.MaxWait) // flush the trailing partial batch
	got := make([]screen.Prediction, 0, len(poses))
	for _, r := range reqs {
		waitDone(t, r)
		preds, err := e.Results(r)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, preds...)
	}

	for i := range poses {
		g, w := got[i], want[i]
		if g.Fusion != w.Fusion || g.Vina != w.Vina || g.MMGBSA != w.MMGBSA {
			t.Fatalf("pose %d: service %+v != RunJob %+v", i, g, w)
		}
		if g.CompoundID != w.CompoundID || g.PoseRank != w.PoseRank || g.Target != w.Target {
			t.Fatalf("pose %d: identity mismatch: service %+v != RunJob %+v", i, g, w)
		}
	}
}

// TestAdmissionControl pins the bounded queue: reservations beyond
// QueueDepth full batches are refused with a Retry-After hint, and
// capacity frees as soon as the queued work scores.
func TestAdmissionControl(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	cfg := testConfig(clock)
	cfg.QueueDepth = 1 // capacity: one batch = 4 poses
	e := newTestEngine(t, cfg)
	poses := testPoses(t, 5)

	r1, err := e.SubmitPoses("protease1", poses[0:3]) // 3 of 4 reserved
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.SubmitPoses("protease1", poses[3:5]) // 3+2 > 4
	over, ok := err.(*OverloadError)
	if !ok {
		t.Fatalf("submit over capacity returned %v, want OverloadError", err)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("overload carries no Retry-After hint: %+v", over)
	}
	st := e.Status()
	if st.Stats.Rejections != 1 {
		t.Fatalf("rejections = %d, want 1", st.Stats.Rejections)
	}

	// Recovery: the deadline flush scores the queued poses, releasing
	// their reservation; the same submission is then admitted.
	clock.Advance(e.cfg.MaxWait)
	waitDone(t, r1)
	r2, err := e.SubmitPoses("protease1", poses[3:5])
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	clock.Advance(e.cfg.MaxWait)
	waitDone(t, r2)
}

// TestStoreRoundTrip pins service persistence: a completed request
// survives an engine restart with its record and scores intact, and
// the restarted engine continues the request-ID sequence.
func TestStoreRoundTrip(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	cfg := testConfig(clock)
	cfg.Dir = t.TempDir()
	e := newTestEngine(t, cfg)
	poses := testPoses(t, 4)

	r, err := e.SubmitPoses("protease1", poses)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r)
	want, err := e.Results(r)
	if err != nil {
		t.Fatal(err)
	}
	e.Drain()

	e2 := newTestEngine(t, cfg)
	r2, ok := e2.Request(r.ID)
	if !ok {
		t.Fatalf("restarted engine lost request %s", r.ID)
	}
	if st := e2.Snapshot(r2); st.State != StateDone || st.Poses != 4 {
		t.Fatalf("restored request %+v, want done with 4 poses", st)
	}
	got, err := e2.Results(r2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("restored %d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].CompoundID != want[i].CompoundID || got[i].Fusion != want[i].Fusion || got[i].MMGBSA != want[i].MMGBSA {
			t.Fatalf("restored prediction %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	rNext, err := e2.SubmitPoses("protease1", poses[:1])
	if err != nil {
		t.Fatal(err)
	}
	if rNext.ID == r.ID {
		t.Fatalf("restarted engine reissued request ID %s", r.ID)
	}
	clock.Advance(cfg.MaxWait)
	waitDone(t, rNext)
}

// TestPrefeatureLRU pins the per-target cache bound: submitting a
// fourth target through a MaxTargets=3 engine evicts the least
// recently used runtime, and the evicted target still scores
// correctly when it returns.
func TestPrefeatureLRU(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	cfg := testConfig(clock)
	cfg.MaxTargets = 3
	e := newTestEngine(t, cfg)
	poses := testPoses(t, 4)

	targets := []string{"protease1", "protease2", "spike1", "spike2"}
	var reqs []*Request
	for i, tn := range targets {
		clock.Advance(time.Millisecond) // distinct lastUse stamps
		r, err := e.SubmitPoses(tn, poses[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(e.cfg.MaxWait)
		waitDone(t, r)
		reqs = append(reqs, r)
	}
	if n := e.Status().Stats.TargetEvictions; n != 1 {
		t.Fatalf("target evictions = %d, want 1 (protease1 evicted by spike2)", n)
	}
	// The evicted target comes back: its prefeature rebuilds and
	// scores match a fresh RunJob exactly.
	r, err := e.SubmitPoses("protease1", poses[0:1])
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(e.cfg.MaxWait)
	waitDone(t, r)
	got, err := e.Results(r)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Results(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	g, w := got[0], first[0]
	if g.Fusion != w.Fusion || g.Vina != w.Vina || g.MMGBSA != w.MMGBSA || g.CompoundID != w.CompoundID {
		t.Fatalf("post-eviction score %+v != pre-eviction %+v", g, w)
	}
}

// TestRestartHealsCorruptStore pins the self-healing restart: a
// request record full of garbage and a done request whose result
// shard took a bit flip must not crash NewEngine. Both requests come
// back lost with the diagnosis in their error, the damaged files move
// to quarantine/, and the untouched request restores done with its
// predictions intact.
func TestRestartHealsCorruptStore(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	cfg := testConfig(clock)
	cfg.Dir = t.TempDir()
	e := newTestEngine(t, cfg)
	poses := testPoses(t, 8)

	var ids []string
	for i := 0; i < 3; i++ {
		r, err := e.SubmitPoses("protease1", poses[2*i:2*i+2])
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(cfg.MaxWait)
		waitDone(t, r)
		ids = append(ids, r.ID)
	}
	e.Drain()

	// Damage request 0's record and request 1's result shard; leave
	// request 2 untouched.
	recPath := filepath.Join(cfg.Dir, "requests", ids[0]+".json")
	if err := os.WriteFile(recPath, []byte("{ not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	shardPath := filepath.Join(cfg.Dir, "results", ids[1]+".h5l")
	shard, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	shard[len(shard)/2] ^= 0x40
	if err := os.WriteFile(shardPath, shard, 0o666); err != nil {
		t.Fatal(err)
	}

	e2 := newTestEngine(t, cfg)
	for i, want := range []string{StateLost, StateLost, StateDone} {
		r, ok := e2.Request(ids[i])
		if !ok {
			t.Fatalf("restarted engine lost request %s", ids[i])
		}
		st := e2.Snapshot(r)
		if st.State != want {
			t.Fatalf("request %d restored as %q (error %q), want %q", i, st.State, st.Error, want)
		}
		if want == StateLost && !strings.Contains(st.Error, "quarantined") {
			t.Fatalf("lost request %d error %q does not name the quarantine", i, st.Error)
		}
	}
	healthy, _ := e2.Request(ids[2])
	if preds, err := e2.Results(healthy); err != nil || len(preds) != 2 {
		t.Fatalf("healthy request restored %d predictions (err %v), want 2", len(preds), err)
	}

	// The damaged files moved to quarantine/ — preserved, not deleted.
	for _, name := range []string{ids[0] + ".json", ids[1] + ".h5l"} {
		if _, err := os.Stat(filepath.Join(cfg.Dir, "quarantine", name)); err != nil {
			t.Fatalf("damaged file %s not quarantined: %v", name, err)
		}
	}
	if _, err := os.Stat(shardPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt shard still present at %s (err %v)", shardPath, err)
	}

	// A third restart is clean: the healed records parse, the lost
	// requests have no shard to verify, nothing new is quarantined.
	e2.Drain()
	e3 := newTestEngine(t, cfg)
	if r, ok := e3.Request(ids[0]); !ok || e3.Snapshot(r).State != StateLost {
		t.Fatalf("healed record did not survive a second restart")
	}
}
