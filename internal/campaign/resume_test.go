package campaign_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	. "deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatchtest"
)

// selectionBytes renders a manifest's selections deterministically,
// the byte-level identity the resume guarantee is stated in.
func selectionBytes(t *testing.T, dir string) []byte {
	t.Helper()
	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Finalized {
		t.Fatalf("campaign in %s not finalized", dir)
	}
	b, err := json.MarshalIndent(m.Selections, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeAfterKillMatchesUninterrupted is the core durability
// guarantee: a campaign killed mid-flight and resumed from its
// manifest skips completed chunks, re-runs only the rest, and
// produces byte-identical per-target selections to an uninterrupted
// run of the same configuration.
func TestResumeAfterKillMatchesUninterrupted(t *testing.T) {
	cfg := tinyConfig()

	// Reference: the uninterrupted campaign.
	dirA := filepath.Join(t.TempDir(), "uninterrupted")
	ca, err := New(dirA, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), ca); err != nil {
		t.Fatal(err)
	}
	wantSel := selectionBytes(t, dirA)

	// Victim: kill the campaign after two units complete.
	dirB := filepath.Join(t.TempDir(), "killed")
	cb, err := New(dirB, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	doneBeforeKill := map[string]bool{}
	onDone := func(u ResultRecord) {
		mu.Lock()
		defer mu.Unlock()
		doneBeforeKill[u.Unit] = true
		if len(doneBeforeKill) == 2 {
			cancel()
		}
	}
	if _, err := dispatchtest.Run(ctx, cb, dispatchtest.Hooks{Done: onDone}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("killed run returned %v, want ErrInterrupted", err)
	}
	st, err := ReadStatus(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done == 0 || st.Done == st.Total {
		t.Fatalf("kill landed at %d/%d done units; test needs a partial campaign", st.Done, st.Total)
	}
	if st.Finalized {
		t.Fatal("killed campaign must not be finalized")
	}
	// The authoritative completed-at-kill set is the manifest on disk.
	mKill, err := LoadManifest(dirB)
	if err != nil {
		t.Fatal(err)
	}
	doneAtKill := map[string]bool{}
	for _, u := range mKill.Units {
		if u.State == UnitDone {
			doneAtKill[u.ID] = true
		}
	}

	// Resume in a "fresh process": reload the manifest and a
	// deterministically reconstructed model.
	cr, err := Load(dirB, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	var rerun []string
	onClaimed := func(unit string) {
		mu.Lock()
		defer mu.Unlock()
		rerun = append(rerun, unit)
	}
	if _, err := dispatchtest.Run(context.Background(), cr, dispatchtest.Hooks{Claimed: onClaimed}); err != nil {
		t.Fatal(err)
	}

	// Every unit ends done...
	mu.Lock()
	defer mu.Unlock()
	mb, err := LoadManifest(dirB)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range mb.Units {
		if u.State != UnitDone {
			t.Fatalf("unit %s is %s after resume", u.ID, u.State)
		}
	}
	// ...completed chunks were not re-scored (no rerun unit was in
	// the done set persisted at kill time), and only the remainder
	// ran.
	for _, id := range rerun {
		if doneAtKill[id] {
			t.Fatalf("unit %s was completed before the kill but re-scored on resume", id)
		}
	}
	if want := len(mb.Units) - len(doneAtKill); len(rerun) != want {
		t.Fatalf("resume ran %d units, want the %d not completed at kill time", len(rerun), want)
	}

	// ...and the final selections are byte-identical.
	gotSel := selectionBytes(t, dirB)
	if string(gotSel) != string(wantSel) {
		t.Fatalf("resumed selections differ from uninterrupted run:\nresumed:\n%s\nuninterrupted:\n%s", gotSel, wantSel)
	}
}

// TestFailureInjectionRetriesPerChunk injects the paper's observed
// job failures and checks that they are absorbed per-chunk — the
// campaign completes, at least one chunk consumed extra attempts, and
// the selections still match a failure-free run byte for byte
// (retries change the failure dice, never the scores).
func TestFailureInjectionRetriesPerChunk(t *testing.T) {
	clean := tinyConfig()
	dirA := filepath.Join(t.TempDir(), "clean")
	ca, err := New(dirA, clean, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), ca); err != nil {
		t.Fatal(err)
	}
	wantSel := selectionBytes(t, dirA)

	faulty := tinyConfig()
	faulty.Job.FailureProb = 0.5
	faulty.MaxAttempts = 12
	dirB := filepath.Join(t.TempDir(), "faulty")
	cb, err := New(dirB, faulty, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), cb); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(dirB)
	if err != nil {
		t.Fatal(err)
	}
	extra := 0
	for _, u := range m.Units {
		extra += u.Attempts - 1
	}
	if extra == 0 {
		t.Fatal("no injected failure fired; the test exercises nothing")
	}
	if got := selectionBytes(t, dirB); string(got) != string(wantSel) {
		t.Fatalf("failure-injected selections differ from clean run:\n%s\nvs\n%s", got, wantSel)
	}
}

// TestExhaustedRetriesFailUnitAndResume drives a chunk past its
// retry budget, checks the run surfaces the failure with the rest of
// the campaign intact, and that a later run after Load (fresh budget,
// advanced failure seeds) completes it.
func TestExhaustedRetriesFailUnitAndResume(t *testing.T) {
	cfg := tinyConfig()
	cfg.Job.FailureProb = 0.5
	cfg.MaxAttempts = 1 // a single failed roll fails the unit
	dir := filepath.Join(t.TempDir(), "budget")
	c, err := New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := run(context.Background(), c)
	if runErr == nil {
		t.Skip("no unit drew the failure dice at this seed; nothing to exercise")
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed == 0 {
		t.Fatalf("Run errored (%v) but no unit is recorded failed", runErr)
	}
	if st.Done == 0 {
		t.Fatal("a single bad chunk must not sink the other units")
	}
	// Retry until the advancing per-attempt seeds clear the dice.
	for i := 0; i < 20; i++ {
		cl, err := Load(dir, tinyScorers())
		if err != nil {
			t.Fatal(err)
		}
		if _, err = run(context.Background(), cl); err == nil {
			return
		}
	}
	t.Fatal("failed units never cleared despite advancing retry seeds")
}
