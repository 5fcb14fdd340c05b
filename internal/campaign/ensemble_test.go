package campaign_test

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	. "deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatchtest"
	"deepfusion/internal/dock"
	"deepfusion/internal/mmgbsa"
	"deepfusion/internal/screen"
)

// ensembleScorers is the 3-scorer consensus campaign of the
// acceptance criteria: the Coherent model as primary plus both
// physics surrogates, scored in one featurize-once pass per batch.
func ensembleScorers() []screen.Scorer {
	return []screen.Scorer{tinyModel(), dock.VinaScorer{}, mmgbsa.Scorer{}}
}

// TestEnsembleResumeAfterKillMatchesUninterrupted is the acceptance
// pin for multi-scorer campaigns: a 3-scorer campaign killed
// mid-flight and resumed produces byte-identical selections to an
// uninterrupted run, and its shards carry a column per scorer.
func TestEnsembleResumeAfterKillMatchesUninterrupted(t *testing.T) {
	cfg := tinyConfig()

	dirA := filepath.Join(t.TempDir(), "uninterrupted")
	ca, err := New(dirA, cfg, ensembleScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), ca); err != nil {
		t.Fatal(err)
	}
	wantSel := selectionBytes(t, dirA)

	// The manifest records the scorer names, primary first.
	ma, err := LoadManifest(dirA)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"coherent", "vina", "mmgbsa"}
	if !slices.Equal(ma.Config.Scorers, wantNames) {
		t.Fatalf("manifest records scorers %v, want %v", ma.Config.Scorers, wantNames)
	}

	// Every shard row carries one column per scorer.
	preds, err := ca.ReadTargetPredictions(ma.Units, "protease1")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Fatal("no predictions in shards")
	}
	for _, pr := range preds {
		if len(pr.Scores) != 3 {
			t.Fatalf("shard row has %d scorer columns, want 3: %+v", len(pr.Scores), pr)
		}
		if pr.Scores["coherent"] != pr.Fusion {
			t.Fatalf("primary column %v != coherent score %v", pr.Fusion, pr.Scores["coherent"])
		}
	}

	// Kill a second campaign mid-flight, then resume it.
	dirB := filepath.Join(t.TempDir(), "killed")
	cb, err := New(dirB, cfg, ensembleScorers())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	done := 0
	onDone := func(ResultRecord) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if done == 2 {
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

	cr, err := Load(dirB, ensembleScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), cr); err != nil {
		t.Fatal(err)
	}
	if got := selectionBytes(t, dirB); string(got) != string(wantSel) {
		t.Fatalf("resumed 3-scorer selections differ from uninterrupted run:\nresumed:\n%s\nuninterrupted:\n%s", got, wantSel)
	}
}

// TestLoadRefusesDifferentScorerSet: the manifest's recorded scorer
// set is a contract — resuming under a different set (different
// members, different order, or a subset) must be refused.
func TestLoadRefusesDifferentScorerSet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := New(dir, tinyConfig(), ensembleScorers()); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]screen.Scorer{
		"subset":    {tinyModel()},
		"reordered": {dock.VinaScorer{}, tinyModel(), mmgbsa.Scorer{}},
		"swapped":   {tinyModel(), dock.VinaScorer{}, dock.VinaScorer{}},
	}
	for name, set := range cases {
		if _, err := Load(dir, set); err == nil {
			t.Fatalf("%s scorer set must be refused on resume", name)
		}
	}
	// The matching set loads fine.
	if _, err := Load(dir, ensembleScorers()); err != nil {
		t.Fatal(err)
	}
}

// TestStatusReportsScorerSet: `campaign status` surfaces the recorded
// scorer names without building models.
func TestStatusReportsScorerSet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := New(dir, tinyConfig(), ensembleScorers()); err != nil {
		t.Fatal(err)
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(st.Scorers, []string{"coherent", "vina", "mmgbsa"}) {
		t.Fatalf("status reports scorers %v", st.Scorers)
	}
}

// TestRunCancellationStopsPromptly cancels a campaign while its first
// units are mid-chunk and checks the run returns ErrInterrupted
// without draining the full unit grid — cancellation is threaded
// through docking and the scoring engine, not just the claim loop —
// and that
// the interrupted campaign resumes to the uninterrupted selections.
func TestRunCancellationStopsPromptly(t *testing.T) {
	cfg := tinyConfig()
	dir := filepath.Join(t.TempDir(), "cancel")
	c, err := New(dir, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	onClaimed := func(string) {
		once.Do(cancel) // cancel while the very first units are mid-chunk
	}
	start := time.Now()
	_, runErr := dispatchtest.Run(ctx, c, dispatchtest.Hooks{Claimed: onClaimed})
	elapsed := time.Since(start)
	if !errors.Is(runErr, ErrInterrupted) {
		t.Fatalf("cancelled Run returned %v, want ErrInterrupted", runErr)
	}
	st, err := ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done == st.Total {
		t.Fatalf("campaign ran to completion (%d/%d) despite cancellation after %v", st.Done, st.Total, elapsed)
	}
	if st.Finalized {
		t.Fatal("cancelled campaign must not finalize")
	}

	// The reference selections from an uninterrupted twin...
	dirRef := filepath.Join(t.TempDir(), "ref")
	cRef, err := New(dirRef, cfg, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), cRef); err != nil {
		t.Fatal(err)
	}
	// ...match the cancelled campaign after resume.
	cr, err := Load(dir, tinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(context.Background(), cr); err != nil {
		t.Fatal(err)
	}
	if got, want := selectionBytes(t, dir), selectionBytes(t, dirRef); string(got) != string(want) {
		t.Fatalf("post-cancellation selections differ:\n%s\nvs\n%s", got, want)
	}
}
