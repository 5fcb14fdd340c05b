package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/chem"
	"deepfusion/internal/fusion"
	"deepfusion/internal/screen"
	"deepfusion/internal/target"
)

// stubScorer scores every pose 1 without featurization, and panics on
// the call numbered panicAt (1-based; 0 never panics).
type stubScorer struct {
	calls   *atomic.Int32
	panicAt int32
}

func (s stubScorer) Name() string                          { return "stub" }
func (s stubScorer) FeatureOptions() fusion.FeatureOptions { return fusion.FeatureOptions{} }
func (s stubScorer) LowerIsBetter() bool                   { return false }

func (s stubScorer) ScoreInto(samples []*fusion.Sample, _ *fusion.Workspace, out []float64) {
	if s.calls.Add(1) == s.panicAt {
		panic("stub scorer: injected fault")
	}
	for i := range out {
		out[i] = 1
	}
}

// stubDock "docks" each compound as one pose placed in the pocket, so
// tests of the HTTP surface skip the Monte Carlo search.
func stubDock(_ context.Context, p *target.Pocket, mols []*chem.Mol, _ int, _ int64) ([]screen.Pose, []screen.DockProblem, error) {
	poses := make([]screen.Pose, len(mols))
	for i, m := range mols {
		m = m.Clone()
		p.PlaceLigand(m)
		poses[i] = screen.Pose{CompoundID: m.Name, Mol: m}
	}
	return poses, nil, nil
}

// TestWorkerSurvivesScoringPanic pins that a panic while scoring one
// batch fails that batch's requests with an error and is counted,
// while the worker lives on: later requests on the same target score
// normally, on a fresh session.
func TestWorkerSurvivesScoringPanic(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	cfg := testConfig(clock)
	cfg.Scorers = []screen.Scorer{stubScorer{calls: &atomic.Int32{}, panicAt: 1}}
	e := newTestEngine(t, cfg)
	poses := testPoses(t, 4)

	bad, err := e.SubmitPoses("protease1", poses)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bad)
	if st := e.Snapshot(bad); st.State != StateFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("request scored by a panicking batch: %+v, want failed with the panic", st)
	}
	for i := 0; i < 2; i++ {
		r, err := e.SubmitPoses("protease1", poses)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, r)
		if st := e.Snapshot(r); st.State != StateDone || st.Scored != len(poses) {
			t.Fatalf("request %d after the panic: %+v, want done", i, st)
		}
	}
	if st := e.Status(); st.Stats.Panics != 1 || st.ReservedPoses != 0 {
		t.Fatalf("status after one panic: panics %d, reserved %d; want 1 and 0", st.Stats.Panics, st.ReservedPoses)
	}
}

// TestHandlerPanicAnswers500 pins the HTTP boundary: a panic inside a
// handler answers 500 and is counted, the connection and the service
// survive it.
func TestHandlerPanicAnswers500(t *testing.T) {
	e := newTestEngine(t, testConfig(campaign.NewFakeClock(time.Unix(1000, 0))))
	e.dock = func(context.Context, *target.Pocket, []*chem.Mol, int, int64) ([]screen.Pose, []screen.DockProblem, error) {
		panic("dock: injected fault")
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/submit", SubmitRequest{Target: "protease1", Compounds: []string{"zinc-world-approved:0"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit whose docking panics: status %d, want 500", resp.StatusCode)
	}
	var st ServiceStatus
	if resp := getJSON(t, srv, "/v1/status", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status after a handler panic: %d, want 200", resp.StatusCode)
	}
	if st.Stats.Panics != 1 {
		t.Fatalf("status counts %d panics, want 1", st.Stats.Panics)
	}
}
