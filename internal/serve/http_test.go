package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/screen"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding body: %v", path, err)
		}
	}
	return resp
}

// TestHTTPRoundTrip drives the full client workflow over real HTTP:
// submit a compound set, poll status, long-poll results, read the
// engine status page. Uses the system clock (the server docks and
// scores for real); determinism pins live in the FakeClock suite.
func TestHTTPRoundTrip(t *testing.T) {
	cfg := testConfig(nil) // system clock
	cfg.MaxWait = 5 * time.Millisecond
	e := newTestEngine(t, cfg)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/submit", SubmitRequest{
		Target:    "protease1",
		Compounds: []string{"zinc-world-approved:0", "zinc-world-approved:1"},
		MaxPoses:  1,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Poses == 0 {
		t.Fatalf("submit ack %+v, want an ID and at least one pose", sub)
	}

	var st RequestStatus
	if resp := getJSON(t, srv, "/v1/requests/"+sub.ID, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint %d, want 200", resp.StatusCode)
	}
	if st.ID != sub.ID || st.Poses != sub.Poses {
		t.Fatalf("status %+v does not match submit ack %+v", st, sub)
	}

	// ?wait=1 long-polls until the deadline flush scores the batch.
	var res ResultsResponse
	if resp := getJSON(t, srv, "/v1/requests/"+sub.ID+"/results?wait=1", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("results endpoint %d, want 200", resp.StatusCode)
	}
	if len(res.Predictions) != sub.Poses {
		t.Fatalf("results carry %d predictions, want %d", len(res.Predictions), sub.Poses)
	}
	for _, p := range res.Predictions {
		if p.Vina == 0 {
			t.Fatalf("prediction %+v has no Vina score", p)
		}
	}

	var status ServiceStatus
	getJSON(t, srv, "/v1/status", &status)
	if status.Stats.PosesScored != int64(sub.Poses) {
		t.Fatalf("status page scored %d poses, want %d", status.Stats.PosesScored, sub.Poses)
	}
	if resp := getJSON(t, srv, "/v1/requests/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown request returned %d, want 404", resp.StatusCode)
	}
}

// TestHTTPSubmitValidation pins the 400/422 mappings for malformed
// and undockable submissions.
func TestHTTPSubmitValidation(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	cases := []struct {
		name string
		body any
		want int
	}{
		{"no target", SubmitRequest{Compounds: []string{"zinc-world-approved:0"}}, http.StatusBadRequest},
		{"no compounds", SubmitRequest{Target: "protease1"}, http.StatusBadRequest},
		{"unknown target", SubmitRequest{Target: "nope", Compounds: []string{"zinc-world-approved:0"}}, http.StatusBadRequest},
		{"unparseable compound", SubmitRequest{Target: "protease1", Compounds: []string{"no-such-library:0"}}, http.StatusUnprocessableEntity},
		{"bad smiles", SubmitRequest{Target: "protease1", SMILES: []string{"((("}}, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp := postJSON(t, srv, "/v1/submit", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestHTTPSubmitBodyCap pins the submit body cap: a body one byte over
// maxSubmitBody is refused with 413 and never docked, one just under it
// is decoded as usual.
func TestHTTPSubmitBodyCap(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Pad a target-less submission (400 once decoded) to an exact size.
	body := func(size int) []byte {
		head, tail := `{"compounds":["`, `"]}`
		return []byte(head + strings.Repeat("x", size-len(head)-len(tail)) + tail)
	}
	for _, c := range []struct {
		size, want int
	}{
		{maxSubmitBody + 1, http.StatusRequestEntityTooLarge},
		{maxSubmitBody, http.StatusBadRequest},
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/submit", "application/json", bytes.NewReader(body(c.size)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%d-byte body: status %d, want %d", c.size, resp.StatusCode, c.want)
		}
	}
	if got := e.Status().Requests; len(got) != 0 {
		t.Fatalf("requests admitted: %v, want none", got)
	}
}

// TestHTTPSubmitBounds pins the per-submission bounds: a request over
// maxSubmitCompounds or maxSubmitPoses, or with an inline SMILES over
// maxSubmitAtoms or maxSubmitSMILESBytes, is refused with 422 before
// any compound is resolved, prepared or docked. Each over-bound request would get a
// different answer had anything run: its compound IDs name no library,
// so resolving them leaves every one a listed problem, and its one
// real compound would dock and be admitted.
func TestHTTPSubmitBounds(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	unknown := func(n int) []string {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("no-such-library:%d", i)
		}
		return ids
	}
	for _, c := range []struct {
		name     string
		body     SubmitRequest
		resolved bool // the compounds were resolved (and failed)
	}{
		{"compounds at the bound", SubmitRequest{Target: "protease1", Compounds: unknown(maxSubmitCompounds)}, true},
		{"compounds over the bound", SubmitRequest{Target: "protease1", Compounds: unknown(maxSubmitCompounds)[1:], SMILES: []string{"CCO", "CCN"}}, false},
		{"max_poses over the bound", SubmitRequest{Target: "protease1", Compounds: []string{"zinc-world-approved:0"}, MaxPoses: maxSubmitPoses + 1}, false},
		{"smiles atoms over the bound", SubmitRequest{Target: "protease1", Compounds: unknown(2), SMILES: []string{"CCO", chain(maxSubmitAtoms + 1)}}, false},
		{"smiles bytes over the bound", SubmitRequest{Target: "protease1", Compounds: unknown(2), SMILES: []string{"C" + strings.Repeat("(C)", maxSubmitSMILESBytes/3)}}, false},
	} {
		resp := postJSON(t, srv, "/v1/submit", c.body)
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("%s: decoding body: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", c.name, resp.StatusCode)
		}
		if resolved := strings.Contains(er.Error, "no-such-library"); resolved != c.resolved {
			t.Errorf("%s: compounds resolved = %v, want %v (error %.120q)", c.name, resolved, c.resolved, er.Error)
		}
		if tooLarge := strings.Contains(er.Error, errSubmissionTooLarge.Error()); tooLarge == c.resolved {
			t.Errorf("%s: error %.120q", c.name, er.Error)
		}
	}
	if got := e.Status().Requests; len(got) != 0 {
		t.Fatalf("requests admitted: %v, want none", got)
	}
}

// chain is the SMILES of an n-carbon chain.
func chain(n int) string { return strings.Repeat("C", n) }

// TestHTTPSubmitAtomBound pins the atom bound from both sides: a
// chain of maxSubmitAtoms carbons is prepared and admitted, and a body
// of maxSubmitCompounds 1000-atom chains — about 15 CPU-minutes of
// preparation without the bound — is answered 422 in well under a
// second.
func TestHTTPSubmitAtomBound(t *testing.T) {
	cfg := testConfig(nil)
	cfg.Scorers = []screen.Scorer{stubScorer{calls: &atomic.Int32{}}}
	e := newTestEngine(t, cfg)
	e.dock = stubDock
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/submit", SubmitRequest{Target: "protease1", SMILES: []string{chain(maxSubmitAtoms)}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("a %d-atom chain: status %d, want 202", maxSubmitAtoms, resp.StatusCode)
	}

	long := make([]string, maxSubmitCompounds)
	for i := range long {
		long[i] = chain(1000)
	}
	start := time.Now()
	resp = postJSON(t, srv, "/v1/submit", SubmitRequest{Target: "protease1", SMILES: long})
	elapsed := time.Since(start)
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(er.Error, "1000 atoms") {
		t.Fatalf("%d 1000-atom chains: status %d (%s), want 422 naming the atom count", len(long), resp.StatusCode, er.Error)
	}
	if elapsed > time.Second {
		t.Fatalf("%d 1000-atom chains answered in %v, want well under a second", len(long), elapsed)
	}
}

// TestHTTPOverload pins the 429 mapping: with the engine's queue
// pre-filled to the brim (frozen clock, nothing flushes), an HTTP
// submission is refused with Retry-After, and admitted again once the
// queued work scores.
func TestHTTPOverload(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	cfg := testConfig(clock)
	cfg.Job.BatchSize = 8
	cfg.QueueDepth = 1 // capacity: 8 poses
	e := newTestEngine(t, cfg)
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Pre-fill: 7 of 8 pose slots reserved in an open batch that a
	// frozen clock never flushes.
	r1, err := e.SubmitPoses("protease1", testPoses(t, 7))
	if err != nil {
		t.Fatal(err)
	}

	body := SubmitRequest{
		Target:    "protease1",
		Compounds: []string{"zinc-world-approved:0"},
		MaxPoses:  2,
	}
	resp := postJSON(t, srv, "/v1/submit", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After header")
	}

	// Recovery: flush and score the queued batch, then resubmit.
	clock.Advance(cfg.MaxWait)
	waitDone(t, r1)
	resp = postJSON(t, srv, "/v1/submit", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after recovery: status %d, want 202", resp.StatusCode)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	clock.Advance(cfg.MaxWait)
	req, _ := e.Request(sub.ID)
	waitDone(t, req)
}

// TestHTTPDrain pins the shutdown surface: a draining engine answers
// healthz with 503 and refuses submissions with 503 + Retry-After,
// while results of completed requests stay readable.
func TestHTTPDrain(t *testing.T) {
	clock := campaign.NewFakeClock(time.Unix(1000, 0))
	e := newTestEngine(t, testConfig(clock))
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	r, err := e.SubmitPoses("protease1", testPoses(t, 4)) // batch-full: scores immediately
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, r)

	if resp := getJSON(t, srv, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", resp.StatusCode)
	}
	e.Drain()
	if resp := getJSON(t, srv, "/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
	resp := postJSON(t, srv, "/v1/submit", SubmitRequest{
		Target:    "protease1",
		Compounds: []string{"zinc-world-approved:0"},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection carries no Retry-After header")
	}
	// Completed work stays readable after drain.
	var res ResultsResponse
	if resp := getJSON(t, srv, "/v1/requests/"+r.ID+"/results", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("results after drain: %d, want 200", resp.StatusCode)
	}
	if len(res.Predictions) != 4 {
		t.Fatalf("results after drain carry %d predictions, want 4", len(res.Predictions))
	}
}
