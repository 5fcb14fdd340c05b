package dispatchhttp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatch"
	"deepfusion/internal/campaign/dispatchhttp"
	"deepfusion/internal/campaign/dispatchtest"
)

// faultKind enumerates the network faults the injecting transport can
// play against one request.
type faultKind int

const (
	// faultDropRequest: the request never reaches the coordinator —
	// connection refused.
	faultDropRequest faultKind = iota
	// faultDropResponse: the request is DELIVERED and takes effect
	// server-side, but the response is lost — the canonical
	// lost-response case the idempotency argument must survive.
	faultDropResponse
	// faultDelay: the request is delivered but the response arrives
	// past the client's per-call deadline; the client sees a timeout.
	// Synthesized synchronously — no wall sleeping.
	faultDelay
	// faultDuplicate: the request is executed twice (a retransmit the
	// server sees as two calls); the client receives the second
	// response.
	faultDuplicate
	// fault5xx: the coordinator answers 503 without the request taking
	// effect (a proxy or overload shed).
	fault5xx
	// faultCorruptBody: the request is delivered with one body byte
	// flipped in flight. For shard uploads the server's CRC check must
	// refuse the bytes with a retryable 502; the client re-sends the
	// pristine staged bytes.
	faultCorruptBody
)

type fault struct {
	op   string // claim, heartbeat, complete, fail, shards, manifest, status
	kind faultKind
}

// faultingTransport is the fault-injection seam: an http.RoundTripper
// that consumes a scripted fault plan, matching each request against
// the first un-consumed fault for its operation. Request bodies are
// buffered so a faulted request can be replayed (duplicate) or
// genuinely delivered before its response is destroyed.
type faultingTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	plan     []fault
	injected int
}

func opOf(path string) string {
	rest := strings.TrimPrefix(path, "/v1/dispatch/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

func (f *faultingTransport) take(op string) (faultKind, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, ft := range f.plan {
		if ft.op == op {
			f.plan = append(f.plan[:i], f.plan[i+1:]...)
			f.injected++
			return ft.kind, true
		}
	}
	return 0, false
}

func (f *faultingTransport) remaining() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.plan)
}

func (f *faultingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	fresh := func() *http.Request {
		r := req.Clone(req.Context())
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		return r
	}
	kind, ok := f.take(opOf(req.URL.Path))
	if !ok {
		return f.base.RoundTrip(fresh())
	}
	deliverAndDiscard := func() error {
		resp, err := f.base.RoundTrip(fresh())
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}
	switch kind {
	case faultDropRequest:
		return nil, fmt.Errorf("faultnet: connection refused (injected)")
	case faultDropResponse:
		if err := deliverAndDiscard(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("faultnet: connection reset mid-response (injected)")
	case faultDelay:
		if err := deliverAndDiscard(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("faultnet: %w (injected delay past deadline)", context.DeadlineExceeded)
	case faultDuplicate:
		if err := deliverAndDiscard(); err != nil {
			return nil, err
		}
		return f.base.RoundTrip(fresh())
	case faultCorruptBody:
		r := fresh()
		if len(body) > 0 {
			damaged := append([]byte(nil), body...)
			damaged[len(damaged)/2] ^= 0x20
			r.Body = io.NopCloser(bytes.NewReader(damaged))
			r.ContentLength = int64(len(damaged))
		}
		return f.base.RoundTrip(r)
	case fault5xx:
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{},
			Body:    io.NopCloser(strings.NewReader("faultnet: injected 503")),
			Request: req,
		}, nil
	}
	panic("unreachable")
}

// TestChaosNetworkFaultsByteIdentical is the network-partition
// complement of the dispatch package's kill-based chaos test: three
// remote workers drive the campaign through a transport that drops
// requests, loses responses after delivery, delays past the deadline,
// duplicates calls, injects 5xx, and flips a byte inside a shard
// upload body — at every operation of the protocol — and the
// finalized selections must still be byte-identical
// to the uninterrupted single-process run, with every pose counted
// exactly once. All retry backoff runs on virtual time.
func TestChaosNetworkFaultsByteIdentical(t *testing.T) {
	cfg := dispatchtest.TinyConfig()
	refDir, refBytes := dispatchtest.ReferenceRun(t, cfg)

	fc := campaign.NewFakeClock(t0)
	fc.SetAutoAdvance(true)
	// TTL far above live heartbeat drift, small against auto-advanced
	// virtual time, so a duplicated Claim's orphaned lease expires and
	// reassigns well inside the test.
	lease := campaign.LeaseOptions{TTL: 30 * time.Minute, Heartbeat: time.Second}
	dir, c, srv := newCoordinator(t, cfg, fc)

	// Every operation gets hit, every fault kind appears, and no op
	// ever sees more consecutive faults than the client's attempt
	// budget absorbs. The complete/drop-response entry is the
	// lost-response idempotency case; the claim/duplicate entry orphans
	// a lease that only expiry can recover.
	ft := &faultingTransport{base: http.DefaultTransport, plan: []fault{
		{op: "manifest", kind: fault5xx},
		{op: "claim", kind: faultDropRequest},
		{op: "claim", kind: faultDuplicate},
		{op: "claim", kind: fault5xx},
		{op: "heartbeat", kind: faultDropRequest},
		{op: "heartbeat", kind: faultDelay},
		{op: "heartbeat", kind: fault5xx},
		{op: "shards", kind: faultDropRequest},
		{op: "shards", kind: faultDropResponse},
		{op: "shards", kind: fault5xx},
		{op: "shards", kind: faultCorruptBody},
		{op: "complete", kind: faultDropResponse},
		{op: "complete", kind: faultDuplicate},
		{op: "complete", kind: fault5xx},
		{op: "complete", kind: faultDelay},
	}}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make(chan error, 8)
	clients := make([]*dispatchhttp.Client, 3)
	for i := 0; i < 3; i++ {
		w, cl := remoteWorker(t, fmt.Sprintf("fw%d", i), srv.URL, fc, lease, ft)
		clients[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				workerErrs <- err
			}
		}()
	}

	co := &dispatch.Coordinator{Camp: c, Clock: fc, Lease: lease, Poll: time.Second}
	res, err := co.Run(ctx)
	cancel()
	wg.Wait()
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

	if left := ft.remaining(); left != 0 {
		t.Fatalf("%d planned faults never fired: %+v", left, ft.plan)
	}
	if got := dispatchtest.SelectionBytes(t, dir); !bytes.Equal(got, refBytes) {
		t.Fatalf("selections under network faults differ from the uninterrupted run:\nfaulted:\n%s\nreference:\n%s", got, refBytes)
	}
	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := campaign.ReadStatus(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Poses != refSt.Poses {
		t.Fatalf("poses = %d vs reference %d — a duplicated or replayed ack was double-counted", st.Poses, refSt.Poses)
	}
	if st.Done != st.Total {
		t.Fatalf("done = %d/%d, want all units settled", st.Done, st.Total)
	}

	// The retry machinery really ran: clients burned retries, and the
	// coordinator folded them into per-worker dispatch counters.
	totalRetries := 0
	for _, cl := range clients {
		totalRetries += cl.Stats().Retries
	}
	if totalRetries == 0 {
		t.Fatal("no client retries recorded under a 15-fault plan")
	}
	hst, err := clients[0].Status()
	if err != nil {
		t.Fatal(err)
	}
	if hst.Backend != "http" {
		t.Fatalf("status backend = %q, want http", hst.Backend)
	}
	statusRetries := 0
	for _, w := range hst.Workers {
		statusRetries += w.DispatchRetries
	}
	if statusRetries == 0 {
		t.Fatal("status endpoint reports zero dispatch retries; header folding is broken")
	}
}

// TestShardUploadCorruptedInFlightRetried isolates the wire-integrity
// check: a shard upload whose body is flipped in transit is refused
// by the server's CRC verification with a retryable 502, the client's
// retry re-sends the pristine staged bytes, and the bytes that land
// on the coordinator are exactly the staged ones.
func TestShardUploadCorruptedInFlightRetried(t *testing.T) {
	cfg := dispatchtest.TinyConfig()
	fc := campaign.NewFakeClock(t0)
	fc.SetAutoAdvance(true)
	lease := campaign.LeaseOptions{TTL: 30 * time.Minute, Heartbeat: time.Second}
	dir, _, srv := newCoordinator(t, cfg, fc)

	ft := &faultingTransport{base: http.DefaultTransport, plan: []fault{
		{op: "shards", kind: faultCorruptBody},
	}}
	w, cl := remoteWorker(t, "crcw", srv.URL, fc, lease, ft)

	claim, unit, err := cl.Claim(w.ID)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.Camp.ExecuteUnit(context.Background(), *unit, claim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Shards) == 0 {
		t.Fatal("unit produced no shards")
	}
	if err := cl.Complete(claim, out); err != nil {
		t.Fatalf("complete with an in-flight corruption must heal via retry, got %v", err)
	}
	if left := ft.remaining(); left != 0 {
		t.Fatalf("%d planned faults never fired", left)
	}
	if cl.Stats().Retries == 0 {
		t.Fatal("refused upload did not burn a retry")
	}
	for _, rel := range out.Shards {
		staged, err := os.ReadFile(filepath.Join(w.Camp.Dir(), rel))
		if err != nil {
			t.Fatal(err)
		}
		landed, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatalf("shard never landed on the coordinator: %v", err)
		}
		if !bytes.Equal(staged, landed) {
			t.Fatalf("landed shard %s differs from staged bytes", rel)
		}
	}
	// And the landed shard passes full checksum verification.
	for _, rel := range out.Shards {
		if _, err := campaign.ReadShardFile(filepath.Join(dir, rel)); err != nil {
			t.Fatalf("landed shard %s failed verification: %v", rel, err)
		}
	}
}
