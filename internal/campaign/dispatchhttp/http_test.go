package dispatchhttp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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
	"deepfusion/internal/h5lite"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// newCoordinator materializes a dispatch-ready campaign directory and
// its HTTP server on an auto-advance-capable fake clock.
func newCoordinator(t *testing.T, cfg campaign.Config, fc *campaign.FakeClock) (string, *campaign.Campaign, *httptest.Server) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "coord")
	c, err := campaign.New(dir, cfg, dispatchtest.TinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(dispatchhttp.NewServer(dir, fc).Handler())
	t.Cleanup(srv.Close)
	return dir, c, srv
}

// remoteWorker mirrors the coordinator's campaign into a local
// scratch directory — the cross-host topology: no shared filesystem —
// and returns a Worker driving its loop through the HTTP client.
func remoteWorker(t *testing.T, id, baseURL string, fc *campaign.FakeClock, lease campaign.LeaseOptions, transport http.RoundTripper) (*dispatch.Worker, *dispatchhttp.Client) {
	t.Helper()
	scratch := filepath.Join(t.TempDir(), id)
	cl, err := dispatchhttp.NewClient(baseURL, scratch, dispatchhttp.Options{Clock: fc, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.MirrorCampaign(); err != nil {
		t.Fatalf("mirror campaign: %v", err)
	}
	h, err := campaign.Attach(scratch, dispatchtest.TinyScorers())
	if err != nil {
		t.Fatalf("attach to mirrored scratch: %v", err)
	}
	return &dispatch.Worker{
		ID:    id,
		Camp:  h,
		Store: cl,
		Clock: fc,
		Lease: lease,
		Poll:  time.Second,
	}, cl
}

// TestHTTPDispatchByteIdentical pins the core multi-host guarantee:
// three remote workers, each with its own scratch directory and only
// an HTTP connection to the coordinator, produce selections
// byte-identical to the uninterrupted single-process run.
func TestHTTPDispatchByteIdentical(t *testing.T) {
	cfg := dispatchtest.TinyConfig()
	refDir, refBytes := dispatchtest.ReferenceRun(t, cfg)

	fc := campaign.NewFakeClock(t0)
	fc.SetAutoAdvance(true)
	lease := campaign.LeaseOptions{TTL: 30 * time.Minute, Heartbeat: time.Second}
	dir, c, srv := newCoordinator(t, cfg, fc)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make(chan error, 8)
	clients := make([]*dispatchhttp.Client, 3)
	for i := 0; i < 3; i++ {
		w, cl := remoteWorker(t, fmt.Sprintf("rw%d", i), srv.URL, fc, lease, nil)
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

	if got := dispatchtest.SelectionBytes(t, dir); !bytes.Equal(got, refBytes) {
		t.Fatalf("HTTP-dispatched selections differ from the single-process reference:\ngot:\n%s\nwant:\n%s", got, refBytes)
	}
	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := campaign.ReadStatus(refDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != st.Total || st.Poses != refSt.Poses {
		t.Fatalf("status = %d/%d done, %d poses; want all done with %d poses", st.Done, st.Total, st.Poses, refSt.Poses)
	}

	// The status endpoint reports the http backend identity.
	hst, err := clients[0].Status()
	if err != nil {
		t.Fatal(err)
	}
	if hst.Backend != "http" || hst.Coordinator == "" {
		t.Fatalf("status backend = %q coordinator = %q, want http backend with an address", hst.Backend, hst.Coordinator)
	}
	if hst.Done != st.Total {
		t.Fatalf("http status done = %d, fs status total = %d", hst.Done, st.Total)
	}
}

// TestMirrorCampaignMatchesCoordinator pins the mirror: the scratch
// manifest is byte-identical to the coordinator's, so the worker's
// regenerated deck — and therefore every score — is the coordinator's.
func TestMirrorCampaignMatchesCoordinator(t *testing.T) {
	fc := campaign.NewFakeClock(t0)
	dir, _, srv := newCoordinator(t, dispatchtest.TinyConfig(), fc)
	cl, err := dispatchhttp.NewClient(srv.URL, filepath.Join(t.TempDir(), "scratch"), dispatchhttp.Options{Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.MirrorCampaign(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(campaign.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(campaign.ManifestPath(cl.LocalDir()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mirrored manifest differs from the coordinator's")
	}
	if fi, err := os.Stat(campaign.ShardDir(cl.LocalDir())); err != nil || !fi.IsDir() {
		t.Fatalf("mirror did not create the scratch shard directory: %v", err)
	}
}

// TestShardUploadRejectsBadNames pins the upload guard: only a bare
// .h5l filename may land, never a path that could escape shards/.
func TestShardUploadRejectsBadNames(t *testing.T) {
	fc := campaign.NewFakeClock(t0)
	dir, _, srv := newCoordinator(t, dispatchtest.TinyConfig(), fc)
	for _, name := range []string{
		"%2E%2E%2Fmanifest.h5l", // ../manifest.h5l, segment-escaped
		"evil.txt",              // wrong extension
		"a%2Fb.h5l",             // embedded separator
		"..h5l..",               // dot-dot smuggling
	} {
		req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/dispatch/shards/"+name, strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("upload of %q accepted, want rejection", name)
		}
	}
	// Nothing may have landed outside (or inside) the shard dir.
	entries, err := os.ReadDir(campaign.ShardDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("shard dir not empty after rejected uploads: %v", entries)
	}
}

// TestCompleteRetryIdempotent pins the lost-response case end-to-end
// at the client API: a Complete (with a real staged shard) retried
// verbatim re-uploads identical bytes and folds exactly once.
func TestCompleteRetryIdempotent(t *testing.T) {
	fc := campaign.NewFakeClock(t0)
	lease := campaign.LeaseOptions{TTL: 30 * time.Second}
	dir, c, srv := newCoordinator(t, dispatchtest.TinyConfig(), fc)
	scratch := filepath.Join(t.TempDir(), "scratch")
	cl, err := dispatchhttp.NewClient(srv.URL, scratch, dispatchhttp.Options{Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.MirrorCampaign(); err != nil {
		t.Fatal(err)
	}
	claim, _, err := cl.Claim("w1")
	if err != nil {
		t.Fatal(err)
	}
	shard := "shards/retry_test.h5l"
	// A real checksummed shard: fold-time verification decodes every
	// acked shard before retiring the unit, so arbitrary bytes would
	// be quarantined rather than folded.
	hf := h5lite.New()
	hf.Root().Group("retry").SetFloats("scores", []float64{1, 2, 3})
	var shardBuf bytes.Buffer
	if err := hf.Write(&shardBuf); err != nil {
		t.Fatal(err)
	}
	want := shardBuf.Bytes()
	if err := os.WriteFile(filepath.Join(scratch, shard), want, 0o644); err != nil {
		t.Fatal(err)
	}
	out := campaign.UnitOutcome{Poses: 3, Shards: []string{shard}}
	if err := cl.Complete(claim, out); err != nil {
		t.Fatal(err)
	}
	// The ack's response is "lost"; the worker retries the whole
	// Complete — upload and all.
	if err := cl.Complete(claim, out); err != nil && !errors.Is(err, campaign.ErrLeaseLost) {
		t.Fatalf("retried complete = %v, want idempotent success", err)
	}
	folded := 0
	for i := 0; i < 3; i++ {
		rep, err := c.SyncDispatch(fc.Now(), lease)
		if err != nil {
			t.Fatal(err)
		}
		folded += len(rep.Completed)
	}
	if folded != 1 {
		t.Fatalf("folded %d completions, want exactly 1", folded)
	}
	got, err := os.ReadFile(filepath.Join(campaign.ShardDir(dir), "retry_test.h5l"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("uploaded shard bytes differ from the staged bytes")
	}
	st, err := campaign.ReadStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Poses != 3 {
		t.Fatalf("poses = %d, want 3 exactly once", st.Poses)
	}
}
