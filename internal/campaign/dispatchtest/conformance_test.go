package dispatchtest_test

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatchhttp"
	"deepfusion/internal/campaign/dispatchtest"

	"net/http/httptest"
)

// t0 anchors every conformance run's virtual time.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// newCampaign materializes a fresh dispatch-ready campaign directory.
func newCampaign(t *testing.T, fc *campaign.FakeClock) (string, *campaign.Campaign) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "camp")
	c, err := campaign.New(dir, dispatchtest.TinyConfig(), dispatchtest.TinyScorers())
	if err != nil {
		t.Fatal(err)
	}
	return dir, c
}

// TestDispatchStoreConformance runs the shared Dispatcher contract
// against the filesystem backend.
func TestDispatchStoreConformance(t *testing.T) {
	dispatchtest.Conformance(t, func(t *testing.T) *dispatchtest.Backend {
		fc := campaign.NewFakeClock(t0)
		lease := campaign.LeaseOptions{TTL: 30 * time.Second}
		dir, c := newCampaign(t, fc)
		store := campaign.NewDispatchStore(dir, fc)
		return &dispatchtest.Backend{
			Dispatcher: func(string) campaign.Dispatcher { return store },
			Sync: func(now time.Time) (campaign.SyncReport, error) {
				return c.SyncDispatch(now, lease)
			},
			Status: func() (campaign.Status, error) { return campaign.ReadStatus(dir) },
			Clock:  fc,
			Lease:  lease,
		}
	})
}

// TestDispatchHTTPConformance runs the identical contract against the
// HTTP backend: the same lease state machine observed through a real
// server and per-worker clients. Passing both proves the wire layer
// adds no semantics — only transport.
func TestDispatchHTTPConformance(t *testing.T) {
	dispatchtest.Conformance(t, func(t *testing.T) *dispatchtest.Backend {
		fc := campaign.NewFakeClock(t0)
		lease := campaign.LeaseOptions{TTL: 30 * time.Second}
		dir, c := newCampaign(t, fc)
		srv := httptest.NewServer(dispatchhttp.NewServer(dir, fc).Handler())
		t.Cleanup(srv.Close)
		scratch := t.TempDir()
		var mu sync.Mutex
		clients := map[string]*dispatchhttp.Client{}
		client := func(id string) *dispatchhttp.Client {
			mu.Lock()
			defer mu.Unlock()
			if cl, ok := clients[id]; ok {
				return cl
			}
			cl, err := dispatchhttp.NewClient(srv.URL, filepath.Join(scratch, id), dispatchhttp.Options{Clock: fc})
			if err != nil {
				t.Fatal(err)
			}
			clients[id] = cl
			return cl
		}
		return &dispatchtest.Backend{
			Dispatcher: func(id string) campaign.Dispatcher { return client(id) },
			Sync: func(now time.Time) (campaign.SyncReport, error) {
				return c.SyncDispatch(now, lease)
			},
			Status: func() (campaign.Status, error) { return client("status").Status() },
			Clock:  fc,
			Lease:  lease,
		}
	})
}
