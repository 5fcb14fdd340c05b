package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"deepfusion/internal/screen"
)

// FuzzSubmitBody feeds arbitrary bytes to POST /v1/submit on an engine
// with a stub scorer and stub docking, so every input runs decoding,
// validation, compound resolution, SMILES parsing and preparation, and
// admission. No input may panic the handler (a recovered panic answers
// 500) or draw a status outside the documented set. Seeds live in
// testdata/fuzz/FuzzSubmitBody; `make fuzz-submit` runs a short smoke.
func FuzzSubmitBody(f *testing.F) {
	cfg := testConfig(nil) // system clock: deadline flushes keep the queue moving
	cfg.Scorers = []screen.Scorer{stubScorer{calls: &atomic.Int32{}}}
	cfg.MaxWait = time.Millisecond
	e, err := NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(e.Drain)
	e.dock = stubDock
	h := NewHandler(e)
	allowed := map[int]bool{
		http.StatusAccepted:              true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusUnprocessableEntity:   true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/submit", bytes.NewReader(body)))
		if !allowed[rec.Code] {
			t.Fatalf("submit body %q: status %d (%s)", body, rec.Code, rec.Body.Bytes())
		}
	})
}
