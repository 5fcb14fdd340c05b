package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"deepfusion/internal/campaign"
	"deepfusion/internal/campaign/dispatch"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls (the program under test records
// nothing itself). Spans of one job, unit or request share ID; Parent
// is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so workload code calls it unconditionally and the
// untraced run pays one nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// adopt re-parents a span once its cause is known: a Claim call starts
// before the unit it will lease has a span of its own.
func (r *recorder) adopt(child, parent int, id string) {
	if r == nil || child < 0 {
		return
	}
	r.mu.Lock()
	r.spans[child].Parent = parent
	r.spans[child].ID = id
	r.mu.Unlock()
}

// beginAt opens a span that started when span i did.
func (r *recorder) beginAt(name, id string, i int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.spans[i].Start
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: -1, Start: start, End: start})
	return len(r.spans) - 1
}

// timed runs fn inside a span.
func (r *recorder) timed(name, id string, parent int, fn func()) time.Duration {
	t0 := time.Now()
	i := r.begin(name, id, parent)
	fn()
	r.end(i)
	return time.Since(t0)
}

// duration is how long span i lasted.
func (r *recorder) duration(i int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return time.Duration(r.spans[i].End - r.spans[i].Start)
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// fillSelfTimes sets every span's self time: its duration minus the
// part of its interval that its child spans cover. Overlapping
// children (parallel parts of one request) are merged first, and a
// child is clipped to its parent's interval.
func fillSelfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// spanTotals is the per-name roll-up printed after a traced run.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func rollUp(spans []span) map[string]spanTotals {
	out := map[string]spanTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.TotalMS += float64(s.End-s.Start) / 1e6
		t.SelfMS += float64(s.Self) / 1e6
		out[s.Name] = t
	}
	return out
}

// write stores the spans with their self times and the per-name
// roll-up as benchmark/out/trace.<workload>.json.
func (r *recorder) write(path, workload string) (map[string]spanTotals, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	fillSelfTimes(spans)
	totals := rollUp(spans)
	data, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		ByName   map[string]spanTotals `json:"by_name"`
		Spans    []span                `json:"spans"`
	}{workload, totals, spans})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return totals, os.WriteFile(path, data, 0o644)
}

// spanCost calibrates what one begin/end pair costs, so a traced run
// can report the share of its wall-clock the recorder itself took.
func spanCost() time.Duration {
	const n = 200000
	r := newRecorder()
	r.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", "", -1))
	}
	return time.Since(t0) / n
}

// claimSample is one Dispatcher.Claim call as the worker saw it.
type claimSample struct {
	dur    time.Duration
	leased bool
}

// unitTracer measures the campaign control plane from outside through
// the two public seams a worker exposes: it decorates the Dispatcher
// (timing Claim, Heartbeat and Complete) and listens to OnEvent (the
// claimed/executed/acked points that bracket ExecuteUnit and the ack).
// Each unit gets one parent span from the start of its Claim to its
// ack, with Claim, ExecuteUnit and Complete as children.
type unitTracer struct {
	inner campaign.Dispatcher
	rec   *recorder

	mu         sync.Mutex
	unitSpan   map[string]int // unit ID -> open "unit" span
	execSpan   map[string]int // unit ID -> open "ExecuteUnit" span
	claims     []claimSample
	completes  []time.Duration
	executes   []time.Duration
	heartbeats int
}

func newUnitTracer(inner campaign.Dispatcher, rec *recorder) *unitTracer {
	return &unitTracer{inner: inner, rec: rec, unitSpan: map[string]int{}, execSpan: map[string]int{}}
}

func (t *unitTracer) Claim(workerID string) (*campaign.ClaimRecord, *campaign.UnitRecord, error) {
	t0 := time.Now()
	i := t.rec.begin("Claim", "", -1)
	c, u, err := t.inner.Claim(workerID)
	t.rec.end(i)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.claims = append(t.claims, claimSample{dur: d, leased: err == nil})
	if err == nil {
		us := t.rec.beginAt("unit", c.Unit, i)
		t.rec.adopt(i, us, c.Unit)
		t.unitSpan[c.Unit] = us
	}
	return c, u, err
}

func (t *unitTracer) Heartbeat(c *campaign.ClaimRecord) error {
	t.mu.Lock()
	t.heartbeats++
	parent := t.unitSpan[c.Unit]
	t.mu.Unlock()
	i := t.rec.begin("Heartbeat", c.Unit, parent)
	defer t.rec.end(i)
	return t.inner.Heartbeat(c)
}

func (t *unitTracer) Complete(c *campaign.ClaimRecord, out campaign.UnitOutcome) error {
	t.mu.Lock()
	parent := t.unitSpan[c.Unit]
	t.mu.Unlock()
	t0 := time.Now()
	i := t.rec.begin("Complete", c.Unit, parent)
	err := t.inner.Complete(c, out)
	t.rec.end(i)
	t.mu.Lock()
	t.completes = append(t.completes, time.Since(t0))
	t.mu.Unlock()
	return err
}

func (t *unitTracer) Fail(c *campaign.ClaimRecord, out campaign.UnitOutcome, unitErr error) error {
	return t.inner.Fail(c, out, unitErr)
}

// onEvent is the dispatch.Worker.OnEvent adapter.
func (t *unitTracer) onEvent(ev dispatch.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case dispatch.EventClaimed:
		t.execSpan[ev.Unit] = t.rec.begin("ExecuteUnit", ev.Unit, t.unitSpan[ev.Unit])
	case dispatch.EventExecuted:
		i := t.execSpan[ev.Unit]
		t.rec.end(i)
		t.executes = append(t.executes, t.rec.duration(i))
	case dispatch.EventAcked, dispatch.EventLeaseLost:
		t.rec.end(t.unitSpan[ev.Unit])
	}
}
