package serve

import (
	"sort"
	"sync"
	"time"

	"deepfusion/internal/campaign"
)

// flushCause labels why a batch left the batcher.
type flushCause int

const (
	flushFull     flushCause = iota // reached BatchSize
	flushDeadline                   // latency bound expired
	flushDrain                      // engine drain
)

// latencyWindow is how many recent request latencies the percentile
// ring retains. Power of two, sized to smooth percentile estimates
// without unbounded growth.
const latencyWindow = 512

// throughputWindow is how many recent batch completions the poses/s
// estimate is computed over.
const throughputWindow = 128

// Stats aggregates the service's operational counters: flush-cause
// breakdown (the batcher's observable behavior — tests assert on it),
// scored-pose throughput over a recent window, and request-latency
// percentiles over a ring of completions. All time comes from the
// engine clock, so FakeClock tests read deterministic numbers.
type Stats struct {
	mu    sync.Mutex
	clock campaign.Clock

	posesScored     int64
	flushesFull     int64
	flushesDeadline int64
	flushesDrain    int64
	rejections      int64
	evictions       int64
	panics          int64

	lat  [latencyWindow]time.Duration
	latN int64 // total latencies observed; ring index is latN % window

	tput  [throughputWindow]tputSample
	tputN int64
}

type tputSample struct {
	at    time.Time
	poses int
}

func newStats(clock campaign.Clock) *Stats {
	return &Stats{clock: clock}
}

func (s *Stats) flushed(cause flushCause, poses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch cause {
	case flushFull:
		s.flushesFull++
	case flushDeadline:
		s.flushesDeadline++
	case flushDrain:
		s.flushesDrain++
	}
}

func (s *Stats) scored(poses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.posesScored += int64(poses)
	s.tput[s.tputN%throughputWindow] = tputSample{at: s.clock.Now(), poses: poses}
	s.tputN++
}

func (s *Stats) latency(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat[s.latN%latencyWindow] = d
	s.latN++
}

func (s *Stats) rejected() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejections++
}

func (s *Stats) panicked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.panics++
}

func (s *Stats) evictedTarget() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evictions++
}

// FlushCounts returns the batcher's flush-cause breakdown (full,
// deadline, drain) — the exactly-once observability hook the FakeClock
// tests assert on.
func (s *Stats) FlushCounts() (full, deadline, drain int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushesFull, s.flushesDeadline, s.flushesDrain
}

// StatsSnapshot is the JSON form of the live counters.
type StatsSnapshot struct {
	PosesScored     int64   `json:"poses_scored"`
	PosesPerSec     float64 `json:"poses_per_sec"`
	P50LatencyMS    float64 `json:"p50_latency_ms"`
	P99LatencyMS    float64 `json:"p99_latency_ms"`
	FlushesFull     int64   `json:"flushes_full"`
	FlushesDeadline int64   `json:"flushes_deadline"`
	FlushesDrain    int64   `json:"flushes_drain"`
	Rejections      int64   `json:"rejections"`
	TargetEvictions int64   `json:"target_evictions"`
	// Panics counts scoring batches and HTTP requests that panicked and
	// were failed (500, or a failed request) instead of crashing.
	Panics int64 `json:"panics"`
}

func (s *Stats) snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StatsSnapshot{
		PosesScored:     s.posesScored,
		FlushesFull:     s.flushesFull,
		FlushesDeadline: s.flushesDeadline,
		FlushesDrain:    s.flushesDrain,
		Rejections:      s.rejections,
		TargetEvictions: s.evictions,
		Panics:          s.panics,
	}
	snap.PosesPerSec = s.posesPerSecLocked()
	snap.P50LatencyMS, snap.P99LatencyMS = s.percentilesLocked()
	return snap
}

// posesPerSecLocked estimates recent throughput over the completion
// window: poses scored between the oldest retained sample and now.
// A frozen clock (FakeClock tests) yields zero elapsed time; report 0
// rather than Inf.
func (s *Stats) posesPerSecLocked() float64 {
	n := s.tputN
	if n == 0 {
		return 0
	}
	w := int64(throughputWindow)
	if n < w {
		w = n
	}
	oldest := s.tput[(s.tputN-w)%throughputWindow]
	total := 0
	for i := int64(0); i < w; i++ {
		total += s.tput[(s.tputN-1-i)%throughputWindow].poses
	}
	elapsed := s.clock.Now().Sub(oldest.at).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(total) / elapsed
}

// percentilesLocked computes p50/p99 over the retained latency ring.
func (s *Stats) percentilesLocked() (p50, p99 float64) {
	n := s.latN
	if n == 0 {
		return 0, 0
	}
	w := int64(latencyWindow)
	if n < w {
		w = n
	}
	buf := make([]time.Duration, w)
	for i := int64(0); i < w; i++ {
		buf[i] = s.lat[(s.latN-1-i)%latencyWindow]
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	at := func(q float64) float64 {
		idx := int(q * float64(len(buf)-1))
		return float64(buf[idx]) / float64(time.Millisecond)
	}
	return at(0.50), at(0.99)
}
