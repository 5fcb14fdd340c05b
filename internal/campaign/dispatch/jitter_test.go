package dispatch

import (
	"testing"
	"time"
)

// TestJitterRange pins the poll/backoff jitter envelope: [0.5d, 1.5d),
// deterministic per worker ID.
func TestJitterRange(t *testing.T) {
	w := &Worker{ID: "jitter-test"}
	d := time.Second
	var lo, hi time.Duration = d, 0
	for i := 0; i < 2000; i++ {
		j := w.jitter(d)
		if j < d/2 || j >= d+d/2 {
			t.Fatalf("jitter(%v) = %v, outside [%v, %v)", d, j, d/2, d+d/2)
		}
		if j < lo {
			lo = j
		}
		if j > hi {
			hi = j
		}
	}
	if hi-lo < d/4 {
		t.Fatalf("jitter spread %v over 2000 draws, want real dispersion", hi-lo)
	}
	w2 := &Worker{ID: "jitter-test"}
	if a, b := w2.jitter(d), (&Worker{ID: "jitter-test"}).jitter(d); a != b {
		t.Fatalf("same-ID jitter streams diverge: %v vs %v", a, b)
	}
}
