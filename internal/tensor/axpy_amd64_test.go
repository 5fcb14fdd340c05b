package tensor

import "testing"

// forEachKernelPath runs f once per kernel path this host has, at both
// widths: "sse" without AVX2 — the SSE Axpy32 and panel rows at
// float32, the Go loops at float64 — always, and "avx2" — the AVX2 tap
// blocks and float64 panel rows — when detectAVX2 found it.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	useAVX2 = false
	t.Run("sse", f)
	if detected {
		useAVX2 = true
		t.Run("avx2", f)
	}
}
