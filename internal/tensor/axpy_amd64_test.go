package tensor

import "testing"

// expMatchesMath reports whether math.Exp on this host takes its FMA
// path, whose bits Exp defines: true wherever the exp kernel runs.
var expMatchesMath = useExpAVX2

// forEachKernelPath runs f once per kernel path this host has, at both
// widths: "sse" without AVX2 — the SSE Axpy32 and panel rows at
// float32, the Go loops at float64 and Exp on every element of
// ExpInto — always, and "avx2" — the AVX2 tap blocks, the float64
// panel rows and, with FMA, the exp kernel — when detectAVX2 found it.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	detected, detectedExp := useAVX2, useExpAVX2
	defer func() { useAVX2, useExpAVX2 = detected, detectedExp }()
	useAVX2, useExpAVX2 = false, false
	t.Run("sse", f)
	if detected {
		useAVX2, useExpAVX2 = true, detectedExp
		t.Run("avx2", f)
	}
}
