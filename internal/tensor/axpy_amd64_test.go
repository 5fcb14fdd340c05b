package tensor

import "testing"

// forEachKernelPath runs f once per float32 kernel path this host has:
// the SSE rows always, the AVX2 block when detectAVX2 found it.
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
