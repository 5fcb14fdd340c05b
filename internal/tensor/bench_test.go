package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkMatMulPacked pairs the f64 reference panel GEMM against the
// f32 fast path on a dense-layer shape: m=8, k=2048, n=512 — the B
// panel spills the cache, so the speedup is the memory-traffic win of
// halving the element width. `make bench-precision` runs this pair.
func BenchmarkMatMulPacked(b *testing.B) {
	const m, k, n = 8, 2048, 512
	rng := rand.New(rand.NewSource(61))
	a := New(m, k)
	bm := New(k, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range bm.Data {
		bm.Data[i] = rng.NormFloat64()
	}

	b.Run("f64", func(b *testing.B) {
		b.ReportAllocs()
		var pb PackedB
		pb.Pack(bm)
		c := New(m, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulPackedInto(c, a, &pb)
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.ReportAllocs()
		bm32 := NewF32(k, n)
		bm32.CopyFrom64(bm)
		var pb PackedB32
		pb.Pack(bm32)
		a32 := NewF32(m, k)
		a32.CopyFrom64(a)
		c := NewF32(m, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MatMulPacked32Into(c, a32, &pb)
		}
	})
}
