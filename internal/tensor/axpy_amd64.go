package tensor

// Axpy32 computes dst[i] += v * w[i] for every element of dst; w must
// be at least as long as dst. It is the lane-parallel inner kernel of
// the f32 scatter convolution: each lane is an independent
// accumulator, so the 4-wide SSE implementation performs exactly one
// multiply rounding and one add rounding per element in the same order
// as the scalar loop — results are bit-identical, only the instruction
// width changes. SSE is baseline on amd64 (GOAMD64=v1), so no feature
// detection is needed.
//
//go:noescape
func Axpy32(dst, w []float32, v float32)

// packedAccSkip32 accumulates one output row of a full 8-column panel:
// ci[0:8] += ai[p] * panel[p*8 : p*8+8] for ascending p, skipping
// zero ai entries — the (acc, skip) inner loop of matMulPackedRows
// with the 8 accumulators held in two vector registers across the
// whole k sweep. Zero-skip tests NaN-correctly (a NaN multiplier is
// processed, matching the Go loop's av == 0 comparison). ci must
// hold exactly 8 lanes, panel len(ai)*8.
//
//go:noescape
func packedAccSkip32(ci, ai, panel []float32)

// packedInto32 overwrites one output row of a full 8-column panel:
// ci[0:8] = sum over p of ai[p] * panel[p*8 : p*8+8], ascending p, no
// zero-skip — the (overwrite, dense) inner loop of MatMulPackedInto.
//
//go:noescape
func packedInto32(ci, ai, panel []float32)

// vectorPanels runs the full panels of output rows [lo, hi) through
// the SSE row kernels when the multiply is a float32 one in either
// combination inference uses — packedAccSkip32 for (acc, skip),
// packedInto32 for (overwrite, dense) — and reports whether it did;
// otherwise matMulPackedRows runs its own 8 lanes. The kernels are
// called directly rather than as function values, which would add an
// ABI wrapper call per row.
func vectorPanels[T Float](c, a *Dense[T], pb *Packed[T], lo, hi int, acc, skip bool) bool {
	c32, ok := any(c).(*F32)
	if !ok || acc != skip {
		return false
	}
	a32, pb32 := any(a).(*F32), any(pb).(*PackedB32)
	k, n := pb32.K, pb32.N
	for j0 := 0; j0+packPanel <= n; j0 += packPanel {
		panel := pb32.data[j0/packPanel*k*packPanel : (j0/packPanel+1)*k*packPanel]
		for i := lo; i < hi; i++ {
			ci, ai := c32.Data[i*n+j0:i*n+j0+packPanel], a32.Data[i*k:(i+1)*k]
			if acc {
				packedAccSkip32(ci, ai, panel)
			} else {
				packedInto32(ci, ai, panel)
			}
		}
	}
	return true
}
