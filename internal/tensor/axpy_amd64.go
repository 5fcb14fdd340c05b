package tensor

// Axpy32 computes dst[i] += v * w[i] for every element of dst; w must
// be at least as long as dst. It is the row kernel of the f32 scatter
// convolution's tap block on CPUs without AVX2: each lane is an
// independent accumulator, so the 4-wide SSE implementation performs
// exactly one multiply rounding and one add rounding per element in the
// same order as the scalar loop — results are bit-identical, only the
// instruction width changes. SSE is baseline on amd64 (GOAMD64=v1), so
// it needs no feature detection.
//
//go:noescape
func Axpy32(dst, w []float32, v float32)

// useAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches; it selects the tap-block kernel.
var useAVX2 = detectAVX2()

// detectAVX2 reads CPUID leaf 1 (AVX, OSXSAVE), XCR0 (XMM and YMM
// state enabled) and CPUID leaf 7 (AVX2).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// tapBlock32 is the float32 tap-block leaf (TapBlockKernel): one AVX2
// call over the whole checked block, or the rows through the SSE
// Axpy32 on a CPU without AVX2.
func tapBlock32(pd, wd []float32, v float32, pOff, wOff, nd, nh, span int, st TapStrides) {
	if !checkTapBlock(len(pd), len(wd), pOff, wOff, nd, nh, span, st) {
		return
	}
	if useAVX2 {
		tapBlockAVX2(pd, wd, v, pOff, wOff, nd, nh, span, st.PPlane, st.PRow, st.WPlane, st.WRow)
		return
	}
	tapRows32(pd, wd, v, pOff, wOff, nd, nh, span, st)
}

// tapBlockAVX2 runs a non-empty tap block, checked by the caller, eight
// lanes at a time: VBROADCASTSS, then VMULPS and VADDPS per eight
// elements — one multiply and one add rounding each, no FMA — and a
// scalar tail.
//
//go:noescape
func tapBlockAVX2(pd, wd []float32, v float32, pOff, wOff, nd, nh, span, pPlane, pRow, wPlane, wRow int)

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
