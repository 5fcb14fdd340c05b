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
// registers across context switches; it selects the AVX2 tap blocks at
// both widths and the AVX2 panel rows at float64.
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

// tapBlock64 is the float64 tap-block leaf: one AVX2 call over the
// whole checked block, or the Go rows of axpy64 on a CPU without AVX2.
func tapBlock64(pd, wd []float64, v float64, pOff, wOff, nd, nh, span int, st TapStrides) {
	if !checkTapBlock(len(pd), len(wd), pOff, wOff, nd, nh, span, st) {
		return
	}
	if useAVX2 {
		tapBlockAVX2_64(pd, wd, v, pOff, wOff, nd, nh, span, st.PPlane, st.PRow, st.WPlane, st.WRow)
		return
	}
	tapRows64(pd, wd, v, pOff, wOff, nd, nh, span, st)
}

// tapBlockAVX2 runs a non-empty tap block, checked by the caller, eight
// lanes at a time: VBROADCASTSS, then VMULPS and VADDPS per eight
// elements — one multiply and one add rounding each, no FMA — and a
// scalar tail.
//
//go:noescape
func tapBlockAVX2(pd, wd []float32, v float32, pOff, wOff, nd, nh, span, pPlane, pRow, wPlane, wRow int)

// tapBlockAVX2_64 is tapBlockAVX2 at float64: VBROADCASTSD, then two
// VMULPD/VADDPD pairs of four lanes per eight elements, and a scalar
// tail — the roundings and the order of axpy64.
//
//go:noescape
func tapBlockAVX2_64(pd, wd []float64, v float64, pOff, wOff, nd, nh, span, pPlane, pRow, wPlane, wRow int)

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

// packedAccSkip64 is packedAccSkip32 at float64, in AVX2: the 8
// accumulators in two YMM registers, the same NaN-correct zero-skip.
//
//go:noescape
func packedAccSkip64(ci, ai, panel []float64)

// packedInto64 is packedInto32 at float64, in AVX2.
//
//go:noescape
func packedInto64(ci, ai, panel []float64)

// vectorPanels runs the full panels of output rows [lo, hi) through
// the row kernels in either combination inference uses —
// packedAccSkip* for (acc, skip), packedInto* for (overwrite, dense) —
// and reports whether it did: always at float32 (SSE), at float64 when
// the CPU has AVX2. Otherwise matMulPackedRows runs its own 8 lanes.
// The kernels are called directly rather than as function values,
// which would add an ABI wrapper call per row.
func vectorPanels[T Float](c, a *Dense[T], pb *Packed[T], lo, hi int, acc, skip bool) bool {
	if acc != skip {
		return false
	}
	k, n := pb.K, pb.N
	switch c := any(c).(type) {
	case *F32:
		a, pb := any(a).(*F32), any(pb).(*PackedB32)
		for j0 := 0; j0+packPanel <= n; j0 += packPanel {
			panel := pb.panel(j0)
			for i := lo; i < hi; i++ {
				ci, ai := c.Data[i*n+j0:i*n+j0+packPanel], a.Data[i*k:(i+1)*k]
				if acc {
					packedAccSkip32(ci, ai, panel)
				} else {
					packedInto32(ci, ai, panel)
				}
			}
		}
	case *Tensor:
		if !useAVX2 {
			return false
		}
		a, pb := any(a).(*Tensor), any(pb).(*PackedB)
		for j0 := 0; j0+packPanel <= n; j0 += packPanel {
			panel := pb.panel(j0)
			for i := lo; i < hi; i++ {
				ci, ai := c.Data[i*n+j0:i*n+j0+packPanel], a.Data[i*k:(i+1)*k]
				if acc {
					packedAccSkip64(ci, ai, panel)
				} else {
					packedInto64(ci, ai, panel)
				}
			}
		}
	}
	return true
}
