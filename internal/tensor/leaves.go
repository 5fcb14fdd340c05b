package tensor

// This file is where the element-generic inference code meets the
// few kernels that differ by width. Everything above these leaves is
// written once over Float; a leaf is picked from the element type once
// per call, outside the loops that run it, so a hot loop calls a plain
// function — no dictionary lookup, no interface method. The leaves,
// and why each stays per width:
//
//   - TapBlockKernel: the scatter convolution's per-voxel block of tap
//     rows, and, with the roles swapped, the training backward's: a
//     voxel's block of weight-gradient rows, read from the output
//     gradient. On amd64 it is AVX2 assembly at both widths (eight
//     float32 lanes per instruction, or two registers of four float64
//     lanes; no FMA) when the CPU and OS support it; otherwise the rows
//     run through the SSE Axpy32 at float32 and the Go axpy64 at
//     float64 (tapRows32, tapRows64), as they do under !amd64 through
//     the Go Axpy32 and axpy64. Every path is bit-identical to the scalar
//     loop; the Go loops are the reference the goldens recorded.
//   - vectorPanels: the full GEMM panels' rows in assembly on amd64 —
//     SSE at float32, AVX2 at float64 when the CPU has it — and
//     matMulPackedRows's own 8-lane Go loop otherwise.
//   - Convert: a memmove at float64; a narrowing loop at float32, the
//     one point where per-pose float64 features become float32.
//
// The nn package adds one more: BatchNorm's evaluation normalization.

// Select returns whichever of x64 and x32 has type R: x64 and x32 are
// the float64 and the float32 instantiation of one generic type or
// function signature, and R names the instantiation generic code needs.
// It is how code written over Float picks its per-width state (arenas,
// compiled weight forms) and its leaves. Pass pointers or functions
// only: they fit an interface without allocating.
func Select[R any](x64, x32 any) R {
	if r, ok := x64.(R); ok {
		return r
	}
	return x32.(R)
}

// TapStrides are the element strides of a tap block (TapBlockKernel):
// each next block plane moves the accumulator PPlane back and the
// weights WPlane on, each next row within a plane PRow back and WRow
// on.
type TapStrides struct {
	PPlane, PRow, WPlane, WRow int
}

// TapBlockKernel returns the tap-block leaf at width T. A call
//
//	tap(pd, wd, v, pOff, wOff, nd, nh, span, st)
//
// runs, for d < nd and then h < nh in that order,
//
//	pd[p : p+span] += wd[w : w+span] * v
//	p = pOff - d*st.PPlane - h*st.PRow,  w = wOff + d*st.WPlane + h*st.WRow
//
// — the rows of kernel taps one non-zero input voxel sends into the
// scatter convolution's accumulator. Each element gets one multiply
// rounding and one add rounding, as in the scalar loop. The whole block
// is checked against len(pd) and len(wd) before any row is touched; a
// block that does not fit, or a negative count, panics.
func TapBlockKernel[T Float]() func(pd, wd []T, v T, pOff, wOff, nd, nh, span int, st TapStrides) {
	return Select[func(pd, wd []T, v T, pOff, wOff, nd, nh, span int, st TapStrides)](tapBlock64, tapBlock32)
}

// checkTapBlock panics unless every row of the tap block lies inside
// pd (length np) and wd (length nw), and reports whether the block has
// any element to update.
func checkTapBlock(np, nw, pOff, wOff, nd, nh, span int, st TapStrides) bool {
	if nd < 0 || nh < 0 || span < 0 {
		panic("tensor: negative tap block")
	}
	if nd == 0 || nh == 0 || span == 0 {
		return false
	}
	pLo, pHi := blockExtent(pOff, -(nd-1)*st.PPlane, -(nh-1)*st.PRow)
	wLo, wHi := blockExtent(wOff, (nd-1)*st.WPlane, (nh-1)*st.WRow)
	if pLo < 0 || pHi > np-span || wLo < 0 || wHi > nw-span {
		panic("tensor: tap block out of range")
	}
	return true
}

// blockExtent returns the least and the greatest row offset of a block
// whose first row is at off and whose last plane and last row add dd
// and dh: the offsets are linear in (d, h), so the corners bound them.
func blockExtent(off, dd, dh int) (lo, hi int) {
	return off + min(dd, 0) + min(dh, 0), off + max(dd, 0) + max(dh, 0)
}

// tapRows64 runs the rows of a checked float64 tap block through
// axpy64: the portable leaf, and the reference the AVX2 block matches.
func tapRows64(pd, wd []float64, v float64, pOff, wOff, nd, nh, span int, st TapStrides) {
	for d := 0; d < nd; d++ {
		p, w := pOff-d*st.PPlane, wOff+d*st.WPlane
		for h := 0; h < nh; h++ {
			axpy64(pd[p:p+span], wd[w:w+span], v)
			p -= st.PRow
			w += st.WRow
		}
	}
}

// tapRows32 runs the rows of a checked float32 tap block through
// Axpy32.
func tapRows32(pd, wd []float32, v float32, pOff, wOff, nd, nh, span int, st TapStrides) {
	for d := 0; d < nd; d++ {
		p, w := pOff-d*st.PPlane, wOff+d*st.WPlane
		for h := 0; h < nh; h++ {
			Axpy32(pd[p:p+span], wd[w:w+span], v)
			p -= st.PRow
			w += st.WRow
		}
	}
}

// axpy64 computes dst[i] += w[i] * v, unrolled 8 lanes at a time (the
// production filter counts are multiples of 8).
func axpy64(dst, w []float64, v float64) {
	w = w[:len(dst)]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		dr := dst[i : i+8 : i+8]
		wr := w[i : i+8 : i+8]
		dr[0] += wr[0] * v
		dr[1] += wr[1] * v
		dr[2] += wr[2] * v
		dr[3] += wr[3] * v
		dr[4] += wr[4] * v
		dr[5] += wr[5] * v
		dr[6] += wr[6] * v
		dr[7] += wr[7] * v
	}
	for ; i < len(dst); i++ {
		dst[i] += w[i] * v
	}
}

// Convert writes the float64 values src into dst, which must have the
// same length, at dst's width: a memmove at float64, the narrowing
// conversion at float32. Batch assembly runs every per-pose feature
// through it.
func Convert[T Float](dst []T, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: Convert length mismatch")
	}
	if d, ok := any(&dst).(*[]float64); ok {
		copy(*d, src)
		return
	}
	for i, v := range src {
		dst[i] = T(v)
	}
}
