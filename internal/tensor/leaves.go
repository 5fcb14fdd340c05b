package tensor

// This file is where the element-generic inference code meets the
// few kernels that differ by width. Everything above these leaves is
// written once over Float; a leaf is picked from the element type once
// per call, outside the loops that run it, so a hot loop calls a plain
// function — no dictionary lookup, no interface method. The leaves,
// and why each stays per width:
//
//   - AxpyKernel: Axpy32 is SSE assembly (four float32 lanes per
//     instruction, bit-identical to the scalar loop); axpy64 stays pure
//     Go, its per-element order pinned bitwise by the float64 goldens.
//   - vectorPanels: SSE rows of the full GEMM panels at float32 (on
//     amd64); matMulPackedRows's own 8-lane Go loop at float64.
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

// AxpyKernel returns the dst[i] += w[i] * v kernel at width T —
// Axpy32 or axpy64. w must be at least as long as dst.
func AxpyKernel[T Float]() func(dst, w []T, v T) {
	return Select[func(dst, w []T, v T)](axpy64, Axpy32)
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
