//go:build !amd64

package tensor

// Axpy32 computes dst[i] += v * w[i] for every element of dst; w must
// be at least as long as dst. Portable fallback for the SSE kernel in
// axpy_amd64.s — same per-element rounding, so results match the
// vector path bitwise.
func Axpy32(dst, w []float32, v float32) {
	for i := range dst {
		dst[i] += v * w[i]
	}
}

// tapBlock32 is the float32 tap-block leaf (TapBlockKernel): the rows
// of the checked block through Axpy32.
func tapBlock32(pd, wd []float32, v float32, pOff, wOff, nd, nh, span int, st TapStrides) {
	if checkTapBlock(len(pd), len(wd), pOff, wOff, nd, nh, span, st) {
		tapRows32(pd, wd, v, pOff, wOff, nd, nh, span, st)
	}
}

// vectorPanels reports false: without vector kernels,
// matMulPackedRows runs its own 8 lanes at both widths.
func vectorPanels[T Float](c, a *Dense[T], pb *Packed[T], lo, hi int, acc, skip bool) bool {
	return false
}
