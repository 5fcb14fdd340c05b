package tensor

import "fmt"

// This file implements the cache-blocked packed GEMM behind the
// steady-state inference path. The right-hand operand — in practice a
// weight matrix that is constant across every batch of a screening job
// — is repacked once into contiguous column panels; the multiply then
// sweeps each panel with an unrolled 8-lane accumulation, so one panel
// (K x 8) stays cache-resident while the A rows stream past and the
// output row accumulates in registers instead of memory. Per-element
// term order is exactly the scalar kernels' ascending-k order, which is
// what keeps pooled-path scores byte-identical to the allocating path.
//
// The panel kernel is the DENSE fast path — activations through
// y = x·Wᵀ layers. For sparse A (im2col voxel patches) the scalar
// zero-skip kernel MatMulAcc wins instead: it pays one data-dependent
// branch per A value and skips a whole output row of work, where the
// panel sweep would pay one branch per (value, panel) pair — measured
// 2-4x slower at realistic voxel sparsity. Call sites choose by
// operand character, not size.

// packPanel is the panel width: 8 columns, one 64-byte cache line and
// two 32-byte AVX2 registers per accumulation row at float64, two
// 16-byte SSE registers at float32.
const packPanel = 8

// Packed is a K x N matrix repacked into column panels for
// MatMulAccPacked / MatMulPackedInto. Panel j holds columns
// [j*packPanel, (j+1)*packPanel) stored k-major (row p of the panel is
// contiguous); the last panel is zero-padded. A Packed matrix is built
// once per (weights, shape, width) — the nn package keeps it with the
// parameter — and read concurrently by any number of multiplies.
type Packed[T Float] struct {
	K, N int
	data []T
}

// PackedB is the float64 packed matrix.
type PackedB = Packed[float64]

// PackedB32 is the float32 packed matrix.
type PackedB32 = Packed[float32]

func (pb *Packed[T]) init(k, n int) {
	pb.K, pb.N = k, n
	need := (n + packPanel - 1) / packPanel * packPanel * k
	if cap(pb.data) < need {
		pb.data = make([]T, need)
	} else {
		pb.data = pb.data[:need]
	}
}

// panel returns the full panel holding columns [j0, j0+packPanel).
func (pb *Packed[T]) panel(j0 int) []T {
	return pb.data[j0/packPanel*pb.K*packPanel : (j0/packPanel+1)*pb.K*packPanel]
}

// Pack fills pb from the row-major K x N matrix b, reusing pb's buffer
// when it is large enough.
func (pb *Packed[T]) Pack(b *Dense[T]) {
	if b.Rank() != 2 {
		panic("tensor: Packed.Pack requires a rank-2 tensor")
	}
	k, n := b.Shape[0], b.Shape[1]
	pb.init(k, n)
	for j0 := 0; j0 < n; j0 += packPanel {
		panel := pb.data[j0/packPanel*k*packPanel:]
		w := n - j0
		if w > packPanel {
			w = packPanel
		}
		for p := 0; p < k; p++ {
			src := b.Data[p*n+j0 : p*n+j0+w]
			dst := panel[p*packPanel : p*packPanel+packPanel]
			copy(dst, src)
			for t := w; t < packPanel; t++ {
				dst[t] = 0
			}
		}
	}
}

// PackTransposed fills pb with the transpose of the row-major n x k
// float64 matrix held in data (higher-rank weights collapse to [n, k]
// row major, e.g. conv kernels [Out, In*K^3]), converted to pb's width.
// The result is the packed form of the k x n matrix dataᵀ, built
// without materializing the transpose — the B operand of every
// y = x·Wᵀ layer, and at float32 the point where float64 training
// weights become float32 inference weights.
func (pb *Packed[T]) PackTransposed(data []float64, n, k int) {
	if len(data) != n*k {
		panic(fmt.Sprintf("tensor: PackTransposed needs %d elements, got %d", n*k, len(data)))
	}
	pb.init(k, n)
	for j0 := 0; j0 < n; j0 += packPanel {
		panel := pb.data[j0/packPanel*k*packPanel:]
		w := n - j0
		if w > packPanel {
			w = packPanel
		}
		for p := 0; p < k; p++ {
			dst := panel[p*packPanel : p*packPanel+packPanel]
			for t := 0; t < w; t++ {
				dst[t] = T(data[(j0+t)*k+p])
			}
			for t := w; t < packPanel; t++ {
				dst[t] = 0
			}
		}
	}
}

// MatMulAccPacked computes c += a x B for the packed B, preserving
// MatMulAcc's semantics exactly: ascending-k accumulation per output
// element with zero entries of A skipped. The caller owns parallelism
// (disjoint row blocks of c may be filled concurrently via
// matMulPackedRows through MatMul; this entry point is serial).
func MatMulAccPacked[T Float](c, a *Dense[T], pb *Packed[T]) {
	checkPackedShapes("MatMulAccPacked", c, a, pb)
	matMulPackedRows(c, a, pb, 0, a.Shape[0], true, true)
}

// MatMulPackedInto computes c = a x B for the packed B, fully
// overwriting c without reading it. No zero-skip is applied, so when
// pb holds Wᵀ (PackTransposed) the result is bitwise MatMulTransB(a, w)
// at float64 — the dense-layer forward product.
func MatMulPackedInto[T Float](c, a *Dense[T], pb *Packed[T]) {
	checkPackedShapes("MatMulPackedInto", c, a, pb)
	matMulPackedRows(c, a, pb, 0, a.Shape[0], false, false)
}

// MatMulPacked32Into is MatMulPackedInto at float32.
func MatMulPacked32Into(c, a *F32, pb *PackedB32) { MatMulPackedInto(c, a, pb) }

func checkPackedShapes[T Float](op string, c, a *Dense[T], pb *Packed[T]) {
	if a.Rank() != 2 || c.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	if a.Shape[1] != pb.K || c.Shape[0] != a.Shape[0] || c.Shape[1] != pb.N {
		panic(fmt.Sprintf("tensor: %s shapes %v x [%d %d] -> %v", op, a.Shape, pb.K, pb.N, c.Shape))
	}
}

// matMulPackedRows runs the panel kernel over output rows [lo, hi).
// acc selects += (reading c) vs = (overwriting); skip selects the
// sparse zero-skip of the accumulating kernels. Full panels run
// through the width's vector leaf where there is one (vectorPanels) and
// otherwise in 8 register lanes here; the ragged tail runs a 4-lane
// block, then scalar lanes. Every path adds each output element's
// terms in ascending k.
func matMulPackedRows[T Float](c, a *Dense[T], pb *Packed[T], lo, hi int, acc, skip bool) {
	k, n := pb.K, pb.N
	full := n / packPanel * packPanel
	if !vectorPanels(c, a, pb, lo, hi, acc, skip) {
		for j0 := 0; j0 < full; j0 += packPanel {
			panel := pb.panel(j0)
			for i := lo; i < hi; i++ {
				ai := a.Data[i*k : (i+1)*k]
				ci := c.Data[i*n+j0 : i*n+j0+packPanel : i*n+j0+packPanel]
				var s0, s1, s2, s3, s4, s5, s6, s7 T
				if acc {
					s0, s1, s2, s3 = ci[0], ci[1], ci[2], ci[3]
					s4, s5, s6, s7 = ci[4], ci[5], ci[6], ci[7]
				}
				for p, av := range ai {
					if skip && av == 0 {
						continue
					}
					r := panel[p*packPanel : p*packPanel+packPanel]
					s0 += av * r[0]
					s1 += av * r[1]
					s2 += av * r[2]
					s3 += av * r[3]
					s4 += av * r[4]
					s5 += av * r[5]
					s6 += av * r[6]
					s7 += av * r[7]
				}
				ci[0], ci[1], ci[2], ci[3] = s0, s1, s2, s3
				ci[4], ci[5], ci[6], ci[7] = s4, s5, s6, s7
			}
		}
	}
	if full == n {
		return
	}
	// Tail panel: fewer than packPanel live columns. A 4-lane block
	// covers the common half-panel widths (e.g. graph stages of width
	// 12); the rest runs scalar per lane.
	panel := pb.data[full/packPanel*k*packPanel:]
	t0 := 0
	if n-full >= 4 {
		for i := lo; i < hi; i++ {
			ai := a.Data[i*k : (i+1)*k]
			ci := c.Data[i*n+full : i*n+full+4 : i*n+full+4]
			var s0, s1, s2, s3 T
			if acc {
				s0, s1, s2, s3 = ci[0], ci[1], ci[2], ci[3]
			}
			for p, av := range ai {
				if skip && av == 0 {
					continue
				}
				r := panel[p*packPanel : p*packPanel+4]
				s0 += av * r[0]
				s1 += av * r[1]
				s2 += av * r[2]
				s3 += av * r[3]
			}
			ci[0], ci[1], ci[2], ci[3] = s0, s1, s2, s3
		}
		t0 = 4
	}
	for i := lo; i < hi; i++ {
		ai := a.Data[i*k : (i+1)*k]
		for t := t0; t < n-full; t++ {
			var s T
			if acc {
				s = c.Data[i*n+full+t]
			}
			for p, av := range ai {
				if skip && av == 0 {
					continue
				}
				s += av * panel[p*packPanel+t]
			}
			c.Data[i*n+full+t] = s
		}
	}
}
