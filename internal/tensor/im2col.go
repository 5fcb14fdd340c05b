package tensor

import "fmt"

// This file holds the lowering kernels that turn 3D convolution into
// matrix multiplication (im2col / col2im) plus the accumulating GEMM
// they feed — the training convolution's path for large outputs and
// its backward: one position-major patch matrix per sample tile,
// multiplied against the transposed kernel matrix, with the GEMM's
// zero-skip exploiting the natural sparsity of voxelized complexes
// (most grid cells hold no atom density).

// Im2Col3D fills cols with the patch matrix for output positions
// [posLo, posHi) of sample b of x, which must be a rank-5 tensor
// [B, C, D, H, W]. Convolution geometry is the repository's Conv3D
// contract: cubic kernel k, stride 1, same zero padding (pad = k/2).
//
// cols must be shaped [posHi-posLo, C*k*k*k]; row r holds the
// flattened (c, kd, kh, kw) patch for output position posLo+r, where
// positions enumerate (zd, zh, zw) in row-major order. Out-of-bounds
// patch entries are zero.
//
// Every element of cols is written exactly once — in-bounds runs as
// contiguous copies from the input rows, clipped edges as explicit
// zeros — so no separate whole-tile clear pass is needed. That halves
// the kernel's write traffic versus zero-fill-then-scatter.
func Im2Col3D(x *Tensor, b, k, posLo, posHi int, cols *Tensor) {
	if x.Rank() != 5 {
		panic("tensor: Im2Col3D requires a rank-5 input")
	}
	c, d, h, w := x.Dim(1), x.Dim(2), x.Dim(3), x.Dim(4)
	ck3 := c * k * k * k
	rows := posHi - posLo
	if cols.Rank() != 2 || cols.Dim(0) != rows || cols.Dim(1) != ck3 {
		panic(fmt.Sprintf("tensor: Im2Col3D cols shape %v, want [%d %d]", cols.Shape, rows, ck3))
	}
	pad := k / 2
	for pos := posLo; pos < posHi; pos++ {
		zd, rem := pos/(h*w), pos%(h*w)
		zh, zw := rem/w, rem%w
		// kw clip range, shared by every (c, kd, kh) plane of this row.
		kwLo, kwHi := 0, k
		if lo := pad - zw; lo > 0 {
			kwLo = lo
		}
		if hi := w + pad - zw; hi < k {
			kwHi = hi
		}
		iwLo := zw - pad + kwLo
		row := cols.Data[(pos-posLo)*ck3 : (pos-posLo+1)*ck3]
		for ci := 0; ci < c; ci++ {
			for kd := 0; kd < k; kd++ {
				id := zd + kd - pad
				dst := row[((ci*k+kd)*k)*k : ((ci*k+kd)*k+k)*k]
				if id < 0 || id >= d {
					clear(dst)
					continue
				}
				xPlane := x.Data[(((b*c+ci)*d+id)*h)*w : (((b*c+ci)*d+id)*h+h)*w]
				for kh := 0; kh < k; kh++ {
					ih := zh + kh - pad
					seg := dst[kh*k : kh*k+k]
					if ih < 0 || ih >= h {
						clear(seg)
						continue
					}
					clear(seg[:kwLo])
					copy(seg[kwLo:kwHi], xPlane[ih*w+iwLo:])
					clear(seg[kwHi:])
				}
			}
		}
	}
}

// Col2Im3D scatter-adds the patch-matrix gradient dcols (shaped
// [posHi-posLo, C*k*k*k], the layout Im2Col3D produces) back into the
// input gradient dx ([B, C, D, H, W]) for sample b. It is the adjoint
// of Im2Col3D; out-of-bounds patch entries are dropped.
func Col2Im3D(dcols *Tensor, b, k, posLo, posHi int, dx *Tensor) {
	c, d, h, w := dx.Dim(1), dx.Dim(2), dx.Dim(3), dx.Dim(4)
	ck3 := c * k * k * k
	pad := k / 2
	for pos := posLo; pos < posHi; pos++ {
		zd, rem := pos/(h*w), pos%(h*w)
		zh, zw := rem/w, rem%w
		row := dcols.Data[(pos-posLo)*ck3 : (pos-posLo+1)*ck3]
		for ci := 0; ci < c; ci++ {
			for kd := 0; kd < k; kd++ {
				id := zd + kd - pad
				if id < 0 || id >= d {
					continue
				}
				for kh := 0; kh < k; kh++ {
					ih := zh + kh - pad
					if ih < 0 || ih >= h {
						continue
					}
					dxRow := dx.Data[((((b*c+ci)*d+id)*h + ih) * w):((((b*c+ci)*d+id)*h+ih)*w + w)]
					src := row[((ci*k+kd)*k+kh)*k : ((ci*k+kd)*k+kh)*k+k]
					for kw := 0; kw < k; kw++ {
						if iw := zw + kw - pad; iw >= 0 && iw < w {
							dxRow[iw] += src[kw]
						}
					}
				}
			}
		}
	}
}

// MatMulAcc computes C += A x B into the preallocated tensor c for
// rank-2 tensors a (m x p) and b (p x n). Like MatMul it streams B
// row-wise and skips zero A entries, which is what makes the lowered
// convolution cheap on sparse voxel patches. The caller owns
// parallelism (no internal goroutines), so disjoint destination
// tensors can be filled concurrently. Steady-state loops that reuse
// one B across many calls should pack it once and use MatMulAccPacked
// instead (identical results, cache-blocked).
func MatMulAcc(c, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic("tensor: MatMulAcc requires rank-2 tensors")
	}
	m, p := a.Shape[0], a.Shape[1]
	p2, n := b.Shape[0], b.Shape[1]
	if p != p2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAcc shapes %v x %v -> %v", a.Shape, b.Shape, c.Shape))
	}
	matMulAccRows(c, a, b, 0, m)
}
