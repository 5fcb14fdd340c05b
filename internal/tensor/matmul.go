package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMul computes C = A x B for rank-2 tensors A (m x k) and B (k x n).
// Small products run the scalar i-k-j kernel; large ones pack B into
// contiguous cache-line panels once and run the unrolled panel kernel
// over GOMAXPROCS row blocks. Both paths accumulate each output element
// in ascending-k order with zero A entries skipped, so the packed
// rebuild is bitwise-identical to the historical scalar kernel.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	if m*n*k < 32*1024 {
		matMulAccRows(c, a, b, 0, m)
		return c
	}
	var pb PackedB
	pb.Pack(b)
	ParallelFor(m, func(lo, hi int) { matMulPackedRows(c, a, &pb, lo, hi, true, true) })
	return c
}

// matMulAccRows is the scalar C += A x B kernel over output rows
// [lo, hi): i-k-j order so B streams row-wise, with zero A entries
// skipped. MatMul's small-size path, and the reference the packed
// kernels match.
func matMulAccRows(c, a, b *Tensor, lo, hi int) {
	k, n := a.Shape[1], b.Shape[1]
	for i := lo; i < hi; i++ {
		ci := c.Data[i*n : (i+1)*n]
		ai := a.Data[i*k : (i+1)*k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// MatMulTransA computes C = A^T x B where A is (k x m) and B is (k x n),
// producing an (m x n) tensor. Used for weight-gradient accumulation.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransA requires rank-2 tensors")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return c
}

// MatMulTransB computes C = A x B^T where A is (m x k) and B is (n x k),
// producing an (m x n) tensor. Used for input-gradient propagation.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTransB requires rank-2 tensors")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d != %d", k, k2))
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		ci := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			s := 0.0
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] = s
		}
	}
	return c
}

// ParallelFor splits [0, n) into contiguous blocks and runs body(lo, hi)
// on each block concurrently, one block per available CPU. body must be
// safe to run concurrently on disjoint ranges. ParallelFor returns when
// every block has completed.
func ParallelFor(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	block := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
