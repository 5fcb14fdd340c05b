package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, m, n int, sparsity float64) *Tensor {
	t := New(m, n)
	for i := range t.Data {
		if rng.Float64() >= sparsity {
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

// TestPackedKernelsMatchScalar pins the packed GEMM family bitwise to
// the scalar kernels across shapes that exercise full panels, tail
// panels and sparse A — the invariant the zero-allocation inference
// path's byte-identical-scores guarantee is built on — on every kernel
// path, so both the Go and the AVX2 float64 panel rows are compared.
func TestPackedKernelsMatchScalar(t *testing.T) {
	forEachKernelPath(t, testPackedKernels)
}

func testPackedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 8}, {4, 7, 16}, {5, 9, 3}, {8, 16, 11},
		{2, 400, 13}, {17, 31, 64}, {6, 8, 9},
	}
	for _, sh := range shapes {
		for _, sparsity := range []float64{0, 0.7} {
			a := randMat(rng, sh.m, sh.k, sparsity)
			b := randMat(rng, sh.k, sh.n, 0)

			// MatMulAccPacked vs the scalar reference, accumulating on a
			// non-zero C.
			seed := randMat(rng, sh.m, sh.n, 0)
			want := seed.Clone()
			matMulAccRows(want, a, b, 0, sh.m)
			got := seed.Clone()
			var pb PackedB
			pb.Pack(b)
			MatMulAccPacked(got, a, &pb)
			for i := range want.Data {
				if want.Data[i] != got.Data[i] {
					t.Fatalf("MatMulAccPacked %dx%dx%d elem %d: %v != %v", sh.m, sh.k, sh.n, i, got.Data[i], want.Data[i])
				}
			}

			// MatMulPackedInto(a, packed wᵀ) vs MatMulTransB(a, w).
			w := randMat(rng, sh.n, sh.k, 0)
			wantT := MatMulTransB(a, w)
			gotT := New(sh.m, sh.n)
			gotT.Fill(42) // must be fully overwritten
			var pt PackedB
			pt.PackTransposed(w.Data, sh.n, sh.k)
			MatMulPackedInto(gotT, a, &pt)
			for i := range wantT.Data {
				if wantT.Data[i] != gotT.Data[i] {
					t.Fatalf("MatMulPackedInto %dx%dx%d elem %d: %v != %v", sh.m, sh.k, sh.n, i, gotT.Data[i], wantT.Data[i])
				}
			}

			// Rebuilt MatMul (packs internally above the size threshold)
			// vs the scalar reference.
			ref := New(sh.m, sh.n)
			matMulAccRows(ref, a, b, 0, sh.m)
			mm := MatMul(a, b)
			for i := range ref.Data {
				if ref.Data[i] != mm.Data[i] {
					t.Fatalf("MatMul %dx%dx%d elem %d: %v != %v", sh.m, sh.k, sh.n, i, mm.Data[i], ref.Data[i])
				}
			}
		}
	}
}

// TestPackedZeroSkipKeepsNaN pins the zero-skip of the (accumulate,
// skip) panel rows at both widths on every kernel path: only a true
// zero multiplier is skipped, as by the reference's av == 0 test, so a
// NaN in A turns its whole output row NaN.
func TestPackedZeroSkipKeepsNaN(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		testPackedNaN[float32](t)
		testPackedNaN[float64](t)
	})
}

func testPackedNaN[T Float](t *testing.T) {
	const m, k, n = 3, 6, 21 // two full panels and a ragged tail
	rng := rand.New(rand.NewSource(9))
	a, b := make([]T, m*k), make([]T, k*n)
	for i := range b {
		b[i] = T(rng.NormFloat64())
	}
	for i := range a {
		if i%3 != 0 {
			a[i] = T(rng.NormFloat64())
		}
	}
	const nanRow = 1
	a[nanRow*k+2] = T(math.NaN())
	want := make([]T, m*n)
	for i := range want {
		want[i] = T(rng.NormFloat64())
	}
	got := FromSlice(append([]T(nil), want...), m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			if av := a[i*k+p]; av != 0 {
				for j := 0; j < n; j++ {
					want[i*n+j] += av * b[p*n+j]
				}
			}
		}
	}
	var pb Packed[T]
	pb.Pack(FromSlice(b, k, n))
	MatMulAccPacked(got, FromSlice(a, m, k), &pb)
	for i, x := range got.Data {
		if isNaN := x != x; isNaN != (i/n == nanRow) {
			t.Fatalf("%T elem %d (row %d) = %v: the NaN multiplier of row %d was skipped or leaked", x, i, i/n, x, nanRow)
		}
		if i/n != nanRow && x != want[i] {
			t.Fatalf("%T elem %d = %v, want %v", x, i, x, want[i])
		}
	}
}

// TestPackReuse pins that re-packing different shapes into one PackedB
// reuses its buffer and produces correct panels each time.
func TestPackReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var pb PackedB
	for _, sh := range []struct{ k, n int }{{40, 24}, {8, 3}, {12, 17}} {
		a := randMat(rng, 5, sh.k, 0.5)
		b := randMat(rng, sh.k, sh.n, 0)
		pb.Pack(b)
		want := New(5, sh.n)
		matMulAccRows(want, a, b, 0, 5)
		got := New(5, sh.n)
		MatMulAccPacked(got, a, &pb)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("repack %v: elem %d differs", sh, i)
			}
		}
	}
}

// TestArenaRecycles exercises the pool contract: same-class requests
// after Reset reuse buffers, Get zeroes, GetUninit may not, views
// alias their data.
func TestArenaRecycles(t *testing.T) {
	a := &Arena[float64]{}
	t1 := a.Get(4, 8)
	t1.Fill(3)
	buf := &t1.Data[0]
	a.Reset()
	t2 := a.GetUninit(32)
	if &t2.Data[0] != buf {
		t.Fatalf("same-class request after Reset did not recycle the buffer")
	}
	if t2.Rank() != 1 || t2.Dim(0) != 32 {
		t.Fatalf("recycled tensor has shape %v", t2.Shape)
	}
	t3 := a.Get(4, 8) // fresh buffer, must be zero
	for _, v := range t3.Data {
		if v != 0 {
			t.Fatalf("Get returned non-zero data")
		}
	}
	// Smaller request of the same class reuses capacity.
	a.Reset()
	t4 := a.Get(3, 7)
	if len(t4.Data) != 21 {
		t.Fatalf("len %d", len(t4.Data))
	}
	v := a.View(t4.Data, 21)
	v.Data[0] = 9
	if t4.Data[0] != 9 {
		t.Fatalf("view does not alias its data")
	}
}

// TestArenaPut pins early recycling within one cycle.
func TestArenaPut(t *testing.T) {
	a := &Arena[float64]{}
	t1 := a.GetUninit(100)
	p1 := &t1.Data[0]
	a.Put(t1)
	t2 := a.GetUninit(100)
	if &t2.Data[0] != p1 {
		t.Fatalf("Put did not make the buffer immediately reusable")
	}
	a.Reset()
	if got := len(a.used); got != 0 {
		t.Fatalf("%d used tensors after Reset", got)
	}
}

// TestArenaZeroAllocSteadyState is the kernel-level allocation pin:
// a warm Get/View/Reset cycle performs zero heap allocations.
func TestArenaZeroAllocSteadyState(t *testing.T) {
	a := &Arena[float64]{}
	cycle := func() {
		x := a.Get(16, 16)
		y := a.GetUninit(16, 16)
		_ = a.View(x.Data, 256)
		copy(y.Data, x.Data)
		a.Reset()
	}
	for i := 0; i < 3; i++ {
		cycle() // warm the free lists
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("warm arena cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestNewF32FromShapeOwnership documents the single-shot constructor's
// ownership contract.
func TestNewF32FromShapeOwnership(t *testing.T) {
	shape := []int{2, 3}
	tt := NewF32FromShape(shape)
	if &tt.Shape[0] != &shape[0] {
		t.Fatalf("NewF32FromShape copied the shape it was given ownership of")
	}
	if tt.Len() != 6 {
		t.Fatalf("len %d", tt.Len())
	}
}
