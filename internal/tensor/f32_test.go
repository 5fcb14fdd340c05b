package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refMatMul32 is the naive float32 i-j-k reference (ascending-k
// accumulation, matching the kernels' term order).
func refMatMul32(a, b *F32, seed float32) *F32 {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	c := NewF32(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := seed
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[p*n+j]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

func randF32(rng *rand.Rand, shape ...int) *F32 {
	t := NewF32(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
		if rng.Intn(4) == 0 { // exercise the zero-skip branch
			t.Data[i] = 0
		}
	}
	return t
}

// TestMatMulPacked32RaggedTails sweeps M, N, K through values that are
// not multiples of the panel width (including the 4-lane tail block
// and the scalar lanes) and pins the packed kernel to the naive f32
// reference exactly — same term order, so bitwise equality is required.
func TestMatMulPacked32RaggedTails(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, m := range []int{1, 3, 8, 13} {
		for _, n := range []int{1, 2, 4, 5, 7, 8, 9, 12, 15, 16, 17} {
			for _, k := range []int{1, 3, 8, 11} {
				a := randF32(rng, m, k)
				b := randF32(rng, k, n)
				want := refMatMul32(a, b, 0)

				var pb PackedB32
				pb.Pack(b)
				got := NewF32(m, n)
				MatMulPacked32Into(got, a, &pb)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("MatMulPacked32Into m=%d n=%d k=%d: elem %d = %g, want %g", m, n, k, i, got.Data[i], want.Data[i])
					}
				}

				// Accumulating variant: the seed enters the running
				// accumulator first, so the reference must seed too.
				wantAcc := refMatMul32(a, b, 0.5)
				acc := NewF32(m, n)
				fill(acc, 0.5)
				MatMulAccPacked(acc, a, &pb)
				for i := range wantAcc.Data {
					if acc.Data[i] != wantAcc.Data[i] {
						t.Fatalf("MatMulAccPacked f32 m=%d n=%d k=%d: elem %d = %g, want %g", m, n, k, i, acc.Data[i], wantAcc.Data[i])
					}
				}
			}
		}
	}
}

// TestPackTransposed64MatchesPack pins the f64→f32 conversion point:
// packing float32(wᵀ) directly must equal PackTransposed converting
// the float64 weights while it packs.
func TestPackTransposed64MatchesPack(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, nk := range [][2]int{{1, 1}, {5, 3}, {8, 8}, {13, 7}, {16, 9}} {
		n, k := nk[0], nk[1]
		w := make([]float64, n*k)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		wt := NewF32(k, n)
		for i := 0; i < n; i++ {
			for p := 0; p < k; p++ {
				wt.Data[p*n+i] = float32(w[i*k+p])
			}
		}
		var want, got PackedB32
		want.Pack(wt)
		got.PackTransposed(w, n, k)
		if want.K != got.K || want.N != got.N || len(want.data) != len(got.data) {
			t.Fatalf("n=%d k=%d: header mismatch", n, k)
		}
		for i := range want.data {
			if want.data[i] != got.data[i] {
				t.Fatalf("n=%d k=%d: panel elem %d = %g, want %g", n, k, i, got.data[i], want.data[i])
			}
		}
	}
}

// TestArena32Recycles holds the float32 arena to the f64 contract:
// after a warm cycle, Get/Reset performs zero heap allocations.
func TestArena32Recycles(t *testing.T) {
	a := &Arena[float32]{}
	warm := func() {
		x := a.Get(4, 7)
		y := a.GetUninit(16)
		_ = a.View(x.Data, 28)
		a.Put(y)
		z := a.GetUninit(16) // reuses y's buffer
		_ = z
		a.Reset()
	}
	warm()
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("warm float32 arena cycle allocates %v times", allocs)
	}
	x := a.Get(3, 3)
	for _, v := range x.Data {
		if v != 0 {
			t.Fatalf("float32 Arena.Get returned dirty buffer")
		}
	}
	if x.Len() != 9 || x.Rank() != 2 {
		t.Fatalf("float32 Arena.Get shape bookkeeping broken: %v", x.Shape)
	}
}

// TestF32CopyFrom64 checks the narrowing conversion helper.
func TestF32CopyFrom64(t *testing.T) {
	x := New(2, 3)
	for i := range x.Data {
		x.Data[i] = float64(i) + 0.5
	}
	y := NewF32(2, 3)
	y.CopyFrom64(x)
	for i := range x.Data {
		if y.Data[i] != float32(x.Data[i]) {
			t.Fatalf("elem %d = %g, want %g", i, y.Data[i], float32(x.Data[i]))
		}
	}
	if math.IsNaN(float64(y.Data[0])) {
		t.Fatal("unexpected NaN")
	}
}
