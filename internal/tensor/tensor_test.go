package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dim")
		}
	}()
	New(2, -1)
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", x.At(1, 2))
	}
	x.Set(42, 0, 1)
	if d[1] != 42 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	k := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for l := 0; l < 5; l++ {
				x.Set(k, i, j, l)
				k++
			}
		}
	}
	// Row-major ordering means Data should be 0..59 in order.
	for i, v := range x.Data {
		if v != float64(i) {
			t.Fatalf("Data[%d] = %v, want %d", i, v, i)
		}
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x.At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(4, 3)
	y := x.Reshape(2, 6)
	y.Data[0] = 7
	if x.Data[0] != 7 {
		t.Fatal("Reshape must alias data")
	}
	if y.Dim(0) != 2 || y.Dim(1) != 6 {
		t.Fatalf("bad reshape %v", y.Shape)
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Reshape(3)
}

// fill sets every element of x to v.
func fill[T Float](x *Dense[T], v T) {
	for i := range x.Data {
		x.Data[i] = v
	}
}

// randNormal fills x with N(0, std²) draws from rng.
func randNormal(x *Tensor, rng *rand.Rand, std float64) {
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * std
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
}

func TestRow(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if len(r) != 3 || r[0] != 4 {
		t.Fatalf("Row = %v", r)
	}
	r[0] = 40
	if x.At(1, 0) != 40 {
		t.Fatal("Row must be a view")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 4)
	b := New(5, 3)
	randNormal(a, rng, 1)
	randNormal(b, rng, 1)
	// A^T * B computed two ways.
	at := New(4, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 4; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	want := MatMul(at, b)
	got := MatMulTransA(a, b)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatalf("MatMulTransA mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	// A * B^T computed two ways.
	c := New(4, 5)
	randNormal(c, rng, 1)
	bt := New(3, 5)
	d := New(5, 3)
	randNormal(d, rng, 1)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			bt.Set(d.At(i, j), j, i)
		}
	}
	want2 := MatMul(c, d)
	got2 := MatMulTransB(c, bt)
	for i := range want2.Data {
		if math.Abs(want2.Data[i]-got2.Data[i]) > 1e-12 {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
	}
}

func TestMatMulLargeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(130, 60)
	b := New(60, 90)
	randNormal(a, rng, 1)
	randNormal(b, rng, 1)
	c := MatMul(a, b) // large enough to trigger the parallel path
	// Spot-check a few entries against a direct dot product.
	for _, ij := range [][2]int{{0, 0}, {129, 89}, {64, 45}} {
		i, j := ij[0], ij[1]
		s := 0.0
		for p := 0; p < 60; p++ {
			s += a.At(i, p) * b.At(p, j)
		}
		if math.Abs(s-c.At(i, j)) > 1e-9 {
			t.Fatalf("parallel MatMul (%d,%d) = %v, want %v", i, j, c.At(i, j), s)
		}
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 100, 1000} {
		counts := make([]int32, n)
		done := make(chan struct{})
		go func() {
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i]++
				}
			})
			close(done)
		}()
		<-done
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

// Property: (A*B)*C == A*(B*C) within floating-point tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := New(4, 3), New(3, 5), New(5, 2)
		randNormal(a, rng, 1)
		randNormal(b, rng, 1)
		randNormal(c, rng, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: (a + b) - b == a.
func TestAddSubInverseProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true // skip pathological inputs
			}
		}
		a := FromSlice(append([]float64(nil), vals...), len(vals))
		b := a.Clone()
		for i, v := range b.Data {
			b.Data[i] = v/2 + 1
		}
		if !a.SameShape(b) {
			return false
		}
		sum := Add(a, b)
		for i := range sum.Data {
			diff := math.Abs(sum.Data[i] - b.Data[i] - a.Data[i])
			scale := math.Max(1, math.Abs(a.Data[i]))
			if diff/scale > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAndFill(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	x.Scale(2)
	if x.Data[2] != 6 {
		t.Fatalf("Scale: %v", x.Data)
	}
	fill(x, 7)
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("Zero")
		}
	}
}

func TestSameShape(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	c := New(3, 2)
	d := New(2, 3, 1)
	if !a.SameShape(b) || a.SameShape(c) || a.SameShape(d) {
		t.Fatal("SameShape")
	}
}

func TestStringSummary(t *testing.T) {
	s := New(2, 2).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestAddInPlaceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).AddInPlace(New(3))
}
