package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// axpyScalar is the reference semantics of Axpy32 and axpy64: one
// multiply rounding and one add rounding per element, ascending order.
func axpyScalar[T Float](dst, w []T, v T) {
	for i := range dst {
		dst[i] += v * w[i]
	}
}

// TestAxpy32MatchesScalarBitwise pins the vector kernel bit-identical
// to the scalar loop across every tail length the 8-lane block loop
// can leave behind, including zero-length and subnormal-producing
// inputs.
func TestAxpy32MatchesScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 0; n <= 35; n++ {
		dst := make([]float32, n)
		w := make([]float32, n)
		for i := range dst {
			dst[i] = float32(rng.NormFloat64())
			w[i] = float32(rng.NormFloat64())
		}
		v := float32(rng.NormFloat64())
		want := append([]float32(nil), dst...)
		axpyScalar(want, w, v)
		Axpy32(dst, w, v)
		for i := range dst {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: Axpy32 diverged from scalar at %d: %v != %v", n, i, dst[i], want[i])
			}
		}
	}
	// Tiny v times tiny w drives lanes subnormal; the vector unit must
	// round them identically.
	dst := []float32{1e-38, -1e-38, 0, 1e-38, -1, 2, -3, 4, 5e-40}
	w := []float32{1e-38, 2e-38, 3e-38, -1e-38, 1e-38, 1, 2, 3, 4}
	want := append([]float32(nil), dst...)
	axpyScalar(want, w, 1e-5)
	Axpy32(dst, w, 1e-5)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("subnormal lane %d: %v != %v", i, dst[i], want[i])
		}
	}
}

// TestAxpy32LongerW pins the contract that w may be longer than dst:
// only len(dst) elements are touched.
func TestAxpy32LongerW(t *testing.T) {
	dst := []float32{1, 2, 3}
	w := []float32{10, 20, 30, 40, 50}
	Axpy32(dst, w, 2)
	for i, want := range []float32{21, 42, 63} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

// tapBlockRef is the reference semantics of the tap-block leaf: the
// block's rows in (d, h) order, each element one multiply rounding and
// one add rounding.
func tapBlockRef[T Float](pd, wd []T, v T, pOff, wOff, nd, nh, span int, st TapStrides) {
	for d := 0; d < nd; d++ {
		for h := 0; h < nh; h++ {
			p := pOff - d*st.PPlane - h*st.PRow
			w := wOff + d*st.WPlane + h*st.WRow
			for i := 0; i < span; i++ {
				pd[p+i] += v * wd[w+i]
			}
		}
	}
}

// randFill fills xs with normal values, every third one scaled into the
// subnormal range of xs's width so products and sums round there.
func randFill[T Float](rng *rand.Rand, xs []T) {
	tiny := 1e-39
	if _, ok := any(xs).([]float64); ok {
		tiny = 1e-310
	}
	for i := range xs {
		x := rng.NormFloat64()
		if i%3 == 0 {
			x *= tiny
		}
		xs[i] = T(x)
	}
}

func bitsEqual[T Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestKernelPathsMatchScalarBitwise runs the row kernels — Axpy32 and
// axpy64 — and the tap-block leaf at both widths over one row of every
// length 0–200 — the production spans 24, 40, 48, 96, 160 and 192 and
// every tail the 8-lane loops leave — with subnormal lanes, and
// ExpInto (testExpInto), on every kernel path this host has, against
// the scalar loop.
func TestKernelPathsMatchScalarBitwise(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		testKernelRows(t, Axpy32)
		testKernelRows(t, axpy64)
		testExpInto(t)
	})
}

func testKernelRows[T Float](t *testing.T, axpy func(dst, w []T, v T)) {
	rng := rand.New(rand.NewSource(72))
	tap := TapBlockKernel[T]()
	for n := 0; n <= 200; n++ {
		dst, w := make([]T, n), make([]T, n)
		randFill(rng, dst)
		randFill(rng, w)
		v := T(rng.NormFloat64())
		if n%2 == 1 {
			v *= 1e-3
		}
		want := append([]T(nil), dst...)
		axpyScalar(want, w, v)
		got := append([]T(nil), dst...)
		axpy(got, w, v)
		bitsEqual(t, fmt.Sprintf("%T axpy n=%d", v, n), got, want)
		got = append(got[:0], dst...)
		tap(got, w, v, 0, 0, 1, 1, n, TapStrides{})
		bitsEqual(t, fmt.Sprintf("%T tap row n=%d", v, n), got, want)
	}
}

// TestTapBlockMatchesRowsBitwise runs both widths of the tap-block leaf
// over clipped blocks (nd, nh from 0 to 5) with arbitrary strides —
// negative ones and rows that overlap included — against the row-by-row
// reference, comparing the whole accumulator so a write outside the
// block shows too.
func TestTapBlockMatchesRowsBitwise(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		testTapBlock[float32](t)
		testTapBlock[float64](t)
	})
}

func testTapBlock[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tap := TapBlockKernel[T]()
	for trial := 0; trial < 400; trial++ {
		nd, nh := rng.Intn(6), rng.Intn(6)
		span := []int{1, 7, 8, 24, 40, 96, 160, 192}[rng.Intn(8)] + rng.Intn(3)
		st := TapStrides{
			PPlane: rng.Intn(900) - 300, PRow: rng.Intn(300) - 100,
			WPlane: rng.Intn(900) - 300, WRow: rng.Intn(300) - 100,
		}
		pLo, pHi := blockExtent(0, -max(nd-1, 0)*st.PPlane, -max(nh-1, 0)*st.PRow)
		wLo, wHi := blockExtent(0, max(nd-1, 0)*st.WPlane, max(nh-1, 0)*st.WRow)
		pOff, wOff := -pLo+rng.Intn(5), -wLo+rng.Intn(5)
		pd := make([]T, pOff+pHi+span+rng.Intn(5))
		wd := make([]T, wOff+wHi+span+rng.Intn(5))
		randFill(rng, pd)
		randFill(rng, wd)
		v := T(rng.NormFloat64())
		want := append([]T(nil), pd...)
		tapBlockRef(want, wd, v, pOff, wOff, nd, nh, span, st)
		tap(pd, wd, v, pOff, wOff, nd, nh, span, st)
		bitsEqual(t, fmt.Sprintf("%T trial %d (nd=%d nh=%d span=%d %+v)", v, trial, nd, nh, span, st), pd, want)
	}
}

// TestTapBlockOutOfRangePanics pins the leaf's bounds check: a block
// reaching past either end of the accumulator or the weights, or with
// a negative count, panics before any element is written.
func TestTapBlockOutOfRangePanics(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		testTapBlockPanics[float32](t)
		testTapBlockPanics[float64](t)
	})
}

func testTapBlockPanics[T Float](t *testing.T) {
	st := TapStrides{PPlane: 64, PRow: 16, WPlane: 64, WRow: 16}
	for _, c := range []struct {
		name                           string
		np, nw, pOff, wOff, nd, nh, sp int
	}{
		{"accumulator past end", 100, 200, 90, 0, 1, 1, 16},
		{"accumulator before start", 200, 200, 70, 0, 2, 2, 16},
		{"weights past end", 200, 100, 150, 21, 2, 1, 16},
		{"negative weight offset", 200, 200, 100, -1, 1, 1, 8},
		{"negative plane count", 200, 200, 100, 0, -1, 1, 8},
		{"negative span", 200, 200, 100, 0, 1, 1, -8},
	} {
		pd, wd := make([]T, c.np), make([]T, c.nw)
		for i := range wd {
			wd[i] = 1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%T %s: no panic", pd, c.name)
				}
				for i, x := range pd {
					if x != 0 {
						t.Fatalf("%T %s: element %d written before the panic", pd, c.name, i)
					}
				}
			}()
			TapBlockKernel[T]()(pd, wd, 1, c.pOff, c.wOff, c.nd, c.nh, c.sp, st)
		}()
	}
}

// BenchmarkTapBlock32 and BenchmarkTapBlock64 time the tap-block leaf
// on the paper shape's interior block: 5×5 rows of span 160 (k = 5,
// conv1's 32 filters).
func BenchmarkTapBlock32(b *testing.B) { benchTapBlock[float32](b) }
func BenchmarkTapBlock64(b *testing.B) { benchTapBlock[float64](b) }

func benchTapBlock[T Float](b *testing.B) {
	const k, nOut = 5, 32
	st := TapStrides{PPlane: 20 * 20 * nOut, PRow: 20 * nOut, WPlane: k * k * nOut, WRow: k * nOut}
	pd := make([]T, 20*20*20*nOut)
	wd := make([]T, k*k*k*nOut)
	tap := TapBlockKernel[T]()
	pOff := ((10*20+10)*20 + 5) * nOut
	b.SetBytes(int64(2 * int(unsafe.Sizeof(T(0))) * k * k * k * nOut))
	for i := 0; i < b.N; i++ {
		tap(pd, wd, 0.5, pOff, 0, k, k, k*nOut, st)
	}
}
