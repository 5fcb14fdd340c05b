package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expEdges are the inputs where Exp's branches and the kernel's range
// change: the special values, the overflow threshold, the kernel's
// bounds −708 and 709, k + 1023 reaching 0 (a denormal result, near
// −708.75) and −52 (the last nonzero result, near −745.13), each with
// its neighbours a few ulps and a little further away on both sides.
func expEdges() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
		-708.4, 1, -1, 0.5, -0.5,
	}
	for _, b := range []float64{
		7.09782712893384e+02, -708, 709, -1022.5 / math.Log2E, -1074.5 / math.Log2E,
		-1075.5 / math.Log2E, -745.1332191019412, -745.1332191019411, 1023.5 / math.Log2E,
	} {
		lo, hi := b, b
		for i := 0; i < 64; i++ {
			xs = append(xs, lo, hi)
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
		for d := 1e-9; d < 1; d *= 3 {
			xs = append(xs, b-d, b+d)
		}
	}
	return xs
}

// expInputs fills xs with random inputs from five distributions in
// turn: uniform on [−710, 710], normal with σ 5, uniform on [−50, 0]
// (the docking terms' range), uniform on [−760, −720] (denormal
// results) and random bit patterns.
func expInputs(rng *rand.Rand, xs []float64) {
	for i := range xs {
		switch i % 5 {
		case 0:
			xs[i] = 1420*rng.Float64() - 710
		case 1:
			xs[i] = 5 * rng.NormFloat64()
		case 2:
			xs[i] = -50 * rng.Float64()
		case 3:
			xs[i] = -720 - 40*rng.Float64()
		case 4:
			xs[i] = math.Float64frombits(rng.Uint64())
		}
	}
}

// TestExpMatchesMath checks Exp and ExpInto against math.Exp bit for
// bit over ten million random inputs and the edge list, on a host
// where math.Exp takes the FMA path that Exp's bits are defined by.
func TestExpMatchesMath(t *testing.T) {
	if !expMatchesMath {
		t.Skip("math.Exp does not take its FMA path here")
	}
	check := func(xs []float64) {
		t.Helper()
		got := make([]float64, len(xs))
		ExpInto(got, xs)
		for i, x := range xs {
			want := math.Float64bits(math.Exp(x))
			if g := math.Float64bits(Exp(x)); g != want {
				t.Fatalf("Exp(%v) = %#016x, math.Exp = %#016x", x, g, want)
			}
			if g := math.Float64bits(got[i]); g != want {
				t.Fatalf("ExpInto at %v = %#016x, math.Exp = %#016x", x, g, want)
			}
		}
	}
	check(expEdges())
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 1<<20)
	for n := 0; n < 10_000_000; n += len(xs) {
		expInputs(rng, xs)
		check(xs)
	}
}

// expBitsGolden is the SHA-256 of Exp's bits over expEdges and 100 000
// inputs of expInputs (seed 32), as the scalar code and the kernel
// produced them on amd64 with FMA.
const expBitsGolden = "37a7d387f862a01f5e4041fb8f0f0d76a6748a806f24cf0e9f1bc5e753be1f25"

// TestExpBitsGolden pins Exp and ExpInto to recorded bits on every
// host, so a platform without the kernel or without FMA — GOARCH=386
// among them — is checked against the bits the FMA hosts produce.
func TestExpBitsGolden(t *testing.T) {
	xs := expEdges()
	rest := make([]float64, 100_000)
	expInputs(rand.New(rand.NewSource(32)), rest)
	xs = append(xs, rest...)
	got := make([]float64, len(xs))
	ExpInto(got, xs)
	hs, hv := sha256.New(), sha256.New()
	var b [8]byte
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(Exp(x)))
		hs.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(got[i]))
		hv.Write(b[:])
	}
	if s := fmt.Sprintf("%x", hs.Sum(nil)); s != expBitsGolden {
		t.Errorf("Exp bits sha256 = %s, want %s", s, expBitsGolden)
	}
	if s := fmt.Sprintf("%x", hv.Sum(nil)); s != expBitsGolden {
		t.Errorf("ExpInto bits sha256 = %s, want %s", s, expBitsGolden)
	}
}

// testExpInto runs ExpInto over every length 0–67 — every tail the
// four-lane groups leave — with each special value at every lane
// position, into a separate buffer and in place, against Exp.
func testExpInto(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 710, -708.5, -746, 709.5, 5e-324}
	for n := 0; n <= 67; n++ {
		src := make([]float64, n)
		for pos := -1; pos < n; pos++ {
			for si, s := range specials {
				if pos < 0 && si > 0 {
					break
				}
				for i := range src {
					src[i] = 40*rng.Float64() - 30
				}
				if pos >= 0 {
					src[pos] = s
				}
				dst := make([]float64, n+1)
				dst[n] = 42
				ExpInto(dst, src)
				inPlace := append([]float64(nil), src...)
				ExpInto(inPlace, inPlace)
				for i, x := range src {
					want := math.Float64bits(Exp(x))
					if g := math.Float64bits(dst[i]); g != want {
						t.Fatalf("n=%d pos=%d: ExpInto[%d] of %v = %#016x, Exp = %#016x", n, pos, i, x, g, want)
					}
					if g := math.Float64bits(inPlace[i]); g != want {
						t.Fatalf("n=%d pos=%d: in-place ExpInto[%d] of %v = %#016x, Exp = %#016x", n, pos, i, x, g, want)
					}
				}
				if dst[n] != 42 {
					t.Fatalf("n=%d: ExpInto wrote past len(src)", n)
				}
			}
		}
	}
}

// BenchmarkExpInto times the leaf over a buffer shaped like docking's
// (1024 arguments in the gauss terms' range); BenchmarkExpScalar is Exp
// and math.Exp one element at a time over the same buffer.
func BenchmarkExpInto(b *testing.B) {
	xs := expBenchInputs()
	dst := make([]float64, len(xs))
	b.SetBytes(int64(8 * len(xs)))
	for i := 0; i < b.N; i++ {
		ExpInto(dst, xs)
	}
}

func BenchmarkExpScalar(b *testing.B) {
	xs := expBenchInputs()
	dst := make([]float64, len(xs))
	for _, c := range []struct {
		name string
		exp  func(float64) float64
	}{{"tensor", Exp}, {"math", math.Exp}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(xs)))
			for i := 0; i < b.N; i++ {
				for j, x := range xs {
					dst[j] = c.exp(x)
				}
			}
		})
	}
}

func expBenchInputs() []float64 {
	rng := rand.New(rand.NewSource(75))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = -50 * rng.Float64()
	}
	return xs
}
