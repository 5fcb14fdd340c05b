package tensor

import "math"

// Exp returns e**x with bits this package defines: the operation
// sequence of Go's amd64 math.Exp on a CPU with FMA (N. Shibata,
// "Efficient evaluation methods of elementary functions suitable for
// SIMD computation", ISC 2010), written in Go with math.FMA at the
// places that sequence fuses. math.FMA rounds once on every platform,
// so Exp gives the same bits everywhere — equal to math.Exp on amd64
// with FMA, where math.Exp's last bit otherwise depends on the host.
//
//   - k = round-to-even(log2(e)·x) as CVTSD2SL converts it (MinInt32
//     when out of int32 range); r = (x − k·ln2) / 16, with ln2 in two
//     parts and one fused multiply-add for each.
//   - e**r − 1 by a Taylor polynomial in r (Horner, seven FMAs), then
//     four squaring steps y ← y·(y + 2), the last one fused with the
//     final + 1.
//   - The result times 2**k by an integer ldexp: 0 when k + 1023 is
//     below −52, two scalings when it is at most 0 (a denormal result),
//     +Inf when it reaches 0x7FF.
//
// −Inf gives 0, NaN and +Inf give x back, and x > 709.782712893384
// gives +Inf, as in math.Exp.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	k := cvtsd2sl(log2e * x)
	fk := float64(k)
	r := math.FMA(-fk, ln2U, x)
	r = math.FMA(-fk, ln2L, r)
	r *= 0.0625
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	r *= p
	r *= r + 2
	r *= r + 2
	r *= r + 2
	r = math.FMA(r, r+2, 1)
	e := k + 1023
	if e <= 0 {
		if e < -52 {
			return 0
		}
		r *= math.Float64frombits(uint64(e+1022) << 52)
		e = 1
	} else if e >= 0x7FF {
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// cvtsd2sl converts t to int32 as CVTSD2SL does under the default
// rounding mode: to nearest, ties to even, and MinInt32 (the "integer
// indefinite" value) when the result does not fit.
func cvtsd2sl(t float64) int32 {
	r := math.RoundToEven(t)
	if r >= math.MinInt32 && r <= math.MaxInt32 {
		return int32(r)
	}
	return math.MinInt32
}

// ExpInto sets dst[i] = Exp(src[i]) for every element of src; dst must
// be at least as long as src and may be src itself (but no other
// overlap). On amd64 with AVX2 and FMA a kernel runs four lanes of the
// same operations at a time. It stops at a group of four with a lane
// outside [−708, 709] (NaN included), where the ldexp's special
// branches may be taken; that group, and a tail of fewer than four,
// go through Exp, and the kernel resumes after them. The bits are
// Exp's on every path.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		i += expKernel(dst[i:], src[i:])
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = Exp(src[i])
		}
	}
}
