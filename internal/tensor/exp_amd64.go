package tensor

// useExpAVX2 selects the four-lane exp kernel: AVX2 with the OS saving
// the YMM state, and FMA (CPUID leaf 1, ECX bit 12). FMA is part of
// the kernel's definition, as it is of Exp's.
var useExpAVX2 = useAVX2 && detectFMA()

func detectFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}

// expKernel runs expAVX2 where the CPU has it and otherwise reports
// that it did nothing.
func expKernel(dst, src []float64) int {
	if useExpAVX2 {
		return expAVX2(dst, src)
	}
	return 0
}

// expAVX2 writes dst[i] = Exp(src[i]) four lanes at a time from the
// start of src and returns how many elements it wrote: a multiple of
// four, stopping before the first group that has a lane outside
// [−708, 709] (NaN included) or before a tail of fewer than four. Each
// lane runs Exp's operations in its order: VMULPD, VCVTPD2DQ (to
// nearest even, as CVTSD2SL), VCVTDQ2PD, two VFNMADD231PD, VMULPD by
// 1/16, seven VFMADD213PD, three VADDPD/VMULPD squarings and a final
// VFMADD213PD, then 2**k built from the integer k (VPMOVSXDQ, VPADDQ
// 1023, VPSLLQ 52) and one VMULPD. Inside that range k + 1023 lies in
// [1, 2046], so Exp's denormal and overflow branches never apply.
// dst must be at least as long as src and may be src itself.
//
//go:noescape
func expAVX2(dst, src []float64) int
