// 4-wide SSE f32 AXPY: dst[i] += v * w[i], the AVX2 tap blocks at
// both widths and the packed-panel rows at both widths (SSE at f32,
// AVX2 at f64). See axpy_amd64.go for the bit-identity argument
// (independent lanes, one multiply + one add rounding per element —
// the same two roundings as the scalar loop, never an FMA). SSE
// MOVUPS/MULPS/ADDPS are baseline amd64; the AVX2 kernels run only
// when detectAVX2 says so. Buffers need no alignment.
//
// Every kernel starts with PCALIGN $64, which pads nothing at a
// function's entry but makes the linker start the function on a
// 64-byte boundary. At its default 32-byte alignment the hot loops land
// on either half of a cache line depending on what else the binary
// holds, which moved the f32 paper job by about 10 % between builds
// that did not touch the kernels.

#include "textflag.h"

// func Axpy32(dst, w []float32, v float32)
TEXT ·Axpy32(SB), NOSPLIT, $0-52
	PCALIGN	$64
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	w_base+24(FP), SI
	MOVSS	v+48(FP), X0
	SHUFPS	$0x00, X0, X0
	XORQ	AX, AX
	MOVQ	CX, DX
	ANDQ	$-8, DX
	JZ	tail
blk8:
	MOVUPS	(SI)(AX*4), X1
	MOVUPS	16(SI)(AX*4), X2
	MULPS	X0, X1
	MULPS	X0, X2
	MOVUPS	(DI)(AX*4), X3
	MOVUPS	16(DI)(AX*4), X4
	ADDPS	X1, X3
	ADDPS	X2, X4
	MOVUPS	X3, (DI)(AX*4)
	MOVUPS	X4, 16(DI)(AX*4)
	ADDQ	$8, AX
	CMPQ	AX, DX
	JL	blk8
tail:
	CMPQ	AX, CX
	JGE	done
tail1:
	MOVSS	(SI)(AX*4), X1
	MULSS	X0, X1
	MOVSS	(DI)(AX*4), X2
	ADDSS	X1, X2
	MOVSS	X2, (DI)(AX*4)
	INCQ	AX
	CMPQ	AX, CX
	JL	tail1
done:
	RET

// func tapBlockAVX2(pd, wd []float32, v float32, pOff, wOff, nd, nh, span, pPlane, pRow, wPlane, wRow int)
// For d < nd, then h < nh: pd[p:p+span] += wd[w:w+span] * v with
// p = pOff - d*pPlane - h*pRow and w = wOff + d*wPlane + h*wRow. The
// caller has checked the block against both slices and that nd, nh
// and span are positive. VMULPS then VADDPS, never an FMA: each lane
// is rounded after the multiply and after the add, exactly as MULPS/
// ADDPS in Axpy32 and the scalar loop.
TEXT ·tapBlockAVX2(SB), NOSPLIT, $0-128
	PCALIGN	$64
	MOVQ	pd_base+0(FP), DI
	MOVQ	wd_base+24(FP), SI
	VBROADCASTSS	v+48(FP), Y0
	MOVQ	pOff+56(FP), AX
	LEAQ	(DI)(AX*4), DI
	MOVQ	wOff+64(FP), AX
	LEAQ	(SI)(AX*4), SI
	MOVQ	nd+72(FP), R10
	MOVQ	span+88(FP), CX
	MOVQ	CX, DX
	ANDQ	$-8, DX
	MOVQ	pRow+104(FP), R11
	SHLQ	$2, R11
	MOVQ	wRow+120(FP), R12
	SHLQ	$2, R12
plane:
	MOVQ	DI, BX
	MOVQ	SI, R8
	MOVQ	nh+80(FP), R9
row:
	XORQ	AX, AX
	CMPQ	AX, DX
	JGE	rowtail
blk8:
	VMOVUPS	(R8)(AX*4), Y1
	VMULPS	Y0, Y1, Y1
	VMOVUPS	(BX)(AX*4), Y2
	VADDPS	Y1, Y2, Y2
	VMOVUPS	Y2, (BX)(AX*4)
	ADDQ	$8, AX
	CMPQ	AX, DX
	JL	blk8
rowtail:
	CMPQ	AX, CX
	JGE	rowdone
tail1:
	VMOVSS	(R8)(AX*4), X1
	VMULSS	X0, X1, X1
	VMOVSS	(BX)(AX*4), X2
	VADDSS	X1, X2, X2
	VMOVSS	X2, (BX)(AX*4)
	INCQ	AX
	CMPQ	AX, CX
	JL	tail1
rowdone:
	SUBQ	R11, BX
	ADDQ	R12, R8
	DECQ	R9
	JNZ	row
	MOVQ	pPlane+96(FP), R13
	SHLQ	$2, R13
	SUBQ	R13, DI
	MOVQ	wPlane+112(FP), R13
	SHLQ	$2, R13
	ADDQ	R13, SI
	DECQ	R10
	JNZ	plane
	VZEROUPPER
	RET

// func tapBlockAVX2_64(pd, wd []float64, v float64, pOff, wOff, nd, nh, span, pPlane, pRow, wPlane, wRow int)
// tapBlockAVX2 at float64: four lanes per YMM register, two registers
// per eight-element step, a scalar tail. VMULPD then VADDPD, never an
// FMA, as the Go rows of axpy64 round.
TEXT ·tapBlockAVX2_64(SB), NOSPLIT, $0-128
	PCALIGN	$64
	MOVQ	pd_base+0(FP), DI
	MOVQ	wd_base+24(FP), SI
	VBROADCASTSD	v+48(FP), Y0
	MOVQ	pOff+56(FP), AX
	LEAQ	(DI)(AX*8), DI
	MOVQ	wOff+64(FP), AX
	LEAQ	(SI)(AX*8), SI
	MOVQ	nd+72(FP), R10
	MOVQ	span+88(FP), CX
	MOVQ	CX, DX
	ANDQ	$-8, DX
	MOVQ	pRow+104(FP), R11
	SHLQ	$3, R11
	MOVQ	wRow+120(FP), R12
	SHLQ	$3, R12
plane64:
	MOVQ	DI, BX
	MOVQ	SI, R8
	MOVQ	nh+80(FP), R9
row64:
	XORQ	AX, AX
	CMPQ	AX, DX
	JGE	rowtail64
blk8_64:
	VMOVUPD	(R8)(AX*8), Y1
	VMOVUPD	32(R8)(AX*8), Y2
	VMULPD	Y0, Y1, Y1
	VMULPD	Y0, Y2, Y2
	VMOVUPD	(BX)(AX*8), Y3
	VMOVUPD	32(BX)(AX*8), Y4
	VADDPD	Y1, Y3, Y3
	VADDPD	Y2, Y4, Y4
	VMOVUPD	Y3, (BX)(AX*8)
	VMOVUPD	Y4, 32(BX)(AX*8)
	ADDQ	$8, AX
	CMPQ	AX, DX
	JL	blk8_64
rowtail64:
	CMPQ	AX, CX
	JGE	rowdone64
tail1_64:
	VMOVSD	(R8)(AX*8), X1
	VMULSD	X0, X1, X1
	VMOVSD	(BX)(AX*8), X2
	VADDSD	X1, X2, X2
	VMOVSD	X2, (BX)(AX*8)
	INCQ	AX
	CMPQ	AX, CX
	JL	tail1_64
rowdone64:
	SUBQ	R11, BX
	ADDQ	R12, R8
	DECQ	R9
	JNZ	row64
	MOVQ	pPlane+96(FP), R13
	SHLQ	$3, R13
	SUBQ	R13, DI
	MOVQ	wPlane+112(FP), R13
	SHLQ	$3, R13
	ADDQ	R13, SI
	DECQ	R10
	JNZ	plane64
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
// XCR0: bit 1 = XMM state, bit 2 = YMM state saved by the OS.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// func packedAccSkip32(ci, ai, panel []float32)
// ci[0:8] += sum over p of ai[p]*panel[p*8:p*8+8], zero ai skipped.
// The UCOMISS/JP/JE pair skips only true zeros: a NaN multiplier sets
// PF and falls through to the multiply, matching the Go loop's
// av == 0 test.
TEXT ·packedAccSkip32(SB), NOSPLIT, $0-72
	PCALIGN	$64
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	MOVUPS	(DI), X0
	MOVUPS	16(DI), X1
	XORPS	X7, X7
	TESTQ	CX, CX
	JZ	accdone
accloop:
	MOVSS	(SI), X2
	UCOMISS	X7, X2
	JP	accwork
	JE	accnext
accwork:
	SHUFPS	$0x00, X2, X2
	MOVUPS	(BX), X3
	MOVUPS	16(BX), X4
	MULPS	X2, X3
	MULPS	X2, X4
	ADDPS	X3, X0
	ADDPS	X4, X1
accnext:
	ADDQ	$4, SI
	ADDQ	$32, BX
	DECQ	CX
	JNZ	accloop
accdone:
	MOVUPS	X0, (DI)
	MOVUPS	X1, 16(DI)
	RET

// func packedInto32(ci, ai, panel []float32)
// ci[0:8] = sum over p of ai[p]*panel[p*8:p*8+8], dense (no skip).
TEXT ·packedInto32(SB), NOSPLIT, $0-72
	PCALIGN	$64
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	XORPS	X0, X0
	XORPS	X1, X1
	TESTQ	CX, CX
	JZ	intodone
intoloop:
	MOVSS	(SI), X2
	SHUFPS	$0x00, X2, X2
	MOVUPS	(BX), X3
	MOVUPS	16(BX), X4
	MULPS	X2, X3
	MULPS	X2, X4
	ADDPS	X3, X0
	ADDPS	X4, X1
	ADDQ	$4, SI
	ADDQ	$32, BX
	DECQ	CX
	JNZ	intoloop
intodone:
	MOVUPS	X0, (DI)
	MOVUPS	X1, 16(DI)
	RET

// func packedAccSkip64(ci, ai, panel []float64)
// packedAccSkip32 at float64 in AVX2: the eight accumulators in Y0 and
// Y1 across the whole k sweep. VUCOMISD/JP/JE skips only true zeros.
TEXT ·packedAccSkip64(SB), NOSPLIT, $0-72
	PCALIGN	$64
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VXORPD	X7, X7, X7
	TESTQ	CX, CX
	JZ	acc64done
acc64loop:
	VMOVSD	(SI), X2
	VUCOMISD	X7, X2
	JP	acc64work
	JE	acc64next
acc64work:
	VBROADCASTSD	X2, Y2
	VMULPD	(BX), Y2, Y3
	VMULPD	32(BX), Y2, Y4
	VADDPD	Y3, Y0, Y0
	VADDPD	Y4, Y1, Y1
acc64next:
	ADDQ	$8, SI
	ADDQ	$64, BX
	DECQ	CX
	JNZ	acc64loop
acc64done:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VZEROUPPER
	RET

// func packedInto64(ci, ai, panel []float64)
// packedInto32 at float64 in AVX2: dense, the accumulators starting
// from zero.
TEXT ·packedInto64(SB), NOSPLIT, $0-72
	PCALIGN	$64
	MOVQ	ci_base+0(FP), DI
	MOVQ	ai_base+24(FP), SI
	MOVQ	ai_len+32(FP), CX
	MOVQ	panel_base+48(FP), BX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	TESTQ	CX, CX
	JZ	into64done
into64loop:
	VBROADCASTSD	(SI), Y2
	VMULPD	(BX), Y2, Y3
	VMULPD	32(BX), Y2, Y4
	VADDPD	Y3, Y0, Y0
	VADDPD	Y4, Y1, Y1
	ADDQ	$8, SI
	ADDQ	$64, BX
	DECQ	CX
	JNZ	into64loop
into64done:
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VZEROUPPER
	RET
