// 4-wide SSE f32 AXPY: dst[i] += v * w[i], and its 8-wide AVX2 tap
// block. See axpy_amd64.go for the bit-identity argument (independent
// lanes, one multiply + one add rounding per element — the same two
// roundings as the scalar loop). SSE MOVUPS/MULPS/ADDPS are baseline
// amd64; the AVX2 kernel runs only when detectAVX2 says so. Buffers
// need no alignment.

#include "textflag.h"

// func Axpy32(dst, w []float32, v float32)
TEXT ·Axpy32(SB), NOSPLIT, $0-52
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
