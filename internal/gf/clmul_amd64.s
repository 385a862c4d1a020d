//go:build amd64 && !purego

#include "textflag.h"

// Carry-less kernels for GF(2^64) = GF(2)[z] / (z^64 + z^4 + z^3 + z + 1).
// PCLMULQDQ multiplies two 64-bit polynomials into a 128-bit product
// [lo, hi]; z^64 ≡ z^4 + z^3 + z + 1 (0x1B) folds hi down. hi has degree at
// most 62, so hi·0x1B spills at most 3 bits past z^63, and a second fold of
// that spill lands inside the low word.

// REDUCE reduces the 128-bit product in x to its field element, which it
// leaves in x's low qword; x's high qword is left unspecified. t is scratch,
// and red holds 0x1B in its low qword.
#define REDUCE(x, t, red)        \
	MOVO      x, t;              \
	PCLMULQDQ $0x01, red, t;     \
	PXOR      t, x;              \
	PCLMULQDQ $0x01, red, t;     \
	PXOR      t, x

// func hasPCLMULQDQ() bool
TEXT ·hasPCLMULQDQ(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $1, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func mulCLMUL(a, b uint64) uint64
TEXT ·mulCLMUL(SB), NOSPLIT, $0-24
	MOVQ      a+0(FP), X0
	MOVQ      b+8(FP), X1
	MOVQ      $0x1B, AX
	MOVQ      AX, X2
	PCLMULQDQ $0x00, X1, X0
	REDUCE(X0, X1, X2)
	MOVQ      X0, ret+16(FP)
	RET

// func addMulCLMUL(dst, src []uint64, c uint64)
TEXT ·addMulCLMUL(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ c+48(FP), X4
	MOVQ $0x1B, AX
	MOVQ AX, X5
	TESTQ CX, CX
	JZ    addmul_done

addmul_loop:
	MOVQ      (SI), X0
	PCLMULQDQ $0x00, X4, X0
	REDUCE(X0, X1, X5)
	MOVQ      X0, AX
	XORQ      AX, (DI)
	ADDQ      $8, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       addmul_loop

addmul_done:
	RET

// func addOddPowersCLMUL(dst []uint64, alpha uint64)
TEXT ·addOddPowersCLMUL(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ alpha+24(FP), X0 // X0: α^(4i+1), the even-index chain
	MOVQ $0x1B, AX
	MOVQ AX, X7

	// X3 = α², X1 = α³ (the odd-index chain), X2 = α⁴ (the step).
	MOVO      X0, X3
	PCLMULQDQ $0x00, X0, X3
	REDUCE(X3, X6, X7)
	MOVO      X3, X1
	PCLMULQDQ $0x00, X0, X1
	REDUCE(X1, X6, X7)
	MOVO      X3, X2
	PCLMULQDQ $0x00, X3, X2
	REDUCE(X2, X6, X7)

oddpow_pair:
	CMPQ      CX, $2
	JB        oddpow_tail
	MOVQ      X0, AX
	XORQ      AX, (DI)
	MOVQ      X1, BX
	XORQ      BX, 8(DI)
	PCLMULQDQ $0x00, X2, X0
	PCLMULQDQ $0x00, X2, X1
	REDUCE(X0, X6, X7)
	REDUCE(X1, X5, X7)
	ADDQ      $16, DI
	SUBQ      $2, CX
	JMP       oddpow_pair

oddpow_tail:
	TESTQ CX, CX
	JZ    oddpow_done
	MOVQ  X0, AX
	XORQ  AX, (DI)

oddpow_done:
	RET
