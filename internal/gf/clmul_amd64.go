//go:build amd64 && !purego

package gf

// useCLMUL selects the carry-less kernels of clmul_amd64.s: CPUID leaf 1
// reports PCLMULQDQ in ECX bit 1. It is set once, at package
// initialization.
var useCLMUL = hasPCLMULQDQ()

// hasPCLMULQDQ reports whether the CPU has the PCLMULQDQ instruction.
func hasPCLMULQDQ() bool

// mulCLMUL returns a·b: one PCLMULQDQ, then the high half folded down twice
// by z^64 ≡ z^4 + z^3 + z + 1.
func mulCLMUL(a, b uint64) uint64

// addMulCLMUL XORs c·src[j] into dst[j] for every j < len(src); dst is at
// least as long as src.
//
//go:noescape
func addMulCLMUL(dst, src []uint64, c uint64)

// addOddPowersCLMUL XORs α^(2j+1) into dst[j] for every j < len(dst), along
// two interleaved chains (α, α⁵, … and α³, α⁷, …) that step by α⁴.
//
//go:noescape
func addOddPowersCLMUL(dst []uint64, alpha uint64)
