//go:build !amd64 || purego

package gf

// useCLMUL is false without the amd64 kernels: every product runs on the
// pure-Go path, and the compiler drops the calls below.
const useCLMUL = false

func mulCLMUL(a, b uint64) uint64 { panic("gf: no carry-less kernels in this build") }

func addMulCLMUL(dst, src []uint64, c uint64) { panic("gf: no carry-less kernels in this build") }

func addOddPowersCLMUL(dst []uint64, alpha uint64) {
	panic("gf: no carry-less kernels in this build")
}
