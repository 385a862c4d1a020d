package gf

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// The differential tests below hold every kernel to the pure-Go code: Mul
// to mulGeneric and the bit-serial mulSlow, AddOddPowers to its
// window-table chain, a Row's AddScaled to its per-element tables, and the
// polynomial inner loop addMul to mulGeneric. Where the CPU has PCLMULQDQ
// (and the build has no purego tag) the public entry points run the
// carry-less kernels; otherwise both sides run pure Go. The decoder's
// reference tests (internal/rs) multiply through the same Mul, so these
// tests are what keeps them meaningful.

// kernelEdgeValues are the operands that exercise the reduction: 0, 1,
// z^63, all-ones, and values with their top bits set, whose products'
// high halves reach bits 60–62 and make both folds fire.
var kernelEdgeValues = []uint64{
	0, 1, 2, 1 << 63, ^uint64(0), 1 << 62, 0xF << 60, 0xF<<60 | 1,
	1<<63 | 1<<62, 0x1B, 0xF<<60 | 0x1B,
}

// kernelLengths are the vector lengths the tests try: empty, one element,
// even and odd lengths, and a long row.
var kernelLengths = []int{0, 1, 2, 7, 16, 73}

func TestMulMatchesGeneric(t *testing.T) {
	t.Logf("carry-less kernels in use: %v", useCLMUL)
	check := func(a, b uint64) {
		t.Helper()
		got, want := Mul(a, b), mulGeneric(a, b)
		if got != want {
			t.Fatalf("Mul(%#x, %#x) = %#x, mulGeneric %#x", a, b, got, want)
		}
		if slow := mulSlow(a, b); got != slow {
			t.Fatalf("Mul(%#x, %#x) = %#x, mulSlow %#x", a, b, got, slow)
		}
	}
	for _, a := range kernelEdgeValues {
		for _, b := range kernelEdgeValues {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 5000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		check(a, b)
		check(a|0xF<<60, b|0xF<<60) // high half at bits 60–62
	}
}

// randomVec returns n random words; one in seven has its top bits set, and
// one in seven is zero.
func randomVec(rng *rand.Rand, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		switch i % 7 {
		case 3:
			v[i] = rng.Uint64() | 0xF<<60
		case 5:
			v[i] = 0
		default:
			v[i] = rng.Uint64()
		}
	}
	return v
}

func TestAddOddPowersMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphas := append(slices.Clone(kernelEdgeValues), rng.Uint64(), rng.Uint64()|0xF<<60)
	for _, n := range kernelLengths {
		for _, alpha := range alphas {
			base := randomVec(rng, n)
			got, want := slices.Clone(base), slices.Clone(base)
			AddOddPowers(got, alpha)
			if alpha != 0 {
				addOddPowersGeneric(want, alpha)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("AddOddPowers(len %d, α=%#x) = %#x, pure Go %#x", n, alpha, got, want)
			}
			// The definitional chain: α^(2j+1) by repeated Mul.
			pow, sq := alpha, mulSlow(alpha, alpha)
			for j := range want {
				if got[j] != base[j]^pow {
					t.Fatalf("AddOddPowers(len %d, α=%#x)[%d] = %#x, want %#x", n, alpha, j, got[j], base[j]^pow)
				}
				pow = mulSlow(pow, sq)
			}
		}
	}
}

func TestRowAddScaledMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	scalars := append(slices.Clone(kernelEdgeValues), rng.Uint64())
	var row Row // one row, reloaded: Load must reuse its memory correctly
	for _, n := range kernelLengths {
		for trial := 0; trial < 4; trial++ {
			q := randomVec(rng, n)
			if trial == 0 {
				// Every edge value at least once, cycling.
				for i := range q {
					q[i] = kernelEdgeValues[i%len(kernelEdgeValues)]
				}
			}
			row.Load(q)
			ref := Row{q: q}
			ref.loadTables()
			for _, c := range scalars {
				// dst is one word longer than the row: the extra word
				// must stay untouched.
				base := randomVec(rng, n+1)
				got, want := slices.Clone(base), slices.Clone(base)
				row.AddScaled(got, c)
				ref.addScaledTables(want[:n], c)
				if !slices.Equal(got, want) {
					t.Fatalf("AddScaled(len %d, c=%#x) = %#x, pure Go %#x", n, c, got, want)
				}
				for j := range q {
					if w := base[j] ^ mulSlow(q[j], c); got[j] != w {
						t.Fatalf("AddScaled(len %d, c=%#x)[%d] = %#x, want %#x", n, c, j, got[j], w)
					}
				}
			}
		}
	}
}

func TestAddMulMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range kernelLengths {
		for _, c := range append(slices.Clone(kernelEdgeValues), rng.Uint64()) {
			src := randomVec(rng, n)
			base := randomVec(rng, n+1)
			got, want := slices.Clone(base), slices.Clone(base)
			addMul(got, src, c)
			addMulGeneric(want, src, c)
			if !slices.Equal(got, want) {
				t.Fatalf("addMul(len %d, c=%#x) = %#x, pure Go %#x", n, c, got, want)
			}
		}
	}
}

// FuzzKernels runs the differential checks on arbitrary operands: a and b
// as a product, alpha's odd powers over n words, and the row decoded from
// data scaled by b.
func FuzzKernels(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), []byte{})
	f.Add(uint64(1)<<63, ^uint64(0), uint8(73), []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(0xF)<<60, uint64(0xF)<<60|1, uint8(7), make([]byte, 8*7))
	f.Add(uint64(0xDEADBEEF), uint64(0xC0FFEE), uint8(1), []byte("row words, not aligned"))
	f.Fuzz(func(t *testing.T, a, b uint64, n uint8, data []byte) {
		if got, want := Mul(a, b), mulSlow(a, b); got != want || got != mulGeneric(a, b) {
			t.Fatalf("Mul(%#x, %#x) = %#x, mulSlow %#x, mulGeneric %#x", a, b, got, want, mulGeneric(a, b))
		}
		got, want := make([]uint64, int(n)%80), make([]uint64, int(n)%80)
		AddOddPowers(got, a)
		if a != 0 {
			addOddPowersGeneric(want, a)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("AddOddPowers(len %d, α=%#x) = %#x, pure Go %#x", len(got), a, got, want)
		}
		q := make([]uint64, len(data)/8)
		for i := range q {
			q[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		var row Row
		row.Load(q)
		ref := Row{q: q}
		ref.loadTables()
		got, want = make([]uint64, len(q)), make([]uint64, len(q))
		copy(got, q)
		copy(want, q)
		row.AddScaled(got, b)
		ref.addScaledTables(want, b)
		if !slices.Equal(got, want) {
			t.Fatalf("AddScaled(len %d, c=%#x) = %#x, pure Go %#x", len(q), b, got, want)
		}
	})
}

func BenchmarkAddScaled(b *testing.B) {
	for _, n := range []int{10, 73} {
		b.Run("t="+strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(45))
			var row Row
			row.Load(randomVec(rng, n))
			dst := randomVec(rng, n)
			c := rng.Uint64()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row.AddScaled(dst, c)
			}
			sink = dst[0]
		})
	}
}

func BenchmarkAddOddPowers(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	dst := make([]uint64, 48)
	alpha := rng.Uint64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AddOddPowers(dst, alpha)
	}
	sink = dst[0]
}
