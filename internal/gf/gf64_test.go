package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mulSlow is a reference bit-serial multiplication used to validate the
// windowed implementation.
func mulSlow(a, b uint64) uint64 {
	var p uint64
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & (1 << 63)
		a <<= 1
		if hi != 0 {
			a ^= reduction
		}
		b >>= 1
	}
	return p
}

func TestMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if got, want := Mul(a, b), mulSlow(a, b); got != want {
			t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestMulEdgeCases(t *testing.T) {
	cases := []struct {
		a, b, want uint64
	}{
		{0, 0, 0},
		{0, 123, 0},
		{123, 0, 0},
		{1, 1, 1},
		{1, 0xDEADBEEF, 0xDEADBEEF},
		{2, 1 << 63, reduction}, // z * z^63 = z^64 = reduction
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}

	t.Run("commutativity", func(t *testing.T) {
		if err := quick.Check(func(a, b uint64) bool {
			return Mul(a, b) == Mul(b, a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("associativity", func(t *testing.T) {
		if err := quick.Check(func(a, b, c uint64) bool {
			return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributivity", func(t *testing.T) {
		if err := quick.Check(func(a, b, c uint64) bool {
			return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("characteristic-two", func(t *testing.T) {
		if err := quick.Check(func(a uint64) bool {
			return Add(a, a) == 0
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("square-is-mul", func(t *testing.T) {
		if err := quick.Check(func(a uint64) bool {
			return Sqr(a) == Mul(a, a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("frobenius-additive", func(t *testing.T) {
		if err := quick.Check(func(a, b uint64) bool {
			return Sqr(Add(a, b)) == Add(Sqr(a), Sqr(b))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestInv(t *testing.T) {
	if Inv(0) != 0 {
		t.Fatalf("Inv(0) = %#x, want 0", Inv(0))
	}
	if Inv(1) != 1 {
		t.Fatalf("Inv(1) = %#x, want 1", Inv(1))
	}
	rng := rand.New(rand.NewSource(3))
	// The addition chain's edge values first: z, the top bit, all-ones.
	cases := []uint64{2, 1 << 63, ^uint64(0)}
	for i := 0; i < 500; i++ {
		cases = append(cases, rng.Uint64())
	}
	for _, a := range cases {
		if a == 0 {
			continue
		}
		if got := Mul(a, Inv(a)); got != 1 {
			t.Fatalf("a * Inv(a) = %#x for a = %#x, want 1", got, a)
		}
		if got, want := Inv(a), Pow(a, ^uint64(0)-1); got != want {
			t.Fatalf("Inv(%#x) = %#x, a^(2^64-2) = %#x", a, got, want)
		}
	}
}

func TestPow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a := rng.Uint64()
		// Pow against iterated multiplication for small exponents.
		acc := uint64(1)
		for e := uint64(0); e < 16; e++ {
			if got := Pow(a, e); got != acc {
				t.Fatalf("Pow(%#x, %d) = %#x, want %#x", a, e, got, acc)
			}
			acc = Mul(acc, a)
		}
	}
	// Fermat: a^(2^64-1) = 1 for a != 0.
	for i := 0; i < 50; i++ {
		a := rng.Uint64() | 1
		if got := Pow(a, ^uint64(0)); got != 1 {
			t.Fatalf("a^(2^64-1) = %#x for a = %#x, want 1", got, a)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x, y := rng.Uint64(), rng.Uint64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = Mul(x, y) | 1
	}
	sink = x
}

func BenchmarkInv(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := rng.Uint64() | 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = Inv(x) | 1
	}
	sink = x
}

var sink uint64
