package gf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		tab := newTable(a)
		if got, want := tab.mul(b), mulSlow(a, b); got != want {
			t.Fatalf("table(%#x).mul(%#x) = %#x, want %#x", a, b, got, want)
		}
	}
}

func TestTableMulProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(12))}

	t.Run("matches-mul", func(t *testing.T) {
		if err := quick.Check(func(a, b uint64) bool {
			tab := newTable(a)
			return tab.mul(b) == Mul(a, b)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("reuse-across-chain", func(t *testing.T) {
		// One table, many multiplicands — the Horner-chain usage pattern.
		if err := quick.Check(func(a, seed uint64) bool {
			tab := newTable(a)
			b := seed
			for i := 0; i < 8; i++ {
				if tab.mul(b) != Mul(a, b) {
					return false
				}
				b = tab.mul(b) | 1
			}
			return true
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("zero-table", func(t *testing.T) {
		var tab table // zero value = table of α = 0
		if err := quick.Check(func(b uint64) bool {
			return tab.mul(b) == 0
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("zero-operand", func(t *testing.T) {
		if err := quick.Check(func(a uint64) bool {
			tab := newTable(a)
			return tab.mul(0) == 0
		}, cfg); err != nil {
			t.Error(err)
		}
	})
}

// FuzzTableMul cross-checks the cached-multiplier kernel against both the
// windowed Mul and the bit-serial reference on arbitrary operands.
func FuzzTableMul(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), ^uint64(0))
	f.Add(uint64(2), uint64(1)<<63)
	f.Add(uint64(0xDEADBEEF), uint64(0xC0FFEE))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		tab := newTable(a)
		got := tab.mul(b)
		if want := mulSlow(a, b); got != want {
			t.Fatalf("table(%#x).mul(%#x) = %#x, reference %#x", a, b, got, want)
		}
		if want := Mul(a, b); got != want {
			t.Fatalf("table(%#x).mul(%#x) = %#x, Mul %#x", a, b, got, want)
		}
	})
}

func BenchmarkTableMul(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	tab := newTable(rng.Uint64())
	x := rng.Uint64()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = tab.mul(x) | 1
	}
	sink = x
}
