package gf

import (
	"math/rand"
	"reflect"
	"testing"
)

func randPoly(rng *rand.Rand, maxDeg int) Poly {
	d := rng.Intn(maxDeg + 1)
	p := make(Poly, d+1)
	for i := range p {
		p[i] = rng.Uint64()
	}
	return PolyTrim(p)
}

func TestPolyTrimAndDeg(t *testing.T) {
	if d := (Poly{}).Deg(); d != -1 {
		t.Errorf("zero poly degree = %d, want -1", d)
	}
	if d := (Poly{0, 0, 0}).Deg(); d != -1 {
		t.Errorf("trimmed zero poly degree = %d, want -1", d)
	}
	if d := (Poly{5, 0, 7, 0}).Deg(); d != 2 {
		t.Errorf("degree = %d, want 2", d)
	}
}

func TestPolyAddSelfIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := randPoly(rng, 20)
		if !PolyAdd(p, p).IsZero() {
			t.Fatalf("p + p != 0 for %v", p)
		}
	}
}

func TestPolyMulDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a, b, c := randPoly(rng, 12), randPoly(rng, 12), randPoly(rng, 12)
		lhs := PolyMul(a, PolyAdd(b, c))
		rhs := PolyAdd(PolyMul(a, b), PolyMul(a, c))
		if !reflect.DeepEqual(lhs, rhs) {
			t.Fatalf("a(b+c) != ab+ac")
		}
	}
}

func TestPolyModDivRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		a := randPoly(rng, 30)
		m := randPoly(rng, 10)
		if i%2 == 1 {
			m = PolyMonic(m) // the monic shortcut, degree 0 included
		}
		if m.IsZero() {
			continue
		}
		q := PolyDivExact(a, m)
		r := PolyMod(a, m)
		recon := PolyAdd(PolyMul(q, m), r)
		if !reflect.DeepEqual(recon, PolyTrim(a)) {
			t.Fatalf("q*m + r != a\n a=%v\n m=%v\n q=%v\n r=%v", a, m, q, r)
		}
		if r.Deg() >= m.Deg() {
			t.Fatalf("deg(r)=%d >= deg(m)=%d", r.Deg(), m.Deg())
		}
	}
}

func TestPolyGCDOfProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		g := PolyMonic(randPoly(rng, 5))
		if g.IsZero() {
			continue
		}
		ca, cb := randPoly(rng, 6), randPoly(rng, 6)
		if i%2 == 1 {
			// Monic inputs: the first reduction is by a monic modulus.
			ca, cb = PolyMonic(ca), PolyMonic(cb)
		}
		a := PolyMul(g, ca)
		b := PolyMul(g, cb)
		if a.IsZero() || b.IsZero() {
			continue
		}
		d := PolyGCD(a, b)
		// g divides gcd(a,b): check remainder is zero.
		if !PolyMod(d, g).IsZero() && !PolyMod(g, d).IsZero() {
			// gcd must be a multiple of g (or equal up to the random
			// cofactors sharing more); at minimum g | a and g | b so
			// g | gcd.
			if !PolyMod(d, g).IsZero() {
				t.Fatalf("g does not divide gcd: g=%v gcd=%v", g, d)
			}
		}
		if !PolyMod(a, d).IsZero() || !PolyMod(b, d).IsZero() {
			t.Fatalf("gcd does not divide inputs")
		}
	}
}

func TestPolyEvalRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		// Build (x - r1)(x - r2)(x - r3) and check the roots evaluate to 0.
		roots := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
		p := Poly{1}
		for _, r := range roots {
			p = PolyMul(p, Poly{r, 1}) // x + r == x - r in char 2
		}
		for _, r := range roots {
			if PolyEval(p, r) != 0 {
				t.Fatalf("root %#x does not vanish", r)
			}
		}
		if PolyEval(p, roots[0]^1) == 0 && roots[0]^1 != roots[1] && roots[0]^1 != roots[2] {
			t.Fatalf("non-root vanishes unexpectedly")
		}
	}
}

func TestPolyDeriv(t *testing.T) {
	// d/dx (x^3 + a x^2 + b x + c) = 3x^2 + 2a x + b = x^2 + b (char 2).
	p := Poly{7, 9, 11, 1}
	want := Poly{9, 0, 1}
	if got := PolyDeriv(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("PolyDeriv = %v, want %v", got, want)
	}
}
