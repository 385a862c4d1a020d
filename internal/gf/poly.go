package gf

// Poly is a univariate polynomial over GF(2^64). Poly[i] is the coefficient
// of x^i. The canonical form has no trailing zero coefficients; the zero
// polynomial is the empty (or nil) slice. All operations accept non-canonical
// inputs and return canonical outputs.
type Poly []uint64

// PolyTrim returns p with trailing zero coefficients removed.
func PolyTrim(p Poly) Poly {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// Deg returns the degree of p, with Deg(0) = -1.
func (p Poly) Deg() int { return len(PolyTrim(p)) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(PolyTrim(p)) == 0 }

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// PolyAdd returns a + b (coefficient-wise XOR).
func PolyAdd(a, b Poly) Poly {
	if len(b) > len(a) {
		a, b = b, a
	}
	out := make(Poly, len(a))
	copy(out, a)
	for i, c := range b {
		out[i] ^= c
	}
	return PolyTrim(out)
}

// PolyMul returns the product a·b by schoolbook multiplication. Degrees in
// this library are bounded by the outdetect threshold k, so the quadratic
// algorithm is the right tool.
func PolyMul(a, b Poly) Poly {
	a, b = PolyTrim(a), PolyTrim(b)
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(Poly, len(a)+len(b)-1)
	for i, ca := range a {
		if ca != 0 {
			addMul(out[i:], b, ca)
		}
	}
	return PolyTrim(out)
}

// PolyMod returns a mod m. It panics if m is zero, which is a programming
// error (callers always reduce modulo a known nonzero factor).
func PolyMod(a, m Poly) Poly {
	m = PolyTrim(m)
	if len(m) == 0 {
		panic("gf: PolyMod by zero polynomial")
	}
	r := PolyTrim(a).Clone()
	dm := len(m) - 1
	inv := leadInverse(m)
	for len(r)-1 >= dm && len(r) > 0 {
		dr := len(r) - 1
		q := scaleQuotient(r[dr], inv)
		addMul(r[dr-dm:], m, q)
		r = PolyTrim(r)
	}
	return r
}

// PolyDivExact returns a / m, discarding any remainder. It is used to peel
// factors discovered by gcd splitting, where divisibility is guaranteed.
func PolyDivExact(a, m Poly) Poly {
	m = PolyTrim(m)
	if len(m) == 0 {
		panic("gf: PolyDivExact by zero polynomial")
	}
	r := PolyTrim(a).Clone()
	dm := len(m) - 1
	if len(r)-1 < dm {
		return nil
	}
	inv := leadInverse(m)
	quo := make(Poly, len(r)-dm)
	for len(r) > 0 && len(r)-1 >= dm {
		dr := len(r) - 1
		q := scaleQuotient(r[dr], inv)
		quo[dr-dm] = q
		addMul(r[dr-dm:], m, q)
		r = PolyTrim(r)
	}
	return PolyTrim(quo)
}

// leadInverse returns the inverse of m's (nonzero) leading coefficient.
// A monic m, the common case (every factor the root finder reduces by),
// skips the inversion.
func leadInverse(m Poly) uint64 {
	if lead := m[len(m)-1]; lead != 1 {
		return Inv(lead)
	}
	return 1
}

// scaleQuotient returns the next quotient coefficient c·inv, skipping the
// product when the modulus is monic.
func scaleQuotient(c, inv uint64) uint64 {
	if inv == 1 {
		return c
	}
	return Mul(c, inv)
}

// PolyGCD returns the monic greatest common divisor of a and b.
func PolyGCD(a, b Poly) Poly {
	a, b = PolyTrim(a).Clone(), PolyTrim(b).Clone()
	for len(b) > 0 {
		a, b = b, PolyMod(a, b)
	}
	return PolyMonic(a)
}

// PolyMonic scales p so its leading coefficient is 1.
func PolyMonic(p Poly) Poly {
	p = PolyTrim(p)
	if len(p) == 0 {
		return nil
	}
	lead := p[len(p)-1]
	if lead == 1 {
		return p
	}
	out := make(Poly, len(p))
	addMul(out, p, Inv(lead))
	return out
}

// PolyEval evaluates p at x by Horner's rule.
func PolyEval(p Poly, x uint64) uint64 {
	var acc uint64
	for i := len(p) - 1; i >= 0; i-- {
		acc = Mul(acc, x) ^ p[i]
	}
	return acc
}

// PolyDeriv returns the formal derivative of p. In characteristic two the
// even-degree terms vanish.
func PolyDeriv(p Poly) Poly {
	if len(p) < 2 {
		return nil
	}
	out := make(Poly, len(p)-1)
	for i := 1; i < len(p); i += 2 {
		out[i-1] = p[i]
	}
	return PolyTrim(out)
}
