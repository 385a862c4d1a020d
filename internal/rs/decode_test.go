package rs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gf"
)

// randomIDs returns count distinct nonzero edge IDs.
func randomIDs(rng *rand.Rand, count int) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, count)
	for len(out) < count {
		id := rng.Uint64()
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

func sketchOf(k int, ids []uint64) Sketch {
	s := NewSketch(k)
	for _, id := range ids {
		s.AddEdge(id)
	}
	return s
}

func sameSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[uint64]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

func TestDecodeEmpty(t *testing.T) {
	s := NewSketch(4)
	ids, err := s.Decode(4)
	if err != nil || ids != nil {
		t.Fatalf("empty sketch: ids=%v err=%v", ids, err)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 24; k++ {
		for trial := 0; trial < 10; trial++ {
			count := 1 + rng.Intn(k)
			ids := randomIDs(rng, count)
			s := sketchOf(k, ids)
			got, err := s.Decode(k)
			if err != nil {
				t.Fatalf("k=%d count=%d: decode error: %v", k, count, err)
			}
			if !sameSet(got, ids) {
				t.Fatalf("k=%d count=%d: got %v, want %v", k, count, got, ids)
			}
		}
	}
}

func TestDecodeExactlyK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const k = 12
	ids := randomIDs(rng, k)
	s := sketchOf(k, ids)
	got, err := s.Decode(k)
	if err != nil {
		t.Fatalf("decode at capacity: %v", err)
	}
	if !sameSet(got, ids) {
		t.Fatal("decode at capacity returned wrong set")
	}
}

// TestOverloadDetected: with more than k edges the output is allowed to be
// arbitrary per Proposition 2, but this implementation must flag it (or, in
// rare aliasing cases that require weight ≥ 2k+1, return a set that
// re-encodes identically — which cannot happen for weight ≤ 2k).
func TestOverloadDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 6
	for trial := 0; trial < 50; trial++ {
		count := k + 1 + rng.Intn(k) // k+1 .. 2k, below the aliasing bound
		ids := randomIDs(rng, count)
		s := sketchOf(k, ids)
		got, err := s.Decode(k)
		if err == nil {
			// Any accepted answer must re-encode to the same sketch,
			// which for weight ≤ 2k distinct-from-truth sets is
			// impossible (min distance 2k+1).
			t.Fatalf("overload accepted: count=%d got=%v", count, got)
		}
		if !errors.Is(err, ErrOverload) {
			t.Fatalf("unexpected error type: %v", err)
		}
	}
}

// TestPrefixProperty verifies Proposition 6: the k′-word prefix of a
// k-threshold sketch is exactly the k′-threshold sketch, and adaptive
// decoding with a smaller budget succeeds whenever the true set is small.
func TestPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const k = 16
	for trial := 0; trial < 20; trial++ {
		ids := randomIDs(rng, 3)
		full := sketchOf(k, ids)
		short := sketchOf(4, ids)
		for i := range short {
			if full[i] != short[i] {
				t.Fatalf("prefix property violated at coordinate %d", i)
			}
		}
		got, err := full.Decode(4)
		if err != nil {
			t.Fatalf("adaptive decode failed: %v", err)
		}
		if !sameSet(got, ids) {
			t.Fatal("adaptive decode returned wrong set")
		}
	}
}

// TestPrefixBudgetTooSmall: when the true set exceeds the adaptive budget,
// the decoder must not silently return a wrong answer.
func TestPrefixBudgetTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k = 16
	for trial := 0; trial < 30; trial++ {
		ids := randomIDs(rng, 7)
		full := sketchOf(k, ids)
		got, err := full.Decode(3)
		if err == nil && !sameSet(got, ids) {
			t.Fatalf("undersized budget returned wrong set %v", got)
		}
	}
}

func TestXorCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const k = 8
	// Sketch(A) xor Sketch(B) = Sketch(A △ B).
	a := randomIDs(rng, 5)
	shared := a[:2]
	b := append([]uint64{}, shared...)
	b = append(b, randomIDs(rng, 3)...)
	sa, sb := sketchOf(k, a), sketchOf(k, b)
	sa.Xor(sb)
	var want []uint64
	want = append(want, a[2:]...)
	want = append(want, b[2:]...)
	got, err := sa.Decode(k)
	if err != nil {
		t.Fatalf("decode of symmetric difference: %v", err)
	}
	if !sameSet(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestAddEdgeTwiceCancels(t *testing.T) {
	s := NewSketch(5)
	s.AddEdge(0xABCDEF)
	s.AddEdge(0xABCDEF)
	if !s.IsZero() {
		t.Fatal("adding an edge twice must cancel")
	}
}

func TestBerlekampMasseyKnown(t *testing.T) {
	// Single edge α: syndromes α, α², …; locator must be 1 + α⁻¹·... —
	// roots of Λ are inverses of IDs, so Λ = 1 + α·x? No: root is α⁻¹,
	// Λ(x) = 1 + αx (Λ(α⁻¹) = 1 + α·α⁻¹ = 0). Verify.
	alpha := uint64(0x123456789)
	s := sketchOf(3, []uint64{alpha})
	loc := berlekampMassey(expanded(s))
	if loc.Deg() != 1 {
		t.Fatalf("locator degree = %d, want 1", loc.Deg())
	}
	if gf.PolyEval(loc, gf.Inv(alpha)) != 0 {
		t.Fatal("α⁻¹ is not a root of the locator")
	}
}

func TestFindRootsProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		roots := randomIDs(rng, 1+rng.Intn(10))
		p := gf.Poly{1}
		for _, r := range roots {
			p = gf.PolyMul(p, gf.Poly{r, 1})
		}
		got, ok := findRoots(p)
		if !ok {
			t.Fatalf("findRoots failed on split polynomial of degree %d", len(roots))
		}
		if !sameSet(got, roots) {
			t.Fatalf("got %v, want %v", got, roots)
		}
	}
}

// fieldTrace computes Tr(a) = Σ_{i<64} a^(2^i) ∈ {0, 1}.
func fieldTrace(a uint64) uint64 {
	var acc uint64
	x := a
	for i := 0; i < 64; i++ {
		acc ^= x
		x = gf.Sqr(x)
	}
	return acc
}

func TestFindRootsRejectsIrreducible(t *testing.T) {
	// x² + x + c is irreducible over GF(2^64) exactly when Tr(c) = 1.
	rng := rand.New(rand.NewSource(9))
	rejected, accepted := 0, 0
	for trial := 0; trial < 40; trial++ {
		c := rng.Uint64()
		p := gf.Poly{c, 1, 1}
		roots, ok := findRoots(p)
		if fieldTrace(c) == 1 {
			if ok {
				t.Fatalf("accepted irreducible quadratic with c=%#x, roots=%v", c, roots)
			}
			rejected++
			continue
		}
		if !ok {
			t.Fatalf("rejected reducible quadratic with c=%#x", c)
		}
		accepted++
		for _, r := range roots {
			if gf.PolyEval(p, r) != 0 {
				t.Fatalf("claimed root %#x does not vanish", r)
			}
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("degenerate sample: rejected=%d accepted=%d", rejected, accepted)
	}
	// Repeated roots split completely but must still be rejected:
	// (x+r)² and (x+r)²(x+s).
	for trial := 0; trial < 20; trial++ {
		ab := randomIDs(rng, 2)
		r, s := gf.Poly{ab[0], 1}, gf.Poly{ab[1], 1}
		for _, p := range []gf.Poly{gf.PolyMul(r, r), gf.PolyMul(gf.PolyMul(r, r), s)} {
			if roots, ok := findRoots(p); ok {
				t.Fatalf("accepted repeated root %#x in %v, roots=%v", ab[0], p, roots)
			}
		}
	}
}

// TestSqrModMatchesPolyMod checks the root finder's squaring against the
// definitional p² mod q, for monic q of degree 2..12.
func TestSqrModMatchesPolyMod(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var rf rootFinder
	for i := 0; i < 100; i++ {
		q := make(gf.Poly, 3+rng.Intn(11))
		for j := range q {
			q[j] = rng.Uint64()
		}
		q[len(q)-1] = 1
		v := make([]uint64, len(q)-1)
		for j := range v {
			v[j] = rng.Uint64()
		}
		want := gf.PolyMod(gf.PolyMul(v, v), q)
		rf.load(q).sqrMod(v)
		if got := gf.PolyTrim(v); !slices.Equal(got, want) {
			t.Fatalf("sqrMod mod %v = %v, want %v", q, got, want)
		}
	}
}

func TestDecodeZeroBudgetNonzero(t *testing.T) {
	s := sketchOf(4, []uint64{5})
	if _, err := s.Decode(0); !errors.Is(err, ErrOverload) {
		t.Fatalf("zero budget on nonzero sketch: err = %v", err)
	}
}

// BenchmarkDecode is E13's contrast of adaptive prefix decoding
// (Appendix B) against always-full-threshold decoding, on a sketch of
// t = k/2 edges: budget=t decodes from the 2t-syndrome prefix, budget=K
// from all 2K, and budget<t is a prefix too short for the set, which fails
// and is retried at K the way core.DecodeOutgoing retries it.
func BenchmarkDecode(b *testing.B) {
	for _, k := range []int{8, 32, 128} {
		rng := rand.New(rand.NewSource(8))
		t := k / 2
		s := sketchOf(k, randomIDs(rng, t))
		b.Run(benchName("k", k)+"/budget=t", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decode(t); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(benchName("k", k)+"/budget=K", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decode(k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(benchName("k", k)+"/budget<t", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Decode(t / 2); err == nil {
					b.Fatal("a prefix of half the set decoded")
				}
				if _, err := s.Decode(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestPowerKernels cross-checks the construction kernel against the
// definitional per-step gf.Mul chain: PowerSums must XOR the odd powers
// α^(2j+1) into existing content.
func TestPowerKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(65)
		alpha := rng.Uint64()
		if trial%10 == 0 {
			alpha = 0
		}
		full := refSketchOf(n, []uint64{alpha})
		want := make([]uint64, n)
		for j := range want {
			want[j] = full[2*j]
		}

		base := make([]uint64, n)
		sum := make([]uint64, n)
		for j := range base {
			base[j] = rng.Uint64()
			sum[j] = base[j]
		}
		PowerSums(sum, alpha)
		for j := range sum {
			if sum[j] != base[j]^want[j] {
				t.Fatalf("PowerSums(α=%#x)[%d] = %#x, want %#x", alpha, j, sum[j], base[j]^want[j])
			}
		}
	}
}

// expanded returns all 2·K syndromes S_1, …, S_2K that s determines.
func expanded(s Sketch) refSketch {
	syn := make(refSketch, 2*len(s))
	s.expand(syn)
	return syn
}

// refSketchOf returns the definitional 2k-word sketch of ids: every power
// sum S_j = Σ α^j, j = 1..2k, by a gf.Mul chain.
func refSketchOf(k int, ids []uint64) refSketch {
	full := make(refSketch, 2*k)
	for _, id := range ids {
		pow := id
		for j := range full {
			full[j] ^= pow
			pow = gf.Mul(pow, id)
		}
	}
	return full
}

// TestExpandMatchesFullSums: the stored odd sums of a set, expanded,
// equal its definitional 2k power sums, and OddSums turns those back into
// the stored words.
func TestExpandMatchesFullSums(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(20)
		ids := randomIDs(rng, rng.Intn(2*k+3))
		s := sketchOf(k, ids)
		full := refSketchOf(k, ids)
		if got := expanded(s); !slices.Equal(got, full) {
			t.Fatalf("k=%d |ids|=%d: expanded %v, definitional %v", k, len(ids), got, full)
		}
		odd := NewSketch(k)
		if !OddSums(odd, full) || !slices.Equal(odd, s) {
			t.Fatalf("k=%d |ids|=%d: OddSums = %v, want %v", k, len(ids), odd, s)
		}
	}
}

// TestOddSumsRejectsEvenMismatch flips one even word of a legacy 2k-word
// level at a time: every flip breaks S_2j = S_j² and must be refused, as
// must a length that is not twice the destination's.
func TestOddSumsRejectsEvenMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const k = 6
	full := refSketchOf(k, randomIDs(rng, 4))
	dst := NewSketch(k)
	for j := 1; j < len(full); j += 2 {
		bad := slices.Clone(full)
		bad[j] ^= 1 << uint(rng.Intn(64))
		if OddSums(dst, bad) {
			t.Fatalf("OddSums accepted S_%d flipped", j+1)
		}
	}
	if OddSums(dst, full[:2*k-1]) || OddSums(NewSketch(k-1), full) {
		t.Fatal("OddSums accepted a level of the wrong length")
	}
}

// fullStepBerlekampMassey is berlekampMassey as it stood before it skipped
// the even steps: it computes every discrepancy.
func fullStepBerlekampMassey(syn []uint64) gf.Poly {
	c := gf.Poly{1} // current connection polynomial
	b := gf.Poly{1} // previous connection polynomial
	var l int       // current LFSR length
	var m = 1       // steps since last length change
	var bInv uint64 = 1
	for n := 0; n < len(syn); n++ {
		// Discrepancy d = S_n + Σ_{i=1..l} c_i S_{n-i}.
		d := syn[n]
		for i := 1; i <= l && i < len(c); i++ {
			d ^= gf.Mul(c[i], syn[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		coef := gf.Mul(d, bInv)
		// c' = c - coef · x^m · b
		shifted := make(gf.Poly, len(b)+m)
		for i, bc := range b {
			shifted[i+m] = gf.Mul(coef, bc)
		}
		next := gf.PolyAdd(c, shifted)
		if 2*l <= n {
			b = c
			bInv = gf.Inv(d) // b's discrepancy, inverted once per change of b
			l = n + 1 - l
			m = 1
		} else {
			m++
		}
		c = next
	}
	return gf.PolyTrim(c)
}

// TestBerlekampMasseySkipsEvenSteps holds the even-step skip to the
// full-step loop on expanded syndromes at every prefix: sets and overloads,
// Newton words of random locators, and random stored words.
func TestBerlekampMasseySkipsEvenSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 600; trial++ {
		k := 1 + rng.Intn(16)
		var s Sketch
		switch trial % 3 {
		case 0:
			s = sketchOf(k, randomIDs(rng, 1+rng.Intn(2*k+2)))
		case 1:
			lambda := make(gf.Poly, 2+rng.Intn(k+1))
			lambda[0] = 1
			for i := 1; i < len(lambda); i++ {
				lambda[i] = rng.Uint64()
			}
			s = newtonSketch(k, lambda)
		default:
			s = NewSketch(k)
			for j := range s {
				s[j] = rng.Uint64()
			}
		}
		syn := expanded(s)
		for budget := 1; budget <= k; budget++ {
			got := berlekampMassey(syn[:2*budget])
			want := fullStepBerlekampMassey(syn[:2*budget])
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d K=%d budget=%d: skipping BM %v, full BM %v", trial, k, budget, got, want)
			}
		}
	}
}

// The reference decoder: the decoder as it stood before the split test,
// the Frobenius-power traces, the monic shortcuts and Itoh–Tsujii
// inversion, copied verbatim (with a ref prefix) together with the
// polynomial helpers whose arithmetic changed. It reads the 2k-word sketch
// that layout stored (refSketch, with that layout's methods), so the tests
// feed it the syndromes a stored sketch expands to. TestDecodeMatchesReference
// and FuzzSketchDecode hold the production decoder to its outcomes.

// refSketch is the 2k-word layout: refSketch[j] holds S_{j+1}.
type refSketch []uint64

func (s refSketch) K() int { return len(s) / 2 }

func (s refSketch) AddEdge(alpha uint64) {
	if alpha == 0 {
		return
	}
	tab := gf.NewTable(alpha)
	pow := alpha
	for j := range s {
		s[j] ^= pow
		pow = tab.Mul(pow)
	}
}

func (s refSketch) IsZero() bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

func (s refSketch) consistentWith(ids []uint64) bool {
	check := make(refSketch, len(s))
	for _, id := range ids {
		if id == 0 {
			return false
		}
		check.AddEdge(id)
	}
	for i := range s {
		if check[i] != s[i] {
			return false
		}
	}
	return true
}

func refDecode(s refSketch, budget int) ([]uint64, error) {
	if budget > s.K() {
		budget = s.K()
	}
	if budget <= 0 {
		if s.IsZero() {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: zero budget with nonzero syndrome", ErrOverload)
	}
	if s.IsZero() {
		return nil, nil
	}
	locator := refBerlekampMassey(s[:2*budget])
	t := locator.Deg()
	if t == 0 || t > budget {
		return nil, fmt.Errorf("%w: locator degree %d outside (0,%d]", ErrOverload, t, budget)
	}
	roots, ok := refFindRoots(locator)
	if !ok || len(roots) != t {
		return nil, fmt.Errorf("%w: locator does not split into %d distinct nonzero roots", ErrOverload, t)
	}
	ids := make([]uint64, 0, t)
	for _, r := range roots {
		// Roots of the locator are the inverses of the edge IDs.
		ids = append(ids, refInv(r))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Re-encoding verification against the FULL syndrome vector: the
	// decoded set must reproduce every stored power sum, not just the
	// prefix that drove Berlekamp–Massey.
	if !s.consistentWith(ids) {
		return nil, fmt.Errorf("%w: re-encoding check failed for %d candidates", ErrOverload, len(ids))
	}
	return ids, nil
}

func refBerlekampMassey(syn []uint64) gf.Poly {
	c := gf.Poly{1} // current connection polynomial
	b := gf.Poly{1} // previous connection polynomial
	var l int       // current LFSR length
	var m = 1       // steps since last length change
	var bDelta uint64 = 1
	for n := 0; n < len(syn); n++ {
		// Discrepancy d = S_n + Σ_{i=1..l} c_i S_{n-i}.
		d := syn[n]
		for i := 1; i <= l && i < len(c); i++ {
			d ^= gf.Mul(c[i], syn[n-i])
		}
		if d == 0 {
			m++
			continue
		}
		coef := gf.Mul(d, refInv(bDelta))
		// c' = c - coef · x^m · b
		shifted := make(gf.Poly, len(b)+m)
		for i, bc := range b {
			shifted[i+m] = gf.Mul(coef, bc)
		}
		next := gf.PolyAdd(c, shifted)
		if 2*l <= n {
			b = c
			bDelta = d
			l = n + 1 - l
			m = 1
		} else {
			m++
		}
		c = next
	}
	return gf.PolyTrim(c)
}

func refFindRoots(p gf.Poly) ([]uint64, bool) {
	p = refPolyMonic(p)
	if p.Deg() < 1 {
		return nil, false
	}
	// A locator with constant term 0 has root 0 ⇒ some edge ID would be
	// "infinite"; invalid.
	if p[0] == 0 {
		return nil, false
	}
	var roots []uint64
	pending := []gf.Poly{p}
	for basis := 0; basis < 64 && len(pending) > 0; basis++ {
		beta := uint64(1) << uint(basis)
		var next []gf.Poly
		for _, q := range pending {
			if q.Deg() == 1 {
				roots = append(roots, refRootOfLinear(q))
				continue
			}
			tr := refTraceMap(beta, q)
			d := refPolyGCD(q, tr)
			if d.Deg() <= 0 || d.Deg() >= q.Deg() {
				// This basis element does not split q; try the next.
				next = append(next, q)
				continue
			}
			rest := refPolyMonic(refPolyDivExact(q, d))
			next = append(next, d, rest)
		}
		pending = next
	}
	for _, q := range pending {
		if q.Deg() == 1 {
			roots = append(roots, refRootOfLinear(q))
		} else {
			// Irreducible factor of degree ≥ 2 survived all 64 basis
			// elements: p has roots outside GF(2^64) ⇒ not a valid
			// locator of field elements.
			return nil, false
		}
	}
	// Distinctness: a repeated root would mean a repeated edge ID, which
	// cannot arise from a set.
	seen := make(map[uint64]bool, len(roots))
	for _, r := range roots {
		if r == 0 || seen[r] {
			return nil, false
		}
		seen[r] = true
	}
	return roots, true
}

func refRootOfLinear(q gf.Poly) uint64 {
	q = refPolyMonic(q)
	return q[0] // x + c has root c in characteristic two
}

func refTraceMap(beta uint64, q gf.Poly) gf.Poly {
	// term starts as βx mod q.
	term := refPolyMod(gf.Poly{0, beta}, q)
	acc := term.Clone()
	for i := 1; i < 64; i++ {
		term = refPolySqrMod(term, q)
		acc = gf.PolyAdd(acc, term)
	}
	return acc
}

func refInv(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	// The multiplicative group has order 2^64 - 1, so a^(2^64 - 2) = a^-1.
	return gf.Pow(a, ^uint64(0)-1)
}

func refPolyMod(a, m gf.Poly) gf.Poly {
	m = gf.PolyTrim(m)
	if len(m) == 0 {
		panic("gf: PolyMod by zero polynomial")
	}
	r := gf.PolyTrim(a).Clone()
	dm := len(m) - 1
	inv := refInv(m[dm])
	for len(r)-1 >= dm && len(r) > 0 {
		dr := len(r) - 1
		q := gf.Mul(r[dr], inv)
		shift := dr - dm
		for i, c := range m {
			if c != 0 {
				r[i+shift] ^= gf.Mul(q, c)
			}
		}
		r = gf.PolyTrim(r)
	}
	return r
}

func refPolyDivExact(a, m gf.Poly) gf.Poly {
	m = gf.PolyTrim(m)
	if len(m) == 0 {
		panic("gf: PolyDivExact by zero polynomial")
	}
	r := gf.PolyTrim(a).Clone()
	dm := len(m) - 1
	if len(r)-1 < dm {
		return nil
	}
	inv := refInv(m[dm])
	quo := make(gf.Poly, len(r)-dm)
	for len(r) > 0 && len(r)-1 >= dm {
		dr := len(r) - 1
		q := gf.Mul(r[dr], inv)
		shift := dr - dm
		quo[shift] = q
		for i, c := range m {
			if c != 0 {
				r[i+shift] ^= gf.Mul(q, c)
			}
		}
		r = gf.PolyTrim(r)
	}
	return gf.PolyTrim(quo)
}

func refPolyGCD(a, b gf.Poly) gf.Poly {
	a, b = gf.PolyTrim(a).Clone(), gf.PolyTrim(b).Clone()
	for len(b) > 0 {
		a, b = b, refPolyMod(a, b)
	}
	return refPolyMonic(a)
}

func refPolyMonic(p gf.Poly) gf.Poly {
	p = gf.PolyTrim(p)
	if len(p) == 0 {
		return nil
	}
	lead := p[len(p)-1]
	if lead == 1 {
		return p
	}
	inv := refInv(lead)
	out := make(gf.Poly, len(p))
	for i, c := range p {
		out[i] = gf.Mul(c, inv)
	}
	return out
}

func refPolySqrMod(p, m gf.Poly) gf.Poly {
	p = gf.PolyTrim(p)
	if len(p) == 0 {
		return nil
	}
	sq := make(gf.Poly, 2*len(p)-1)
	for i, c := range p {
		if c != 0 {
			sq[2*i] = gf.Sqr(c)
		}
	}
	return refPolyMod(sq, m)
}

// checkMatchesReference decodes s at budget, and the reference decoder
// its expanded syndromes, and requires the same sorted IDs, or the same
// ErrOverload from both.
func checkMatchesReference(t testing.TB, s Sketch, budget int) {
	t.Helper()
	got, gotErr := s.Decode(budget)
	want, wantErr := refDecode(expanded(s), budget)
	switch {
	case gotErr == nil && wantErr == nil:
		if !slices.Equal(got, want) {
			t.Fatalf("K=%d budget=%d: decoded %v, reference %v", s.K(), budget, got, want)
		}
	case gotErr == nil || wantErr == nil:
		t.Fatalf("K=%d budget=%d: decoded (%v, %v), reference (%v, %v)", s.K(), budget, got, gotErr, want, wantErr)
	case !errors.Is(gotErr, ErrOverload) || gotErr.Error() != wantErr.Error():
		t.Fatalf("K=%d budget=%d: error %q, reference %q", s.K(), budget, gotErr, wantErr)
	}
}

// newtonSketch returns the K-threshold sketch whose syndromes are the power
// sums of the roots' inverses of lambda (constant term 1), counted with
// multiplicity in the algebraic closure: Newton's identities
// S_j = Σ_{i<j, i≤t} λ_i S_{j−i} + [j ≤ t, j odd] λ_j generate them in
// characteristic two. They are binary (S_2j = S_j²), which it checks, so
// they are a stored sketch's expansion, and Berlekamp–Massey over them
// returns lambda whenever lambda's roots are distinct and
// 2·deg lambda ≤ 2K. A root outside GF(2^64) — an irreducible factor —
// makes the locator refuse to split; a repeated root cancels in pairs.
func newtonSketch(k int, lambda gf.Poly) Sketch {
	t := lambda.Deg()
	syn := make([]uint64, 2*k)
	for j := 1; j <= 2*k; j++ {
		var v uint64
		for i := 1; i < j && i <= t; i++ {
			v ^= gf.Mul(lambda[i], syn[j-i-1])
		}
		if j <= t && j%2 == 1 {
			v ^= lambda[j]
		}
		syn[j-1] = v
	}
	s := NewSketch(k)
	if !OddSums(s, syn) {
		panic("newtonSketch: Newton sums are not binary")
	}
	return s
}

// locatorOf returns Π (1 + αx) over alphas: the locator whose roots are
// the alphas' inverses.
func locatorOf(alphas []uint64) gf.Poly {
	p := gf.Poly{1}
	for _, a := range alphas {
		p = gf.PolyMul(p, gf.Poly{1, a})
	}
	return p
}

func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 2, 3, 5, 8} {
		var words []Sketch
		// Sets of 1..K IDs, and overloads of K+1..2K+2.
		for count := 1; count <= 2*k+2; count++ {
			words = append(words, sketchOf(k, randomIDs(rng, count)))
		}
		// Newton words of locators with an irreducible quadratic factor
		// 1 + x + cx² (Tr(c) = 1) times up to K−2 distinct linear factors,
		// and of random locators of degree 1..K+1.
		for trial := 0; trial < 2 && k >= 2; trial++ {
			ids := randomIDs(rng, 1+rng.Intn(k-1))
			c := rng.Uint64()
			for fieldTrace(c) != 1 {
				c = rng.Uint64()
			}
			quad := gf.PolyMul(gf.Poly{1, 1, c}, locatorOf(ids[1:]))
			words = append(words, newtonSketch(k, quad))
			lambda := make(gf.Poly, 2+rng.Intn(k+1))
			lambda[0] = 1
			for i := 1; i < len(lambda); i++ {
				lambda[i] = rng.Uint64()
			}
			words = append(words, newtonSketch(k, lambda))
		}
		// Uniformly random stored words.
		for trial := 0; trial < 3; trial++ {
			s := NewSketch(k)
			for j := range s {
				s[j] = rng.Uint64()
			}
			words = append(words, s)
		}
		// Every prefix budget, plus the out-of-range ones Decode clamps.
		for _, s := range words {
			for budget := 0; budget <= k+1; budget++ {
				checkMatchesReference(t, s, budget)
			}
		}
	}
}

// TestFindRootsMatchesReference runs the root finder alone on the
// locator classes above, at degrees past what a short sketch reaches.
func TestFindRootsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 60; trial++ {
		ids := randomIDs(rng, 1+rng.Intn(24))
		var p gf.Poly
		switch trial % 3 {
		case 0:
			p = locatorOf(ids)
		case 1:
			p = locatorOf(append(ids, ids[len(ids)-1]))
		default:
			c := rng.Uint64()
			for fieldTrace(c) != 1 {
				c = rng.Uint64()
			}
			p = gf.PolyMul(gf.Poly{1, 1, c}, locatorOf(ids))
		}
		got, ok := findRoots(p)
		want, refOK := refFindRoots(p)
		slices.Sort(got)
		slices.Sort(want)
		if ok != refOK || !slices.Equal(got, want) {
			t.Fatalf("findRoots(%v) = %v, %v; reference %v, %v", p, got, ok, want, refOK)
		}
	}
}

// refDecodeMaxBudget bounds the effective budget min(budget, K) at which
// FuzzSketchDecode consults the reference decoder, whose cost on a
// non-splitting locator (all 64 trace bases tried) grows with its degree
// and stalls the fuzzer at the top degrees.
const refDecodeMaxBudget = 6

// FuzzSketchDecode checks the decoder on arbitrary stored words (raw, or
// folded from edge IDs) at every budget Decode accepts. Up to
// refDecodeMaxBudget it must agree with the reference, which reads their
// expanded syndromes. Above it, Decode must either refuse with
// ErrOverload or return at most budget nonzero IDs, strictly ascending,
// whose re-encoded sketch equals the input.
func FuzzSketchDecode(f *testing.F) {
	f.Add(uint8(4), uint8(4), true, []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(6), uint8(2), true, make([]byte, 8*7))
	f.Add(uint8(3), uint8(3), false, []byte("arbitrary syndrome bytes, not an edge set"))
	f.Add(uint8(0), uint8(0), false, []byte{})
	f.Fuzz(func(t *testing.T, k, budget uint8, asIDs bool, data []byte) {
		kk := 1 + int(k)%12
		s := NewSketch(kk)
		for i := 0; 8*i+8 <= len(data) && i < 2*kk+2; i++ {
			w := binary.LittleEndian.Uint64(data[8*i:])
			if asIDs {
				s.AddEdge(w)
			} else if i < len(s) {
				s[i] = w
			}
		}
		b := int(budget) % (kk + 2)
		if min(b, kk) <= refDecodeMaxBudget {
			checkMatchesReference(t, s, b)
			return
		}
		ids, err := s.Decode(b)
		if err != nil {
			if !errors.Is(err, ErrOverload) {
				t.Fatalf("K=%d budget=%d: error %v, want ErrOverload", kk, b, err)
			}
			return
		}
		re := NewSketch(kk)
		for i, id := range ids {
			if id == 0 || i > 0 && id <= ids[i-1] {
				t.Fatalf("K=%d budget=%d: IDs %v not nonzero and strictly ascending", kk, b, ids)
			}
			re.AddEdge(id)
		}
		if len(ids) > min(b, kk) || !slices.Equal(re, s) {
			t.Fatalf("K=%d budget=%d: decoded %v, which does not re-encode to the input", kk, b, ids)
		}
	})
}
