// Package rs implements the paper's first key technique (§4.2, §7.4,
// Appendix B): a deterministic k-threshold outdetect labeling scheme derived
// from the parity-check matrix of a Reed–Solomon code over GF(2^64).
//
// Every edge e carries a nonzero field element α_e (its edge ID). The
// paper's sketch of e is its first 2k powers (α_e, α_e², …, α_e^2k) — the
// row of the parity-check matrix C_2k indexed by e. The sketch of a vertex
// is the XOR (field sum) of its incident edges' sketches, so the sketch of a
// vertex set S telescopes to the power sums S_j = Σ_{e∈∂(S)} α_e^j of the
// outgoing edges. Recovering ∂(S) from those power sums is exactly syndrome
// decoding of a weight-≤k binary error vector: Berlekamp–Massey produces the
// error-locator polynomial and the Berlekamp trace algorithm finds its roots
// in time polynomial in k and the field degree — never in the (astronomical)
// codeword length, which is the property Proposition 2 requires.
//
// Because the error vector is binary, half of those 2k sums are redundant:
// squaring is additive in characteristic two, so S_2j = Σ α_e^2j =
// (Σ α_e^j)² = S_j² for every edge set and every XOR of sketches (the
// binary-BCH syndrome identity). A Sketch therefore stores only the k odd
// sums S_1, S_3, …, S_{2k−1}; Decode rebuilds the even ones with one
// squaring each. The stored words determine all 2k syndromes, so the
// decoder sees exactly the paper's sketch.
//
// The prefix property of Proposition 6 (Appendix B) holds by construction:
// the first k′ words of a k-sketch are precisely the k′-sketch, and they
// determine the first 2k′ syndromes, so decoding can adapt its budget to
// the actual cut size.
package rs

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/gf"
)

// ErrOverload is returned when the syndrome does not correspond to any edge
// set of size at most the decoding budget. Per Proposition 2 the decoder's
// output is unspecified when |∂(S)| exceeds the threshold; this
// implementation detects (rather than silently mis-reports) that case by
// re-encoding verification.
var ErrOverload = errors.New("rs: syndrome is not a consistent ≤k-edge sketch")

// Sketch is the stored half of the power-sum syndrome of an edge set:
// Sketch[j] holds the odd sum S_{2j+1} = Σ_e α_e^{2j+1}, and the even sums
// follow from S_2j = S_j². The zero value (or any all-zero vector) encodes
// the empty edge set. Sketches of equal length form a GF(2)-linear space
// under XOR, which is what lets vertex labels aggregate over any vertex set.
type Sketch []uint64

// NewSketch returns an all-zero sketch with threshold k: k stored words,
// which determine the 2k syndromes of the paper's sketch.
func NewSketch(k int) Sketch { return make(Sketch, k) }

// K returns the threshold the sketch was sized for.
func (s Sketch) K() int { return len(s) }

// AddEdge folds edge ID alpha into the sketch. alpha must be nonzero; a zero
// ID would be indistinguishable from absence.
func (s Sketch) AddEdge(alpha uint64) {
	PowerSums(s, alpha)
}

// PowerSums XORs the odd powers α, α³, …, α^(2·len(dst)−1) — the stored
// half of the Reed–Solomon parity-check row of α — into dst; over zeroed
// memory it writes the row, which is how core.Build fills its power
// arena. The chain is gf.AddOddPowers. A zero alpha is a no-op, matching
// the AddEdge contract that IDs are nonzero.
func PowerSums(dst []uint64, alpha uint64) {
	gf.AddOddPowers(dst, alpha)
}

// OddSums converts one level of the legacy layout, which stored every sum
// S_1, S_2, …, S_2k, to the stored form: dst[j] = S_{2j+1}, with
// len(full) = 2·len(dst). It first checks S_2j = S_j² for j = 1..k and
// reports false, leaving dst unspecified, if any pair fails: no edge set,
// and no XOR of edge-set sketches, has such syndromes, so a legacy label or
// mask carrying one is corrupt. Dropping the even words loses nothing else,
// because the odd words determine them.
func OddSums(dst, full []uint64) bool {
	if len(full) != 2*len(dst) {
		return false
	}
	for j := 1; j <= len(dst); j++ {
		if full[2*j-1] != gf.Sqr(full[j-1]) {
			return false
		}
	}
	for j := range dst {
		dst[j] = full[2*j]
	}
	return true
}

// expand writes the first len(syn) syndromes S_1, S_2, … of s into syn:
// syn[i] = S_{i+1}, where S_{2j+1} is stored and S_2j = S_j².
func (s Sketch) expand(syn []uint64) {
	for i := range syn {
		if i%2 == 0 {
			syn[i] = s[i/2]
		} else {
			syn[i] = gf.Sqr(syn[i/2])
		}
	}
}

// Xor folds another sketch of the same length into s. Adding a sketch twice
// cancels it — that cancellation is the telescoping at the heart of the
// scheme.
func (s Sketch) Xor(o Sketch) {
	if len(o) != len(s) {
		panic(fmt.Sprintf("rs: sketch length mismatch %d vs %d", len(s), len(o)))
	}
	for i, v := range o {
		s[i] ^= v
	}
}

// Clone returns an independent copy.
func (s Sketch) Clone() Sketch {
	c := make(Sketch, len(s))
	copy(c, s)
	return c
}

// IsZero reports whether every syndrome is zero (the sketch of the empty
// set; also the sketch of any set whose characteristic vector happens to be
// a codeword, which requires weight ≥ 2k+1 and is therefore impossible under
// the threshold guarantee).
func (s Sketch) IsZero() bool {
	for _, v := range s {
		if v != 0 {
			return false
		}
	}
	return true
}

// Decode recovers the edge IDs whose sketch equals s, assuming at most
// budget of them. budget ≤ K(); budget < K() performs adaptive prefix
// decoding (Appendix B): only the first 2·budget syndromes, rebuilt from
// the first budget stored words, drive the decoder, but the full vector is
// still used for verification. Returns the sorted edge IDs, a nil slice
// for the empty set, or ErrOverload.
func (s Sketch) Decode(budget int) ([]uint64, error) {
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
	syn := make([]uint64, 2*budget)
	s.expand(syn)
	locator := berlekampMassey(syn)
	t := locator.Deg()
	if t == 0 || t > budget {
		return nil, fmt.Errorf("%w: locator degree %d outside (0,%d]", ErrOverload, t, budget)
	}
	roots, ok := findRoots(locator)
	if !ok || len(roots) != t {
		return nil, fmt.Errorf("%w: locator does not split into %d distinct nonzero roots", ErrOverload, t)
	}
	ids := make([]uint64, 0, t)
	for _, r := range roots {
		// Roots of the locator are the inverses of the edge IDs.
		ids = append(ids, gf.Inv(r))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Re-encoding verification against the FULL syndrome vector: the
	// decoded set must reproduce every stored power sum, not just the
	// prefix that drove Berlekamp–Massey. The k stored sums determine the
	// k even ones, so matching them matches all 2k.
	if !s.consistentWith(ids) {
		return nil, fmt.Errorf("%w: re-encoding check failed for %d candidates", ErrOverload, len(ids))
	}
	return ids, nil
}

// consistentWith checks that ids re-encode exactly to s.
func (s Sketch) consistentWith(ids []uint64) bool {
	check := make(Sketch, len(s))
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

// berlekampMassey returns the minimal connection polynomial
// Λ(x) = 1 + λ₁x + … + λ_t x^t of the syndrome sequence: the unique monic
// (constant term 1) polynomial of minimal degree with
// Σ_i Λ_i · S_{j-i} = 0 for all j > t. For syndromes that are power sums of
// t ≤ len(syn)/2 distinct points, Λ's roots are the points' inverses.
//
// syn must be binary (S_2j = S_j², as expand writes it). Then the
// discrepancy at every even sum S_2j is zero — Berlekamp's simplification
// for binary BCH codes — so those steps only age b, and half of the
// discrepancy products are skipped (DESIGN.md §3.17).
func berlekampMassey(syn []uint64) gf.Poly {
	c := gf.Poly{1} // current connection polynomial
	b := gf.Poly{1} // previous connection polynomial
	var l int       // current LFSR length
	var m = 1       // steps since last length change
	var bInv uint64 = 1
	for n := 0; n < len(syn); n++ {
		if n%2 == 1 {
			// syn[n] = S_{n+1} is an even sum: zero discrepancy.
			m++
			continue
		}
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

// findRoots returns all distinct roots of p in GF(2^64) via the Berlekamp
// trace algorithm, reporting ok=false if p does not split into distinct
// nonzero linear factors (which signals an inconsistent syndrome).
//
// Before any splitting it checks x^(2^64) ≡ x (mod p). Since
// x^(2^64) − x = Π_{a ∈ GF(2^64)} (x − a), a monic p passes exactly when it
// is squarefree with every root in the field. Every other p is one the
// trace splitting rejects anyway — an irreducible factor of degree ≥ 2
// survives all 64 directions, or a repeated root fails the distinctness
// check — so a locator that cannot split costs one trace's worth of
// squarings instead of 64 traces (DESIGN.md §3.17).
func findRoots(p gf.Poly) ([]uint64, bool) {
	p = gf.PolyMonic(p)
	if p.Deg() < 1 {
		return nil, false
	}
	// A locator with constant term 0 has root 0 ⇒ some edge ID would be
	// "infinite"; invalid.
	if p[0] == 0 {
		return nil, false
	}
	if p.Deg() == 1 {
		return []uint64{p[0]}, true // x + c has root c in characteristic two
	}
	rf := rootPool.Get().(*rootFinder)
	defer rootPool.Put(rf)
	if !rf.load(p).splits() {
		return nil, false
	}
	// Split depth first, so that one factor's multipliers are live at a
	// time. A factor that basis element 2^b splits hands both parts to
	// 2^(b+1), as the breadth-first order did: their roots agree on every
	// earlier direction, so only later ones can separate them.
	type factor struct {
		q     gf.Poly
		basis int
	}
	var roots []uint64
	pending := []factor{{p, 0}}
	loaded := true // the split test left p's multipliers in rf
	for len(pending) > 0 {
		f := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if f.q.Deg() == 1 {
			roots = append(roots, f.q[0])
			continue
		}
		if !loaded {
			rf.load(f.q)
		}
		loaded = false
		for ; ; f.basis++ {
			if f.basis == 64 {
				// Unreachable after the split test: any two distinct
				// roots differ in their trace along some basis element.
				return nil, false
			}
			d := gf.PolyGCD(f.q, rf.trace(uint64(1)<<uint(f.basis)))
			if d.Deg() > 0 && d.Deg() < f.q.Deg() {
				// PolyGCD returns d monic, so the division skips Inv.
				pending = append(pending, factor{d, f.basis + 1}, factor{gf.PolyDivExact(f.q, d), f.basis + 1})
				break
			}
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

// rootFinder is findRoots' pooled scratch for one monic factor q of
// degree t ≥ 2: q's low coefficients loaded as a gf.Row, which folds each
// high coefficient of a square down modulo q, and the buffers its
// squarings fill.
type rootFinder struct {
	low       gf.Row
	sq        []uint64 // a square before reduction, 2t−1 coefficients
	term, acc []uint64 // t coefficients each
}

var rootPool = sync.Pool{New: func() any { return new(rootFinder) }}

// load prepares rf for the monic factor q, once per factor: its split test
// and every basis direction tried on it reuse the same row.
func (rf *rootFinder) load(q gf.Poly) *rootFinder {
	t := len(q) - 1
	rf.low.Load(q[:t])
	rf.sq = slices.Grow(rf.sq[:0], 2*t-1)[:2*t-1]
	rf.term = slices.Grow(rf.term[:0], t)[:t]
	rf.acc = slices.Grow(rf.acc[:0], t)[:t]
	return rf
}

// sqrMod replaces v with v² mod q. Squaring is GF(2)-linear,
// (Σ c_i x^i)² = Σ c_i² x^(2i); each coefficient c at x^i, i ≥ t, then
// folds down through x^t ≡ Σ_{j<t} q_j x^j.
func (rf *rootFinder) sqrMod(v []uint64) {
	t := len(v)
	sq := rf.sq
	for i, c := range v {
		sq[2*i] = gf.Sqr(c)
		if i > 0 {
			sq[2*i-1] = 0
		}
	}
	for i := 2*t - 2; i >= t; i-- {
		if c := sq[i]; c != 0 {
			rf.low.AddScaled(sq[i-t:i], c)
		}
	}
	copy(v, sq[:t])
}

// splits reports whether x^(2^64) ≡ x modulo the loaded factor.
func (rf *rootFinder) splits() bool {
	x := rf.term
	clear(x)
	x[1] = 1
	for i := 0; i < 64; i++ {
		rf.sqrMod(x)
	}
	x[1] ^= 1 // x^(2^64) − x
	for _, c := range x {
		if c != 0 {
			return false
		}
	}
	return true
}

// trace returns Tr(βx) mod q = Σ_{i<64} (βx)^(2^i) mod q for the loaded
// factor q. Its roots within q separate q's roots by their GF(2)-trace
// along direction β.
func (rf *rootFinder) trace(beta uint64) gf.Poly {
	term, acc := rf.term, rf.acc
	clear(term)
	term[1] = beta
	copy(acc, term)
	for i := 1; i < 64; i++ {
		rf.sqrMod(term)
		for j, c := range term {
			acc[j] ^= c
		}
	}
	return gf.PolyTrim(acc)
}
