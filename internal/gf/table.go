package gf

// Table is a precomputed multiplier: the 8-bit window table of a fixed field
// element α, built once and reused across many products α·b. Mul uses a
// 4-bit window rebuilt on every call, which is the right trade-off for a
// single product but wasteful wherever one multiplicand is fixed — above all
// the Horner chains that evaluate power sums (α, α³, …, α^(2k−1), stepping
// by a table of α²) in internal/rs, where a single Table amortizes the
// (larger, 256-entry) window setup over the whole chain and halves the
// per-product window steps.
//
// The zero value is the table of α = 0 (every product is 0).
type Table struct {
	lo [256]uint64
	hi [256]uint64
}

// NewTable returns the precomputed multiplier for alpha. The break-even
// point against Mul is a handful of products; below that, call Mul.
func NewTable(alpha uint64) Table {
	var t Table
	t.lo[1] = alpha
	for w := 2; w < 256; w += 2 {
		t.lo[w] = t.lo[w/2] << 1
		t.hi[w] = t.hi[w/2]<<1 | t.lo[w/2]>>63
		t.lo[w+1] = t.lo[w] ^ alpha
		t.hi[w+1] = t.hi[w]
	}
	return t
}

// Mul returns α·b in GF(2^64), where α is the element the table was built
// for. Identical in result to Mul(α, b).
func (t *Table) Mul(b uint64) uint64 {
	var lo, hi uint64
	for i := 56; i >= 0; i -= 8 {
		if i != 56 {
			hi = hi<<8 | lo>>56
			lo <<= 8
		}
		w := (b >> uint(i)) & 0xFF
		lo ^= t.lo[w]
		hi ^= t.hi[w]
	}
	return reduce128(hi, lo)
}
