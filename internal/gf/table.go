package gf

// table is a precomputed multiplier for the pure-Go path: the 8-bit window
// table of a fixed field element α, built once and reused across many
// products α·b. mulGeneric uses a 4-bit window rebuilt on every call, which
// is the right trade-off for a single product but wasteful wherever one
// multiplicand is fixed — the odd-power chains of AddOddPowers (one table of
// α²) and the rows of a Row (one table per element). The carry-less path
// needs no tables.
//
// The zero value is the table of α = 0 (every product is 0).
type table struct {
	lo [256]uint64
	hi [256]uint64
}

// newTable returns the precomputed multiplier for alpha. The break-even
// point against mulGeneric is a handful of products.
func newTable(alpha uint64) table {
	var t table
	t.lo[1] = alpha
	for w := 2; w < 256; w += 2 {
		t.lo[w] = t.lo[w/2] << 1
		t.hi[w] = t.hi[w/2]<<1 | t.lo[w/2]>>63
		t.lo[w+1] = t.lo[w] ^ alpha
		t.hi[w+1] = t.hi[w]
	}
	return t
}

// mul returns α·b in GF(2^64), where α is the element the table was built
// for. Identical in result to Mul(α, b).
func (t *table) mul(b uint64) uint64 {
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
