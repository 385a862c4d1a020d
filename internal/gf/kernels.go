package gf

// The vector kernels of the Reed–Solomon decoder and of the power-sum
// builder. Each has two implementations with bit-identical results: the
// carry-less one (clmul_amd64.s), chosen once at start-up where the CPU has
// PCLMULQDQ, and the pure-Go one, which builds a window table per fixed
// multiplicand. Only this package knows which one runs.

// AddOddPowers XORs the odd powers α, α³, α⁵, …, α^(2·len(dst)−1) into dst:
// dst[j] ^= α^(2j+1). A zero alpha leaves dst unchanged.
func AddOddPowers(dst []uint64, alpha uint64) {
	if alpha == 0 {
		return
	}
	if useCLMUL {
		addOddPowersCLMUL(dst, alpha)
		return
	}
	addOddPowersGeneric(dst, alpha)
}

// addOddPowersGeneric is AddOddPowers on the pure-Go path. Consecutive odd
// powers differ by a factor α², whose window table is built once and reused
// across the whole chain.
func addOddPowersGeneric(dst []uint64, alpha uint64) {
	tab := newTable(Sqr(alpha))
	pow := alpha
	for j := range dst {
		dst[j] ^= pow
		pow = tab.mul(pow) // α^(2j+3) = α^(2j+1)·α²
	}
}

// Row is a fixed vector q of field elements prepared for repeated scaled
// additions into other vectors, dst[j] ^= c·q[j], each with its own c. The
// zero value is the empty row; Load prepares it for a vector and may be
// called again to reuse its memory.
type Row struct {
	q    []uint64
	tabs []table // the pure-Go path's window tables, one per element of q
}

// Load prepares r for q. r reads q until the next Load, so q must not change
// in between. On the pure-Go path Load builds one 4 KB window table per
// element of q, which every later AddScaled reuses.
func (r *Row) Load(q []uint64) {
	r.q = q
	if !useCLMUL {
		r.loadTables()
	}
}

func (r *Row) loadTables() {
	if cap(r.tabs) < len(r.q) {
		r.tabs = make([]table, len(r.q))
	}
	r.tabs = r.tabs[:len(r.q)]
	for j := range r.tabs {
		r.tabs[j] = newTable(r.q[j])
	}
}

// AddScaled XORs c·q[j] into dst[j] for every element q[j] of the loaded
// row. dst must be at least as long as the row.
func (r *Row) AddScaled(dst []uint64, c uint64) {
	dst = dst[:len(r.q)]
	if useCLMUL {
		addMulCLMUL(dst, r.q, c)
		return
	}
	r.addScaledTables(dst, c)
}

func (r *Row) addScaledTables(dst []uint64, c uint64) {
	for j := range r.tabs {
		dst[j] ^= r.tabs[j].mul(c)
	}
}

// addMul XORs c·src[j] into dst[j] for every j < len(src), without a
// prepared row: the polynomial arithmetic's inner loop, where the scalar
// changes on every call.
func addMul(dst, src []uint64, c uint64) {
	dst = dst[:len(src)]
	if useCLMUL {
		addMulCLMUL(dst, src, c)
		return
	}
	addMulGeneric(dst, src, c)
}

func addMulGeneric(dst, src []uint64, c uint64) {
	for j, s := range src {
		if s != 0 {
			dst[j] ^= mulGeneric(c, s)
		}
	}
}
