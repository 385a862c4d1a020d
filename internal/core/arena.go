package core

import (
	"encoding/binary"
	"sync/atomic"
)

// labelArena is the lazy backing store of a loaded snapshot: the two
// structure-of-arrays label sections — an offsets table plus one
// contiguous byte arena per label kind. A version-3, -4 or -5 snapshot
// stores them in this form and the arena aliases its bytes zero-copy; the
// length-prefixed sections of versions 1 and 2 are copied into it. Loading
// decodes no label; a label is decoded when something asks for it.
//
// A version-5 edge slot is either a label in full, in its wire form, or a
// short label: the shortEdgeLen-byte preorder of the subdivision leaf x_e,
// from which Scheme.leafLabel rebuilds the whole label (the endpoints'
// vertex labels, the hierarchy levels that list the edge, the snapshot
// header). The slot's extent tells the two apart: a label in full is at
// least edgeHeaderLen bytes.
//
// Only vertex labels are cached. Every probed pair reads two of them, so a
// vertex label is decoded once, kept, and every later access is one atomic
// load; concurrent first touches may decode the same label twice, both
// decodes produce identical values and the CAS keeps exactly one, so the
// arena is safe from concurrent readers without locks. Edge labels are
// decoded (or rebuilt) afresh on every call and kept by no one but the
// caller: serving reads them only in a cache-miss compile (at most f
// labels), and a cache would pin every payload for the life of the
// process. The routing-table build reads only the edges' ancestry labels,
// through Scheme.EdgeEnds, which stops at the header.
//
// The token/generation safety checks happen at the touch: the snapshot
// header's token was already re-verified against the graph and parameters
// at load time, and each label's own stored token (plus fault budget and
// spec for edge labels) is checked against that header whenever the label
// is decoded. A label whose bytes are corrupt — or whose header disagrees
// — decodes to a poisoned label whose token matches neither the scheme
// token nor any other poisoned label, so every query that touches it fails
// fast with ErrLabelMismatch instead of answering from garbage; a short
// label is poisoned when either endpoint's vertex label is. The
// generation stamp, which the wire encoding omits, is restored on decode
// from the snapshot header, so mixing labels across generations is
// classified as ErrStaleLabel.
type labelArena struct {
	token     uint64
	gen       uint64
	maxFaults int
	spec      OutSpec
	// version is the snapshot's: only version 5 holds short slots, and
	// only a version-5 arena is copied verbatim into a snapshot.
	version byte

	// vertOff/edgeOff have n+1 and m+1 entries; label i's wire form is
	// bytes[off[i]:off[i+1]]. v3–v5 arenas alias the snapshot input.
	vertOff   []uint64
	vertBytes []byte
	edgeOff   []uint64
	edgeBytes []byte

	verts []atomic.Pointer[VertexLabel]
}

// shortEdgeLen is the extent of a short edge slot: x_e's u32 preorder.
const shortEdgeLen = 4

// maxShortWords caps the payload a short edge label may expand to, 8 MiB:
// a scheme with larger payloads stores every edge label in full, and a
// snapshot with a short slot and a larger spec is malformed. Without it, a
// hostile header could make each touch of a 4-byte slot allocate up to
// snapLimit² words; a label in full cannot, as its payload is in the input.
const maxShortWords = 1 << 20

// poisonToken derives the token of a failed lazy decode: distinct from the
// scheme token (top bit of the index space is untouched by real tokens only
// by accident, so the whole word is complemented) and distinct per label
// slot, so two poisoned labels can never validate against each other either.
// The low bit separates the vertex and edge poison spaces.
func (a *labelArena) poisonToken(idx int, edge bool) uint64 {
	t := ^a.token ^ (uint64(idx) << 1)
	if edge {
		t ^= 1
	}
	return t
}

func (a *labelArena) vertex(v int) VertexLabel {
	if p := a.verts[v].Load(); p != nil {
		return *p
	}
	l, err := UnmarshalVertexLabel(a.vertBytes[a.vertOff[v]:a.vertOff[v+1]])
	if err != nil || l.Token != a.token {
		l = VertexLabel{Token: a.poisonToken(v, false)}
	}
	l.Gen = a.gen
	a.verts[v].CompareAndSwap(nil, &l)
	return *a.verts[v].Load()
}

// short reports whether edge slot e is a short label and, if so, the
// preorder it stores.
func (a *labelArena) short(e int) (uint32, bool) {
	if a.version < 5 || a.edgeOff[e+1]-a.edgeOff[e] != shortEdgeLen {
		return 0, false
	}
	return binary.LittleEndian.Uint32(a.edgeBytes[a.edgeOff[e]:]), true
}

// edge decodes edge slot e, which holds a label in full; the result, Out
// included, is the caller's. With payload false it decodes the header
// only and the label has no Out, unless the slot is a legacy 'E' label
// (versions 1–3), whose validity depends on its payload.
func (a *labelArena) edge(e int, payload bool) EdgeLabel {
	b := a.edgeBytes[a.edgeOff[e]:a.edgeOff[e+1]]
	var l EdgeLabel
	var err error
	if payload || (len(b) > 0 && b[0] == legacyEdgeMagic) {
		l, err = UnmarshalEdgeLabel(b)
	} else {
		l, _, err = unmarshalEdgeHeader(b)
	}
	if err != nil || l.Token != a.token || l.MaxFaults != a.maxFaults || l.Spec != a.spec {
		return a.poisoned(e)
	}
	l.Gen = a.gen
	return l
}

// poisoned is the label a failed decode of edge slot e yields.
func (a *labelArena) poisoned(e int) EdgeLabel {
	return EdgeLabel{Token: a.poisonToken(e, true), Gen: a.gen}
}

// resident reports how many vertex labels have been decoded so far — an
// observability hook for the lazy-load tests.
func (a *labelArena) resident() (verts int) {
	for i := range a.verts {
		if a.verts[i].Load() != nil {
			verts++
		}
	}
	return verts
}

// shortEdges counts the edge slots stored short.
func (a *labelArena) shortEdges() int {
	count := 0
	for e := 0; e+1 < len(a.edgeOff); e++ {
		if _, ok := a.short(e); ok {
			count++
		}
	}
	return count
}
