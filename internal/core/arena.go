package core

import (
	"sync/atomic"
)

// labelArena is the lazy backing store of a version-3 or -4 snapshot: the
// two structure-of-arrays label sections — an offsets table plus one
// contiguous byte arena per label kind — aliased zero-copy from the
// snapshot bytes. Loading such a snapshot touches no label bytes; a label
// is decoded when something asks for it.
//
// Only vertex labels are cached. Every probed pair reads two of them, so a
// vertex label is decoded once, kept, and every later access is one atomic
// load; concurrent first touches may decode the same label twice, both
// decodes produce identical values and the CAS keeps exactly one, so the
// arena is safe from concurrent readers without locks. Edge labels are
// decoded afresh on every call and kept by no one but the caller: serving
// reads them only in a cache-miss compile (at most f labels) and in the
// once-per-generation routing-table build, and a cache would pin every
// payload for the life of the process.
//
// Lazy decode preserves the token/generation safety story of eager loading,
// just shifted to the touch: the snapshot header's token was already
// re-verified against the graph and parameters at load time, and each
// label's own stored token (plus fault budget and spec for edge labels) is
// checked against that header whenever the label is decoded. A label
// whose bytes are corrupt — or whose header disagrees — decodes to a
// poisoned label whose token matches neither the scheme token nor any other
// poisoned label, so every query that touches it fails fast with
// ErrLabelMismatch instead of answering from garbage. The generation stamp,
// which the wire encoding omits, is restored on decode exactly as the eager
// path restores it, so ErrStaleLabel classification across generations is
// unchanged.
type labelArena struct {
	token     uint64
	gen       uint64
	maxFaults int
	spec      OutSpec
	// legacy marks a version-3 arena: its edge labels carry 2k power
	// sums per level and decode converted, so their extents are not the
	// labels' wire sizes and the arena cannot be copied into a v4
	// snapshot.
	legacy bool

	// vertOff/edgeOff have n+1 and m+1 entries; label i's wire form is
	// bytes[off[i]:off[i+1]]. Both arenas alias the snapshot input.
	vertOff   []uint64
	vertBytes []byte
	edgeOff   []uint64
	edgeBytes []byte

	verts []atomic.Pointer[VertexLabel]
}

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

// edge decodes edge e's label; the result, Out included, is the caller's.
func (a *labelArena) edge(e int) EdgeLabel {
	l, err := UnmarshalEdgeLabel(a.edgeBytes[a.edgeOff[e]:a.edgeOff[e+1]])
	if err != nil || l.Token != a.token || l.MaxFaults != a.maxFaults || l.Spec != a.spec {
		l = EdgeLabel{Token: a.poisonToken(e, true)}
	}
	l.Gen = a.gen
	return l
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
