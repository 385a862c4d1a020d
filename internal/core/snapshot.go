package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hierarchy"
)

// A scheme snapshot is the persistent form of one built construction: the
// graph, the sparsification hierarchy, and every vertex and edge label, in
// one versioned, little-endian layout. Snapshots are what let a scheme
// built once be loaded by a fleet of servers ("one build, many decoders")
// without re-running construction.
//
// Wire format, version 4 (all integers little-endian):
//
//	[6]byte  magic "FTCSNP"
//	u8       version (currently 4)
//	u32 n, u32 m
//	m × (u32 u, u32 v)          graph edges, insertion order, u < v
//	u64      token              scheme fingerprint (recomputed on load)
//	u32      maxFaults
//	u8 kind, u32 k, u32 levels, u32 reps, u32 buckets, u64 seed   (OutSpec)
//	u64      generation         (v2+; 0 for static schemes)
//	u32      auxSlack           (v2+; 0 for static schemes)
//	u32      hierarchy level count (0 for AGM)
//	  per level: u32 count, count × u32 ascending edge indices
//	(n+1) × u64                 vertex label offsets (first 0, non-decreasing)
//	bytes                       vertex label arena, MarshalVertexLabel forms
//	(m+1) × u64                 edge label offsets (first 0, non-decreasing)
//	bytes                       edge label arena, MarshalEdgeLabel forms
//
// Version 4 is version 3 with edge labels in the current label encoding
// (magic 'e'), whose Reed–Solomon levels carry k stored power sums each;
// versions 1–3 hold legacy 'E' labels with all 2k sums per level, which
// the label decoder converts (DESIGN.md §3.9). Version 3 replaced the
// per-label length-prefixed sections of versions 1 and 2 (n × (u32 len,
// len bytes), then m of the same) with the flat structure-of-arrays label
// arena above, so that loading is O(1) in label bytes: the reader
// validates the offsets tables, aliases the two arenas zero-copy, and
// decodes each label lazily when it is touched (see labelArena); v3 and v4
// both load that way. Version 1 is version 2 without the
// generation/auxSlack fields; both are still read, eagerly, via the
// original path. Whatever the version, a loaded label equals the label
// this build constructs for the same edge, so its marshaling is
// byte-identical to a fresh build's. Loading re-derives the spanning
// forest (deterministic from the graph) and re-verifies the token
// fingerprint against the graph, parameters, and generation, which
// rejects snapshots whose sections were corrupted independently; v3/v4
// label bytes are verified against that token on touch instead of at load
// time. Any future layout change must bump SnapshotVersion; old
// readers then fail with ErrSnapshotVersion instead of misparsing.

// snapshotMagic begins every scheme snapshot.
var snapshotMagic = [6]byte{'F', 'T', 'C', 'S', 'N', 'P'}

// SnapshotVersion is the wire-format version written by MarshalBinary.
// Version 4 stores k power sums per Reed–Solomon level in every edge
// label; version 3 introduced the lazy structure-of-arrays label arena;
// version 2 added the generation and auxSlack fields of the dynamic
// network extension. Versions 1–3 remain loadable.
const SnapshotVersion = 4

var (
	// ErrBadSnapshot is returned by UnmarshalScheme for malformed bytes.
	ErrBadSnapshot = errors.New("core: malformed scheme snapshot")
	// ErrSnapshotVersion is returned for a structurally sound header whose
	// version byte this build does not speak.
	ErrSnapshotVersion = errors.New("core: unsupported snapshot version")
)

// snapLimit caps the spec shape fields on load: large enough for any real
// construction (k and depth are polylog), small enough that Words() and the
// derived allocations cannot overflow or OOM on hostile input.
const snapLimit = 1 << 24

// MarshalBinary encodes the scheme as a self-contained snapshot at the
// current wire version (encoding.BinaryMarshaler). The output is sized
// exactly before anything is written, without decoding a label, and every
// label is appended in place, so the snapshot is one allocation. A scheme
// loaded lazily from a v4 snapshot copies its arenas verbatim — no label
// is decoded, and a v4 load→save round trip is byte-identical by
// construction; every other scheme, a v3-loaded one included, encodes
// each label, and the label codecs are deterministic, so both paths
// produce the same bytes for the same labels.
func (s *Scheme) MarshalBinary() ([]byte, error) {
	if s.g == nil {
		return nil, fmt.Errorf("core: scheme retains no graph; cannot snapshot")
	}
	g := s.g
	n, m := g.N(), g.M()
	verbatim := s.lazy != nil && !s.lazy.legacy

	size := len(snapshotMagic) + 1 + 4 + 4 + 8*m + // magic, version, n, m, edges
		8 + 4 + (1 + 4*4 + 8) + 8 + 4 + // token, fault budget, spec, generation, slack
		4 + 8*(n+1) + 8*(m+1) // hierarchy level count, both offsets tables
	if s.Hierarchy != nil {
		for _, level := range s.Hierarchy.Levels {
			size += 4 + 4*len(level)
		}
	}
	switch {
	case verbatim:
		size += len(s.lazy.vertBytes) + len(s.lazy.edgeBytes)
	case s.lazy != nil:
		// A v3 arena. A label that decodes has the one wire size of the
		// spec (see MaxEdgeLabelBits); one that does not encodes as a
		// bare header. The spec is trusted only as far as each label's
		// own extent, so a hostile one cannot size a huge buffer.
		size += n * vertexLabelLen
		per := edgeHeaderLen + 8*s.spec.Words()
		for e := 0; e < m; e++ {
			size += min(per, edgeHeaderLen+int(s.lazy.edgeOff[e+1]-s.lazy.edgeOff[e]))
		}
	default:
		size += n * vertexLabelLen
		for _, l := range s.edgeLabels {
			size += edgeLabelLen(l)
		}
	}

	b := make([]byte, 0, size)
	b = append(b, snapshotMagic[:]...)
	b = append(b, SnapshotVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(m))
	for _, e := range g.Edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.V))
	}
	b = binary.LittleEndian.AppendUint64(b, s.token)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.params.MaxFaults))
	b = append(b, byte(s.spec.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.spec.K))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.spec.Levels))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.spec.Reps))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.spec.Buckets))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.spec.Seed))
	b = binary.LittleEndian.AppendUint64(b, s.gen)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.params.AuxSlack))
	if s.Hierarchy == nil {
		b = binary.LittleEndian.AppendUint32(b, 0)
	} else {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Hierarchy.Levels)))
		for _, level := range s.Hierarchy.Levels {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(level)))
			for _, e := range level {
				b = binary.LittleEndian.AppendUint32(b, uint32(e))
			}
		}
	}

	if verbatim {
		a := s.lazy
		for _, off := range a.vertOff {
			b = binary.LittleEndian.AppendUint64(b, off)
		}
		b = append(b, a.vertBytes...)
		for _, off := range a.edgeOff {
			b = binary.LittleEndian.AppendUint64(b, off)
		}
		return append(b, a.edgeBytes...), nil
	}
	// Each section's offsets are reserved up front and backfilled as its
	// labels are appended.
	appendSoA := func(b []byte, count int, appendLabel func(b []byte, i int) []byte) []byte {
		offPos := len(b)
		b = append(b, make([]byte, 8*(count+1))...)
		start := len(b)
		for i := 0; i < count; i++ {
			b = appendLabel(b, i)
			binary.LittleEndian.PutUint64(b[offPos+8*(i+1):], uint64(len(b)-start))
		}
		return b
	}
	b = appendSoA(b, n, func(b []byte, v int) []byte { return appendVertexLabel(b, s.VertexLabel(v)) })
	b = appendSoA(b, m, func(b []byte, e int) []byte { return AppendEdgeLabel(b, s.EdgeLabel(e)) })
	return b, nil
}

// snapReader is a bounds-checked little-endian cursor over snapshot bytes.
type snapReader struct {
	b []byte
}

func (r *snapReader) fail(what string) error {
	return fmt.Errorf("%w: %s", ErrBadSnapshot, what)
}

func (r *snapReader) u8(what string) (byte, error) {
	if len(r.b) < 1 {
		return 0, r.fail("truncated at " + what)
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *snapReader) u32(what string) (uint32, error) {
	if len(r.b) < 4 {
		return 0, r.fail("truncated at " + what)
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *snapReader) u64(what string) (uint64, error) {
	if len(r.b) < 8 {
		return 0, r.fail("truncated at " + what)
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *snapReader) bytes(n int, what string) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, r.fail("truncated at " + what)
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v, nil
}

// count reads a u32 element count and verifies the remaining input can hold
// at least perItem bytes per element, so a hostile length prefix cannot
// force a huge allocation before the truncation is noticed.
func (r *snapReader) count(perItem int, what string) (int, error) {
	c, err := r.u32(what)
	if err != nil {
		return 0, err
	}
	if int64(c)*int64(perItem) > int64(len(r.b)) {
		return 0, r.fail(what + " count exceeds input")
	}
	return int(c), nil
}

// UnmarshalScheme decodes a snapshot produced by MarshalBinary. The loaded
// scheme answers every query the original did — VertexLabel, EdgeLabel,
// CompileFaults — without re-running construction, and its per-label
// marshalings are byte-identical to the original's. The spanning forest is
// re-derived (deterministically) from the graph; the token fingerprint is
// recomputed and must match the stored one.
func UnmarshalScheme(data []byte) (*Scheme, error) {
	r := &snapReader{b: data}
	magic, err := r.bytes(len(snapshotMagic), "magic")
	if err != nil {
		return nil, err
	}
	if string(magic) != string(snapshotMagic[:]) {
		return nil, r.fail("missing snapshot magic")
	}
	version, err := r.u8("version")
	if err != nil {
		return nil, err
	}
	if version < 1 || version > SnapshotVersion {
		return nil, fmt.Errorf("%w: got version %d, this build speaks 1..%d",
			ErrSnapshotVersion, version, SnapshotVersion)
	}

	nU, err := r.u32("vertex count")
	if err != nil {
		return nil, err
	}
	// Every vertex contributes at least a 4-byte label length prefix later.
	if int64(nU)*4 > int64(len(r.b)) {
		return nil, r.fail("vertex count exceeds input")
	}
	n := int(nU)
	m, err := r.count(8, "edge count")
	if err != nil {
		return nil, err
	}
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u, err := r.u32("edge endpoint")
		if err != nil {
			return nil, err
		}
		v, err := r.u32("edge endpoint")
		if err != nil {
			return nil, err
		}
		if u >= v {
			return nil, r.fail("edge endpoints not in canonical u < v order")
		}
		if v >= uint32(n) {
			return nil, r.fail("edge endpoint out of range")
		}
		if _, err := g.AddEdge(int(u), int(v)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	}

	token, err := r.u64("token")
	if err != nil {
		return nil, err
	}
	maxFaults, err := r.u32("fault budget")
	if err != nil {
		return nil, err
	}
	if maxFaults > snapLimit {
		return nil, r.fail("fault budget implausibly large")
	}
	var spec OutSpec
	kindByte, err := r.u8("scheme kind")
	if err != nil {
		return nil, err
	}
	spec.Kind = Kind(kindByte)
	switch spec.Kind {
	case KindDetNetFind, KindDetGreedy, KindRandRS, KindAGM:
	default:
		return nil, r.fail("unknown scheme kind")
	}
	fields := []struct {
		dst  *int
		name string
	}{
		{&spec.K, "threshold"},
		{&spec.Levels, "level count"},
		{&spec.Reps, "repetition count"},
		{&spec.Buckets, "bucket count"},
	}
	for _, fld := range fields {
		v, err := r.u32(fld.name)
		if err != nil {
			return nil, err
		}
		if v > snapLimit {
			return nil, r.fail(fld.name + " implausibly large")
		}
		*fld.dst = int(v)
	}
	seed, err := r.u64("seed")
	if err != nil {
		return nil, err
	}
	spec.Seed = int64(seed)
	var gen uint64
	auxSlack := 0
	if version >= 2 {
		if gen, err = r.u64("generation"); err != nil {
			return nil, err
		}
		slackU, err := r.u32("aux slack")
		if err != nil {
			return nil, err
		}
		if slackU > snapLimit {
			return nil, r.fail("aux slack implausibly large")
		}
		auxSlack = int(slackU)
	}

	hLevels, err := r.count(4, "hierarchy level count")
	if err != nil {
		return nil, err
	}
	var h *hierarchy.Hierarchy
	if spec.Kind == KindAGM {
		if hLevels != 0 {
			return nil, r.fail("AGM snapshot carries a hierarchy")
		}
	} else {
		if hLevels != spec.Levels {
			return nil, r.fail("hierarchy depth disagrees with spec")
		}
		h = &hierarchy.Hierarchy{Levels: make([][]int, hLevels)}
		for lvl := 0; lvl < hLevels; lvl++ {
			c, err := r.count(4, "hierarchy level size")
			if err != nil {
				return nil, err
			}
			if c == 0 {
				continue
			}
			level := make([]int, c)
			prev := -1
			for i := range level {
				e, err := r.u32("hierarchy edge index")
				if err != nil {
					return nil, err
				}
				if int(e) >= m || int(e) <= prev {
					return nil, r.fail("hierarchy edge indices not ascending in range")
				}
				prev = int(e)
				level[i] = int(e)
			}
			h.Levels[lvl] = level
		}
	}

	s := &Scheme{
		params: Params{
			MaxFaults: int(maxFaults),
			Kind:      spec.Kind,
			Seed:      spec.Seed,
			AGMReps:   spec.Reps,
			AuxSlack:  auxSlack,
		},
		token:     token,
		gen:       gen,
		spec:      spec,
		n:         n,
		g:         g,
		Forest:    graph.SpanningForest(g),
		Hierarchy: h,
	}

	if version >= 3 {
		arena := &labelArena{
			token:     token,
			gen:       gen,
			maxFaults: int(maxFaults),
			spec:      spec,
			legacy:    version == 3,
		}
		if arena.vertOff, arena.vertBytes, err = r.soaSection(n, "vertex"); err != nil {
			return nil, err
		}
		if arena.edgeOff, arena.edgeBytes, err = r.soaSection(m, "edge"); err != nil {
			return nil, err
		}
		if len(r.b) != 0 {
			return nil, r.fail("trailing bytes")
		}
		if s.computeToken(g) != token {
			return nil, r.fail("token fingerprint mismatch (graph and parameters disagree)")
		}
		arena.verts = make([]atomic.Pointer[VertexLabel], n)
		s.lazy = arena
		return s, nil
	}

	vertexLabels := make([]VertexLabel, n)
	for v := 0; v < n; v++ {
		c, err := r.count(1, "vertex label length")
		if err != nil {
			return nil, err
		}
		raw, err := r.bytes(c, "vertex label")
		if err != nil {
			return nil, err
		}
		vl, err := UnmarshalVertexLabel(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: vertex %d: %v", ErrBadSnapshot, v, err)
		}
		if vl.Token != token {
			return nil, r.fail("vertex label token disagrees with header")
		}
		vertexLabels[v] = vl
	}
	edgeLabels := make([]EdgeLabel, m)
	for e := 0; e < m; e++ {
		c, err := r.count(1, "edge label length")
		if err != nil {
			return nil, err
		}
		raw, err := r.bytes(c, "edge label")
		if err != nil {
			return nil, err
		}
		el, err := UnmarshalEdgeLabel(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrBadSnapshot, e, err)
		}
		if el.Token != token || el.MaxFaults != int(maxFaults) || el.Spec != spec {
			return nil, r.fail("edge label header disagrees with snapshot header")
		}
		edgeLabels[e] = el
	}
	if len(r.b) != 0 {
		return nil, r.fail("trailing bytes")
	}
	// The wire encoding omits the in-memory generation stamp; restore it so
	// that mixing a loaded scheme's labels with a different live generation
	// is classified as ErrStaleLabel rather than a bare mismatch.
	for v := range vertexLabels {
		vertexLabels[v].Gen = gen
	}
	for e := range edgeLabels {
		edgeLabels[e].Gen = gen
	}
	s.vertexLabels = vertexLabels
	s.edgeLabels = edgeLabels
	if s.computeToken(g) != token {
		return nil, r.fail("token fingerprint mismatch (graph and labels disagree)")
	}
	return s, nil
}

// soaSection reads one v3/v4 structure-of-arrays label section: count+1 u64
// offsets (first 0, non-decreasing) followed by an arena of exactly the
// final offset's bytes, returned as a zero-copy alias of the input. Every
// validation happens before the offsets allocation is sized, so a hostile
// table cannot force a huge allocation, and the per-slot extents are fully
// bounds-checked here so lazy decodes never re-validate them.
func (r *snapReader) soaSection(count int, what string) ([]uint64, []byte, error) {
	if int64(count+1)*8 > int64(len(r.b)) {
		return nil, nil, r.fail(what + " offsets table exceeds input")
	}
	off := make([]uint64, count+1)
	for i := range off {
		v, err := r.u64(what + " label offset")
		if err != nil {
			return nil, nil, err
		}
		if i == 0 && v != 0 {
			return nil, nil, r.fail(what + " offsets do not start at zero")
		}
		if i > 0 && v < off[i-1] {
			return nil, nil, r.fail(what + " offsets not non-decreasing")
		}
		off[i] = v
	}
	total := off[count]
	if total > uint64(len(r.b)) {
		return nil, nil, r.fail(what + " arena exceeds input")
	}
	arena, err := r.bytes(int(total), what+" label arena")
	if err != nil {
		return nil, nil, err
	}
	return off, arena, nil
}
