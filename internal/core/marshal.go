package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ancestry"
)

// Labels are logically binary strings (§7.1); this file gives them a
// concrete wire form, which is also what the label-size experiments (E4)
// measure. Encoding is little-endian and versioned by a leading magic byte.

const (
	vertexMagic byte = 0x56 // 'V'
	// edgeMagic begins every edge label this build writes: each
	// Reed–Solomon level carries its k stored power sums (rs.Sketch).
	edgeMagic byte = 0x65 // 'e'
	// legacyEdgeMagic began the edge labels of earlier builds, whose
	// Reed–Solomon levels carried all 2k power sums S_1…S_2k.
	// UnmarshalEdgeLabel converts them (DESIGN.md §3.9).
	legacyEdgeMagic byte = 0x45 // 'E'
)

const (
	// vertexLabelLen is the wire size of every vertex label: magic, token
	// and one ancestry label.
	vertexLabelLen = 1 + 8 + 12
	// edgeHeaderLen is the fixed part of an edge label's wire form: magic,
	// token, fault budget, OutSpec, two ancestry labels and the payload
	// word count. The payload's 8-byte words follow.
	edgeHeaderLen = 1 + 8 + 4 + (1 + 4*4 + 8) + 2*12 + 4
)

// ErrBadLabel is returned by the unmarshalers for malformed bytes.
var ErrBadLabel = errors.New("core: malformed label encoding")

func putAnc(b []byte, l ancestry.Label) []byte {
	b = binary.LittleEndian.AppendUint32(b, l.Pre)
	b = binary.LittleEndian.AppendUint32(b, l.Post)
	b = binary.LittleEndian.AppendUint32(b, l.Root)
	return b
}

func getAnc(b []byte) (ancestry.Label, []byte, error) {
	if len(b) < 12 {
		return ancestry.Label{}, nil, fmt.Errorf("%w: short ancestry field", ErrBadLabel)
	}
	return ancestry.Label{
		Pre:  binary.LittleEndian.Uint32(b),
		Post: binary.LittleEndian.Uint32(b[4:]),
		Root: binary.LittleEndian.Uint32(b[8:]),
	}, b[12:], nil
}

// appendVertexLabel appends the vertexLabelLen-byte wire form of l to b.
func appendVertexLabel(b []byte, l VertexLabel) []byte {
	b = append(b, vertexMagic)
	b = binary.LittleEndian.AppendUint64(b, l.Token)
	return putAnc(b, l.Anc)
}

// MarshalVertexLabel encodes a vertex label.
func MarshalVertexLabel(l VertexLabel) []byte {
	return appendVertexLabel(make([]byte, 0, vertexLabelLen), l)
}

// UnmarshalVertexLabel decodes a vertex label.
func UnmarshalVertexLabel(b []byte) (VertexLabel, error) {
	if len(b) < 1 || b[0] != vertexMagic {
		return VertexLabel{}, fmt.Errorf("%w: missing vertex magic", ErrBadLabel)
	}
	b = b[1:]
	if len(b) < 8 {
		return VertexLabel{}, fmt.Errorf("%w: short token", ErrBadLabel)
	}
	var l VertexLabel
	l.Token = binary.LittleEndian.Uint64(b)
	var err error
	l.Anc, b, err = getAnc(b[8:])
	if err != nil {
		return VertexLabel{}, err
	}
	if len(b) != 0 {
		return VertexLabel{}, fmt.Errorf("%w: trailing bytes", ErrBadLabel)
	}
	return l, nil
}

// edgeLabelLen is the wire size of l.
func edgeLabelLen(l EdgeLabel) int { return edgeHeaderLen + 8*len(l.Out) }

// AppendEdgeLabel appends the wire form of l — the bytes MarshalEdgeLabel
// returns — to b. Writers that emit many labels (the snapshot writer, the
// generation log) size one buffer and append into it.
func AppendEdgeLabel(b []byte, l EdgeLabel) []byte {
	b = append(b, edgeMagic)
	b = binary.LittleEndian.AppendUint64(b, l.Token)
	b = binary.LittleEndian.AppendUint32(b, uint32(l.MaxFaults))
	b = append(b, byte(l.Spec.Kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(l.Spec.K))
	b = binary.LittleEndian.AppendUint32(b, uint32(l.Spec.Levels))
	b = binary.LittleEndian.AppendUint32(b, uint32(l.Spec.Reps))
	b = binary.LittleEndian.AppendUint32(b, uint32(l.Spec.Buckets))
	b = binary.LittleEndian.AppendUint64(b, uint64(l.Spec.Seed))
	b = putAnc(b, l.Parent)
	b = putAnc(b, l.Child)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(l.Out)))
	for _, w := range l.Out {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// MarshalEdgeLabel encodes an edge label, payload included.
func MarshalEdgeLabel(l EdgeLabel) []byte {
	return AppendEdgeLabel(make([]byte, 0, edgeLabelLen(l)), l)
}

// UnmarshalEdgeLabel decodes an edge label. A legacy label (magic 'E'),
// whose Reed–Solomon levels carry all 2k power sums, is converted level by
// level once every even sum is checked to be the square it must be
// (rs.OddSums); the result equals the label this build writes for the same
// edge, field for field. A label failing that check is ErrBadLabel.
func UnmarshalEdgeLabel(b []byte) (EdgeLabel, error) {
	l, payload, err := unmarshalEdgeHeader(b)
	if err != nil {
		return l, err
	}
	l.Out = make([]uint64, len(payload)/8)
	for i := range l.Out {
		l.Out[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	if len(l.Out) != l.Spec.Words() {
		var ok bool
		if l.Out, ok = l.Spec.fromLegacy(l.Out); !ok {
			return l, fmt.Errorf("%w: legacy payload has an even power sum that is not a square (S_2j ≠ S_j²)", ErrBadLabel)
		}
	}
	return l, nil
}

// unmarshalEdgeHeader decodes everything of an edge label but its payload:
// the header fields, and the payload's length checked against the spec
// (twice Words() for a legacy Reed–Solomon label) and against the bytes
// that follow, which it returns. A label it accepts fails to decode in
// UnmarshalEdgeLabel only by being a legacy label with an even power sum
// that is not a square.
func unmarshalEdgeHeader(b []byte) (EdgeLabel, []byte, error) {
	var l EdgeLabel
	if len(b) < 1 || (b[0] != edgeMagic && b[0] != legacyEdgeMagic) {
		return l, nil, fmt.Errorf("%w: missing edge magic", ErrBadLabel)
	}
	legacy := b[0] == legacyEdgeMagic
	b = b[1:]
	need := func(n int) error {
		if len(b) < n {
			return fmt.Errorf("%w: truncated edge label", ErrBadLabel)
		}
		return nil
	}
	if err := need(8 + 4 + 1 + 4 + 4 + 4 + 4 + 8); err != nil {
		return l, nil, err
	}
	l.Token = binary.LittleEndian.Uint64(b)
	b = b[8:]
	l.MaxFaults = int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	l.Spec.Kind = Kind(b[0])
	b = b[1:]
	for _, fld := range []*int{&l.Spec.K, &l.Spec.Levels, &l.Spec.Reps, &l.Spec.Buckets} {
		v := binary.LittleEndian.Uint32(b)
		b = b[4:]
		// Bounded like a snapshot's spec, so that Words() — a product of
		// these fields — cannot overflow into a small count.
		if v > snapLimit {
			return l, nil, fmt.Errorf("%w: spec field %d implausibly large", ErrBadLabel, v)
		}
		*fld = int(v)
	}
	l.Spec.Seed = int64(binary.LittleEndian.Uint64(b))
	b = b[8:]
	var err error
	l.Parent, b, err = getAnc(b)
	if err != nil {
		return l, nil, err
	}
	l.Child, b, err = getAnc(b)
	if err != nil {
		return l, nil, err
	}
	if err := need(4); err != nil {
		return l, nil, err
	}
	count := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	words := l.Spec.Words()
	if legacy && l.Spec.Kind != KindAGM {
		words *= 2
	}
	if count != words {
		return l, nil, fmt.Errorf("%w: payload length %d does not match spec %d", ErrBadLabel, count, words)
	}
	if err := need(8 * count); err != nil {
		return l, nil, err
	}
	if len(b) != 8*count {
		return l, nil, fmt.Errorf("%w: trailing bytes", ErrBadLabel)
	}
	return l, b, nil
}

// VertexLabelBits returns the wire size of a vertex label in bits.
const VertexLabelBits = 8 * vertexLabelLen

// EdgeLabelBits returns the wire size of an edge label in bits.
func EdgeLabelBits(l EdgeLabel) int { return 8 * edgeLabelLen(l) }

// MaxEdgeLabelBits returns the maximum edge-label size of the scheme — the
// paper's per-edge label-size metric. Every edge label of a scheme has the
// same wire size, the header plus spec.Words() payload words, so the
// answer needs no label; a lazily loaded scheme decodes none.
func (s *Scheme) MaxEdgeLabelBits() int {
	if s.g.M() == 0 {
		return 0
	}
	return 8 * (edgeHeaderLen + 8*s.spec.Words())
}
