package core

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// Fuzz targets for the label unmarshalers: arbitrary bytes must never
// panic, and accepted inputs must re-marshal to the same bytes (canonical
// encoding); a legacy edge label re-marshals in the current encoding,
// which must be a fixed point. Under plain `go test` the seed corpus below
// runs as unit tests; `go test -fuzz=FuzzUnmarshalEdgeLabel ./internal/core`
// explores.

func FuzzUnmarshalVertexLabel(f *testing.F) {
	g := workload.Cycle(5)
	s, err := Build(g, Params{MaxFaults: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(MarshalVertexLabel(s.VertexLabel(0)))
	f.Add([]byte{})
	f.Add([]byte{0x56})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := UnmarshalVertexLabel(data)
		if err != nil {
			return
		}
		re := MarshalVertexLabel(l)
		if string(re) != string(data) {
			t.Fatalf("non-canonical encoding accepted: %x vs %x", data, re)
		}
	})
}

func FuzzUnmarshalEdgeLabel(f *testing.F) {
	g := workload.Cycle(5)
	s, err := Build(g, Params{MaxFaults: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(MarshalEdgeLabel(s.EdgeLabel(0)))
	f.Add([]byte{})
	f.Add([]byte{0x45, 1, 2, 3})
	f.Add(legacyEdgeBytes(f, "det-netfind-2level", twoLevelEdge))
	f.Add(legacyEdgeBytes(f, "agm", 0))
	f.Add(overflowingEdgeLabel(legacyEdgeMagic, KindDetNetFind))
	f.Add(overflowingEdgeLabel(edgeMagic, KindAGM))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := UnmarshalEdgeLabel(data)
		if err != nil {
			return
		}
		if len(l.Out) != l.Spec.Words() {
			t.Fatalf("decoded payload has %d words, spec wants %d", len(l.Out), l.Spec.Words())
		}
		re := MarshalEdgeLabel(l)
		if data[0] == edgeMagic {
			if !bytes.Equal(re, data) {
				t.Fatalf("non-canonical encoding accepted")
			}
			return
		}
		l2, err := UnmarshalEdgeLabel(re)
		if err != nil {
			t.Fatalf("converted legacy label does not decode: %v", err)
		}
		if !bytes.Equal(MarshalEdgeLabel(l2), re) {
			t.Fatalf("legacy conversion is not a fixed point")
		}
	})
}

// FuzzDecodeOutgoing feeds arbitrary syndromes to the Reed–Solomon level
// decoder: any input must produce either a clean result or an error — never
// a panic.
func FuzzDecodeOutgoing(f *testing.F) {
	spec := OutSpec{Kind: KindDetNetFind, K: 3, Levels: 2}
	good := make([]uint64, spec.Words())
	f.Add(encodeWords(good))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := decodeWords(data, spec.Words())
		_, _ = spec.DecodeOutgoing(words, spec.K)
	})
}

func encodeWords(ws []uint64) []byte {
	out := make([]byte, 8*len(ws))
	for i, w := range ws {
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(w >> (8 * b))
		}
	}
	return out
}

func decodeWords(data []byte, count int) []uint64 {
	out := make([]uint64, count)
	for i := 0; i < count; i++ {
		var w uint64
		for b := 0; b < 8; b++ {
			idx := 8*i + b
			if idx < len(data) {
				w |= uint64(data[idx]) << (8 * b)
			}
		}
		out[i] = w
	}
	return out
}
