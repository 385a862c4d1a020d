package ftc

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Snapshot persistence: a built scheme can be written once and loaded by
// any number of decoder processes ("one build, many decoders" — the fleet
// pattern cmd/ftcserve serves). The wire format is the versioned binary
// layout of internal/core (DESIGN.md §3.9); per-label encodings inside the
// snapshot are exactly MarshalVertexLabel / MarshalEdgeLabel.

// Re-exported snapshot sentinel errors; test with errors.Is.
var (
	// ErrBadSnapshot: the bytes are not a well-formed scheme snapshot.
	ErrBadSnapshot = core.ErrBadSnapshot
	// ErrSnapshotVersion: a well-formed header with a version byte this
	// build does not speak.
	ErrSnapshotVersion = core.ErrSnapshotVersion
)

// Save writes a versioned binary snapshot of the scheme: graph, hierarchy,
// and every label. Load restores it without re-running construction.
func (s *Scheme) Save(w io.Writer) error {
	data, err := s.inner.MarshalBinary()
	if err != nil {
		return fmt.Errorf("ftc: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("ftc: writing snapshot: %w", err)
	}
	return nil
}

// LoadedScheme is a scheme restored from a snapshot. It supports the full
// read-side API of Scheme — VertexLabel, EdgeLabel, Stats, and producing
// labels for NewFaultSet — and its per-label marshalings are byte-identical
// to those of the scheme that was saved.
//
// A scheme loaded from a current-format (v4) or v3 snapshot is lazy: the
// label sections are aliased zero-copy, so loading is O(1) in label bytes
// and a serving replica only ever pays for the labels its traffic actually
// probes. A vertex label is decoded the first time it is touched and
// retained; an edge label is decoded on every read and not retained.
// Laziness is invisible to the API — labels, queries, and marshalings are
// identical to an eager load — and concurrent touches are safe.
type LoadedScheme struct {
	Scheme
}

// Load reads a snapshot written by Save and restores the scheme without
// re-running construction. It verifies the magic, version, and token
// fingerprint, and fails with ErrBadSnapshot / ErrSnapshotVersion rather
// than returning a scheme that answers queries differently from the one
// saved.
//
// Load buffers the whole stream first; when the snapshot is already in
// memory (or memory-mapped), LoadBytes skips that copy.
func Load(r io.Reader) (*LoadedScheme, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ftc: reading snapshot: %w", err)
	}
	return LoadBytes(data)
}

// LoadBytes is Load over an in-memory snapshot, without copying it. For a
// v3 or v4 snapshot the returned scheme's label arena aliases data, so the
// caller must not modify data for the lifetime of the scheme; this is what
// makes loading O(1) in label bytes (cmd/ftcserve reads the snapshot file
// with os.ReadFile and hands it straight here).
func LoadBytes(data []byte) (*LoadedScheme, error) {
	inner, err := core.UnmarshalScheme(data)
	if err != nil {
		return nil, fmt.Errorf("ftc: %w", err)
	}
	return &LoadedScheme{Scheme{g: inner.Graph(), inner: inner}}, nil
}
