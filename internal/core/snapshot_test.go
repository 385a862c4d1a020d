package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/ancestry"
	"repro/internal/graph"
	"repro/internal/workload"
)

// snapshotKinds is one small build per scheme kind, shared by the
// round-trip tests. AGM uses full-support repetitions so connectivity
// comparisons cannot hit the whp failure mode.
func snapshotKinds(t *testing.T, g *graph.Graph, f int) map[string]*Scheme {
	t.Helper()
	out := map[string]*Scheme{}
	for name, p := range map[string]Params{
		"det-netfind": {MaxFaults: f, Kind: KindDetNetFind},
		"det-greedy":  {MaxFaults: f, Kind: KindDetGreedy},
		"rand-rs":     {MaxFaults: f, Kind: KindRandRS, Seed: 11},
		"agm":         {MaxFaults: f, Kind: KindAGM, Seed: 11, AGMReps: 4 * f * 6},
	} {
		s, err := Build(g, p)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = s
	}
	return out
}

func TestSnapshotRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.ErdosRenyi(60, 0.08, true, rng)
	const f = 3
	for name, s := range snapshotKinds(t, g, f) {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		// Per-label marshalings must be byte-identical.
		for v := 0; v < g.N(); v++ {
			if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
				t.Fatalf("%s: vertex %d label differs after round trip", name, v)
			}
		}
		for e := 0; e < g.M(); e++ {
			if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabel(e)), MarshalEdgeLabel(loaded.EdgeLabel(e))) {
				t.Fatalf("%s: edge %d label differs after round trip", name, e)
			}
		}
		// Snapshot of the loaded scheme must reproduce the original bytes
		// (the canonical-encoding property the fuzz target also enforces).
		data2, err := loaded.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("%s: snapshot is not canonical: re-marshal differs", name)
		}
		// Scheme metadata survives.
		if loaded.Spec() != s.Spec() || loaded.Token() != s.Token() ||
			loaded.MaxFaults() != s.MaxFaults() || loaded.N() != s.N() {
			t.Fatalf("%s: scheme metadata differs after round trip", name)
		}
		// Connected answers match the original scheme and the BFS oracle.
		qrng := rand.New(rand.NewSource(17))
		for q := 0; q < 200; q++ {
			faults := workload.TreeEdgeFaults(g, s.Forest, 1+qrng.Intn(f), qrng)
			fl := make([]EdgeLabel, len(faults))
			for i, e := range faults {
				fl[i] = loaded.EdgeLabel(e)
			}
			sv, tv := qrng.Intn(g.N()), qrng.Intn(g.N())
			got, err := Connected(loaded.VertexLabel(sv), loaded.VertexLabel(tv), fl)
			if err != nil {
				t.Fatalf("%s: query on loaded scheme: %v", name, err)
			}
			if want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv); got != want {
				t.Fatalf("%s: loaded scheme answered %v, oracle says %v", name, got, want)
			}
		}
	}
}

func TestSnapshotTreeOnlyAndEmptyGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", workload.Caterpillar(6, 2)},
		{"empty", graph.New(0)},
		{"isolated", graph.New(5)},
	} {
		s, err := Build(tc.g, Params{MaxFaults: 2})
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		if loaded.N() != tc.g.N() || loaded.Graph().M() != tc.g.M() {
			t.Fatalf("%s: wrong shape after load", tc.name)
		}
	}
}

// TestLazyArenaCorruptLabelFailsClosed flips bits inside the v3 label
// arena: the load itself still succeeds (label bytes are lazily decoded by
// design), but every query that touches a corrupted label must fail with
// ErrLabelMismatch — never panic, and never answer from garbage.
func TestLazyArenaCorruptLabelFailsClosed(t *testing.T) {
	g := workload.Petersen()
	s, err := Build(g, Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalScheme(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt two label slots in place through the zero-copy alias, before
	// either is touched: the magic byte of the last edge label (decode
	// failure) and the stored token of vertex 1 (header disagreement).
	// Payload-word corruption is undetectable by construction — labels
	// carry no checksum in any wire version — so the fail-closed promise is
	// specifically about structurally bad or mis-tokened label bytes.
	a := loaded.lazy
	a.edgeBytes[a.edgeOff[g.M()-1]] ^= 0xFF
	a.vertBytes[a.vertOff[1]+1] ^= 0xFF
	lastEdge := loaded.EdgeLabel(g.M() - 1)
	if lastEdge.Token == loaded.Token() {
		t.Fatal("corrupt edge label decoded with a valid token")
	}
	badVert := loaded.VertexLabel(1)
	if badVert.Token == loaded.Token() {
		t.Fatal("corrupt vertex label decoded with a valid token")
	}
	if lastEdge.Token == badVert.Token {
		t.Fatal("distinct corrupt label slots share a poison token")
	}
	if _, err := Connected(loaded.VertexLabel(0), loaded.VertexLabel(2), []EdgeLabel{lastEdge}); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("query over corrupt edge label: got %v, want ErrLabelMismatch", err)
	}
	if _, err := Connected(loaded.VertexLabel(0), badVert, nil); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("query over corrupt vertex label: got %v, want ErrLabelMismatch", err)
	}
	// Uncorrupted labels in the same snapshot stay fully usable.
	if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(3)), MarshalVertexLabel(loaded.VertexLabel(3))) {
		t.Fatal("clean vertex label differs under a corrupted neighbor")
	}
	if ok, err := Connected(loaded.VertexLabel(0), loaded.VertexLabel(2), []EdgeLabel{loaded.EdgeLabel(0)}); err != nil {
		t.Fatalf("clean-label query failed: %v (connected=%v)", err, ok)
	}
}

// TestLegacySnapshotCorruptLabelFailsClosed: v1 and v2 snapshots load
// through the same lazy arena as v3 and v4, so a label with a corrupt
// token does not fail the load. It decodes to a poisoned label, every
// query that touches it fails with ErrLabelMismatch, and the clean labels
// of the same snapshot keep answering.
func TestLegacySnapshotCorruptLabelFailsClosed(t *testing.T) {
	s, err := Build(workload.Petersen(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	vertex0 := MarshalVertexLabel(s.VertexLabel(0))
	for _, version := range []byte{1, 2} {
		data := marshalLegacy(s, version)
		i := bytes.Index(data, vertex0)
		if i < 0 {
			t.Fatalf("v%d: vertex 0's label not found in the snapshot", version)
		}
		data[i+1] ^= 0xFF // the first byte of vertex 0's stored token
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("v%d: load with one corrupt label: %v", version, err)
		}
		if _, err := Connected(loaded.VertexLabel(0), loaded.VertexLabel(3), nil); !errors.Is(err, ErrLabelMismatch) {
			t.Fatalf("v%d: probe of the corrupt vertex: got %v, want ErrLabelMismatch", version, err)
		}
		ok, err := Connected(loaded.VertexLabel(1), loaded.VertexLabel(3), []EdgeLabel{loaded.EdgeLabel(0)})
		if err != nil || !ok {
			t.Fatalf("v%d: probe of two clean vertices: connected=%v, err=%v", version, ok, err)
		}
	}
}

// TestLazyArenaConcurrentFirstTouch races many goroutines into the same
// cold arena (run under -race in CI): every decode must agree with the
// built scheme's label.
func TestLazyArenaConcurrentFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := workload.ErdosRenyi(120, 0.06, true, rng)
	s, err := Build(g, Params{MaxFaults: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < g.M(); i++ {
				e := (i + w*7) % g.M()
				if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabel(e)), MarshalEdgeLabel(loaded.EdgeLabel(e))) {
					errc <- fmt.Errorf("worker %d: edge %d decode disagrees", w, e)
					return
				}
				v := (i + w*3) % g.N()
				if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
					errc <- fmt.Errorf("worker %d: vertex %d decode disagrees", w, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if _, verts := loaded.LazyLabels(); verts != g.N() {
		t.Fatalf("vertex labels not fully resident after touch-all (verts=%d)", verts)
	}
}

// TestLazyArenaKeepsNoEdgeLabel pins that a lazily loaded scheme retains
// no decoded edge label: two reads of one edge are equal on the wire, but
// each is a fresh decode whose payload shares no storage with the other.
func TestLazyArenaKeepsNoEdgeLabel(t *testing.T) {
	s, err := Build(workload.Petersen(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < loaded.Graph().M(); e++ {
		first, second := loaded.EdgeLabel(e), loaded.EdgeLabel(e)
		if !bytes.Equal(MarshalEdgeLabel(first), MarshalEdgeLabel(second)) {
			t.Fatalf("edge %d: two reads marshal differently", e)
		}
		if len(first.Out) == 0 || &first.Out[0] == &second.Out[0] {
			t.Fatalf("edge %d: two reads share their Out storage (len %d)", e, len(first.Out))
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	g := workload.Petersen()
	s, err := Build(g, Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalScheme(nil); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("nil input: got %v, want ErrBadSnapshot", err)
	}
	if _, err := UnmarshalScheme(data[:len(data)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := UnmarshalScheme(append(append([]byte(nil), data...), 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing byte: got %v, want ErrBadSnapshot", err)
	}

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := UnmarshalScheme(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic: got %v, want ErrBadSnapshot", err)
	}

	// A bumped version byte must fail with ErrSnapshotVersion — the
	// contract that makes silent wire-format drift impossible.
	bad = append([]byte(nil), data...)
	bad[len(snapshotMagic)] = SnapshotVersion + 1
	if _, err := UnmarshalScheme(bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version: got %v, want ErrSnapshotVersion", err)
	}

	// Flipping a bit in the token must be caught by the fingerprint check.
	tokenOff := len(snapshotMagic) + 1 + 4 + 4 + 8*g.M()
	bad = append([]byte(nil), data...)
	bad[tokenOff] ^= 1
	if _, err := UnmarshalScheme(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("token flip: got %v, want ErrBadSnapshot", err)
	}
}

// shortSchemes is one build per scheme kind, a det-netfind build whose
// hierarchy has two levels, and a dynamic scheme after incremental
// insertions and deletions: the schemes whose snapshots the short-label
// tests write.
func shortSchemes(t *testing.T) map[string]*Scheme {
	t.Helper()
	g := workload.ErdosRenyi(60, 0.08, true, rand.New(rand.NewSource(3)))
	out := snapshotKinds(t, g, 3)
	twoLevel, err := Build(workload.ErdosRenyi(32, 0.15, true, rand.New(rand.NewSource(1))),
		Params{MaxFaults: 2, Threshold: func(f, m int) int { return 4 }})
	if err != nil {
		t.Fatal(err)
	}
	if twoLevel.Spec().Levels != 2 {
		t.Fatalf("two-level scheme has %d levels", twoLevel.Spec().Levels)
	}
	out["det-netfind-2level"] = twoLevel
	rng := rand.New(rand.NewSource(4))
	d, err := NewDynamic(g.Clone(), Params{MaxFaults: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cur := d.Scheme()
		var batch []Update
		if u, v, ok := pickAddable(cur.Graph(), cur.Forest, rng); ok {
			batch = append(batch, Update{Add: true, U: u, V: v})
		}
		if i%2 == 1 {
			if u, v, ok := pickRemovable(cur.Graph(), cur.Forest, rng); ok {
				batch = append(batch, Update{U: u, V: v})
			}
		}
		rep, _, _, err := d.Commit(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Incremental {
			t.Fatalf("commit %d rebuilt: %s", i, rep.Reason)
		}
	}
	out["dynamic"] = d.Scheme()
	return out
}

// TestShortLabelsAreNonTreeEdges: a snapshot stores every non-tree edge's
// label short, since its payload is its own row on each level that lists
// it, which the writer rebuilds exactly — for every kind, a two-level
// hierarchy, and a dynamic scheme with inserted edges — and stores short
// only labels whose child is a leaf. A loaded label and its EdgeEnds equal
// the built scheme's, whichever form its slot has.
func TestShortLabelsAreNonTreeEdges(t *testing.T) {
	for name, s := range shortSchemes(t) {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		short := 0
		for e := 0; e < s.Graph().M(); e++ {
			l := s.EdgeLabel(e)
			pre, ok := loaded.lazy.short(e)
			if !s.Forest.IsTreeEdge[e] && !ok {
				t.Fatalf("%s: non-tree edge %d stored in full", name, e)
			}
			if ok {
				short++
				if pre != l.Child.Pre || l.Child.Post != l.Child.Pre {
					t.Fatalf("%s: edge %d stored short with preorder %d, child %+v", name, e, pre, l.Child)
				}
			}
			if !bytes.Equal(MarshalEdgeLabel(loaded.EdgeLabel(e)), MarshalEdgeLabel(l)) {
				t.Fatalf("%s: edge %d (short %v) differs after load", name, e, ok)
			}
			for _, sch := range []*Scheme{s, loaded} {
				if p, c := sch.EdgeEnds(e); p != l.Parent || c != l.Child {
					t.Fatalf("%s: edge %d EdgeEnds (%+v, %+v), label (%+v, %+v)", name, e, p, c, l.Parent, l.Child)
				}
			}
		}
		if short == 0 || loaded.lazy.shortEdges() != short {
			t.Fatalf("%s: %d short labels, arena counts %d", name, short, loaded.lazy.shortEdges())
		}
	}
}

// TestPerturbedNonTreePayloadStoredInFull flips one payload bit of a
// non-tree edge's label: the label no longer equals its rebuild, so the
// writer stores it in full, and it loads and re-saves unchanged while
// every other label is stored as it was.
func TestPerturbedNonTreePayloadStoredInFull(t *testing.T) {
	load := func(s *Scheme) ([]byte, *Scheme) {
		t.Helper()
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatal(err)
		}
		return data, loaded
	}
	for name, s := range shortSchemes(t) {
		e := slices.Index(s.Forest.IsTreeEdge, false)
		out := slices.Clone(s.EdgeLabel(e).Out)
		out[len(out)/2] ^= 1 << 7
		perturbed := *s
		perturbed.edgeLabels = slices.Clone(s.edgeLabels)
		perturbed.edgeLabels[e].Out = out
		_, clean := load(s)
		data, loaded := load(&perturbed)
		for f := 0; f < s.Graph().M(); f++ {
			_, was := clean.lazy.short(f)
			if _, ok := loaded.lazy.short(f); ok != (was && f != e) {
				t.Fatalf("%s: edge %d stored short %v, unperturbed %v (perturbed edge %d)", name, f, ok, was, e)
			}
		}
		if want := MarshalEdgeLabel(perturbed.EdgeLabel(e)); !bytes.Equal(MarshalEdgeLabel(loaded.EdgeLabel(e)), want) {
			t.Fatalf("%s: perturbed edge %d did not round-trip", name, e)
		}
		again, err := loaded.MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: re-saving the loaded scheme differs (err %v)", name, err)
		}
	}
}

// TestShortLabelCorruptionFailsClosed: a short label whose preorder is 0,
// or whose U or V endpoint's vertex label is corrupt, decodes poisoned, as
// does a label in full with a corrupt token; EdgeEnds reports zero
// ancestry labels for every one, as it does for a legacy label whose even
// power sum is not a square. Queries over a poisoned label fail with
// ErrLabelMismatch, and the other labels keep decoding.
func TestShortLabelCorruptionFailsClosed(t *testing.T) {
	s, err := Build(workload.Petersen(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var short []int
	full := -1
	probe, err := UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < s.Graph().M(); e++ {
		if _, ok := probe.lazy.short(e); ok {
			short = append(short, e)
		} else if full < 0 {
			full = e
		}
	}
	if len(short) < 3 || full < 0 {
		t.Fatalf("want three short labels and one in full, got %v and %d", short, full)
	}
	type corruption struct {
		name string
		edge int
		mess func(a *labelArena)
	}
	for _, c := range []corruption{
		{"short preorder 0", short[0], func(a *labelArena) {
			clear(a.edgeBytes[a.edgeOff[short[0]]:a.edgeOff[short[0]+1]])
		}},
		{"U endpoint's token", short[1], func(a *labelArena) {
			a.vertBytes[a.vertOff[s.Graph().Edges[short[1]].U]+1] ^= 0xFF
		}},
		{"V endpoint's token", short[2], func(a *labelArena) {
			a.vertBytes[a.vertOff[s.Graph().Edges[short[2]].V]+1] ^= 0xFF
		}},
		{"full label's token", full, func(a *labelArena) {
			a.edgeBytes[a.edgeOff[full]+1] ^= 0xFF
		}},
	} {
		loaded, err := UnmarshalScheme(bytes.Clone(data))
		if err != nil {
			t.Fatal(err)
		}
		c.mess(loaded.lazy)
		l := loaded.EdgeLabel(c.edge)
		if l.Token == loaded.Token() || l.Out != nil {
			t.Fatalf("%s: edge %d decoded with the scheme token", c.name, c.edge)
		}
		if p, ch := loaded.EdgeEnds(c.edge); p != (ancestry.Label{}) || ch != (ancestry.Label{}) {
			t.Fatalf("%s: EdgeEnds of a poisoned label = (%+v, %+v)", c.name, p, ch)
		}
		if _, err := Connected(loaded.VertexLabel(8), loaded.VertexLabel(9), []EdgeLabel{l}); !errors.Is(err, ErrLabelMismatch) {
			t.Fatalf("%s: query over the poisoned label: got %v, want ErrLabelMismatch", c.name, err)
		}
		for e := 0; e < s.Graph().M(); e++ {
			ends := s.Graph().Edges[e]
			if e == c.edge || loaded.VertexLabel(ends.U).Token != loaded.Token() || loaded.VertexLabel(ends.V).Token != loaded.Token() {
				continue
			}
			if !bytes.Equal(MarshalEdgeLabel(loaded.EdgeLabel(e)), MarshalEdgeLabel(s.EdgeLabel(e))) {
				t.Fatalf("%s: clean edge %d differs", c.name, e)
			}
		}
	}

	legacy := legacyV3(t, "det-netfind-2level")
	a := legacy.lazy
	k := legacy.Spec().K
	a.edgeBytes[int(a.edgeOff[twoLevelEdge])+edgeHeaderLen+8*(2*k+1)] ^= 0x10
	if p, ch := legacy.EdgeEnds(twoLevelEdge); p != (ancestry.Label{}) || ch != (ancestry.Label{}) {
		t.Fatalf("legacy label with a flipped even sum: EdgeEnds = (%+v, %+v)", p, ch)
	}
}

// TestSnapshotRejectsShortLabelUnderHugeSpec: a snapshot whose header
// claims a spec with more than maxShortWords payload words, with a forged
// token (the token is no secret), must not load while it holds a short
// label: each touch would allocate the claimed payload.
func TestSnapshotRejectsShortLabelUnderHugeSpec(t *testing.T) {
	s, err := Build(workload.Petersen(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hostile := *s
	hostile.spec.K = maxShortWords/s.spec.Levels + 1
	hostile.token = hostile.computeToken(s.g)
	tokenOff := len(snapshotMagic) + 1 + 4 + 4 + 8*s.g.M()
	binary.LittleEndian.PutUint64(data[tokenOff:], hostile.token)
	binary.LittleEndian.PutUint32(data[tokenOff+8+4+1:], uint32(hostile.spec.K))
	_, err = UnmarshalScheme(data)
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "short edge label") {
		t.Fatalf("short labels under a %d-word spec: got %v, want ErrBadSnapshot for the short labels", hostile.spec.Words(), err)
	}
}
