package core_test

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/serve/genlog"
	"repro/internal/workload"
)

// goldenLogs are the generation logs of one fixed commit sequence on the
// Petersen graph (see the genlog golden tests): the current encoding, and
// the legacy one whose masks and added labels carry 2k power sums per
// Reed–Solomon level.
var goldenLogs = []string{
	"../serve/genlog/testdata/golden_genlog_v1_odd",
	"../serve/genlog/testdata/golden_genlog_v1",
}

// goldenBases replays that commit sequence and returns the primary's
// scheme at generations 1..4, the ones its records apply to.
func goldenBases(tb testing.TB) []*core.Scheme {
	tb.Helper()
	d, err := core.NewDynamic(workload.Petersen(), core.Params{MaxFaults: 2, Kind: core.KindDetNetFind})
	if err != nil {
		tb.Fatal(err)
	}
	bases := []*core.Scheme{d.Scheme()}
	for _, batch := range [][]core.Update{
		{{Add: true, U: 0, V: 2}, {Add: true, U: 1, V: 3}},
		{{U: 0, V: 2}, {Add: true, U: 4, V: 6}},
		nil, // the first tree edge's removal: a full rebuild
	} {
		if batch == nil {
			cur := d.Scheme()
			for e := 0; e < cur.Graph().M(); e++ {
				if cur.Forest.IsTreeEdge[e] {
					batch = []core.Update{{U: cur.Graph().Edges[e].U, V: cur.Graph().Edges[e].V}}
					break
				}
			}
		}
		_, _, s, err := d.Commit(batch)
		if err != nil {
			tb.Fatal(err)
		}
		bases = append(bases, s)
	}
	return bases
}

// FuzzApplyDelta replays arbitrary record payloads, seeded with every
// record of both golden logs, onto the golden run's schemes at every
// generation. ApplyDelta must fail with one of its sentinel errors or
// return a scheme whose every label carries the delta's token and
// generation and the base's spec, with a payload of spec.Words() words —
// never panic, and never a label that disagrees with the delta's token.
func FuzzApplyDelta(f *testing.F) {
	for _, path := range goldenLogs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A log is a 5-byte header, then records of u32 length, u32
		// checksum and the payload.
		for p := data[5:]; len(p) >= 8; {
			n := int(binary.LittleEndian.Uint32(p))
			f.Add(p[8 : 8+n])
			p = p[8+n:]
		}
	}
	bases := goldenBases(f)
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := genlog.DecodeDelta(payload)
		if err != nil {
			return
		}
		for _, base := range bases {
			_, s, err := core.ApplyDelta(base, d)
			if err != nil {
				if !errors.Is(err, core.ErrFullRebuild) && !errors.Is(err, core.ErrDeltaGap) && !errors.Is(err, core.ErrDeltaMismatch) {
					t.Fatalf("replay onto gen %d: unclassified error %v", base.Generation(), err)
				}
				continue
			}
			if s.Token() != d.Token || s.Generation() != d.Gen {
				t.Fatalf("replay yielded (%#x, gen %d) for a delta to (%#x, gen %d)", s.Token(), s.Generation(), d.Token, d.Gen)
			}
			for v := 0; v < s.N(); v++ {
				if l := s.VertexLabel(v); l.Token != d.Token || l.Gen != d.Gen {
					t.Fatalf("vertex %d label at (%#x, gen %d)", v, l.Token, l.Gen)
				}
			}
			spec := base.Spec()
			for e := 0; e < s.Graph().M(); e++ {
				l := s.EdgeLabel(e)
				if l.Token != d.Token || l.Gen != d.Gen || l.Spec != spec || len(l.Out) != spec.Words() {
					t.Fatalf("edge %d label at (%#x, gen %d) with spec %+v and %d words", e, l.Token, l.Gen, l.Spec, len(l.Out))
				}
			}
		}
	})
}
