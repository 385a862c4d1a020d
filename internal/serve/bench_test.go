package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/workload"
)

// discardResponseWriter swallows the response so the benchmark measures
// the serving pipeline, not httptest's recorder bookkeeping.
type discardResponseWriter struct{ h http.Header }

func (w *discardResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(int)             {}

// BenchmarkHandleConnected measures the warm batch-probe pipeline at the
// handler level — JSON decode, canonicalize+hash, one cache stab, batch
// answer, JSON encode — with allocs/op as the tracked number. The pooled
// jsonScratch keeps the steady state at a handful of small allocations
// (the JSON decoder, the per-iteration request body plumbing) regardless
// of batch size; before the pooling it was one allocation per slice per
// request plus the encoder's buffer.
func BenchmarkHandleConnected(b *testing.B) {
	sch := buildScheme(b, 256, 3, 11)
	g := sch.Graph()
	srv := serve.New(sch, 64)
	h := srv.Handler()

	faults := workload.TreeEdgeFaults(g, sch.Inner().Forest, 3, rand.New(rand.NewSource(4)))
	req := serve.ConnectedRequest{FaultEdges: faults}
	for q := 0; q < 16; q++ {
		req.Pairs = append(req.Pairs, [2]int{(q * 7) % 256, (q * 13) % 256})
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the cache so every measured request is the steady state.
	warm := httptest.NewRequest(http.MethodPost, "/connected", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, warm)
	if rec.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", rec.Code, rec.Body.String())
	}

	proto := httptest.NewRequest(http.MethodPost, "/connected", http.NoBody)
	var w discardResponseWriter
	reader := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reader.Reset(body)
		r := proto.Clone(proto.Context())
		r.Body = io.NopCloser(reader)
		h.ServeHTTP(&w, r)
	}
}

// BenchmarkHandleFrame measures one warm batch-16 frame through the
// binary surface's HandleFrame in the benchmark's edge-hot shape: ER
// n = 1024, f = 3, 256 recurring tree-edge events of 1–3 faults, every
// event compiled before timing. The route frame plans and simulates 16
// forbidden-set routes; both frames should report 0 allocs/op.
func BenchmarkHandleFrame(b *testing.B) {
	const n, f, events, batches = 1024, 3, 256, 64
	sch := buildScheme(b, n, f, 1)
	g := sch.Graph()
	srv := serve.New(sch, 1024)
	rng := rand.New(rand.NewSource(7))
	evs := make([][]int, events)
	for i := range evs {
		evs[i] = wire.Canonicalize(workload.TreeEdgeFaults(g, sch.Inner().Forest, 1+rng.Intn(f), rng))
	}
	pairs := make([][][2]int, batches)
	for i := range pairs {
		for len(pairs[i]) < 16 {
			if s, t := rng.Intn(n), rng.Intn(n); s != t {
				pairs[i] = append(pairs[i], [2]int{s, t})
			}
		}
	}
	for _, bc := range []struct {
		name string
		op   byte
	}{{"probe", wire.OpProbe}, {"route", wire.OpRoute}} {
		b.Run(bc.name, func(b *testing.B) {
			payloads := make([][]byte, events)
			var sc serve.FrameScratch
			for i := range payloads {
				payloads[i] = wire.AppendRequest(nil, bc.op, uint64(i), 0, 0, evs[i], pairs[i%batches])[5:]
				if resp, fatal := srv.HandleFrame(&sc, bc.op, payloads[i]); fatal || resp[4] == wire.OpError {
					b.Fatalf("warmup frame %d rejected", i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp, fatal := srv.HandleFrame(&sc, bc.op, payloads[i%events]); fatal || resp[4] == wire.OpError {
					b.Fatalf("frame %d rejected", i)
				}
			}
		})
	}
}

// BenchmarkServerFaultSetWarm measures the probe-layer hot path alone —
// the per-probe cost the cache is designed around: one cache stab
// resolving the compiled FaultSet plus one zero-alloc Connected probe.
func BenchmarkServerFaultSetWarm(b *testing.B) {
	sch := buildScheme(b, 256, 3, 11)
	g := sch.Graph()
	srv := serve.New(sch, 64)
	faults := workload.TreeEdgeFaults(g, sch.Inner().Forest, 3, rand.New(rand.NewSource(4)))
	if _, _, err := srv.FaultSet(faults); err != nil {
		b.Fatal(err)
	}
	s, t := sch.VertexLabel(0), sch.VertexLabel(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, _, err := srv.FaultSet(faults)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fs.Connected(s, t); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateSweepAllMove measures how long one update sweep holds the
// cache lock over a full cache whose every entry moves: each commit report
// shifts every edge index (up by one, then back down), so every compiled
// two-edge event is remapped, rebased and re-homed under a new key. ns/op
// is the longest a probe arriving mid-sweep waits for the lock.
func BenchmarkUpdateSweepAllMove(b *testing.B) {
	sch := buildScheme(b, 256, 3, 11)
	up, down := make([]int, sch.Graph().M()+1), make([]int, sch.Graph().M()+1)
	for e := range up {
		up[e], down[e] = e+1, e-1
	}
	for _, entries := range []int{256, 4096} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			srv := serve.New(sch, entries)
			for k := 0; k < entries; k++ {
				if _, _, err := srv.FaultSet([]int{k / 64, 64 + k%64}); err != nil {
					b.Fatal(err)
				}
			}
			gen := sch.Generation()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gen++
				remap := up
				if i%2 == 1 {
					remap = down
				}
				rep := &core.CommitReport{Gen: gen, Token: 1, Incremental: true, Remap: remap}
				if evicted, rebased := srv.ApplyReplicatedCommit(rep); evicted != 0 || rebased != entries {
					b.Fatalf("sweep %d: evicted=%d rebased=%d, want 0/%d", i, evicted, rebased, entries)
				}
			}
		})
	}
}
