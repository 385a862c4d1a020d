package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
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

// BenchmarkServerFaultSetWarm measures the probe-layer hot path alone —
// the per-probe cost the sharded cache is designed around: one cache stab
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
