package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/wireclient"
	"repro/internal/workload"
)

func buildScheme(t testing.TB, n int, f int, seed int64) *ftc.Scheme {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
	s, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(f))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

// postJSON posts body as JSON and decodes a 200 response into a T; on any
// other status it returns the zero T.
func postJSON[T any](t *testing.T, url string, body any) (int, T) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func TestHandlerConnected(t *testing.T) {
	const n, f = 80, 3
	sch := buildScheme(t, n, f, 1)
	g := sch.Graph()
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		faults := workload.TreeEdgeFaults(g, sch.Inner().Forest, 1+rng.Intn(f), rng)
		req := serve.ConnectedRequest{}
		set := map[int]bool{}
		for i, e := range faults {
			set[e] = true
			// Exercise both client-side fault encodings.
			if i%2 == 0 {
				req.Faults = append(req.Faults, [2]int{g.Edges[e].U, g.Edges[e].V})
			} else {
				req.FaultEdges = append(req.FaultEdges, e)
			}
		}
		var want []bool
		for q := 0; q < 8; q++ {
			sv, tv := rng.Intn(n), rng.Intn(n)
			req.Pairs = append(req.Pairs, [2]int{sv, tv})
			want = append(want, graph.ConnectedUnder(g, set, sv, tv))
		}
		status, out := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", req)
		if status != http.StatusOK {
			t.Fatalf("trial %d: status %d", trial, status)
		}
		if len(out.Connected) != len(want) {
			t.Fatalf("trial %d: got %d answers, want %d", trial, len(out.Connected), len(want))
		}
		for i := range want {
			if out.Connected[i] != want[i] {
				t.Fatalf("trial %d pair %d: got %v, want %v", trial, i, out.Connected[i], want[i])
			}
		}
		// The same failure event probed again must hit the cache.
		status, out = postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", req)
		if status != http.StatusOK || !out.CacheHit {
			t.Fatalf("trial %d: repeat probe missed the cache (status %d, hit %v)",
				trial, status, out.CacheHit)
		}
	}

	st := srv.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 || st.Probes == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

func TestHandlerErrors(t *testing.T) {
	sch := buildScheme(t, 40, 2, 3)
	ts := httptest.NewServer(serve.New(sch, 4).Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name   string
		req    serve.ConnectedRequest
		status int
	}{
		{"unknown edge", serve.ConnectedRequest{Faults: [][2]int{{0, 0}}, Pairs: [][2]int{{0, 1}}}, http.StatusBadRequest},
		{"vertex out of range", serve.ConnectedRequest{Pairs: [][2]int{{0, 4000}}}, http.StatusBadRequest},
		{"fault index out of range", serve.ConnectedRequest{FaultEdges: []int{1 << 20}, Pairs: [][2]int{{0, 1}}}, http.StatusUnprocessableEntity},
		{"over fault budget", serve.ConnectedRequest{FaultEdges: []int{0, 1, 2, 3, 4}, Pairs: [][2]int{{0, 1}}}, http.StatusUnprocessableEntity},
	} {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(ts.URL+"/connected", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	resp, err := http.Post(ts.URL+"/connected", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	var hz serve.Healthz
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.N != 40 || hz.MaxFaults != 2 {
		t.Errorf("healthz: %+v", hz)
	}
}

// TestInvalidFaultSetsDoNotPolluteCache: malformed failure events (over
// budget, out of range) must be rejected before the LRU is touched, so a
// stream of bad requests can never evict compiled valid fault sets.
func TestInvalidFaultSetsDoNotPolluteCache(t *testing.T) {
	sch := buildScheme(t, 40, 2, 9)
	srv := serve.New(sch, 2)
	if _, _, err := srv.FaultSet([]int{0, 1}); err != nil {
		t.Fatalf("valid fault set: %v", err)
	}
	if _, _, err := srv.FaultSet([]int{0, 1, 2}); !errors.Is(err, ftc.ErrTooManyFaults) {
		t.Fatalf("over-budget fault set: got %v, want ErrTooManyFaults", err)
	}
	if _, _, err := srv.FaultSet([]int{sch.M() + 5}); err == nil {
		t.Fatal("out-of-range fault edge accepted")
	}
	// Duplicates of one edge collapse below the budget and stay valid.
	if _, _, err := srv.FaultSet([]int{3, 3, 3}); err != nil {
		t.Fatalf("duplicated single fault: %v", err)
	}
	st := srv.Stats()
	if st.CacheSize != 2 || st.CacheMisses != 2 {
		t.Fatalf("invalid events touched the cache: %+v", st)
	}
	if _, hit, err := srv.FaultSet([]int{1, 0, 0}); err != nil || !hit {
		t.Fatalf("canonicalized valid event no longer cached (hit=%v err=%v)", hit, err)
	}
}

// TestFaultSetLRUConcurrent hammers the FaultSet cache from many goroutines
// with overlapping failure events and a deliberately tiny capacity, so that
// hits, misses, evictions, recompiles, and shared sync.Once compilations all
// interleave. Run under -race in CI; every answer is checked against the
// BFS oracle.
func TestFaultSetLRUConcurrent(t *testing.T) {
	const (
		n          = 150
		f          = 3
		events     = 10
		cacheCap   = 3 // far fewer than events: constant eviction churn
		goroutines = 12
		iters      = 60
	)
	sch := buildScheme(t, n, f, 5)
	g := sch.Graph()
	srv := serve.New(sch, cacheCap)

	// Overlapping failure events: consecutive events share edges, so
	// distinct cache keys probe shared FaultSet internals.
	rng := rand.New(rand.NewSource(6))
	base := workload.TreeEdgeFaults(g, sch.Inner().Forest, events+f, rng)
	faultSets := make([][]int, events)
	oracle := make([]map[int]bool, events)
	for i := range faultSets {
		faultSets[i] = append([]int(nil), base[i:i+f]...)
		oracle[i] = workload.FaultSet(faultSets[i])
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + worker)))
			for it := 0; it < iters; it++ {
				ev := wrng.Intn(events)
				sv, tv := wrng.Intn(n), wrng.Intn(n)
				want := graph.ConnectedUnder(g, oracle[ev], sv, tv)
				if worker%4 == 0 {
					// A quarter of the load arrives over HTTP.
					body, _ := json.Marshal(serve.ConnectedRequest{
						FaultEdges: faultSets[ev],
						Pairs:      [][2]int{{sv, tv}},
					})
					resp, err := http.Post(ts.URL+"/connected", "application/json", bytes.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					var out serve.ConnectedResponse
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if len(out.Connected) != 1 || out.Connected[0] != want {
						errc <- fmt.Errorf("worker %d: http probe event %d (%d,%d): got %v, want %v",
							worker, ev, sv, tv, out.Connected, want)
						return
					}
					continue
				}
				fs, _, err := srv.FaultSet(faultSets[ev])
				if err != nil {
					errc <- fmt.Errorf("worker %d: FaultSet: %w", worker, err)
					return
				}
				got, err := fs.Connected(sch.VertexLabel(sv), sch.VertexLabel(tv))
				if err != nil {
					errc <- fmt.Errorf("worker %d: probe: %w", worker, err)
					return
				}
				if got != want {
					errc <- fmt.Errorf("worker %d: event %d (%d,%d): got %v, want %v",
						worker, ev, sv, tv, got, want)
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
	st := srv.Stats()
	if st.CacheSize > cacheCap {
		t.Fatalf("cache grew past capacity: %+v", st)
	}
	if st.CacheMisses < uint64(events) {
		t.Fatalf("expected at least one miss per event: %+v", st)
	}
}

// TestServeLazilyLoadedSnapshot serves the checked-in v3 snapshot fixture
// the way `ftcserve -snapshot` does — ftc.LoadBytes (labels decoded lazily
// from the arena on first probe) handed straight to serve.New — and checks
// both surfaces against BFS on the fixture's graph.
func TestServeLazilyLoadedSnapshot(t *testing.T) {
	data, err := os.ReadFile("../../testdata/golden_v3.ftcsnap")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := ftc.LoadBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	g := sch.Graph()
	srv := serve.New(sch, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl, err := wireclient.Dial(binListener(t, srv), wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var pairs [][2]int
	for s := 0; s < g.N(); s++ {
		for u := s + 1; u < g.N(); u++ {
			pairs = append(pairs, [2]int{s, u})
		}
	}
	// The fixture is a Petersen graph (3-edge-connected) plus a pendant
	// path, so only the path's edges — the last two — disconnect anything
	// within the f=2 budget: the first event cuts one, the rest are seeded.
	events := [][]int{{g.M() - 1}}
	rng := rand.New(rand.NewSource(3))
	for len(events) < 6 {
		events = append(events, rng.Perm(g.M())[:len(events)%(sch.MaxFaults()+1)])
	}
	disconnected := 0
	for _, faults := range events {
		status, out := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", serve.ConnectedRequest{FaultEdges: faults, Pairs: pairs})
		if status != http.StatusOK {
			t.Fatalf("faults %v: /connected status %d", faults, status)
		}
		bin, err := cl.Probe(faults, pairs)
		if err != nil {
			t.Fatalf("faults %v: OpProbe: %v", faults, err)
		}
		set := workload.FaultSet(faults)
		for i, p := range pairs {
			want := graph.ConnectedUnder(g, set, p[0], p[1])
			if out.Connected[i] != want || bin[i] != want {
				t.Fatalf("faults %v pair %v: json %v, bin %v, BFS %v", faults, p, out.Connected[i], bin[i], want)
			}
			if !want {
				disconnected++
			}
		}
	}
	if disconnected == 0 {
		t.Fatal("no fault set disconnected any pair; the test only checked true answers")
	}
}
