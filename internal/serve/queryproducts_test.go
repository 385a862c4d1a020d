package serve_test

import (
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/products"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
	"repro/internal/workload"
)

func TestHandlerRouteExact(t *testing.T) {
	const n, f = 80, 3
	sch := buildScheme(t, n, f, 11)
	g := sch.Graph()
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		faults := workload.TreeEdgeFaults(g, sch.Inner().Forest, 1+rng.Intn(f), rng)
		set := workload.FaultSet(faults)
		req := serve.RouteRequest{FaultEdges: faults}
		for q := 0; q < 6; q++ {
			req.Pairs = append(req.Pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		req.Pairs = append(req.Pairs, [2]int{5, 5}) // s == t leg
		status, out := postJSON[serve.RouteResponse](t, ts.URL+"/route", req)
		if status != http.StatusOK {
			t.Fatalf("trial %d: status %d", trial, status)
		}
		if out.Confidence != serve.ConfidenceExact || out.Generation != sch.Generation() {
			t.Fatalf("trial %d: confidence %q gen %d", trial, out.Confidence, out.Generation)
		}
		if len(out.Routes) != len(req.Pairs) {
			t.Fatalf("trial %d: %d legs for %d pairs", trial, len(out.Routes), len(req.Pairs))
		}
		for i, p := range req.Pairs {
			want := graph.ConnectedUnder(g, set, p[0], p[1])
			leg := out.Routes[i]
			if leg.Reachable != want {
				t.Fatalf("trial %d leg %d (%d,%d): reachable %v, want %v", trial, i, p[0], p[1], leg.Reachable, want)
			}
			if leg.Reachable {
				if err := graph.CheckPathUnder(g, set, leg.Path, p[0], p[1]); err != nil {
					t.Fatalf("trial %d leg %d: %v", trial, i, err)
				}
			} else if leg.Path != nil {
				t.Fatalf("trial %d leg %d: unreachable leg carries a path %v", trial, i, leg.Path)
			}
		}
		// The same forbidden set planned again must hit the shared cache.
		if status, warm := postJSON[serve.RouteResponse](t, ts.URL+"/route", req); status != http.StatusOK || !warm.CacheHit {
			t.Fatalf("trial %d: warm route missed the cache", trial)
		}
	}
	st := srv.Stats()
	if st.RoutePlans == 0 || st.ApproxAnswers != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRouteSharesConnectedCache pins the namespace design: /route and
// /connected compile the same fault set once — whichever runs second sees
// a cache hit.
func TestRouteSharesConnectedCache(t *testing.T) {
	sch := buildScheme(t, 60, 3, 13)
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := serve.ConnectedRequest{FaultEdges: []int{1, 4}, Pairs: [][2]int{{0, 9}}}
	if status, out := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", req); status != http.StatusOK || out.CacheHit {
		t.Fatalf("cold probe: status %d hit %v", status, out.CacheHit)
	}
	rreq := serve.RouteRequest{FaultEdges: []int{4, 1, 1}, Pairs: [][2]int{{0, 9}}}
	status, rout := postJSON[serve.RouteResponse](t, ts.URL+"/route", rreq)
	if status != http.StatusOK {
		t.Fatalf("route status %d", status)
	}
	if !rout.CacheHit {
		t.Fatal("route after probe of the same fault set missed the shared cache")
	}
}

func TestHandlerRouteDegraded(t *testing.T) {
	const n, f = 80, 3
	sch := buildScheme(t, n, f, 14)
	g := sch.Graph()
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(15))
	// Over budget: random edges plus every edge of vertex 3, which cuts 3
	// off, so the batch has unreachable legs as well as reachable ones.
	faults := workload.RandomFaults(g, 2*f, rng)
	for _, h := range g.Adj(3) {
		faults = append(faults, h.Edge)
	}
	faults = wire.Canonicalize(faults)
	set := workload.FaultSet(faults)
	req := serve.RouteRequest{FaultEdges: faults}
	for q := 0; q < 10; q++ {
		req.Pairs = append(req.Pairs, [2]int{rng.Intn(n), rng.Intn(n)})
	}
	req.Pairs = append(req.Pairs, [2]int{7, 7}, [2]int{3, 9}) // s == t, and a cut-off source
	status, out := postJSON[serve.RouteResponse](t, ts.URL+"/route", req)
	if status != http.StatusOK {
		t.Fatalf("status %d (an over-budget route is answered, not refused)", status)
	}
	if out.Confidence != serve.ConfidenceExact || out.CacheHit || out.Faults != len(faults) {
		t.Fatalf("over-budget response: confidence %q, cache hit %v, faults %d", out.Confidence, out.CacheHit, out.Faults)
	}
	reachable := 0
	for i, p := range req.Pairs {
		leg := out.Routes[i]
		if want := graph.ConnectedUnder(g, set, p[0], p[1]); leg.Reachable != want {
			t.Fatalf("leg %d %v: reachable %v, want %v", i, p, leg.Reachable, want)
		}
		if !leg.Reachable {
			if leg.Path != nil {
				t.Fatalf("leg %d: unreachable leg carries a path %v", i, leg.Path)
			}
			continue
		}
		reachable++
		if err := graph.CheckPathUnder(g, set, leg.Path, p[0], p[1]); err != nil {
			t.Fatalf("leg %d: %v", i, err)
		}
	}
	if reachable == 0 || reachable == len(req.Pairs) {
		t.Fatalf("vacuous run: %d of %d legs reachable", reachable, len(req.Pairs))
	}
	if st := srv.Stats(); st.ApproxAnswers != uint64(len(req.Pairs)) || st.CacheMisses != 0 {
		t.Fatalf("over-budget pairs not counted, or the cache was stabbed: %+v", st)
	}
}

func TestHandlerVConnectedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := workload.ErdosRenyi(50, 0.12, true, rng)
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	sch, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(2*maxDeg))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for trial := 0; trial < 25; trial++ {
		dead := map[int]bool{}
		req := serve.VConnectedRequest{}
		for len(dead) < 2 {
			v := rng.Intn(g.N())
			if !dead[v] {
				dead[v] = true
				req.FaultVertices = append(req.FaultVertices, v)
			}
		}
		var want []bool
		for q := 0; q < 8; q++ {
			sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
			req.Pairs = append(req.Pairs, [2]int{sv, tv})
			w := graph.ConnectedWithoutVertices(g, dead, sv, tv)
			want = append(want, w)
		}
		status, out := postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", req)
		if status != http.StatusOK {
			t.Fatalf("trial %d: status %d", trial, status)
		}
		if out.Confidence != serve.ConfidenceExact || out.Faults != len(dead) || out.FaultEdges == 0 {
			t.Fatalf("trial %d: %+v", trial, out)
		}
		for i := range want {
			if out.Connected[i] != want[i] {
				t.Fatalf("trial %d pair %d (%v dead): got %v want %v",
					trial, i, req.FaultVertices, out.Connected[i], want[i])
			}
		}
		if status, warm := postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", req); status != http.StatusOK || !warm.CacheHit {
			t.Fatalf("trial %d: warm vprobe missed the vertex cache", trial)
		}
	}
	st := srv.Stats()
	if st.VProbes == 0 || st.VCacheHits == 0 || st.VCacheMisses == 0 {
		t.Fatalf("vertex stats not counting: %+v", st)
	}
}

func TestHandlerVConnectedDegraded(t *testing.T) {
	// The wheel's hub has degree n−1 ≫ f: failing it must degrade, not 422.
	g := workload.Wheel(24)
	sch, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hub := 0
	if g.Degree(hub) <= 3 {
		t.Fatalf("test graph: hub degree %d not over budget", g.Degree(hub))
	}
	req := serve.VConnectedRequest{
		FaultVertices: []int{hub},
		Pairs:         [][2]int{{1, 2}, {1, 12}, {hub, 1}, {3, 3}},
	}
	status, out := postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", req)
	if status != http.StatusOK {
		t.Fatalf("status %d (an over-budget vertex set is answered, not refused)", status)
	}
	if out.Confidence != serve.ConfidenceExact || out.Faults != 1 || out.FaultEdges != g.Degree(hub) {
		t.Fatalf("over-budget response: %+v", out)
	}
	dead := map[int]bool{hub: true}
	for i, p := range req.Pairs {
		if want := graph.ConnectedWithoutVertices(g, dead, p[0], p[1]); out.Connected[i] != want {
			t.Fatalf("pair %d %v: connected %v, want %v", i, p, out.Connected[i], want)
		}
	}
	if !out.Connected[0] || out.Connected[2] {
		t.Fatalf("the rim must stay connected and the failed hub answer false: %v", out.Connected)
	}
	// Nothing is compiled for an over-budget answer, so a warm repeat is
	// no cache hit either.
	if status, warm := postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", req); status != http.StatusOK || warm.CacheHit {
		t.Fatalf("warm over-budget vprobe: status %d, cache hit %v", status, warm.CacheHit)
	}
	if st := srv.Stats(); st.VCacheHits+st.VCacheMisses != 0 || st.ApproxAnswers != uint64(2*len(req.Pairs)) {
		t.Fatalf("over-budget vprobes looked up the cache, or were not counted: %+v", st)
	}
}

// TestBinQueryProductsMatchHTTP drives the same route and vertex-probe
// requests through both surfaces and requires identical answers.
func TestBinQueryProductsMatchHTTP(t *testing.T) {
	const n, f = 60, 3
	sch := buildScheme(t, n, f, 31)
	g := sch.Graph()
	srv := serve.New(sch, 32)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := binListener(t, srv)

	cl, err := wireclient.Dial(addr, wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(32))
	var rresp wire.RouteResp
	for trial := 0; trial < 20; trial++ {
		faults := workload.RandomFaults(g, rng.Intn(2*f), rng)
		pairs := make([][2]int, 1+rng.Intn(6))
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}

		status, hr := postJSON[serve.RouteResponse](t, ts.URL+"/route", serve.RouteRequest{FaultEdges: faults, Pairs: pairs})
		if status != http.StatusOK {
			t.Fatalf("trial %d: route status %d", trial, status)
		}
		if err := cl.Route(faults, pairs, &rresp, 0); err != nil {
			t.Fatalf("trial %d: bin route: %v", trial, err)
		}
		if rresp.Approx != (hr.Confidence == serve.ConfidenceApprox) || rresp.Gen != hr.Generation || rresp.Faults != hr.Faults {
			t.Fatalf("trial %d: surfaces disagree: bin %+v http %+v", trial, rresp, hr)
		}
		for i := range pairs {
			if rresp.Reachable[i] != hr.Routes[i].Reachable {
				t.Fatalf("trial %d leg %d: reachable bin %v http %v", trial, i, rresp.Reachable[i], hr.Routes[i].Reachable)
			}
			if len(rresp.Paths[i]) != len(hr.Routes[i].Path) {
				t.Fatalf("trial %d leg %d: paths differ: bin %v http %v", trial, i, rresp.Paths[i], hr.Routes[i].Path)
			}
			for j := range rresp.Paths[i] {
				if rresp.Paths[i][j] != hr.Routes[i].Path[j] {
					t.Fatalf("trial %d leg %d: paths differ: bin %v http %v", trial, i, rresp.Paths[i], hr.Routes[i].Path)
				}
			}
		}

		verts := []int{rng.Intn(n), rng.Intn(n)}
		status, hv := postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", serve.VConnectedRequest{FaultVertices: verts, Pairs: pairs})
		if status != http.StatusOK {
			t.Fatalf("trial %d: vconnected status %d", trial, status)
		}
		out, _, approx, gen, err := cl.VProbeInto(verts, pairs, nil, 0)
		if err != nil {
			t.Fatalf("trial %d: bin vprobe: %v", trial, err)
		}
		if approx != (hv.Confidence == serve.ConfidenceApprox) || gen != hv.Generation {
			t.Fatalf("trial %d: vprobe surfaces disagree: approx %v/%q gen %d/%d", trial, approx, hv.Confidence, gen, hv.Generation)
		}
		for i := range pairs {
			if out[i] != hv.Connected[i] {
				t.Fatalf("trial %d pair %d: bin %v http %v", trial, i, out[i], hv.Connected[i])
			}
		}
	}
}

// TestMetricsQueryProducts hits the product endpoints and asserts the new
// series appear on /metrics.
func TestMetricsQueryProducts(t *testing.T) {
	sch := buildScheme(t, 40, 2, 41)
	srv := serve.New(sch, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON[serve.RouteResponse](t, ts.URL+"/route", serve.RouteRequest{Pairs: [][2]int{{0, 1}}})
	postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", serve.VConnectedRequest{FaultVertices: nil, Pairs: [][2]int{{0, 1}}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, series := range []string{
		"ftcserve_route_plans_total 1",
		"ftcserve_vprobes_total 1",
		"ftcserve_approx_answers_total 0",
		"ftcserve_vcache_hits_total",
		"ftcserve_vcache_misses_total",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics missing %q", series)
		}
	}
}

// TestQueryErrorCodesBothSurfaces pins the error contract of the one
// executor: for every product on both surfaces the same failure yields the
// same HTTP status and wire code, and an over-budget fault set is refused
// by edge probes but answered exactly, with identical answers on both
// surfaces, by routes and vertex probes.
func TestQueryErrorCodesBothSurfaces(t *testing.T) {
	const n, f = 60, 2
	sch := buildScheme(t, n, f, 3)
	g := sch.Graph()
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl, err := wireclient.Dial(binListener(t, srv), wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	hub := 0
	for v := 0; v < n; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	if g.Degree(hub) <= f {
		t.Fatalf("test graph: max degree %d not over budget %d", g.Degree(hub), f)
	}
	valid := [][2]int{{0, 1}}
	for _, tc := range []struct {
		name         string
		edges, verts []int
		pairs        [][2]int
		pin          uint64
		want         [3]int // probe, route, vprobe
	}{
		{"pair out of range", nil, nil, [][2]int{{0, n}}, 0, [3]int{400, 400, 400}},
		{"fault index out of range", []int{g.M()}, []int{n}, valid, 0, [3]int{422, 422, 422}},
		{"generation pin mismatch", nil, nil, valid, sch.Generation() + 7, [3]int{409, 409, 409}},
		{"over budget", []int{0, 1, 2}, []int{hub}, valid, 0, [3]int{422, 200, 200}},
	} {
		for p, name := range []string{"probe", "route", "vprobe"} {
			var status int
			var httpAns, wireAns []bool
			var httpConf string
			var wireApprox bool
			var werr error
			switch name {
			case "probe":
				status, _ = postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", serve.ConnectedRequest{FaultEdges: tc.edges, Pairs: tc.pairs, Generation: tc.pin})
				_, _, _, werr = cl.ProbeInto(tc.edges, tc.pairs, nil, tc.pin)
			case "route":
				var out serve.RouteResponse
				status, out = postJSON[serve.RouteResponse](t, ts.URL+"/route", serve.RouteRequest{FaultEdges: tc.edges, Pairs: tc.pairs, Generation: tc.pin})
				for _, leg := range out.Routes {
					httpAns = append(httpAns, leg.Reachable)
				}
				httpConf = out.Confidence
				var rresp wire.RouteResp
				werr = cl.Route(tc.edges, tc.pairs, &rresp, tc.pin)
				wireAns, wireApprox = rresp.Reachable, rresp.Approx
			case "vprobe":
				var out serve.VConnectedResponse
				status, out = postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", serve.VConnectedRequest{FaultVertices: tc.verts, Pairs: tc.pairs, Generation: tc.pin})
				httpAns, httpConf = out.Connected, out.Confidence
				wireAns, _, wireApprox, _, werr = cl.VProbeInto(tc.verts, tc.pairs, nil, tc.pin)
			}
			code := http.StatusOK
			if werr != nil {
				var se *wireclient.ServerError
				if !errors.As(werr, &se) {
					t.Fatalf("%s %s: wire transport failure: %v", name, tc.name, werr)
				}
				code = int(se.Code)
			}
			if want := tc.want[p]; status != want || code != want {
				t.Errorf("%s %s: HTTP %d, wire %d, want both %d", name, tc.name, status, code, want)
			} else if want == http.StatusOK && (httpConf != serve.ConfidenceExact || wireApprox || len(httpAns) != len(tc.pairs) || !slices.Equal(httpAns, wireAns)) {
				t.Errorf("%s %s: answers HTTP %v (%q), wire %v (approx %v): want identical and exact", name, tc.name, httpAns, httpConf, wireAns, wireApprox)
			}
		}
	}
}

// TestVConnectedAcrossCommits sends vertex probes on both surfaces across
// /update commits that add or remove an edge incident to a failed vertex,
// so the compiled incident-edge sets of vertex probes meet the update
// sweep, and sends more over the wire while each commit runs. Each round
// trims the lowest-degree vertex to at most f incident edges, so at least
// one probed vertex set is answered from the labels; sets over the budget
// are answered from the forest of G − F. Every answer must be exact and
// match the BFS oracle on the graph of the generation it reports.
func TestVConnectedAcrossCommits(t *testing.T) {
	const n, f, rounds = 80, 3, 40
	nw := openNetwork(t, n, f, 5)
	srv := dynamicServer(t, nw, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl, err := wireclient.Dial(binListener(t, srv), wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(6))
	commit := func(add, remove [][2]int) {
		t.Helper()
		if code, _ := postJSON[serve.UpdateResponse](t, ts.URL+"/update", serve.UpdateRequest{Add: add, Remove: remove}); code != http.StatusOK {
			t.Fatalf("update add=%v remove=%v: status %d", add, remove, code)
		}
	}
	type answer struct {
		surface string
		verts   []int
		gen     uint64
		approx  bool
		out     []bool
	}
	inBudget, overBudget := 0, 0
	check := func(round int, graphs map[uint64]*graph.Graph, pairs [][2]int, a answer) {
		t.Helper()
		g := graphs[a.gen]
		if g == nil || len(a.out) != len(pairs) {
			t.Fatalf("round %d %s %v: %d answers at generation %d, want %d at one of %v",
				round, a.surface, a.verts, len(a.out), a.gen, len(pairs), graphs)
		}
		dead := map[int]bool{}
		for _, v := range a.verts {
			dead[v] = true
		}
		for i, p := range pairs {
			want := graph.ConnectedWithoutVertices(g, dead, p[0], p[1])
			if a.approx || a.out[i] != want {
				t.Fatalf("round %d %s %v at generation %d, pair %v: connected %v (approx %v), oracle %v",
					round, a.surface, a.verts, a.gen, p, a.out[i], a.approx, want)
			}
		}
		if len(products.VertexFaultEdges(g, a.verts)) > f {
			overBudget += len(pairs)
		} else {
			inBudget += len(pairs)
		}
	}
	newPairs := func() [][2]int {
		pairs := make([][2]int, 12)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		return pairs
	}
	probe := func(round int, sets [][]int) {
		t.Helper()
		graphs := map[uint64]*graph.Graph{nw.Generation(): nw.Snapshot().Graph()}
		pairs := newPairs()
		for _, verts := range sets {
			status, hv := postJSON[serve.VConnectedResponse](t, ts.URL+"/vconnected", serve.VConnectedRequest{FaultVertices: verts, Pairs: pairs})
			if status != http.StatusOK {
				t.Fatalf("round %d %v: status %d", round, verts, status)
			}
			check(round, graphs, pairs, answer{"http", verts, hv.Generation, hv.Confidence == serve.ConfidenceApprox, hv.Connected})
			w := answer{surface: "wire", verts: verts}
			if w.out, _, w.approx, w.gen, err = cl.VProbeInto(verts, pairs, nil, 0); err != nil {
				t.Fatalf("round %d %v: wire vprobe: %v", round, verts, err)
			}
			check(round, graphs, pairs, w)
		}
	}

	racedTotal := 0
	for round := 0; round < rounds; round++ {
		g := nw.Snapshot().Graph()
		low := 0
		for v := 1; v < n; v++ {
			if g.Degree(v) < g.Degree(low) {
				low = v
			}
		}
		for g.Degree(low) > f {
			commit(nil, [][2]int{{low, g.Adj(low)[0].To}})
			g = nw.Snapshot().Graph()
		}
		a, b := rng.Intn(n), rng.Intn(n)
		sets := [][]int{{low}, {a}, {a, b}}
		probe(round, sets)

		var add, remove [][2]int
		v := []int{low, a, b}[rng.Intn(3)]
		if adj := g.Adj(v); len(adj) > 1 && rng.Intn(2) == 0 {
			remove = [][2]int{{v, adj[rng.Intn(len(adj))].To}}
		} else {
			w := rng.Intn(n)
			for w == v || g.HasEdge(v, w) {
				w = rng.Intn(n)
			}
			add = [][2]int{{v, w}}
		}
		// Wire probes race the commit; each answer is checked afterwards
		// against the graph of the generation it reports.
		graphs := map[uint64]*graph.Graph{nw.Generation(): g}
		pairs := newPairs()
		var raced []answer
		stop, done := make(chan struct{}), make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				a := answer{surface: "wire during commit", verts: sets[i%len(sets)]}
				var err error
				if a.out, _, a.approx, a.gen, err = cl.VProbeInto(a.verts, pairs, nil, 0); err != nil {
					done <- err
					return
				}
				raced = append(raced, a)
			}
		}()
		commit(add, remove)
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("round %d: wire vprobe during commit: %v", round, err)
		}
		graphs[nw.Generation()] = nw.Snapshot().Graph()
		for _, a := range raced {
			check(round, graphs, pairs, a)
		}
		racedTotal += len(raced)
		probe(round, sets)
	}
	if inBudget == 0 || overBudget == 0 {
		t.Fatalf("vacuous run: %d pairs within the budget, %d over it", inBudget, overBudget)
	}
	t.Logf("%d pairs within the budget, %d over it, %d probes raced a commit; cache evicted %d entries by update",
		inBudget, overBudget, racedTotal, srv.Stats().CacheEvicted)
}
