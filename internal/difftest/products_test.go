package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
)

// TestRoutePlanDifferential sweeps the compiled route product across the
// workload families: for seeded (fault-set, s–t) loads, the compiled
// FaultSet.RoutePlan must agree with the BFS oracle on reachability, and
// every positive plan must replay through the routing packet simulator —
// reaching the destination without ever crossing a forbidden edge.
func TestRoutePlanDifferential(t *testing.T) {
	const (
		f             = 3
		faultSets     = 30
		queriesPerSet = 10
	)
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + fi)))
			g := fam.gen(100, rng)
			net, err := routing.Build(g, f)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			sch := net.Scheme()
			for trial := 0; trial < faultSets; trial++ {
				faults := make([]int, 1+rng.Intn(f))
				set := map[int]bool{}
				labels := make([]core.EdgeLabel, 0, len(faults))
				for i := range faults {
					faults[i] = rng.Intn(g.M())
					set[faults[i]] = true
				}
				for e := range set {
					labels = append(labels, sch.EdgeLabel(e))
				}
				fs, err := core.CompileFaults(labels)
				if err != nil {
					t.Fatalf("trial %d: compile: %v", trial, err)
				}
				forbidden := func(e int) bool { return set[e] }
				for q := 0; q < queriesPerSet; q++ {
					s, tv := rng.Intn(g.N()), rng.Intn(g.N())
					plan, ok, err := fs.RoutePlan(sch.VertexLabel(s), sch.VertexLabel(tv))
					if err != nil {
						t.Fatalf("trial %d: plan(%d,%d): %v", trial, s, tv, err)
					}
					want := graph.ConnectedUnder(g, set, s, tv)
					if ok != want {
						t.Fatalf("trial %d: plan(%d,%d) reachable=%v, oracle %v (faults %v)",
							trial, s, tv, ok, want, faults)
					}
					if !ok {
						continue
					}
					path, reached, err := net.Execute(s, tv, plan, forbidden)
					if err != nil || !reached {
						t.Fatalf("trial %d: execute(%d,%d): reached=%v err=%v (plan %v)",
							trial, s, tv, reached, err, plan)
					}
					if err := graph.CheckPathUnder(g, set, path, s, tv); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
			}
		})
	}
}

// TestQueryProductSurfaceEquivalence is the cross-protocol cell for the
// query products: for every workload family, /route and /vconnected on the
// JSON surface and OpRoute/OpVProbe on the binary surface of one server
// must return identical answers — and the vertex probes must match the
// BFS-on-vertex-deleted-graph oracle.
func TestQueryProductSurfaceEquivalence(t *testing.T) {
	const trials = 20
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + fi)))
			g := fam.gen(90, rng)
			maxDeg := 0
			for v := 0; v < g.N(); v++ {
				if d := g.Degree(v); d > maxDeg {
					maxDeg = d
				}
			}
			// Budget covers two failed vertices, so vertex probes are
			// answered from the labels (sets over the budget are answered
			// from G − F, which the serve and products tests cover).
			sch, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(2*maxDeg))
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			srv := serve.New(sch, 32)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			cl := dialBin(t, srv)

			var rresp wire.RouteResp
			for trial := 0; trial < trials; trial++ {
				pairs := make([][2]int, 1+rng.Intn(8))
				for i := range pairs {
					pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
				}

				faults := make([]int, rng.Intn(4))
				for i := range faults {
					faults[i] = rng.Intn(g.M())
				}
				var hr serve.RouteResponse
				postProduct(t, ts.URL+"/route", serve.RouteRequest{FaultEdges: faults, Pairs: pairs}, &hr)
				if err := cl.Route(faults, pairs, &rresp, 0); err != nil {
					t.Fatalf("trial %d: bin route: %v", trial, err)
				}
				if rresp.Gen != hr.Generation || rresp.Faults != hr.Faults ||
					rresp.Approx != (hr.Confidence == serve.ConfidenceApprox) {
					t.Fatalf("trial %d: route surfaces disagree: bin %+v http %+v", trial, rresp, hr)
				}
				for i := range pairs {
					if rresp.Reachable[i] != hr.Routes[i].Reachable || !equalPath(rresp.Paths[i], hr.Routes[i].Path) {
						t.Fatalf("trial %d leg %d: bin (%v,%v) http (%v,%v)", trial, i,
							rresp.Reachable[i], rresp.Paths[i], hr.Routes[i].Reachable, hr.Routes[i].Path)
					}
				}

				verts := make([]int, 1+rng.Intn(2))
				dead := map[int]bool{}
				for i := range verts {
					verts[i] = rng.Intn(g.N())
					dead[verts[i]] = true
				}
				var hv serve.VConnectedResponse
				postProduct(t, ts.URL+"/vconnected", serve.VConnectedRequest{FaultVertices: verts, Pairs: pairs}, &hv)
				out, _, approx, gen, err := cl.VProbeInto(verts, pairs, nil, 0)
				if err != nil {
					t.Fatalf("trial %d: bin vprobe: %v", trial, err)
				}
				if gen != hv.Generation || approx || hv.Confidence != serve.ConfidenceExact {
					t.Fatalf("trial %d: vprobe surfaces disagree or not exact: approx %v/%q", trial, approx, hv.Confidence)
				}
				for i, p := range pairs {
					if out[i] != hv.Connected[i] {
						t.Fatalf("trial %d pair %d: bin %v http %v", trial, i, out[i], hv.Connected[i])
					}
					if oracle := graph.ConnectedWithoutVertices(g, dead, p[0], p[1]); out[i] != oracle {
						t.Fatalf("trial %d pair %d: surfaces answer %v, vertex oracle %v (dead %v)",
							trial, i, out[i], oracle, verts)
					}
				}
			}
		})
	}
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dialBin starts the binary listener for srv and dials it, tying both to
// test cleanup.
func dialBin(t *testing.T, srv *serve.Server) *wireclient.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBin(ln)
	t.Cleanup(func() {
		ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.ShutdownBin(ctx)
	})
	cl, err := wireclient.Dial(ln.Addr().String(), wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// postProduct posts one JSON request to a query-product endpoint.
func postProduct(t *testing.T, url string, req, out any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
