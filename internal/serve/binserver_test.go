package serve_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
	"repro/internal/workload"
)

// binListener starts the framed-protocol side of srv on an ephemeral port
// and tears it down (listener close + graceful drain) at test end.
func binListener(t *testing.T, srv *serve.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.ServeBin(ln); err != nil {
			t.Errorf("ServeBin: %v", err)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.ShutdownBin(ctx)
		<-done
	})
	return ln.Addr().String()
}

// TestBinMatchesHTTP drives the same probes through both protocol surfaces
// of one server and requires identical answers, cache-hit flags converging
// on the shared cache, and identical generations.
func TestBinMatchesHTTP(t *testing.T) {
	const n, f = 80, 3
	sch := buildScheme(t, n, f, 1)
	srv := serve.New(sch, 32)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := binListener(t, srv)

	cl, err := wireclient.Dial(addr, wireclient.Options{Conns: 2, Inflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Generation() != sch.Generation() {
		t.Fatalf("handshake generation %d, scheme at %d", cl.Generation(), sch.Generation())
	}

	m := sch.Graph().M()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		faults := make([]int, rng.Intn(f+1))
		for i := range faults {
			faults[i] = rng.Intn(m)
		}
		pairs := make([][2]int, 1+rng.Intn(16))
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		status, httpOut := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", serve.ConnectedRequest{FaultEdges: faults, Pairs: pairs})
		if status != http.StatusOK {
			t.Fatalf("trial %d: HTTP status %d", trial, status)
		}
		binOut, hit, gen, err := cl.ProbeInto(faults, pairs, nil, 0)
		if err != nil {
			t.Fatalf("trial %d: bin probe: %v", trial, err)
		}
		if gen != httpOut.Generation {
			t.Fatalf("trial %d: bin generation %d, HTTP %d", trial, gen, httpOut.Generation)
		}
		// The HTTP probe above compiled (or hit) the shared cache entry, so
		// the bin probe of the same event must hit.
		if !hit {
			t.Fatalf("trial %d: bin probe missed a cache entry HTTP just populated (faults %v)", trial, faults)
		}
		if len(binOut) != len(httpOut.Connected) {
			t.Fatalf("trial %d: %d bin answers, %d HTTP", trial, len(binOut), len(httpOut.Connected))
		}
		for i := range binOut {
			if binOut[i] != httpOut.Connected[i] {
				t.Fatalf("trial %d pair %d: bin %v, HTTP %v (faults %v, pair %v)",
					trial, i, binOut[i], httpOut.Connected[i], faults, pairs[i])
			}
		}
	}

	st := srv.Stats()
	if st.BinRequests == 0 {
		t.Fatal("bin_requests counter never moved")
	}
}

// TestBinErrorFrames exercises the failure surface: out-of-range pairs,
// fault budget violations, and generation-pin mismatches must come back as
// typed error frames with the HTTP-aligned codes, without wedging the
// connection for later valid probes.
func TestBinErrorFrames(t *testing.T) {
	const n, f = 60, 2
	sch := buildScheme(t, n, f, 3)
	srv := serve.New(sch, 16)
	addr := binListener(t, srv)
	cl, err := wireclient.Dial(addr, wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	wantCode := func(tag string, err error, code uint16) {
		t.Helper()
		var se *wireclient.ServerError
		if !errors.As(err, &se) {
			t.Fatalf("%s: want ServerError, got %v", tag, err)
		}
		if se.Code != code {
			t.Fatalf("%s: code %d, want %d (%s)", tag, se.Code, code, se.Msg)
		}
	}

	_, err = cl.Probe(nil, [][2]int{{0, n}})
	wantCode("pair out of range", err, wire.CodeBadRequest)

	_, err = cl.Probe([]int{0, 1, 2}, [][2]int{{0, 1}}) // budget is 2
	wantCode("fault budget", err, wire.CodeUnprocessable)

	_, err = cl.Probe([]int{sch.Graph().M()}, [][2]int{{0, 1}})
	wantCode("fault edge out of range", err, wire.CodeUnprocessable)

	_, _, _, err = cl.ProbeInto(nil, [][2]int{{0, 1}}, nil, sch.Generation()+7)
	wantCode("generation pin", err, wire.CodeConflict)

	// The connection survives typed errors: a valid probe still answers.
	if _, err := cl.Probe(nil, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("valid probe after error frames: %v", err)
	}

	// A matching pin is accepted.
	if _, _, _, err := cl.ProbeInto(nil, [][2]int{{0, 1}}, nil, sch.Generation()); err != nil {
		t.Fatalf("matching generation pin rejected: %v", err)
	}
}

// TestBinMalformedFrameDropsConnection sends a corrupt frame down a raw
// connection and requires the server to answer with an error frame, close
// the connection, and count the decode error — without affecting a second,
// well-behaved connection.
func TestBinMalformedFrameDropsConnection(t *testing.T) {
	sch := buildScheme(t, 40, 2, 5)
	srv := serve.New(sch, 16)
	addr := binListener(t, srv)

	good, err := wireclient.Dial(addr, wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(wire.AppendClientHello(nil)); err != nil {
		t.Fatal(err)
	}
	hello := make([]byte, wire.ServerHelloLen)
	if _, err := io.ReadFull(raw, hello); err != nil {
		t.Fatal(err)
	}
	// Valid header, non-canonical fault edges: decodes as a frame, fails
	// DecodeProbe, must be answered with OpError and then dropped.
	bad := wire.AppendProbe(nil, 1, 0, []int{5, 5}, nil)
	if _, err := raw.Write(bad); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	total := 0
	for {
		n, err := raw.Read(buf[total:])
		total += n
		if err != nil {
			break // server closed after the error frame — expected
		}
	}
	if total < 5 || buf[4] != wire.OpError {
		t.Fatalf("want an OpError frame before close, got %d bytes (op %#x)", total, buf[4])
	}

	if st := srv.Stats(); st.FrameErrors == 0 {
		t.Fatal("frame_decode_errors counter never moved")
	}
	if _, err := good.Probe(nil, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("well-behaved connection affected by peer's protocol violation: %v", err)
	}
}

// TestBinUpdateChurnRace is the binary-protocol analog of
// TestUpdateChurnRace (run under -race): pipelined clients hammer the
// frame path while /update batches churn the topology. Every answer must
// come from a single generation — the ErrStaleLabel retry makes straddling
// probes settle, so clients see old or new topology, never an error from
// the race, except the explicit generation-conflict code when they pin.
func TestBinUpdateChurnRace(t *testing.T) {
	const n, f = 120, 3
	nw := openNetwork(t, n, f, 11)
	srv := dynamicServer(t, nw, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := binListener(t, srv)

	cl, err := wireclient.Dial(addr, wireclient.Options{Conns: 3, Inflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	m0 := nw.Snapshot().Graph().M()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Updater: churn random non-tree-critical edges via the HTTP surface
	// (the two surfaces share the commit path and cache sweep).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 40; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			// Alternate add/remove of the same endpoint pair; failures
			// (parallel edge, missing edge) are fine — some batches commit.
			status, _ := postJSON[serve.UpdateResponse](t, ts.URL+"/update", serve.UpdateRequest{Add: [][2]int{{u, v}}})
			if status == http.StatusOK {
				postJSON[serve.UpdateResponse](t, ts.URL+"/update", serve.UpdateRequest{Remove: [][2]int{{u, v}}})
			}
		}
	}()

	// Probers: pipelined batches against shifting generations. Fault
	// indices are bounded by the initial edge count minus headroom churn;
	// an index that lands out of range mid-churn comes back as a typed
	// error, which is acceptable — what is not acceptable is a transport
	// error, a desync, or a mixed-generation answer (ErrStaleLabel escaping
	// the retry).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			out := make([]bool, 0, 8)
			for i := 0; i < 300; i++ {
				faults := make([]int, rng.Intn(f+1))
				for j := range faults {
					faults[j] = rng.Intn(m0 - f) // stay below initial m to keep most probes valid
				}
				pairs := make([][2]int, 1+rng.Intn(8))
				for j := range pairs {
					pairs[j] = [2]int{rng.Intn(n), rng.Intn(n)}
				}
				var err error
				out, _, _, err = cl.ProbeInto(faults, pairs, out, 0)
				if err != nil {
					var se *wireclient.ServerError
					if errors.As(err, &se) {
						continue // typed rejection mid-churn is fine
					}
					t.Errorf("prober: transport/protocol failure: %v", err)
					return
				}
				if len(out) != len(pairs) {
					t.Errorf("prober: %d answers for %d pairs", len(out), len(pairs))
					return
				}
			}
		}(int64(w) * 7)
	}

	wg.Wait()
	close(stop)
}

// TestShutdownBinGraceful checks the drain path: after ShutdownBin no new
// connections are served, and a client blocked idle on a persistent
// connection is cleanly disconnected rather than wedged.
func TestShutdownBinGraceful(t *testing.T) {
	sch := buildScheme(t, 40, 2, 8)
	srv := serve.New(sch, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeBin(ln) }()

	cl, err := wireclient.Dial(ln.Addr().String(), wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Probe(nil, [][2]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}

	ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	srv.ShutdownBin(ctx)
	if time.Since(start) > 3*time.Second {
		t.Fatalf("drain of an idle connection took %v (deadline poke not working?)", time.Since(start))
	}
	<-done

	// The drained connection is dead: the next probe fails instead of
	// hanging.
	if _, err := cl.Probe(nil, [][2]int{{0, 1}}); err == nil {
		t.Fatal("probe succeeded on a drained connection")
	}
}

// TestMetricsEndpoint scrapes GET /metrics after traffic on both protocol
// surfaces and checks the Prometheus exposition carries the counters.
func TestMetricsEndpoint(t *testing.T) {
	sch := buildScheme(t, 60, 2, 13)
	srv := serve.New(sch, 16)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := binListener(t, srv)

	if status, _ := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", serve.ConnectedRequest{FaultEdges: []int{1}, Pairs: [][2]int{{0, 1}}}); status != http.StatusOK {
		t.Fatalf("HTTP probe: %d", status)
	}
	cl, err := wireclient.Dial(addr, wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Probe([]int{1}, [][2]int{{0, 1}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	body := sb.String()

	for _, want := range []string{
		"ftcserve_probes_total 2",
		"ftcserve_http_requests_total 1",
		"ftcserve_bin_requests_total 1",
		"ftcserve_frame_decode_errors_total 0",
		"ftcserve_bin_connections 1",
		"ftcserve_cache_hits_total 1",
		"ftcserve_cache_misses_total 1",
		"# TYPE ftcserve_generation gauge",
		"# TYPE ftcserve_probes_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}

// TestHandleFrameAllocs is the acceptance bar of the binary protocol: at
// warm-cache steady state one pipelined batch-16 frame of every product
// allocates nothing end to end through the serving path (the JSON path
// costs 16; see BenchmarkHandleConnected). That covers edge probes, exact
// and over-budget vertex probes, in-budget routes whose plans cross
// non-tree edges, and over-budget routes answered from a forest of G − F.
// Each measured frame must equal the warm (cache-hit) response, which is
// decoded and checked once: DecodeRouteResp allocates a fresh path array
// by design, so the decode stays outside the measured loop.
func TestHandleFrameAllocs(t *testing.T) {
	const n, f = 1024, 4
	sch := buildScheme(t, n, f, 21)
	g := sch.Graph()
	srv := serve.New(sch, 64)

	pairs := make([][2]int, 16)
	rng := rand.New(rand.NewSource(4))
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	// A vertex whose incident edges fit the budget is answered from the
	// labels; one of degree > f from a forest of G − F, which must be just
	// as exact and reuse the frame scratch.
	v, hub := 0, 0
	for g.Degree(v) == 0 || g.Degree(v) > f {
		v++
	}
	for g.Degree(hub) <= f {
		hub++
	}
	cut, cutPairs := crossingRouteEvent(t, sch, 3, rng)
	for _, tc := range []struct {
		name   string
		op     byte
		faults []int
		pairs  [][2]int
	}{
		{"probe", wire.OpProbe, []int{3, 99, 512}, pairs},
		{"exact vprobe", wire.OpVProbe, []int{v}, pairs},
		{"over-budget vprobe", wire.OpVProbe, []int{hub}, pairs},
		{"crossing route", wire.OpRoute, cut, cutPairs},
		{"over-budget route", wire.OpRoute, []int{3, 99, 512, 700, 900}, pairs},
	} {
		payload := wire.AppendRequest(nil, tc.op, 1, 0, 0, tc.faults, tc.pairs)[5:]
		var sc serve.FrameScratch
		srv.HandleFrame(&sc, tc.op, payload) // compiles: a cache miss
		warm, fatal := srv.HandleFrame(&sc, tc.op, payload)
		if fatal || len(warm) < 5 {
			t.Fatalf("%s: warmup frame failed (fatal=%v)", tc.name, fatal)
		}
		want := append([]byte(nil), warm...)
		if tc.op == wire.OpRoute {
			checkRouteFrame(t, tc.name, g, tc.faults, tc.pairs, want)
		} else {
			var resp wire.ProbeResp
			if want[4] == wire.OpError || wire.DecodeProbeResp(want[5:], nil, &resp) != nil || resp.Approx || len(resp.Connected) != len(tc.pairs) {
				t.Fatalf("%s: frame rejected or not exact", tc.name)
			}
		}
		allocs := testing.AllocsPerRun(500, func() {
			out, fatal := srv.HandleFrame(&sc, tc.op, payload)
			if fatal || !bytes.Equal(out, want) {
				t.Fatalf("%s: warm frame differs from the checked warm answer", tc.name)
			}
		})
		if allocs != 0 {
			t.Fatalf("warm %s frame allocates %v/op, acceptance bar is 0", tc.name, allocs)
		}
	}
}

// crossingRouteEvent returns a canonical event of k tree-edge faults and
// 16 pairs to route under it: each cut tree edge's two endpoints, filled
// up with random pairs. At least one pair's plan crosses a non-tree edge,
// so the route exercises the crossing logic, not only tree forwarding.
func crossingRouteEvent(t *testing.T, sch *ftc.Scheme, k int, rng *rand.Rand) ([]int, [][2]int) {
	t.Helper()
	g, inner := sch.Graph(), sch.Inner()
	faults := wire.Canonicalize(workload.TreeEdgeFaults(g, inner.Forest, k, rng))
	var pairs [][2]int
	for _, e := range faults {
		pairs = append(pairs, [2]int{g.Edges[e].U, g.Edges[e].V})
	}
	for len(pairs) < 16 {
		pairs = append(pairs, [2]int{rng.Intn(g.N()), rng.Intn(g.N())})
	}
	labels := make([]core.EdgeLabel, len(faults))
	for i, e := range faults {
		labels[i] = inner.EdgeLabel(e)
	}
	fs, err := core.CompileFaults(labels)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if plan, ok, err := fs.RoutePlan(inner.VertexLabel(p[0]), inner.VertexLabel(p[1])); err == nil && ok && len(plan) > 1 {
			return faults, pairs
		}
	}
	t.Fatalf("no pair of %v crosses a non-tree edge under faults %v", pairs, faults)
	return nil, nil
}

// checkRouteFrame decodes a route response frame and checks it answers
// every pair with the BFS oracle's reachability and a walk of G that
// avoids the faults.
func checkRouteFrame(t *testing.T, name string, g *graph.Graph, faults []int, pairs [][2]int, frame []byte) {
	t.Helper()
	var resp wire.RouteResp
	if frame[4] != wire.OpRouteResp || wire.DecodeRouteResp(frame[5:], &resp) != nil || resp.Approx || len(resp.Reachable) != len(pairs) {
		t.Fatalf("%s: route frame rejected or not exact", name)
	}
	set := workload.FaultSet(faults)
	for i, p := range pairs {
		if want := graph.ConnectedUnder(g, set, p[0], p[1]); resp.Reachable[i] != want {
			t.Fatalf("%s: pair %v reachable=%v, oracle %v", name, p, resp.Reachable[i], want)
		}
		if resp.Reachable[i] {
			if err := graph.CheckPathUnder(g, set, resp.Paths[i], p[0], p[1]); err != nil {
				t.Fatalf("%s: pair %v: %v", name, p, err)
			}
		}
	}
}

// TestHandleFrameDecodeErrorID: an undecodable frame is answered with the
// ID it carries (0 when it is too short to carry one), never with the ID
// the scratch kept from the previous frame — a client matching responses
// FIFO would otherwise report a pipeline desync instead of the 400.
func TestHandleFrameDecodeErrorID(t *testing.T) {
	sch := buildScheme(t, 40, 2, 5)
	srv := serve.New(sch, 16)
	for _, op := range []byte{wire.OpProbe, wire.OpRoute, wire.OpVProbe} {
		var sc serve.FrameScratch
		valid := wire.AppendRequest(nil, op, 7777, 0, 0, []int{1}, [][2]int{{0, 1}})[5:]
		for _, tc := range []struct {
			name    string
			payload []byte
			wantID  uint64
		}{
			{"truncated header", wire.AppendRequest(nil, op, 42, 0, 0, nil, nil)[5 : 5+20], 42},
			{"shorter than an ID", []byte{1, 2, 3}, 0},
		} {
			if resp, fatal := srv.HandleFrame(&sc, op, valid); fatal || resp[4] == wire.OpError {
				t.Fatalf("op %#x: valid frame rejected", op)
			}
			resp, fatal := srv.HandleFrame(&sc, op, tc.payload)
			if !fatal || resp[4] != wire.OpError {
				t.Fatalf("op %#x %s: want a fatal error frame, got op %#x fatal=%v", op, tc.name, resp[4], fatal)
			}
			id, code, msg, err := wire.DecodeError(resp[5:])
			if err != nil || code != wire.CodeBadRequest || id != tc.wantID {
				t.Fatalf("op %#x %s: error frame id %d code %d (%s), want id %d code 400", op, tc.name, id, code, msg, tc.wantID)
			}
		}
	}
}
