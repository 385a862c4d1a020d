package front_test

import (
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/front"
	"repro/internal/serve/wire"
	"repro/internal/workload"
)

// startBinServer serves one scheme over the binary protocol on a loopback
// listener and returns its address.
func startBinServer(t *testing.T, sch serve.Scheme) (addr string, srv *serve.Server) {
	t.Helper()
	srv = serve.New(sch, 64)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.ServeBin(ln)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), srv
}

func staticScheme(t *testing.T) *ftc.Scheme {
	t.Helper()
	s, err := ftc.NewFromGraph(workload.Petersen(), ftc.WithMaxFaults(2))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

// slowProxy forwards a TCP stream to backend, delaying every
// backend-to-client write by delay — a straggling replica.
func slowProxy(t *testing.T, backend string, delay time.Duration) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go func() { io.Copy(up, c); up.Close() }()
			go func() {
				defer c.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestFanOutAnswersMatch(t *testing.T) {
	sch := staticScheme(t)
	a1, _ := startBinServer(t, sch)
	a2, _ := startBinServer(t, sch)
	f, err := front.Dial([]string{a1, a2}, front.Options{NoHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g := sch.Graph()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		faults := workload.RandomFaults(g, 1+rng.Intn(2), rng)
		pairs := [][2]int{{rng.Intn(g.N()), rng.Intn(g.N())}, {0, rng.Intn(g.N())}}
		got, gen, err := f.ConnectedBatch(faults, pairs)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if gen != sch.Generation() {
			t.Fatalf("probe %d: gen %d, want %d", i, gen, sch.Generation())
		}
		labels := make([]ftc.EdgeLabel, len(faults))
		for j, e := range faults {
			labels[j] = sch.EdgeLabelByIndex(e)
		}
		fs, err := ftc.NewFaultSet(labels)
		if err != nil {
			t.Fatalf("oracle fault set: %v", err)
		}
		for j, p := range pairs {
			want, err := fs.Connected(sch.VertexLabel(p[0]), sch.VertexLabel(p[1]))
			if err != nil {
				t.Fatal(err)
			}
			if got[j] != want {
				t.Fatalf("probe %d pair %d: got %v, want %v", i, j, got[j], want)
			}
		}
	}
	st := f.Stats()
	if st.Probes != 12 {
		t.Fatalf("probes = %d, want 12", st.Probes)
	}
	if st.Hedges != 0 {
		t.Fatalf("hedges = %d with NoHedge", st.Hedges)
	}
}

// TestHedgeBeatsSlowReplica puts one replica behind a 150ms proxy: hedged
// probes that land on it first must be answered by the fast replica well
// before the straggler responds.
func TestHedgeBeatsSlowReplica(t *testing.T) {
	sch := staticScheme(t)
	fastAddr, _ := startBinServer(t, sch)
	slowBackend, _ := startBinServer(t, sch)
	const stall = 150 * time.Millisecond
	slowAddr := slowProxy(t, slowBackend, stall)

	f, err := front.Dial([]string{slowAddr, fastAddr}, front.Options{
		HedgeAfter: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	g := sch.Graph()
	rng := rand.New(rand.NewSource(5))
	start := time.Now()
	const probes = 8
	for i := 0; i < probes; i++ {
		faults := workload.RandomFaults(g, 1, rng)
		if _, _, err := f.ConnectedBatch(faults, [][2]int{{0, 5}}); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)

	st := f.Stats()
	if st.Hedges == 0 {
		t.Fatal("no hedges fired against a stalled replica")
	}
	if st.HedgeWins == 0 {
		t.Fatal("no hedge won against a stalled replica")
	}
	// Unhedged, every probe routed to the slow replica would eat the full
	// stall; hedged, each such probe costs ~HedgeAfter + fast RTT. Half
	// the probes start on the slow replica, so the unhedged floor is
	// probes/2 * stall. Allow generous slack for CI noise.
	if unhedgedFloor := stall * probes / 2; elapsed >= unhedgedFloor {
		t.Fatalf("hedged run took %v, not faster than unhedged floor %v", elapsed, unhedgedFloor)
	}
}

// TestPinnedConflictFailsOver pins probes to a generation only one replica
// has reached: probes landing on the stale replica must fail over and
// still answer.
func TestPinnedConflictFailsOver(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := workload.ErdosRenyi(40, 8.0/40, true, rng)
	edges := make([][2]int, g.M())
	for i, e := range g.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	open := func() *ftc.Network {
		nw, err := ftc.Open(g.N(), edges, ftc.WithMaxFaults(2), ftc.WithHeadroom(8))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return nw
	}
	ahead, stale := open(), open()

	// Advance only one network, to a generation the other never sees.
	u, v := findNonEdge(t, ahead.Graph())
	if _, err := ahead.CommitBatch([][2]int{{u, v}}, nil); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if ahead.Generation() == stale.Generation() {
		t.Fatal("generations did not diverge")
	}

	aheadAddr, _ := startBinServer(t, serveView(ahead))
	staleAddr, _ := startBinServer(t, serveView(stale))
	f, err := front.Dial([]string{staleAddr, aheadAddr}, front.Options{NoHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	pin := ahead.Generation()
	for i := 0; i < 8; i++ {
		r, err := f.Do(front.Request{Op: wire.OpProbe, Faults: []int{0}, Pairs: [][2]int{{0, 1}}, GenPin: pin})
		if err != nil {
			t.Fatalf("pinned probe %d: %v", i, err)
		}
		if r.Gen != pin {
			t.Fatalf("pinned probe %d answered at gen %d, want %d", i, r.Gen, pin)
		}
	}
	if st := f.Stats(); st.Conflicts == 0 {
		t.Fatal("no conflicts recorded: round-robin should have hit the stale replica")
	}
}

// TestFrontQueryProducts drives route plans and vertex-fault probes
// through the hedged front, including the pinned-route conflict failover
// that keeps plans from being computed against shifted edge indices.
func TestFrontQueryProducts(t *testing.T) {
	sch := staticScheme(t)
	g := sch.Graph()
	a1, _ := startBinServer(t, sch)
	a2, _ := startBinServer(t, sch)
	f, err := front.Dial([]string{a1, a2}, front.Options{NoHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	pairs := [][2]int{{0, 5}, {3, 3}, {1, 8}}
	r, err := f.Do(front.Request{Op: wire.OpRoute, Faults: []int{0, 2}, Pairs: pairs, GenPin: sch.Generation()})
	if err != nil {
		t.Fatalf("route: %v", err)
	}
	resp := r.Route
	if resp.Approx || resp.Gen != sch.Generation() || len(resp.Reachable) != len(pairs) {
		t.Fatalf("route response: %+v", resp)
	}
	for i, p := range pairs {
		if !resp.Reachable[i] {
			continue // Petersen minus 2 edges stays connected, but don't assume
		}
		path := resp.Paths[i]
		if len(path) == 0 || path[0] != p[0] || path[len(path)-1] != p[1] {
			t.Fatalf("leg %d: path %v does not go %d→%d", i, path, p[0], p[1])
		}
	}
	// A pin no replica can satisfy exhausts the fleet with conflicts.
	if _, err := f.Do(front.Request{Op: wire.OpRoute, Faults: []int{0}, Pairs: pairs, GenPin: sch.Generation() + 7}); err == nil {
		t.Fatal("impossible pin answered")
	}
	if st := f.Stats(); st.Conflicts == 0 {
		t.Fatalf("conflicts not counted: %+v", st)
	}

	// Vertex probes: Petersen is 3-regular, budget 2, so one failed vertex
	// is over budget and answered exactly from G − F.
	r, err = f.Do(front.Request{Op: wire.OpVProbe, Faults: []int{0}, Pairs: [][2]int{{1, 2}, {0, 4}}})
	if err != nil {
		t.Fatalf("vconnected: %v", err)
	}
	out, approx, gen := r.Connected, r.Approx, r.Gen
	if approx || gen != sch.Generation() || len(out) != 2 {
		t.Fatalf("vconnected: out=%v approx=%v gen=%d", out, approx, gen)
	}
	// Petersen minus one vertex stays connected; a failed endpoint does not.
	if !graphConnectedWithout(g, 0, 1, 2) || !out[0] || out[1] {
		t.Fatalf("vconnected answered %v, want [true false]", out)
	}
}

// TestDoUnknownOpcode: a request with an opcode that is not one of the
// three query products fails before any backend is tried.
func TestDoUnknownOpcode(t *testing.T) {
	addr, srv := startBinServer(t, staticScheme(t))
	f, err := front.Dial([]string{addr}, front.Options{NoHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Do(front.Request{Op: wire.OpProbeResp, Pairs: [][2]int{{0, 1}}}); err == nil {
		t.Fatal("unknown opcode answered")
	}
	if st, sst := f.Stats(), srv.Stats(); st.Probes != 0 || sst.BinRequests != 0 {
		t.Fatalf("unknown opcode reached the fleet: front requests %d, backend frames %d", st.Probes, sst.BinRequests)
	}
}

// graphConnectedWithout is a BFS oracle: s–t connectivity in g minus one
// vertex.
func graphConnectedWithout(g interface {
	N() int
	Adj(v int) []graph.Half
}, dead, s, t int) bool {
	if s == dead || t == dead {
		return false
	}
	visited := make([]bool, g.N())
	visited[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == t {
			return true
		}
		for _, h := range g.Adj(cur) {
			if h.To == dead || visited[h.To] {
				continue
			}
			visited[h.To] = true
			queue = append(queue, h.To)
		}
	}
	return false
}

func TestDialAllDownFails(t *testing.T) {
	_, err := front.Dial([]string{"127.0.0.1:1", "127.0.0.1:2"}, front.Options{})
	if err == nil {
		t.Fatal("dial of unreachable fleet succeeded")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// serveView adapts a network to the server's static-view constructor while
// staying generation-aware (the network's snapshot moves under it).
func serveView(nw *ftc.Network) serve.Scheme { return nw }

func findNonEdge(t *testing.T, g interface {
	N() int
	HasEdge(u, v int) bool
}) (int, int) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("complete graph")
	return 0, 0
}
