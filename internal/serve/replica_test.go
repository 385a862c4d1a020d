package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/genlog"
	"repro/internal/serve/wire"
	"repro/internal/workload"
)

// primaryRig is a replication primary under test: a dynamic network served
// over HTTP with a generation log attached. It has no binary listener;
// replicas need none.
type primaryRig struct {
	nw  *ftc.Network
	srv *serve.Server
	ts  *httptest.Server
	log *genlog.Log
}

func startPrimary(t *testing.T, g *graph.Graph, f int) *primaryRig {
	t.Helper()
	edges := make([][2]int, g.M())
	for i, e := range g.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	nw, err := ftc.Open(g.N(), edges, ftc.WithMaxFaults(f), ftc.WithHeadroom(64))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv := serve.NewDynamic(func() serve.Scheme { return nw.Snapshot() }, nw, 64)
	l, err := genlog.Open(filepath.Join(t.TempDir(), "gen.log"))
	if err != nil {
		t.Fatalf("genlog: %v", err)
	}
	if err := srv.AttachGenLog(l); err != nil {
		t.Fatalf("attach genlog: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		l.Close()
	})
	return &primaryRig{nw: nw, srv: srv, ts: ts, log: l}
}

// commit posts one /update batch through the primary's HTTP surface — the
// path that appends to the generation log.
func (p *primaryRig) commit(t *testing.T, add, remove [][2]int) serve.UpdateResponse {
	t.Helper()
	code, resp := postJSON[serve.UpdateResponse](t, p.ts.URL+"/update",
		serve.UpdateRequest{Add: add, Remove: remove})
	if code != http.StatusOK {
		t.Fatalf("POST /update: status %d (add=%v remove=%v)", code, add, remove)
	}
	return resp
}

// TestAttachGenLogRefusesAnotherRunsLog restarts a primary on its previous
// run's generation log. The restarted primary rebuilds the graph at
// generation 1, so AttachGenLog must refuse a log that ends at generation
// 4, naming both generations: replicas would otherwise replay a history
// this primary never had, and its first commit could not be appended. The
// log is accepted again by a server at its head.
func TestAttachGenLogRefusesAnotherRunsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.log")
	primary := func() (*serve.Server, *genlog.Log) {
		nw, err := ftc.OpenFromGraph(workload.Petersen(), ftc.WithMaxFaults(2))
		if err != nil {
			t.Fatal(err)
		}
		l, err := genlog.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return serve.NewDynamic(func() serve.Scheme { return nw.Snapshot() }, nw, 8), l
	}

	srv, l := primary()
	if err := srv.AttachGenLog(l); err != nil {
		t.Fatalf("attach an empty log: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	for _, req := range []serve.UpdateRequest{
		{Add: [][2]int{{0, 2}}},
		{Remove: [][2]int{{0, 2}}},
		{Add: [][2]int{{1, 3}}},
	} {
		if code, _ := postJSON[serve.UpdateResponse](t, ts.URL+"/update", req); code != http.StatusOK {
			t.Fatalf("POST /update %+v: status %d", req, code)
		}
	}
	ts.Close()
	l.Close()

	l, err := genlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachGenLog(l); err != nil {
		t.Fatalf("reattach the log at its head: %v", err)
	}
	l.Close()

	restarted, l := primary()
	defer l.Close()
	err = restarted.AttachGenLog(l)
	if err == nil {
		t.Fatal("a primary at generation 1 adopted a log that ends at generation 4")
	}
	if msg := err.Error(); !strings.Contains(msg, "generation 4") || !strings.Contains(msg, "generation 1") {
		t.Fatalf("refusal %q does not name both generations", msg)
	}
}

// TestGenlogLongPoll pins GET /genlog, the replica tail, case by case: its
// refusals (404 without a log, 400 on a malformed after, 410 below the
// window a compaction left), a caller behind the head getting every record
// after its generation at once, and the long-poll at the head — the
// headers go out at once, an idle poll ends empty after about
// genlogPollWait (1 s), and an /update ends it early with its record.
func TestGenlogLongPoll(t *testing.T) {
	const pollWait = time.Second // serve's genlogPollWait
	rng := rand.New(rand.NewSource(71))
	p := startPrimary(t, workload.ErdosRenyi(50, 0.15, true, rng), 2)
	p.drift(t, rand.New(rand.NewSource(72)), 3)
	head := p.nw.Generation()
	var behind []uint64
	for g := uint64(2); g <= head; g++ {
		behind = append(behind, g)
	}

	compacted := startPrimary(t, workload.ErdosRenyi(50, 0.15, true, rng), 2)
	compacted.log.SetRetention(genlog.Retention{MaxRecords: 4, MinRetain: 2})
	crng := rand.New(rand.NewSource(73))
	for i := 0; i < 50 && compacted.log.Stats().FirstGen < 3; i++ {
		compacted.drift(t, crng, 1)
	}
	if st := compacted.log.Stats(); st.FirstGen < 3 {
		t.Fatalf("compaction left the window at generations %d..%d", st.FirstGen, st.LastGen)
	}

	sch, err := ftc.NewFromGraph(workload.Petersen(), ftc.WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	static := httptest.NewServer(serve.New(sch, 8).Handler())
	defer static.Close()

	atHead := fmt.Sprintf("%s/genlog?after=%d", p.ts.URL, head)
	for _, tc := range []struct {
		name   string
		url    string
		commit bool // commit one /update once the headers are in
		status int
		gens   []uint64 // generations of the records in the body
		// bounds on the time from the headers to the end of the body
		minBody, maxBody time.Duration
	}{
		{"static server", static.URL + "/genlog?after=0", false, http.StatusNotFound, nil, 0, pollWait / 2},
		{"malformed after", p.ts.URL + "/genlog?after=x", false, http.StatusBadRequest, nil, 0, pollWait / 2},
		{"below the compacted window", compacted.ts.URL + "/genlog?after=1", false, http.StatusGone, nil, 0, pollWait / 2},
		{"behind the head", p.ts.URL + "/genlog?after=1", false, http.StatusOK, behind, 0, pollWait / 2},
		{"idle at the head", atHead, false, http.StatusOK, nil, pollWait * 9 / 10, 5 * pollWait},
		{"woken by an update", atHead, true, http.StatusOK, []uint64{head + 1}, 0, pollWait * 3 / 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			resp, err := http.Get(tc.url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			headers := time.Now()
			if d := headers.Sub(start); d > pollWait/2 {
				t.Fatalf("headers took %v, want them at once", d)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.commit && p.drift(t, rand.New(rand.NewSource(74)), 1) != 1 {
				t.Fatal("no commit made")
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(headers); d < tc.minBody || d > tc.maxBody {
				t.Fatalf("body ended %v after the headers, want within [%v, %v]", d, tc.minBody, tc.maxBody)
			}
			if tc.status != http.StatusOK {
				return
			}
			if got := resp.Header.Get("X-Ftc-Generation"); got != fmt.Sprint(head) {
				t.Fatalf("X-Ftc-Generation %q, want %d", got, head)
			}
			rd := wire.NewReader(bufio.NewReader(bytes.NewReader(body)))
			rd.SetMaxFrame(genlog.MaxRecordBytes + 64)
			var gens []uint64
			for {
				op, payload, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil || op != wire.OpLogRecord {
					t.Fatalf("frame %d: op 0x%02x, err %v", len(gens), op, err)
				}
				d, err := genlog.DecodeDelta(payload)
				if err != nil {
					t.Fatal(err)
				}
				gens = append(gens, d.Gen)
			}
			if fmt.Sprint(gens) != fmt.Sprint(tc.gens) {
				t.Fatalf("record generations %v, want %v", gens, tc.gens)
			}
		})
	}
}

// pickAddableEdge returns a non-edge whose endpoints are already connected
// (so the insertion is incremental-eligible).
func pickAddableEdge(g *graph.Graph, forest *graph.Forest, rng *rand.Rand) (int, int, bool) {
	for try := 0; try < 300; try++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v || g.HasEdge(u, v) || forest.Comp[u] != forest.Comp[v] {
			continue
		}
		return u, v, true
	}
	return 0, 0, false
}

// pickNonTreeEdge returns a random non-tree edge (whose removal is
// incremental-eligible).
func pickNonTreeEdge(g *graph.Graph, forest *graph.Forest, rng *rand.Rand) (int, int, bool) {
	for try := 0; try < 300; try++ {
		e := rng.Intn(g.M())
		if forest.IsTreeEdge[e] {
			continue
		}
		return g.Edges[e].U, g.Edges[e].V, true
	}
	return 0, 0, false
}

// drift commits rounds of small incremental-eligible batches and returns
// how many commits were made.
func (p *primaryRig) drift(t *testing.T, rng *rand.Rand, rounds int) int {
	t.Helper()
	committed := 0
	for i := 0; i < rounds; i++ {
		inner := p.nw.Snapshot().Inner()
		g, forest := inner.Graph(), inner.Forest
		var add, remove [][2]int
		if u, v, ok := pickAddableEdge(g, forest, rng); ok {
			add = append(add, [2]int{u, v})
		}
		if i%2 == 1 {
			if u, v, ok := pickNonTreeEdge(g, forest, rng); ok {
				remove = append(remove, [2]int{u, v})
			}
		}
		if len(add) == 0 && len(remove) == 0 {
			continue
		}
		p.commit(t, add, remove)
		committed++
	}
	return committed
}

// waitCaughtUp polls until the replica's generation reaches the primary's.
func waitCaughtUp(t *testing.T, p *primaryRig, r *serve.Replicator) {
	t.Helper()
	want := p.nw.Generation()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := r.Scheme(); s != nil && s.Generation() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := r.Status()
	t.Fatalf("replica stuck at generation %d (state %q), primary at %d",
		st.LocalGen, st.State, want)
}

func replicaFor(t *testing.T, p *primaryRig) *serve.Replicator {
	t.Helper()
	return replicaOf(t, p.ts.URL)
}

// replicaOf is replicaFor against an explicit primary base URL.
func replicaOf(t *testing.T, primaryURL string) *serve.Replicator {
	t.Helper()
	r, err := serve.NewReplicator(primaryURL, serve.ReplicatorOptions{
		CacheSize:       64,
		RedialBase:      5 * time.Millisecond,
		RedialMax:       50 * time.Millisecond,
		SnapRefetchBase: 5 * time.Millisecond,
		SnapRefetchMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("replicator: %v", err)
	}
	t.Cleanup(r.Stop)
	return r
}

func assertSchemesByteIdentical(t *testing.T, want, got *core.Scheme) {
	t.Helper()
	if got.Token() != want.Token() || got.Generation() != want.Generation() {
		t.Fatalf("token/gen: got (%#x, %d), want (%#x, %d)",
			got.Token(), got.Generation(), want.Token(), want.Generation())
	}
	if got.N() != want.N() || got.Graph().M() != want.Graph().M() {
		t.Fatalf("shape: got (%d, %d), want (%d, %d)",
			got.N(), got.Graph().M(), want.N(), want.Graph().M())
	}
	for v := 0; v < want.N(); v++ {
		if !bytes.Equal(core.MarshalVertexLabel(got.VertexLabel(v)),
			core.MarshalVertexLabel(want.VertexLabel(v))) {
			t.Fatalf("vertex %d label bytes diverge", v)
		}
	}
	for e := 0; e < want.Graph().M(); e++ {
		if !bytes.Equal(core.MarshalEdgeLabel(got.EdgeLabel(e)),
			core.MarshalEdgeLabel(want.EdgeLabel(e))) {
			t.Fatalf("edge %d label bytes diverge", e)
		}
	}
}

// TestReplicaTailByteIdentical runs the full replication loop over three
// graph families: a replica bootstrapped from the primary's snapshot tails
// the generation log while the primary commits incremental updates, and
// after catching up its labels are byte-for-byte the primary's. Warm
// fault-set cache entries on the replica are rebased (FaultSet.Rebase)
// by the replayed deltas, and rebased entries answer exactly like the
// primary's freshly compiled ones.
func TestReplicaTailByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"erdos-renyi", workload.ErdosRenyi(90, 8.0/90, true, rng)},
		{"grid", workload.Grid(8, 10)},
		{"power-law", workload.PowerLawCluster(80, 3, 0.3, rng)},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			const f = 3
			p := startPrimary(t, fam.g, f)
			rep := replicaFor(t, p)
			if err := rep.Start(); err != nil {
				t.Fatal(err)
			}

			// Warm replica cache entries before the drift so the replayed
			// deltas exercise the rebase path, not just recompilation.
			frng := rand.New(rand.NewSource(11))
			var warmFaults [][]int
			for i := 0; i < 6; i++ {
				faults := workload.RandomFaults(rep.Scheme().Graph(), 1+frng.Intn(f), frng)
				warmFaults = append(warmFaults, faults)
				if _, _, err := rep.Server().FaultSet(faults); err != nil {
					t.Fatalf("warm probe: %v", err)
				}
			}

			drng := rand.New(rand.NewSource(13))
			if n := p.drift(t, drng, 8); n == 0 {
				t.Fatal("no drift commits made")
			}
			waitCaughtUp(t, p, rep)

			assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())

			st := rep.Status()
			if st.SnapshotLoads != 1 {
				t.Fatalf("snapshot loads = %d, want 1 (log tail only)", st.SnapshotLoads)
			}
			if st.RecordsApplied == 0 {
				t.Fatal("no log records applied")
			}
			if got := rep.Server().Stats().CacheRebased; got == 0 {
				t.Fatal("no cache entries rebased by replayed deltas")
			}

			// Every warm fault set that survived the drift (its edges may
			// have been removed) must answer identically on primary and
			// replica at the converged generation.
			g := p.nw.Snapshot().Graph()
			for _, faults := range warmFaults {
				valid := true
				for _, e := range faults {
					if e >= g.M() {
						valid = false
						break
					}
				}
				if !valid {
					continue
				}
				pfs, _, perr := p.srv.FaultSet(faults)
				rfs, _, rerr := rep.Server().FaultSet(faults)
				if (perr == nil) != (rerr == nil) {
					t.Fatalf("faults %v: primary err=%v, replica err=%v", faults, perr, rerr)
				}
				if perr != nil {
					continue
				}
				for trial := 0; trial < 20; trial++ {
					u, v := frng.Intn(g.N()), frng.Intn(g.N())
					pc, err1 := pfs.Connected(p.nw.VertexLabel(u), p.nw.VertexLabel(v))
					rc, err2 := rfs.Connected(rep.Scheme().VertexLabel(u), rep.Scheme().VertexLabel(v))
					if err1 != nil || err2 != nil {
						t.Fatalf("connected(%d,%d): %v / %v", u, v, err1, err2)
					}
					if pc != rc {
						t.Fatalf("faults %v: connected(%d,%d) primary=%v replica=%v",
							faults, u, v, pc, rc)
					}
				}
			}
		})
	}
}

// TestReplicaTailsWithoutBinaryListener pins the single transport: a
// primary that never serves the binary protocol (no ServeBin, no
// SetBinAddr, so /healthz advertises no bin_addr) still feeds a replica,
// which leaves catching_up, converges byte-identically from the log alone,
// and never touches the primary's binary surface.
func TestReplicaTailsWithoutBinaryListener(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := startPrimary(t, workload.ErdosRenyi(40, 0.15, true, rng), 2)
	var h serve.Healthz
	getJSON(t, p.ts.URL+"/healthz", &h)
	if h.BinAddr != "" {
		t.Fatalf("primary advertises bin_addr %q, want none", h.BinAddr)
	}
	rep := replicaFor(t, p)
	rts := httptest.NewServer(rep.Server().Handler())
	defer rts.Close()
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	if n := p.drift(t, rand.New(rand.NewSource(6)), 4); n == 0 {
		t.Fatal("no drift commits made")
	}
	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
	waitHealthzStatus(t, rts.URL, "ok")
	if st := rep.Status(); st.RecordsApplied == 0 || st.SnapshotLoads != 1 || st.CatchingUp {
		t.Fatalf("replica status %+v, want records applied from one snapshot and catching_up cleared", st)
	}
	if st := p.srv.Stats(); st.BinRequests != 0 || st.BinConns != 0 {
		t.Fatalf("primary's binary surface saw %d requests on %d connections", st.BinRequests, st.BinConns)
	}
}

// TestReplicaStopDuringIdlePoll stops a caught-up replica while its poll
// waits at the primary's log head: Stop cancels the poll in flight and
// returns well within genlogPollWait (1 s) instead of waiting it out.
func TestReplicaStopDuringIdlePoll(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := startPrimary(t, workload.ErdosRenyi(40, 0.15, true, rng), 2)
	rep := replicaFor(t, p)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	p.drift(t, rand.New(rand.NewSource(9)), 2)
	waitCaughtUp(t, p, rep)
	time.Sleep(100 * time.Millisecond) // the next poll is now idle at the head
	start := time.Now()
	rep.Stop()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Stop during an idle poll took %v", d)
	}
	if st := rep.Status(); st.State != "disconnected" {
		t.Fatalf("stopped replica state %q, want disconnected", st.State)
	}
}

// TestReplicaKillRestartCatchUp stops a caught-up replica, commits more
// generations on the primary, restarts the tail, and checks that the
// replica converges from the log alone — no snapshot refetch — with
// /healthz flipping from syncing back to ok.
func TestReplicaKillRestartCatchUp(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := startPrimary(t, workload.ErdosRenyi(70, 8.0/70, true, rng), 3)
	rep := replicaFor(t, p)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rep.Server().Handler())
	defer rts.Close()

	drng := rand.New(rand.NewSource(22))
	p.drift(t, drng, 4)
	waitCaughtUp(t, p, rep)
	loadsBefore := rep.Status().SnapshotLoads

	// Kill the tail. The replica keeps serving its last generation.
	rep.Stop()
	genAtStop := rep.Scheme().Generation()
	if n := p.drift(t, drng, 6); n == 0 {
		t.Fatal("no drift while replica down")
	}
	if rep.Scheme().Generation() != genAtStop {
		t.Fatal("stopped replica moved generations")
	}

	var h serve.Healthz
	getJSON(t, rts.URL+"/healthz", &h)
	if h.Role != "replica" {
		t.Fatalf("role = %q, want replica", h.Role)
	}
	if h.Status != "syncing" {
		t.Fatalf("stopped lagging replica /healthz status = %q, want syncing", h.Status)
	}

	// Restart: catch-up must come from the log alone.
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
	if loads := rep.Status().SnapshotLoads; loads != loadsBefore {
		t.Fatalf("snapshot loads %d -> %d: restart refetched a snapshot", loadsBefore, loads)
	}

	waitHealthzStatus(t, rts.URL, "ok")
}

// TestReplicaFullRebuildRefetchesSnapshot forces a full-rebuild marker
// (tree-edge removal) into the log and checks the replica recovers by
// refetching a snapshot and keeps tailing after it.
func TestReplicaFullRebuildRefetchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := startPrimary(t, workload.ErdosRenyi(60, 8.0/60, true, rng), 2)
	rep := replicaFor(t, p)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}

	// Remove a tree edge: the commit falls back to a full rebuild, which
	// the log ships as a marker the replica cannot replay.
	inner := p.nw.Snapshot().Inner()
	g := inner.Graph()
	tree := -1
	for e := 0; e < g.M(); e++ {
		if inner.Forest.IsTreeEdge[e] {
			tree = e
			break
		}
	}
	if tree < 0 {
		t.Fatal("no tree edge")
	}
	resp := p.commit(t, nil, [][2]int{{g.Edges[tree].U, g.Edges[tree].V}})
	if resp.Incremental {
		t.Fatal("tree-edge removal committed incrementally")
	}

	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
	if loads := rep.Status().SnapshotLoads; loads != 2 {
		t.Fatalf("snapshot loads = %d, want 2 (bootstrap + full-rebuild refetch)", loads)
	}

	// The tail must still be live after the refetch.
	drng := rand.New(rand.NewSource(32))
	p.drift(t, drng, 3)
	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
}

func getJSON(t *testing.T, url string, dst any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func waitHealthzStatus(t *testing.T, base, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		var h serve.Healthz
		getJSON(t, base+"/healthz", &h)
		last = h.Status
		if h.Status == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("/healthz status stuck at %q, want %q", last, want)
}

// TestReplicaHealthzCatchingUp checks the load-balancer contract from
// §3.16: a replica answers /healthz with 503 and catching_up=true from
// construction until its first full catch-up over the tail, and 200 with
// catching_up=false after — so fronts never route to a replica that has
// yet to converge once.
func TestReplicaHealthzCatchingUp(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := startPrimary(t, workload.ErdosRenyi(60, 8.0/60, true, rng), 2)
	rep := replicaFor(t, p)
	rts := httptest.NewServer(rep.Server().Handler())
	defer rts.Close()

	// Not yet started: never caught up, so shed health checks.
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unstarted replica /healthz status = %d, want 503", resp.StatusCode)
	}
	if !h.CatchingUp {
		t.Fatal("unstarted replica /healthz catching_up = false, want true")
	}

	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, rep)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(rts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h serve.Healthz
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && !h.CatchingUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caught-up replica /healthz stuck at %d catching_up=%v, want 200/false",
				resp.StatusCode, h.CatchingUp)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The latch is one-way: a replica that has converged once keeps
	// answering 200 even while temporarily behind the primary.
	rep.Stop()
	p.drift(t, rand.New(rand.NewSource(42)), 3)
	resp, err = http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = serve.Healthz{} // catching_up is omitempty: clear the stale true
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.CatchingUp {
		t.Fatalf("lagging-but-converged replica /healthz = %d catching_up=%v, want 200/false",
			resp.StatusCode, h.CatchingUp)
	}
}
