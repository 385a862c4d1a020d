package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/workload"
)

func openNetwork(t testing.TB, n int, f int, seed int64) *ftc.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
	edges := make([][2]int, g.M())
	for i, e := range g.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	nw, err := ftc.Open(n, edges, ftc.WithMaxFaults(f), ftc.WithHeadroom(32))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return nw
}

func dynamicServer(t testing.TB, nw *ftc.Network, cacheSize int) *serve.Server {
	t.Helper()
	return serve.NewDynamic(func() serve.Scheme { return nw.Snapshot() }, nw, cacheSize)
}

// TestHandlerUpdate drives the full generation-aware serving flow: probe →
// update → selective cache sweep → probe again, checking answers against
// the BFS oracle at every generation and that clean cache entries survive
// updates warm while dirty ones are evicted.
func TestHandlerUpdate(t *testing.T) {
	const n, f = 80, 3
	nw := openNetwork(t, n, f, 1)
	srv := dynamicServer(t, nw, 32)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(2))
	probe := func(faults [][2]int, wantHit bool, tag string) {
		g := nw.Snapshot().Graph()
		set := map[int]bool{}
		for _, uv := range faults {
			set[g.EdgeIndex(uv[0], uv[1])] = true
		}
		req := serve.ConnectedRequest{Faults: faults}
		var want []bool
		for q := 0; q < 10; q++ {
			sv, tv := rng.Intn(n), rng.Intn(n)
			req.Pairs = append(req.Pairs, [2]int{sv, tv})
			want = append(want, graph.ConnectedUnder(g, set, sv, tv))
		}
		status, out := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", tag, status)
		}
		if out.CacheHit != wantHit {
			t.Fatalf("%s: cache_hit=%v, want %v", tag, out.CacheHit, wantHit)
		}
		if out.Generation != nw.Generation() {
			t.Fatalf("%s: response generation %d, server at %d", tag, out.Generation, nw.Generation())
		}
		for i := range want {
			if out.Connected[i] != want[i] {
				t.Fatalf("%s: pair %d: got %v, want %v", tag, i, out.Connected[i], want[i])
			}
		}
	}

	// A failure event whose edges the updates below never touch.
	snap := nw.Snapshot()
	cleanFaults := [][2]int{}
	for e, tree := range snap.Inner().Forest.IsTreeEdge {
		if tree && len(cleanFaults) < 2 {
			edge := snap.Graph().Edges[e]
			cleanFaults = append(cleanFaults, [2]int{edge.U, edge.V})
		}
	}
	probe(cleanFaults, false, "cold")
	probe(cleanFaults, true, "warm")

	// Insert an edge between two vertices far from the faulted region (any
	// same-component pair works; the sweep decides cleanliness by the
	// actual dirty set).
	g := snap.Graph()
	var add [2]int
	for {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			add = [2]int{u, v}
			break
		}
	}
	status, upd := postJSON[serve.UpdateResponse](t, ts.URL+"/update", serve.UpdateRequest{Add: [][2]int{add}})
	if status != http.StatusOK {
		t.Fatalf("update: status %d", status)
	}
	if upd.Generation != 2 {
		t.Fatalf("update: generation %d, want 2", upd.Generation)
	}
	if !upd.Incremental {
		t.Fatalf("same-component insertion should be incremental (%s)", upd.Reason)
	}
	if upd.CacheEvicted+upd.CacheRebased == 0 {
		t.Fatal("update swept no cache entries despite a warm cache")
	}

	// If the cached event was clean it must still be warm (hit on first
	// probe after the update); if it was dirtied it recompiles (miss).
	probe(cleanFaults, upd.CacheRebased > 0, "post-update")
	probe(cleanFaults, true, "post-update-warm")

	// A malformed update must not commit anything.
	status, _ = postJSON[serve.UpdateResponse](t, ts.URL+"/update", serve.UpdateRequest{Add: [][2]int{add}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate insertion: status %d, want 422", status)
	}
	if nw.Generation() != 2 {
		t.Fatalf("failed update changed the generation to %d", nw.Generation())
	}

	// Remove one of the cached event's own fault edges: the event's entry
	// must be evicted (the edge is gone), and probing it now 400s.
	status, upd = postJSON[serve.UpdateResponse](t, ts.URL+"/update", serve.UpdateRequest{Remove: [][2]int{cleanFaults[0]}})
	if status != http.StatusOK {
		t.Fatalf("removal update: status %d", status)
	}
	if status, _ := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected",
		serve.ConnectedRequest{Faults: cleanFaults, Pairs: [][2]int{{0, 1}}}); status != http.StatusBadRequest {
		t.Fatalf("probe of removed edge: status %d, want 400", status)
	}

	// Generation pinning: a probe carrying the live generation passes, a
	// probe pinned to a superseded one (whose cached edge indices may have
	// shifted) is rejected with 409.
	okReq := serve.ConnectedRequest{Pairs: [][2]int{{0, 1}}, Generation: nw.Generation()}
	if status, _ := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", okReq); status != http.StatusOK {
		t.Fatalf("current-generation pin rejected: status %d", status)
	}
	staleReq := serve.ConnectedRequest{Pairs: [][2]int{{0, 1}}, Generation: 1}
	if status, _ := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", staleReq); status != http.StatusConflict {
		t.Fatalf("stale-generation pin: status %d, want 409", status)
	}

	st := srv.Stats()
	if st.Updates != 2 || st.Generation != nw.Generation() {
		t.Fatalf("stats: %+v", st)
	}
}

// TestUpdateSweepRehomesShiftedEvents: removing a non-tree edge r shifts
// every higher edge index down by one, so each cached event on a non-tree
// edge above r moves to a new key — often onto the key another cached
// event held before the sweep. None of those events touches a relabeled
// edge, so the sweep must carry every one of them into the new generation
// warm: cache_evicted 0, cache_rebased one per event, and every event a
// cache hit afterwards.
func TestUpdateSweepRehomesShiftedEvents(t *testing.T) {
	const n, f, events = 160, 2, 24
	nw := openNetwork(t, n, f, 5)
	srv := dynamicServer(t, nw, 256)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	snap := nw.Snapshot()
	g := snap.Graph()
	r := -1
	var faults [][2]int // single-edge events, in increasing edge index
	adjacent := false
	prev := -2
	for e, tree := range snap.Inner().Forest.IsTreeEdge {
		if tree {
			continue
		}
		if r < 0 {
			r = e
			continue
		}
		if len(faults) < events {
			faults = append(faults, [2]int{g.Edges[e].U, g.Edges[e].V})
			adjacent = adjacent || e == prev+1
			prev = e
		}
	}
	if len(faults) < events || !adjacent {
		t.Fatalf("need %d non-tree edges above r=%d with two adjacent indices; got %d (adjacent=%v)", events, r, len(faults), adjacent)
	}

	rng := rand.New(rand.NewSource(6))
	probe := func(uv [2]int, wantHit bool, tag string) {
		cur := nw.Snapshot().Graph()
		set := map[int]bool{cur.EdgeIndex(uv[0], uv[1]): true}
		req := serve.ConnectedRequest{Faults: [][2]int{uv}}
		for q := 0; q < 4; q++ {
			req.Pairs = append(req.Pairs, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		status, out := postJSON[serve.ConnectedResponse](t, ts.URL+"/connected", req)
		if status != http.StatusOK || out.CacheHit != wantHit || out.Generation != nw.Generation() {
			t.Fatalf("%s %v: status %d cache_hit=%v generation %d, want 200 %v %d",
				tag, uv, status, out.CacheHit, out.Generation, wantHit, nw.Generation())
		}
		for i, p := range req.Pairs {
			if want := graph.ConnectedUnder(cur, set, p[0], p[1]); out.Connected[i] != want {
				t.Fatalf("%s %v: pair %v: got %v, want %v", tag, uv, p, out.Connected[i], want)
			}
		}
	}
	// Warm in increasing index order, so the sweep meets the highest
	// (most recently used) event first and moves it onto the key of the
	// event just below it before that one has moved.
	for _, uv := range faults {
		probe(uv, false, "warm")
	}

	rm := g.Edges[r]
	status, upd := postJSON[serve.UpdateResponse](t, ts.URL+"/update", serve.UpdateRequest{Remove: [][2]int{{rm.U, rm.V}}})
	if status != http.StatusOK || !upd.Incremental {
		t.Fatalf("removing non-tree edge %d: status %d incremental=%v (%s)", r, status, upd.Incremental, upd.Reason)
	}
	if upd.CacheEvicted != 0 || upd.CacheRebased != events {
		t.Fatalf("sweep: cache_evicted=%d cache_rebased=%d, want 0/%d", upd.CacheEvicted, upd.CacheRebased, events)
	}
	for _, uv := range faults {
		probe(uv, true, "after update")
	}
}

// TestStaticServerHasNoUpdateEndpoint: a snapshot-backed server must not
// expose topology mutation.
func TestStaticServerHasNoUpdateEndpoint(t *testing.T) {
	sch := buildScheme(t, 40, 2, 3)
	ts := httptest.NewServer(serve.New(sch, 4).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte(`{"add":[[0,5]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("static server accepted an update")
	}
}

// TestUpdateChurnRace is the serving layer's concurrency gate (run under
// -race in CI): batch probes flow continuously while /update commits
// topology batches. Every probe must succeed and answer correctly for the
// generation it reports — the stale-retry path makes races invisible to
// clients.
func TestUpdateChurnRace(t *testing.T) {
	const (
		n, f       = 120, 3
		probers    = 8
		iters      = 40
		updates    = 25
		churnBase  = 60 // updates only touch vertices >= churnBase
		probeEdges = 2
	)
	nw := openNetwork(t, n, f, 7)
	srv := dynamicServer(t, nw, 8)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// gen → graph at that generation, for oracle checks of racing probes.
	var genMu sync.Mutex
	gens := map[uint64]*graph.Graph{1: nw.Snapshot().Graph()}
	graphAt := func(gen uint64) *graph.Graph {
		deadline := time.Now().Add(2 * time.Second)
		for {
			genMu.Lock()
			g := gens[gen]
			genMu.Unlock()
			if g != nil || time.Now().After(deadline) {
				return g
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Fault edges the updater never touches (both endpoints < churnBase).
	g0 := nw.Snapshot().Graph()
	var stableFaults [][2]int
	for _, e := range g0.Edges {
		if e.U < churnBase && e.V < churnBase && len(stableFaults) < probeEdges {
			stableFaults = append(stableFaults, [2]int{e.U, e.V})
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, probers+1)
	stop := make(chan struct{})
	for w := 0; w < probers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(1000 + worker)))
			for it := 0; it < iters; it++ {
				req := serve.ConnectedRequest{Faults: stableFaults}
				for q := 0; q < 4; q++ {
					req.Pairs = append(req.Pairs, [2]int{prng.Intn(n), prng.Intn(n)})
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/connected", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var out serve.ConnectedResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				code := resp.StatusCode
				resp.Body.Close()
				if err != nil || code != http.StatusOK {
					errc <- fmt.Errorf("worker %d: status %d err %v", worker, code, err)
					return
				}
				gg := graphAt(out.Generation)
				if gg == nil {
					errc <- fmt.Errorf("worker %d: unknown generation %d", worker, out.Generation)
					return
				}
				set := map[int]bool{}
				for _, uv := range stableFaults {
					set[gg.EdgeIndex(uv[0], uv[1])] = true
				}
				for i, p := range req.Pairs {
					if want := graph.ConnectedUnder(gg, set, p[0], p[1]); out.Connected[i] != want {
						errc <- fmt.Errorf("worker %d: gen %d pair %v: got %v, want %v",
							worker, out.Generation, p, out.Connected[i], want)
						return
					}
				}
			}
		}(w)
	}

	// The updater toggles edges among the churn region, half incremental
	// inserts/deletes, occasionally forcing rebuild fallbacks.
	urng := rand.New(rand.NewSource(99))
	for i := 0; i < updates; i++ {
		cur := nw.Snapshot().Graph()
		var req serve.UpdateRequest
		for try := 0; try < 100 && len(req.Add) == 0; try++ {
			u := churnBase + urng.Intn(n-churnBase)
			v := churnBase + urng.Intn(n-churnBase)
			if u != v && !cur.HasEdge(u, v) {
				req.Add = [][2]int{{u, v}}
			}
		}
		if i%3 == 2 {
			for try := 0; try < 100 && len(req.Remove) == 0; try++ {
				e := urng.Intn(cur.M())
				edge := cur.Edges[e]
				if edge.U >= churnBase && edge.V >= churnBase {
					req.Remove = [][2]int{{edge.U, edge.V}}
				}
			}
		}
		if len(req.Add) == 0 && len(req.Remove) == 0 {
			continue
		}
		next := cur.Clone()
		for _, uv := range req.Add {
			if _, err := next.AddEdge(uv[0], uv[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, uv := range req.Remove {
			if _, err := next.RemoveEdge(uv[0], uv[1]); err != nil {
				t.Fatal(err)
			}
		}
		status, out := postJSON[serve.UpdateResponse](t, ts.URL+"/update", req)
		if status != http.StatusOK {
			t.Fatalf("update %d: status %d", i, status)
		}
		genMu.Lock()
		gens[out.Generation] = next
		genMu.Unlock()
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Updates == 0 || st.Probes == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

// TestCacheChurnRace is the cache concurrency gate (run under -race in
// CI): many distinct failure events are probed concurrently over both the
// HTTP handler and the raw FaultSet path while /update commits churn the
// topology, so update sweeps, rebases, singleflight compiles, and the
// stale-probe retry all interleave. HTTP answers are oracle-checked per
// generation; raw probes assert that the only error a racing client can
// ever see is ErrStaleLabel.
func TestCacheChurnRace(t *testing.T) {
	const (
		n, f      = 160, 3
		events    = 12
		probers   = 10
		iters     = 30
		updates   = 15
		churnBase = 100 // updates only touch vertices >= churnBase
	)
	nw := openNetwork(t, n, f, 21)
	srv := dynamicServer(t, nw, 64)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var genMu sync.Mutex
	gens := map[uint64]*graph.Graph{1: nw.Snapshot().Graph()}
	graphAt := func(gen uint64) *graph.Graph {
		deadline := time.Now().Add(2 * time.Second)
		for {
			genMu.Lock()
			g := gens[gen]
			genMu.Unlock()
			if g != nil || time.Now().After(deadline) {
				return g
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Distinct stable failure events (edges entirely below churnBase), so
	// their cache entries survive updates warm.
	g0 := nw.Snapshot().Graph()
	var stable [][2]int
	for _, e := range g0.Edges {
		if e.U < churnBase && e.V < churnBase {
			stable = append(stable, [2]int{e.U, e.V})
		}
	}
	if len(stable) < events+f {
		t.Fatalf("only %d stable edges, need %d", len(stable), events+f)
	}
	faultSets := make([][][2]int, events)
	for i := range faultSets {
		faultSets[i] = stable[i : i+f]
	}

	var wg sync.WaitGroup
	errc := make(chan error, probers)
	for w := 0; w < probers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(2000 + worker)))
			for it := 0; it < iters; it++ {
				ev := prng.Intn(events)
				if worker%3 == 2 {
					// A third of the load exercises the raw FaultSet path,
					// which surfaces cache races directly (callers own the
					// stale retry there).
					snap := nw.Snapshot()
					edges := make([]int, 0, f)
					g := snap.Graph()
					ok := true
					for _, uv := range faultSets[ev] {
						e := g.EdgeIndex(uv[0], uv[1])
						if e < 0 {
							ok = false
							break
						}
						edges = append(edges, e)
					}
					if !ok {
						continue // raced a commit mid-resolution; next iter
					}
					fs, _, err := srv.FaultSet(edges)
					if err != nil {
						if errors.Is(err, ftc.ErrStaleLabel) {
							continue
						}
						errc <- fmt.Errorf("worker %d: FaultSet: %w", worker, err)
						return
					}
					sv, tv := prng.Intn(n), prng.Intn(n)
					if _, err := fs.Connected(snap.VertexLabel(sv), snap.VertexLabel(tv)); err != nil && !errors.Is(err, ftc.ErrStaleLabel) {
						errc <- fmt.Errorf("worker %d: probe: %w", worker, err)
						return
					}
					continue
				}
				req := serve.ConnectedRequest{Faults: faultSets[ev]}
				for q := 0; q < 4; q++ {
					req.Pairs = append(req.Pairs, [2]int{prng.Intn(n), prng.Intn(n)})
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/connected", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var out serve.ConnectedResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				code := resp.StatusCode
				resp.Body.Close()
				if err != nil || code != http.StatusOK {
					errc <- fmt.Errorf("worker %d: status %d err %v", worker, code, err)
					return
				}
				gg := graphAt(out.Generation)
				if gg == nil {
					errc <- fmt.Errorf("worker %d: unknown generation %d", worker, out.Generation)
					return
				}
				set := map[int]bool{}
				for _, uv := range faultSets[ev] {
					set[gg.EdgeIndex(uv[0], uv[1])] = true
				}
				for i, p := range req.Pairs {
					if want := graph.ConnectedUnder(gg, set, p[0], p[1]); out.Connected[i] != want {
						errc <- fmt.Errorf("worker %d: gen %d event %d pair %v: got %v, want %v",
							worker, out.Generation, ev, p, out.Connected[i], want)
						return
					}
				}
			}
		}(w)
	}

	urng := rand.New(rand.NewSource(77))
	for i := 0; i < updates; i++ {
		cur := nw.Snapshot().Graph()
		var req serve.UpdateRequest
		for try := 0; try < 200 && len(req.Add) == 0; try++ {
			u := churnBase + urng.Intn(n-churnBase)
			v := churnBase + urng.Intn(n-churnBase)
			if u != v && !cur.HasEdge(u, v) {
				req.Add = [][2]int{{u, v}}
			}
		}
		if len(req.Add) == 0 {
			continue
		}
		next := cur.Clone()
		for _, uv := range req.Add {
			if _, err := next.AddEdge(uv[0], uv[1]); err != nil {
				t.Fatal(err)
			}
		}
		status, out := postJSON[serve.UpdateResponse](t, ts.URL+"/update", req)
		if status != http.StatusOK {
			t.Fatalf("update %d: status %d", i, status)
		}
		genMu.Lock()
		gens[out.Generation] = next
		genMu.Unlock()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
