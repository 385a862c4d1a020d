package serve_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/genlog"
	"repro/internal/workload"
)

// TestCompactionBoundsLogUnderChurn drives sustained /update churn against
// a primary with retention enabled and asserts the acceptance invariant:
// the genlog file size and in-memory record count stay bounded by the
// policy after every commit, compactions actually happen, /snapshot flips
// to serving the checkpoint, and the surface (healthz, stats, metrics)
// reports it.
func TestCompactionBoundsLogUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := startPrimary(t, workload.ErdosRenyi(70, 8.0/70, true, rng), 3)
	p.log.SetRetention(genlog.Retention{MaxRecords: 8, MinRetain: 3})

	drng := rand.New(rand.NewSource(42))
	var maxRecords int
	var maxBytes int64
	committed := 0
	for committed < 30 {
		committed += p.drift(t, drng, 1)
		st := p.log.Stats()
		if st.Records > maxRecords {
			maxRecords = st.Records
		}
		if st.FileBytes > maxBytes {
			maxBytes = st.FileBytes
		}
	}
	st := p.log.Stats()
	if maxRecords > 8 {
		t.Fatalf("in-memory window peaked at %d records post-commit, policy caps at 8", maxRecords)
	}
	if st.Compactions < 2 {
		t.Fatalf("only %d compactions across %d commits with MaxRecords 8", st.Compactions, committed)
	}
	if st.BytesReclaimed == 0 {
		t.Fatal("compactions reclaimed no bytes")
	}
	if st.CheckpointGen == 0 || st.CheckpointGen < st.FirstGen {
		t.Fatalf("checkpoint generation %d outside retained window [%d, %d]",
			st.CheckpointGen, st.FirstGen, st.LastGen)
	}

	// /snapshot now serves the checkpoint: exact Content-Length, the
	// checkpoint's generation, and a payload that decodes to that scheme.
	ck, ok := p.log.Checkpoint()
	if !ok {
		t.Fatal("no checkpoint after compactions")
	}
	resp, err := http.Get(p.ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Ftc-Generation"); got != fmt.Sprint(ck.Gen) {
		t.Fatalf("/snapshot generation header = %s, want checkpoint %d", got, ck.Gen)
	}
	if resp.ContentLength != ck.Payload || int64(len(body)) != ck.Payload {
		t.Fatalf("/snapshot length = %d (header %d), want checkpoint payload %d",
			len(body), resp.ContentLength, ck.Payload)
	}
	sc, err := core.UnmarshalScheme(body)
	if err != nil {
		t.Fatalf("checkpoint snapshot decode: %v", err)
	}
	if sc.Generation() != ck.Gen {
		t.Fatalf("checkpoint snapshot at generation %d, want %d", sc.Generation(), ck.Gen)
	}

	var h serve.Healthz
	getJSON(t, p.ts.URL+"/healthz", &h)
	if h.LogCkptGen != ck.Gen || h.LogRecords != st.Records || h.LogFirstGen != st.FirstGen {
		t.Fatalf("/healthz log surface = {ckpt %d, records %d, first %d}, want {%d, %d, %d}",
			h.LogCkptGen, h.LogRecords, h.LogFirstGen, ck.Gen, st.Records, st.FirstGen)
	}

	sst := p.srv.Stats()
	if sst.LogCompact != st.Compactions || sst.LogReclaimed != st.BytesReclaimed ||
		sst.LogCkptGen != ck.Gen || sst.LogRecords != st.Records {
		t.Fatalf("server stats %+v diverge from log stats %+v", sst, st)
	}

	mresp, err := http.Get(p.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, series := range []string{
		"ftcserve_genlog_compactions_total",
		"ftcserve_genlog_bytes_reclaimed_total",
		"ftcserve_genlog_records",
		"ftcserve_genlog_checkpoint_generation",
		"ftcserve_snapshot_stream_failures_total",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}

// TestCompactionFellBehindReplicaConverges is the acceptance path: a
// caught-up replica is stopped, the primary churns across multiple
// compaction boundaries (so the replica's generation falls below the
// retained window), and on restart the replica must converge to
// byte-identical labels via checkpoint fetch + 410-triggered snapshot
// refetch + tail.
func TestCompactionFellBehindReplicaConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := startPrimary(t, workload.ErdosRenyi(70, 8.0/70, true, rng), 3)
	p.log.SetRetention(genlog.Retention{MaxRecords: 6, MinRetain: 2})
	rep := replicaFor(t, p)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}

	drng := rand.New(rand.NewSource(52))
	p.drift(t, drng, 4)
	waitCaughtUp(t, p, rep)

	rep.Stop()
	genAtStop := rep.Scheme().Generation()
	loadsBefore := rep.Status().SnapshotLoads
	compBefore := p.log.Stats().Compactions

	// Churn until the stopped replica is strictly below the retained
	// window's coverage and at least two more compactions have run.
	for i := 0; i < 200; i++ {
		p.drift(t, drng, 2)
		st := p.log.Stats()
		if st.Compactions >= compBefore+2 && genAtStop+1 < st.FirstGen {
			break
		}
	}
	st := p.log.Stats()
	if st.Compactions < compBefore+2 || genAtStop+1 >= st.FirstGen {
		t.Fatalf("could not push replica below the window: stopped at %d, window [%d, %d], %d compactions",
			genAtStop, st.FirstGen, st.LastGen, st.Compactions)
	}

	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
	if loads := rep.Status().SnapshotLoads; loads <= loadsBefore {
		t.Fatalf("snapshot loads %d -> %d: a replica below the retained window must refetch", loadsBefore, loads)
	}

	// The tail must be live after convergence: more churn (with more
	// compactions) still replicates.
	p.drift(t, drng, 4)
	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
}

// TestCompactionFullMarkerAfterCheckpointConverges commits a full rebuild
// (a spanning-tree edge delete) after a compaction, without tripping the
// next one. A tailing replica meets the marker and refetches /snapshot,
// which must not hand it the older checkpoint: tailing from there runs
// straight back into the marker. It reaches the primary's head with one
// refetch.
func TestCompactionFullMarkerAfterCheckpointConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := startPrimary(t, workload.ErdosRenyi(70, 8.0/70, true, rng), 3)
	p.log.SetRetention(genlog.Retention{MaxRecords: 6, MinRetain: 2})
	rep := replicaFor(t, p)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	drng := rand.New(rand.NewSource(52))
	for i := 0; i < 50 && p.log.Stats().Compactions == 0; i++ {
		p.drift(t, drng, 1)
	}
	waitCaughtUp(t, p, rep)
	loads := rep.Status().SnapshotLoads

	inner := p.nw.Snapshot().Inner()
	g := inner.Graph()
	tree := -1
	for e := 0; e < g.M() && tree < 0; e++ {
		if inner.Forest.IsTreeEdge[e] {
			tree = e
		}
	}
	if tree < 0 {
		t.Fatal("no tree edge")
	}
	if resp := p.commit(t, nil, [][2]int{{g.Edges[tree].U, g.Edges[tree].V}}); resp.Incremental {
		t.Fatal("tree-edge removal committed incrementally")
	}
	ck, ok := p.log.Checkpoint()
	if !ok || ck.Gen >= p.nw.Generation() {
		t.Fatalf("checkpoint %+v (ok=%v) is not older than the full marker at generation %d", ck, ok, p.nw.Generation())
	}

	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
	if got := rep.Status().SnapshotLoads - loads; got > 1 {
		t.Fatalf("replica made %d snapshot loads past the full marker, want at most 1", got)
	}
}

// failingSnapScheme wraps a real scheme but fails Save mid-body, after
// some bytes are already on the wire.
type failingSnapScheme struct{ serve.Scheme }

func (f failingSnapScheme) Save(w io.Writer) error {
	if _, err := w.Write([]byte("partial snapshot bytes")); err != nil {
		return err
	}
	return errors.New("injected mid-stream failure")
}

// TestSnapshotStreamFailureNonHijacker pins the non-Hijacker abort path
// (HTTP/2-shaped): a mid-body Save failure must abort the response with
// http.ErrAbortHandler — so the client sees a broken stream, not a silent
// truncation — and must be counted in snapshot_stream_failures_total.
func TestSnapshotStreamFailureNonHijacker(t *testing.T) {
	g := workload.Grid(4, 4)
	edges := make([][2]int, g.M())
	for i, e := range g.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	nw, err := ftc.Open(g.N(), edges, ftc.WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(failingSnapScheme{nw.Snapshot()}, 8)

	req := httptest.NewRequest("GET", "/snapshot", nil)
	rec := httptest.NewRecorder() // not a Hijacker
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Fatalf("handler recovered %v, want http.ErrAbortHandler", r)
			}
		}()
		srv.Handler().ServeHTTP(rec, req)
		t.Fatal("mid-stream Save failure did not abort the handler")
	}()
	if got := srv.Stats().SnapFailures; got != 1 {
		t.Fatalf("snapshot_stream_failures = %d, want 1", got)
	}

	// Over a real HTTP/1 connection the Hijacker path closes the socket:
	// the client must see an error or a short body, never a clean success.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/snapshot")
	if err == nil {
		_, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil {
			t.Fatal("truncated snapshot read cleanly over HTTP/1 — client cannot detect the failure")
		}
	}
	if got := srv.Stats().SnapFailures; got != 2 {
		t.Fatalf("snapshot_stream_failures = %d, want 2", got)
	}
}

// TestReplicaShortSnapshotRejectedAndRetried proves the replica-side
// defense: a snapshot body that arrives truncated (but reads cleanly, as
// over a proxy that buffers a broken upstream) fails decode/verification,
// is never half-applied, and the bootstrap is retried until a good body
// converges the replica.
func TestReplicaShortSnapshotRejectedAndRetried(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := startPrimary(t, workload.ErdosRenyi(60, 8.0/60, true, rng), 2)

	var snapCalls atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(p.ts.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if r.URL.Path == "/snapshot" {
			if n := snapCalls.Add(1); n == 2 {
				// The refetch: ship half the snapshot as a clean response.
				body = body[:len(body)/2]
			}
		}
		for k, vs := range resp.Header {
			if k == "Content-Length" {
				continue
			}
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer proxy.Close()

	rep, err := serve.NewReplicator(proxy.URL, serve.ReplicatorOptions{
		CacheSize:       64,
		RedialBase:      2 * time.Millisecond,
		RedialMax:       20 * time.Millisecond,
		SnapRefetchBase: 2 * time.Millisecond,
		SnapRefetchMax:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}

	// Force a snapshot refetch with a full-rebuild marker (tree-edge
	// removal): the refetch hits the truncating proxy.
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
	if resp := p.commit(t, nil, [][2]int{{g.Edges[tree].U, g.Edges[tree].V}}); resp.Incremental {
		t.Fatal("tree-edge removal committed incrementally")
	}

	waitCaughtUp(t, p, rep)
	assertSchemesByteIdentical(t, p.nw.Snapshot().Inner(), rep.Scheme())
	if n := snapCalls.Load(); n < 3 {
		t.Fatalf("%d snapshot fetches, want ≥ 3 (bootstrap, rejected short body, retry)", n)
	}
	// The truncated body must not have been counted as an applied load.
	if loads := rep.Status().SnapshotLoads; loads != 2 {
		t.Fatalf("snapshot loads = %d, want 2 (bootstrap + one good refetch)", loads)
	}
}

// TestCompactionRefetchBackoff pins the anti-tight-loop behavior: against
// a primary whose log never covers the replica (every GET /genlog answers
// 410), consecutive snapshot refetches must be paced by the refetch
// backoff, not the (fast-resetting) redial backoff.
func TestCompactionRefetchBackoff(t *testing.T) {
	// A real scheme for the snapshot endpoint.
	g := workload.Grid(4, 4)
	edges := make([][2]int, g.M())
	for i, e := range g.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	nw, err := ftc.Open(g.N(), edges, ftc.WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	snap := nw.Snapshot()

	var snapCalls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/snapshot":
			snapCalls.Add(1)
			w.Header().Set("Content-Type", "application/octet-stream")
			if err := snap.Save(w); err != nil {
				t.Errorf("snapshot save: %v", err)
			}
		case "/genlog":
			http.Error(w, "log starts after 99", http.StatusGone)
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	rep, err := serve.NewReplicator(ts.URL, serve.ReplicatorOptions{
		CacheSize:       16,
		RedialBase:      time.Millisecond,
		RedialMax:       4 * time.Millisecond,
		SnapRefetchBase: 30 * time.Millisecond,
		SnapRefetchMax:  240 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	base := snapCalls.Load() // the bootstrap fetch
	if err := rep.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond)
	rep.Stop()

	got := snapCalls.Load() - base
	// Backoff schedule ~30/60/120/240/240ms (±50% jitter): ~5 refetches in
	// 600ms, ≤ 10 even at full jitter. The redial backoff alone (1-4ms)
	// would make hundreds.
	if got < 2 {
		t.Fatalf("only %d snapshot refetches in 600ms — 410 loop not retrying", got)
	}
	if got > 10 {
		t.Fatalf("%d snapshot refetches in 600ms — refetch backoff not applied", got)
	}
}
