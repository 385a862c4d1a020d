package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"testing"

	ftc "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/serve/genlog"
	"repro/internal/serve/products"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
)

// layerTarget is what the layer pass needs from a workload's deployment.
// An empty binAddr makes the pass serve srv's binary protocol itself.
type layerTarget struct {
	sch     serve.Scheme  // the serving scheme
	srv     *serve.Server // a server whose caches hold the warm events
	binAddr string
}

// targeter is implemented by every workload.
type targeter interface{ target() layerTarget }

// perLayerMetrics are the per-layer metrics a traced run reports, in the
// order BENCHMARK.json lists them.
var perLayerMetrics = []string{
	"core.build_s", "ftc.save_s", "ftc.load_s", "replica.bootstrap_s",
	"wire.encode_ns", "wire.decode_ns", "wireclient.call_ns", "net.rtt_ns",
	"serve.frame_ns.probe", "serve.http_ns.connected", "serve.http_ns.route", "serve.http_ns.vconnected",
	"serve.allocs.frame.probe", "serve.allocs.http.connected", "serve.allocs.http.route", "serve.allocs.http.vconnected",
	"serve.faultset_ns.hit", "serve.cache.hit_ratio", "serve.vcache.hit_ratio", "serve.cache.evictions",
	"serve.mutex_wait_ns", "serve.cache.update_evicted", "serve.cache.update_rebased",
	"core.compile_ns", "core.closure_ns", "core.probe_ns", "core.route_plan_ns",
	"products.vertex_reduce_ns", "products.approx_ns", "products.approx_share",
	"core.commit_ns", "core.incremental_ratio",
	"genlog.encode_ns", "genlog.append_ns", "genlog.bytes_per_commit", "genlog.compact_ns",
	"core.apply_delta_ns", "replica.lag_generations", "replica.snapshot_refetches",
	"front.call_ns", "front.hedge_ratio", "front.hedge_win_ratio", "front.failovers",
	"stage_sum.ratio", "trace.overhead_us",
}

// layerPass measures every layer from outside, by timing the benchmark's
// own calls into each package's public functions.
type layerPass struct {
	w       scenario
	tr      *tracer
	metrics map[string]metric
	facts   map[string]any
	exact   map[string]float64
}

func (lp *layerPass) set(name string, v float64, unit string) { lp.metrics[name] = metric{v, unit} }

// fromRun derives the counter metrics from the traced run's phases.
func (lp *layerPass) fromRun(st0, st1 serve.Stats, mutexWaitS float64, closed *phaseResult) {
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	lp.set("serve.cache.hit_ratio", ratio(st1.CacheHits-st0.CacheHits, st1.CacheMisses-st0.CacheMisses), "ratio")
	lp.set("serve.vcache.hit_ratio", ratio(st1.VCacheHits-st0.VCacheHits, st1.VCacheMisses-st0.VCacheMisses), "ratio")
	lp.set("serve.cache.evictions", float64(st1.CacheCapEvict-st0.CacheCapEvict+st1.VCacheCapEvict-st0.VCacheCapEvict), "count")
	answered := (st1.RoutePlans - st0.RoutePlans) + (st1.VProbes - st0.VProbes)
	share := 0.0
	if answered > 0 {
		share = float64(st1.ApproxAnswers-st0.ApproxAnswers) / float64(answered)
	}
	lp.set("products.approx_share", share, "ratio")
	lp.set("serve.mutex_wait_ns", mutexWaitS*1e9/float64(max(closed.attempted, 1)), "ns")
	lp.facts["serve.mutex_wait_ns"] = "runtime/metrics /sync/mutex/wait/total over the untraced closed loop, per request"
}

// hotEvents returns up to k distinct events of the request stream in
// stream order: edge events inside the fault budget, and vertex events.
func hotEvents(in *inputs, k int) (edges, verts [][]int) {
	seenE, seenV := map[int32]bool{}, map[int32]bool{}
	for _, r := range in.pool {
		if r.op == opVProbe {
			if !seenV[r.event] && len(verts) < k {
				seenV[r.event] = true
				verts = append(verts, in.vertEv[r.event])
			}
		} else if !seenE[r.event] && len(edges) < k && len(in.edgeEv[r.event]) <= in.f {
			seenE[r.event] = true
			edges = append(edges, in.edgeEv[r.event])
		}
		if len(edges) == k && len(verts) == k {
			break
		}
	}
	return edges, verts
}

// repeats is how many spans each microbenchmark records; the metric is
// their median.
const repeats = 5

// micro times iters calls of fn, repeats times, and returns the median
// nanoseconds per call.
func (lp *layerPass) micro(name string, iters int, fn func(i int)) float64 {
	for r := 0; r < repeats; r++ {
		lp.tr.loop(name, iters, fn)
	}
	return lp.tr.medianNs(name)
}

// allocs counts allocations per call exactly: it must read the same on
// every repeat, or the pass fails. Each count starts after a collection,
// so every repeat sees the same scratch pools.
func (lp *layerPass) allocs(name string, fn func()) error {
	runtime.GC()
	first := testing.AllocsPerRun(200, fn)
	for r := 1; r < 3; r++ {
		runtime.GC()
		if again := testing.AllocsPerRun(200, fn); again != first {
			return fmt.Errorf("%s: %v then %v allocations per call on the same input", name, first, again)
		}
	}
	lp.set(name, first, "count")
	lp.exact[name] = first
	return nil
}

func (lp *layerPass) run() error {
	lp.exact = map[string]float64{}
	tgt := lp.w.(targeter).target()
	in := lp.w.inputs()
	tr := lp.tr
	sch := tgt.sch
	g := sch.Graph()
	evs, vevs := hotEvents(in, 16)
	pairs := in.batches[0]
	gen := sch.Generation()

	lp.set("core.build_s", tr.medianNs("core.build")/1e9, "s")
	lp.set("ftc.save_s", tr.medianNs("ftc.save")/1e9, "s")
	lp.set("ftc.load_s", tr.medianNs("ftc.load")/1e9, "s")

	var lb loopback
	defer lb.close()
	if tgt.binAddr == "" {
		var err error
		if tgt.binAddr, err = lb.serveBin(tgt.srv); err != nil {
			return err
		}
	}

	// Make sure the hot events are compiled and closed on srv.
	for _, ev := range evs {
		fs, _, err := tgt.srv.FaultSet(ev)
		if err != nil {
			return fmt.Errorf("hot event %v: %w", ev, err)
		}
		if _, err := fs.Connected(sch.VertexLabel(pairs[0][0]), sch.VertexLabel(pairs[0][1])); err != nil {
			return err
		}
	}

	// Wire codec on this run's frames.
	answers := make([]bool, len(pairs))
	reqFrames := make([][]byte, len(evs))
	respFrames := make([][]byte, len(evs))
	for i, ev := range evs {
		reqFrames[i] = wire.AppendProbe(nil, uint64(i), 0, ev, pairs)
		respFrames[i] = wire.AppendProbeResp(nil, uint64(i), true, gen, len(ev), answers)
	}
	var eb, rb []byte
	enc := lp.micro("wire.encode", 20000, func(i int) {
		k := i % len(evs)
		eb = wire.AppendProbe(eb[:0], uint64(i), 0, evs[k], pairs)
		rb = wire.AppendProbeResp(rb[:0], uint64(i), true, gen, len(evs[k]), answers)
	})
	lp.set("wire.encode_ns", enc, "ns")
	var preq wire.ProbeReq
	var presp wire.ProbeResp
	dst := make([]bool, 0, len(pairs))
	dec := lp.micro("wire.decode", 20000, func(i int) {
		k := i % len(evs)
		_ = wire.DecodeProbe(reqFrames[k][5:], &preq)
		_ = wire.DecodeProbeResp(respFrames[k][5:], dst, &presp)
	})
	lp.set("wire.decode_ns", dec, "ns")

	// Serving executor on the frame surface.
	var sc serve.FrameScratch
	frame := lp.micro("serve.frame.probe", 2000, func(i int) {
		tgt.srv.HandleFrame(&sc, wire.OpProbe, reqFrames[i%len(evs)][5:])
	})
	lp.set("serve.frame_ns.probe", frame, "ns")
	if err := lp.allocs("serve.allocs.frame.probe", func() { tgt.srv.HandleFrame(&sc, wire.OpProbe, reqFrames[0][5:]) }); err != nil {
		return err
	}

	// JSON handlers over an in-memory writer.
	h := tgt.srv.Handler()
	for _, ep := range []struct{ name, path, body string }{
		{"connected", "/connected", fmt.Sprintf(`{"fault_edges":%s,"pairs":%s}`, jsonInts(evs[0]), jsonPairs(pairs))},
		{"route", "/route", fmt.Sprintf(`{"fault_edges":%s,"pairs":%s}`, jsonInts(evs[0]), jsonPairs(pairs))},
		{"vconnected", "/vconnected", fmt.Sprintf(`{"fault_vertices":%s,"pairs":%s}`, jsonInts(vevs[0]), jsonPairs(pairs))},
	} {
		body := &resetBody{b: []byte(ep.body)}
		req, err := http.NewRequest(http.MethodPost, ep.path, nil)
		if err != nil {
			return err
		}
		req.Body = body
		mw := &memWriter{h: http.Header{}}
		call := func() {
			body.off = 0
			mw.code = 0
			h.ServeHTTP(mw, req)
		}
		call()
		if mw.code != http.StatusOK {
			return fmt.Errorf("%s: status %d", ep.path, mw.code)
		}
		lp.set("serve.http_ns."+ep.name, lp.micro("serve.http."+ep.name, 500, func(int) { call() }), "ns")
		if err := lp.allocs("serve.allocs.http."+ep.name, call); err != nil {
			return err
		}
	}

	hit := lp.micro("serve.faultset.hit", 5000, func(i int) { _, _, _ = tgt.srv.FaultSet(evs[i%len(evs)]) })
	lp.set("serve.faultset_ns.hit", hit, "ns")

	// Core: compile, closure, warm probe and route plan, on fresh sets.
	var compiled []*core.FaultSet
	for i, ev := range evs {
		labels := make([]core.EdgeLabel, len(ev))
		for j, e := range ev {
			labels[j] = sch.EdgeLabelByIndex(e)
		}
		sp := tr.begin("core.compile", -1, int64(i))
		fs, err := core.CompileFaults(labels)
		tr.end(sp)
		if err != nil {
			return err
		}
		p := pairs[i%len(pairs)]
		sp = tr.begin("core.closure", -1, int64(i))
		_, err = fs.Connected(sch.VertexLabel(p[0]), sch.VertexLabel(p[1]))
		tr.end(sp)
		if err != nil {
			return err
		}
		compiled = append(compiled, fs)
	}
	lp.set("core.compile_ns", tr.medianNs("core.compile"), "ns")
	lp.set("core.closure_ns", tr.medianNs("core.closure"), "ns")
	probe := lp.micro("core.probe", 20000, func(i int) {
		p := pairs[i%len(pairs)]
		_, _ = compiled[(i/len(pairs))%len(compiled)].Connected(sch.VertexLabel(p[0]), sch.VertexLabel(p[1]))
	})
	lp.set("core.probe_ns", probe, "ns")
	for _, fs := range compiled {
		if _, _, err := fs.RoutePlan(sch.VertexLabel(pairs[0][0]), sch.VertexLabel(pairs[0][1])); err != nil {
			return err
		}
	}
	lp.set("core.route_plan_ns", lp.micro("core.route_plan", 2000, func(i int) {
		p := pairs[i%len(pairs)]
		_, _, _ = compiled[(i/len(pairs))%len(compiled)].RoutePlan(sch.VertexLabel(p[0]), sch.VertexLabel(p[1]))
	}), "ns")

	// Products: the vertex-to-edge reduction and the degraded path.
	lp.set("products.vertex_reduce_ns", lp.micro("products.vertex_reduce", 20000, func(i int) {
		_ = products.VertexFaultEdges(g, vevs[i%len(vevs)])
	}), "ns")
	view := products.New().For(sch, gen)
	if _, err := view.Spanner(); err != nil {
		return err
	}
	out := make([]bool, 0, len(pairs))
	lp.set("products.approx_ns", lp.micro("products.approx", 200, func(i int) {
		out, _ = view.ApproxConnectedVertices(vevs[i%len(vevs)], pairs, out[:0])
	}), "ns")

	batches, err := lp.writePath(in)
	if err != nil {
		return err
	}
	if err := lp.transport(tgt, evs, pairs, reqFrames[0], respFrames[0]); err != nil {
		return err
	}
	if err := lp.replication(in, evs, pairs, batches); err != nil {
		return fmt.Errorf("live replication: %w", err)
	}

	// Stage sum for the warm edge probe, against the unloaded call.
	sum := enc + dec + lp.metrics["net.rtt_ns"].Value + hit + float64(len(pairs))*probe
	call := lp.metrics["wireclient.call_ns"].Value
	lp.set("stage_sum.ratio", sum/call, "ratio")
	flag := "ok"
	if r := sum / call; r < 0.8 || r > 1.2 {
		flag = "outside 80-120%"
	}
	lp.facts["stage_sum"] = map[string]any{
		"wire_encode_ns": enc, "wire_decode_ns": dec, "net_rtt_ns": lp.metrics["net.rtt_ns"].Value,
		"faultset_hit_ns": hit, "probes_ns": float64(len(pairs)) * probe,
		"sum_ns": sum, "wireclient_call_ns": call, "ratio": sum / call, "flag": flag,
	}

	for _, name := range perLayerMetrics {
		if _, ok := lp.metrics[name]; !ok {
			return fmt.Errorf("layer metric %s was not measured", name)
		}
	}
	return nil
}

// updHeadroom is the spare label capacity of the dynamic networks the
// write path runs on.
const updHeadroom = 64

// writePath generates an update schedule on the workload's graph and
// replays it on a twin network and a twin log: commits, delta encoding,
// fsync'd appends, compaction and delta replay. It returns the committed
// batches, which the live deployment commits again.
func (lp *layerPass) writePath(in *inputs) ([]updateBatch, error) {
	tr := lp.tr
	const commits = 32
	twin, err := ftc.OpenFromGraph(in.g.Clone(), ftc.WithMaxFaults(in.f), ftc.WithHeadroom(updHeadroom))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "twinlog-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l, err := genlog.Open(dir + "/twin.log")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	l.SetRetention(genlog.Retention{MaxRecords: 12, MinRetain: 4})
	start := twin.Snapshot().Inner()
	mix := &updateMix{rng: rand.New(rand.NewSource(topologySeed)), treeFirst: updTreeFirst, treeEvery: updTreeEvery}
	var batches []updateBatch
	var deltas []*core.GenDelta
	fullAt := map[uint64]*core.Scheme{}
	incremental, bytes := 0, 0
	for i := 0; i < commits; i++ {
		add, remove := mix.next(twin)
		sp := tr.begin("core.commit", -1, int64(i))
		rep, d, err := twin.CommitBatchWithDelta(add, remove)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("twin commit: %w", err)
		}
		if d == nil {
			continue
		}
		batches = append(batches, updateBatch{add: add, remove: remove, gen: rep.Gen})
		if rep.Incremental {
			incremental++
		} else {
			fullAt[d.Gen] = twin.Snapshot().Inner()
		}
		deltas = append(deltas, d)
		tr.loop("genlog.encode", 20, func(int) { bytes += len(genlog.EncodeDelta(d)) })
		sp = tr.begin("genlog.append", -1, int64(i))
		_, err = l.Append(d)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("twin append: %w", err)
		}
		if through, ok := l.CompactTarget(); ok {
			snap := twin.Snapshot()
			sp = tr.begin("genlog.compact", -1, int64(i))
			_, err = l.Compact(through, snap.Generation(), snap.Save)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("twin compact: %w", err)
			}
		}
	}
	if len(deltas) == 0 {
		return nil, fmt.Errorf("twin replay committed nothing")
	}
	lp.set("core.commit_ns", tr.medianNs("core.commit"), "ns")
	lp.set("core.incremental_ratio", float64(incremental)/float64(len(deltas)), "ratio")
	lp.set("genlog.encode_ns", tr.medianNs("genlog.encode"), "ns")
	lp.set("genlog.append_ns", tr.medianNs("genlog.append"), "ns")
	lp.set("genlog.bytes_per_commit", float64(bytes)/float64(20*len(deltas)), "bytes")
	lp.set("genlog.compact_ns", tr.medianNs("genlog.compact"), "ns")
	lp.facts["twin_commits"] = map[string]int{"commits": len(deltas), "incremental": incremental, "compactions": len(tr.perCall("genlog.compact"))}

	cur := start
	for i, d := range deltas {
		if d.Full {
			cur = fullAt[d.Gen]
			continue
		}
		sp := tr.begin("core.apply_delta", -1, int64(i))
		_, next, err := core.ApplyDelta(cur, d)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("apply delta %d->%d: %w", d.PrevGen, d.Gen, err)
		}
		cur = next
	}
	apply := tr.perCall("core.apply_delta")
	lp.set("core.apply_delta_ns", median(apply), "ns")
	return batches, nil
}

// transport measures the loopback floor and the unloaded pipelined client
// call.
func (lp *layerPass) transport(tgt layerTarget, evs [][]int, pairs [][2]int, reqFrame, respFrame []byte) error {
	rtt, err := lp.echoRTT(len(reqFrame), len(respFrame))
	if err != nil {
		return err
	}
	lp.set("net.rtt_ns", rtt, "ns")

	cl, err := wireclient.Dial(tgt.binAddr, wireclient.Options{Conns: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	out := make([]bool, 0, len(pairs))
	for _, ev := range evs {
		if out, _, _, err = cl.ProbeInto(ev, pairs, out[:0], 0); err != nil {
			return err
		}
	}
	lp.set("wireclient.call_ns", lp.micro("wireclient.call", 500, func(i int) {
		out, _, _, _ = cl.ProbeInto(evs[i%len(evs)], pairs, out[:0], 0)
	}), "ns")
	return nil
}

// echoRTT times a request-sized write answered by a response-sized echo
// over a bare loopback TCP connection: the transport floor under the
// wire protocol.
func (lp *layerPass) echoRTT(reqLen, respLen int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		r := bufio.NewReader(c)
		in, out := make([]byte, reqLen), make([]byte, respLen)
		for {
			if _, err := io.ReadFull(r, in); err != nil {
				served <- nil
				return
			}
			if _, err := c.Write(out); err != nil {
				served <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	req, resp := make([]byte, reqLen), make([]byte, respLen)
	var ioErr error
	rtt := lp.micro("net.rtt", 500, func(int) {
		if ioErr != nil {
			return
		}
		if _, err := c.Write(req); err != nil {
			ioErr = err
			return
		}
		_, ioErr = io.ReadFull(c, resp)
	})
	c.Close()
	if err := <-served; err != nil {
		return 0, err
	}
	if ioErr != nil {
		return 0, ioErr
	}
	return rtt, nil
}

// memWriter is an in-memory http.ResponseWriter.
type memWriter struct {
	h    http.Header
	code int
	n    int
}

func (m *memWriter) Header() http.Header { return m.h }
func (m *memWriter) WriteHeader(code int) {
	m.code = code
}
func (m *memWriter) Write(b []byte) (int, error) {
	if m.code == 0 {
		m.code = http.StatusOK
	}
	m.n += len(b)
	return len(b), nil
}

// resetBody is a request body that can be replayed without allocating.
type resetBody struct {
	b   []byte
	off int
}

func (r *resetBody) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *resetBody) Close() error { return nil }

func jsonInts(xs []int) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s + "]"
}

func jsonPairs(ps [][2]int) string {
	s := "["
	for i, p := range ps {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("[%d,%d]", p[0], p[1])
	}
	return s + "]"
}
