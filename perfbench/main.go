// Command perfbench is the repository's benchmark. It runs one seeded
// workload against in-process servers on loopback and prints, as the last
// line of standard output, one JSON object with the end-to-end metrics
// (or, with --trace 1, the per-layer metrics):
//
//	bash perfbench/run.sh --workload edge-hot --seed 1 --seconds 20 --trace 0
//
// Each run sets up its deployment several times (setup_s is the median),
// measures a closed loop (throughput) and an open loop at a fixed offered
// rate (latencies timed from each request's due time), then checks every
// answer against a breadth-first-search oracle. Host and run facts, the
// percentile notes and the spans of a traced run are written under
// .bench_build/perfbench/out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/serve"
)

// scenario is one seeded traffic mix against one in-process deployment.
type scenario interface {
	// prepare generates the inputs and what the oracle needs. Untimed.
	prepare(seed int64) error
	// setup builds, starts and warms one deployment; the runner times it.
	setup(tr *tracer) error
	teardown()
	// do sends request r from client c and appends the answer to c.recs.
	do(c *client, r request) error
	inputs() *inputs
	oracle() *oracle
	// servers are the serving processes whose counters the run reads.
	servers() []*serve.Server
	// openRate is the open loop's offered rate in requests per second.
	openRate() float64
	// labelBits and snapshotBytes describe the deployed scheme.
	labelBits() int
	snapshotBytes() int
}

// client is one load-generator goroutine's state.
type client struct {
	recs []record
	out  []bool
	span int32 // the request span, parent of the call span (traced runs)
	req  int64 // request id for spans
	tr   *tracer
}

var workloads = map[string]func() scenario{
	"edge-hot":       func() scenario { return &edgeHot{} },
	"products-churn": func() scenario { return &productsChurn{} },
}

// setupRepeats is how many times a run sets up its deployment.
const setupRepeats = 5

// rateWindows is how many windows each closed-loop segment is split into;
// the throughput is the median over all segments' windows.
const rateWindows = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "edge-hot | products-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "seconds of measured traffic")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload edge-hot|products-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, facts, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", cfg.workload, cfg.seed, err)
		os.Exit(1)
	}
	base := fmt.Sprintf("%s/%s-seed%d-trace%d", outDir, cfg.workload, cfg.seed, trace)
	facts["result"] = res
	if raw, err := json.MarshalIndent(facts, "", "  "); err == nil {
		if err := os.WriteFile(base+".json", raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing facts: %v\n", err)
		}
	}
	delete(facts, "result")
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if raw, err := json.Marshal(facts); err == nil {
		fmt.Printf("facts %s\n", raw)
	}
	fmt.Printf("%s\n", line)
}

// outDir holds the per-run facts, spans and exact-count records.
const outDir = ".bench_build/perfbench/out"

// phaseResult is one timed phase's traffic.
type phaseResult struct {
	attempted, failed int64
	wrong             int
	wrongMsgs         []string
	elapsed           time.Duration
	windows           []float64         // closed loop: completions/s per window
	rate              float64           // closed loop: their median (merged phases only)
	lat               [numOps][]float64 // per op in send order, µs
	lag               []float64         // µs
}

// progress logs a run's phases to standard error.
func progress(start time.Time, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs "+format+"\n", append([]any{time.Since(start).Seconds()}, a...)...)
}

// run executes one benchmark run and returns its result and facts.
func run(cfg config) (*result, map[string]any, error) {
	start := time.Now()
	w := workloads[cfg.workload]()
	if err := w.prepare(cfg.seed); err != nil {
		return nil, nil, fmt.Errorf("prepare: %w", err)
	}
	progress(start, "prepared inputs and oracle")
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			w.teardown()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		progress(start, "setup %d took %.2fs", i+1, setups[i])
	}
	defer w.teardown()

	total := time.Duration(cfg.seconds) * time.Second
	facts := hostFacts(cfg)
	facts["workload"] = cfg.workload
	facts["setup_s_samples"] = setups
	facts["open_rate_rps"] = w.openRate()
	facts["clients"] = 2
	facts["phase_rounds"] = phaseRounds

	// Closed loop: throughput. It runs untraced in every run, so the mutex
	// wait read around it is the serving tier's own. Open loop: latencies.
	// An untraced run alternates closed and open segments, so host drift
	// over the run lands on both phases' figures. A traced run alternates
	// untraced and traced open segments instead; the tracing overhead is the
	// median of the pairs' probe p50 differences.
	var phases, closedParts, openParts []*phaseResult
	var overheads []float64
	st0 := sumStats(w.servers())
	mw := 0.0
	runClosed := func(d time.Duration) {
		m0 := mutexWait()
		p := closedPhase(w, d)
		mw += mutexWait() - m0
		phases, closedParts = append(phases, p), append(closedParts, p)
	}
	if !cfg.trace {
		seg := total / phaseRounds
		for r := 0; r < phaseRounds; r++ {
			runClosed(seg / 2)
			o := openPhase(w, nil, seg/2)
			phases, openParts = append(phases, o), append(openParts, o)
		}
	} else {
		runClosed(total / 4)
		seg := time.Duration(0.6 / (2 * overheadPairs) * float64(total))
		for i := 0; i < overheadPairs; i++ {
			u := openPhase(w, nil, seg)
			t := openPhase(w, tr, seg)
			// median sorts its argument; the series keep their time order.
			p50 := func(p *phaseResult) float64 { return median(append([]float64(nil), p.lat[opProbe]...)) }
			overheads = append(overheads, p50(t)-p50(u))
			phases, openParts = append(phases, u, t), append(openParts, t)
		}
	}
	closed, open := merge(closedParts), merge(openParts)
	closed.rate = median(append([]float64(nil), closed.windows...))
	progress(start, "closed loop: %d requests", closed.attempted)
	progress(start, "open loop: %d requests", open.attempted)
	st1 := sumStats(w.servers())

	res := &result{Correct: true, Metrics: map[string]metric{}}
	wrong := 0
	var wrongMsgs []string
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		wrong += p.wrong
		wrongMsgs = append(wrongMsgs, p.wrongMsgs...)
	}
	if wrong > 0 {
		res.Correct = false
		for _, m := range wrongMsgs {
			fmt.Fprintf(os.Stderr, "perfbench: WRONG ANSWER: %s\n", m)
		}
	}
	facts["wrong_answers"] = wrong
	facts["error_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))

	// Open-loop latency per class: the median over all samples (a stall
	// must cover half of them to move it) is the end-to-end metric. The
	// tails go to the facts, both as medians over 1000-sample windows and
	// pooled, which keeps stalls in view.
	lat := map[string]float64{}
	notes := map[string]string{}
	tails := map[string]map[string]float64{}
	counts := map[string]int{}
	for o := op(0); o < numOps; o++ {
		name := opNames[o]
		counts[name] = len(open.lat[o])
		pooled := append([]float64(nil), open.lat[o]...)
		sort.Float64s(pooled)
		if v, _, ok := quantile(pooled, 0.5); ok {
			lat[name+"_p50_us"] = v
		}
		tails[name] = map[string]float64{}
		for _, q := range []float64{0.9, 0.95, 0.99} {
			key := fmt.Sprintf("p%g", 100*q)
			if v, note, ok := chunkedQuantile(open.lat[o], q); ok {
				tails[name][key] = v
				notes[name+"_"+key] = note
			}
			if v, used, ok := quantile(pooled, q); ok {
				tails[name][fmt.Sprintf("pooled_p%.2f", 100*used)] = v
			}
		}
	}
	facts["tails_us"] = tails
	facts["tail_notes"] = notes
	facts["open_counts"] = counts
	facts["generator_lag_us"] = lagFacts(open.lag)
	facts["closed_loop_s"] = closed.elapsed.Seconds()
	facts["closed_window_rps"] = closed.windows
	facts["open_loop_s"] = open.elapsed.Seconds()

	exact := map[string]float64{
		"max_label_bits": float64(w.labelBits()),
		"snapshot_bytes": float64(w.snapshotBytes()),
		"wrong_answers":  float64(wrong),
	}

	if !cfg.trace {
		for _, name := range latencyMetrics {
			v, ok := lat[name]
			if !ok {
				return nil, nil, fmt.Errorf("%s has no samples; the workload sends none of that class", name)
			}
			res.Metrics[name] = metric{v, "us"}
		}
		res.Metrics["setup_s"] = metric{median(append([]float64(nil), setups...)), "s"}
		res.Metrics["throughput_rps"] = metric{closed.rate, "1/s"}
		res.Metrics["max_label_bits"] = metric{float64(w.labelBits()), "bits"}
		res.Metrics["snapshot_mb"] = metric{float64(w.snapshotBytes()) / 1e6, "MB"}
		phases = nil
		res.Metrics["heap_live_mb"] = metric{liveHeapMB(), "MB"}
	} else {
		lp := &layerPass{w: w, tr: tr, metrics: map[string]metric{}, facts: map[string]any{}}
		lp.fromRun(st0, st1, mw, closed)
		lp.facts["trace_overhead_us_per_pair"] = append([]float64(nil), overheads...)
		lp.set("trace.overhead_us", median(overheads), "us")
		if err := lp.run(); err != nil {
			return nil, nil, fmt.Errorf("layer pass: %w", err)
		}
		progress(start, "layer pass done")
		for k, v := range lp.exact {
			exact[k] = v
		}
		res.Metrics = lp.metrics
		facts["layers"] = lp.facts
		facts["self_times"] = tr.selfTimes()
		spansPath := fmt.Sprintf("%s/%s-seed%d.spans.jsonl", outDir, cfg.workload, cfg.seed)
		if err := tr.write(spansPath); err != nil {
			return nil, nil, err
		}
		facts["spans_file"] = spansPath
	}
	drift, err := checkExact(cfg, facts["source_sha256"].(string), exact)
	if err != nil {
		return nil, nil, err
	}
	facts["exact_counts"] = exact
	if len(drift) > 0 {
		res.Correct = false
		facts["exact_drift"] = drift
		for _, d := range drift {
			fmt.Fprintf(os.Stderr, "perfbench: EXACT COUNT DRIFT: %s\n", d)
		}
	}
	return res, facts, nil
}

// phaseRounds is how many closed/open segment pairs an untraced run
// alternates; overheadPairs is how many untraced/traced open-loop segment
// pairs a traced run measures.
const (
	phaseRounds   = 4
	overheadPairs = 4
)

// merge joins segments of one phase: their counts, windows and series.
func merge(ps []*phaseResult) *phaseResult {
	m := &phaseResult{}
	for _, p := range ps {
		m.attempted += p.attempted
		m.failed += p.failed
		m.elapsed += p.elapsed
		m.windows = append(m.windows, p.windows...)
		for o := range p.lat {
			m.lat[o] = append(m.lat[o], p.lat[o]...)
		}
		m.lag = append(m.lag, p.lag...)
	}
	return m
}

// latencyMetrics are the end-to-end latency metrics every workload reports.
// The tails are recorded with the run's facts but are not end-to-end
// metrics: on this workload set they swing with compile and commit stalls
// far beyond any bound a regression check could use.
var latencyMetrics = []string{"probe_p50_us", "route_p50_us", "vprobe_p50_us"}

// doTraced runs one request through w, wrapping it in a request span.
func doTraced(w scenario, c *client, r request, reqID int64) error {
	c.req = reqID
	c.span = c.tr.begin("request."+opNames[r.op], -1, reqID)
	err := w.do(c, r)
	c.tr.end(c.span)
	return err
}

// closedPhase runs the closed loop, untraced, and checks its answers.
// Each timed phase starts from a collected heap, so the garbage set-up or
// an earlier phase left is not collected on its clock.
func closedPhase(w scenario, d time.Duration) *phaseResult {
	in := w.inputs()
	runtime.GC()
	clients := []*client{{}, {}}
	done, failed, ends := closedLoop(2, d, func(c, i int) error {
		// Each client walks the request stream from its own offset.
		r := in.pool[(c*poolSize/2+i)%poolSize]
		return doTraced(w, clients[c], r, int64(c)<<40|int64(i))
	})
	p := &phaseResult{attempted: done, failed: failed, elapsed: d, windows: windowRates(ends, d, rateWindows)}
	p.check(w, clients)
	return p
}

// openPhase runs the open loop at the workload's offered rate and checks
// its answers.
func openPhase(w scenario, tr *tracer, d time.Duration) *phaseResult {
	in := w.inputs()
	rate := w.openRate()
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	clients := []*client{{tr: tr}, {tr: tr}}
	runtime.GC()
	start := time.Now()
	samples := openLoop(realClock{base: time.Now()}, n, interval, 2, func(s, i int) error {
		return doTraced(w, clients[s], in.pool[i%poolSize], int64(1)<<50|int64(i))
	})
	p := &phaseResult{elapsed: time.Since(start), attempted: int64(n)}
	for i, s := range samples {
		if s.err {
			p.failed++
			continue
		}
		o := in.pool[i%poolSize].op
		p.lat[o] = append(p.lat[o], float64(s.lat)/1e3)
		p.lag = append(p.lag, float64(s.lag)/1e3)
	}
	p.check(w, clients)
	return p
}

// check verifies the clients' recorded answers and drops them.
func (p *phaseResult) check(w scenario, clients []*client) {
	var recs []record
	for _, c := range clients {
		recs = append(recs, c.recs...)
		c.recs = nil
	}
	p.wrong, p.wrongMsgs = w.oracle().verify(recs)
}

// lagFacts summarizes how late the open-loop generator sent requests.
func lagFacts(lag []float64) map[string]float64 {
	s := append([]float64(nil), lag...)
	out := map[string]float64{"median": median(s)}
	if v, _, ok := quantile(s, 0.99); ok {
		out["p99"] = v
	}
	if len(s) > 0 {
		out["max"] = s[len(s)-1]
	}
	return out
}

// sumStats adds up the serving counters of several servers.
func sumStats(srvs []*serve.Server) serve.Stats {
	var t serve.Stats
	for _, s := range srvs {
		st := s.Stats()
		t.Probes += st.Probes
		t.RoutePlans += st.RoutePlans
		t.VProbes += st.VProbes
		t.ApproxAnswers += st.ApproxAnswers
		t.CacheHits += st.CacheHits
		t.CacheMisses += st.CacheMisses
		t.CacheEvicted += st.CacheEvicted
		t.CacheRebased += st.CacheRebased
		t.CacheCapEvict += st.CacheCapEvict
		t.VCacheHits += st.VCacheHits
		t.VCacheMisses += st.VCacheMisses
		t.VCacheCapEvict += st.VCacheCapEvict
		t.ShedHTTP += st.ShedHTTP
		t.ShedBin += st.ShedBin
		t.ShedDeadline += st.ShedDeadline
	}
	return t
}

// mutexWait reads the runtime's cumulative mutex wait time in seconds.
func mutexWait() float64 {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checkExact compares this run's exact counts with the ones an earlier run
// of the same workload, seed and sources recorded in this checkout: those
// numbers must not move between runs of the same code, so any difference
// is reported as drift. The record is keyed by the source digest, so runs
// of changed code never compare with each other. Counts seen for the first
// time are recorded.
func checkExact(cfg config, digest string, exact map[string]float64) ([]string, error) {
	path := fmt.Sprintf("%s/%s-seed%d-%.16s.exact.json", outDir, cfg.workload, cfg.seed, digest)
	prev := map[string]float64{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &prev); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, err
	}
	var drift []string
	for k, v := range exact {
		if old, ok := prev[k]; ok && old != v {
			drift = append(drift, fmt.Sprintf("%s: %v in an earlier run, %v now", k, old, v))
		}
		if _, ok := prev[k]; !ok {
			prev[k] = v
		}
	}
	out, err := json.Marshal(prev)
	if err != nil {
		return nil, err
	}
	return drift, os.WriteFile(path, out, 0o644)
}
