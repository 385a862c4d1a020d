// Command ftcserve is the probe-serving daemon: it loads a scheme snapshot
// (or builds one from a graph file) and answers batched s–t connectivity
// probes over HTTP, caching compiled fault sets in one LRU so repeated
// probes of one failure event hit the zero-alloc steady-state path.
//
//	ftcserve -snapshot scheme.ftcsnap [-addr :8337] [-cache 256]
//	ftcserve -graph g.txt [-f 3] [-scheme det|greedy|rand|agm] [-seed 1] [-save scheme.ftcsnap]
//	ftcserve -graph g.txt -dynamic [-headroom 8]
//	ftcserve -snapshot scheme.ftcsnap -pprof localhost:6060
//	ftcserve -snapshot scheme.ftcsnap -listen-bin :8338
//	ftcserve -graph g.txt -dynamic -genlog gen.log                   (primary)
//	ftcserve -replica-of http://primary:8337 [-listen-bin :8339]     (replica)
//
// Loading a current-format (v5) or a v3 or v4 snapshot is O(1) in label
// bytes: the label arena is mapped lazily, so a replica is serving within
// milliseconds even when the labels run to hundreds of megabytes. A vertex
// label is decoded on its first probe and kept; an edge label is decoded,
// or rebuilt from a short v5 slot, each time a fault-set compile reads it,
// and is not kept; the once-per-generation route-table build reads only
// its ancestry labels. v1/v2 snapshots load lazily too, after one copy of
// their label bytes; `ftclabel build` writes this format.
//
// Endpoints:
//
//	POST /connected  {"faults":[[2,3]], "fault_edges":[7], "pairs":[[0,5],[1,4]]}
//	                 → {"connected":[true,false], "faults":2, "cache_hit":false, "generation":1}
//	POST /route      {"fault_edges":[0,2], "pairs":[[0,5]]}
//	                 → {"routes":[{"reachable":true,"path":[0,3,5]}], "confidence":"exact", ...}
//	POST /vconnected {"fault_vertices":[3,7], "pairs":[[0,5]]}
//	                 → {"connected":[true], "faults":2, "fault_edges":6, "confidence":"exact", ...}
//	POST /update     {"add":[[0,9]], "remove":[[2,3]]}   (-dynamic only)
//	                 → {"generation":2, "incremental":true, "relabeled":5, ...}
//	GET  /snapshot   the current generation as a binary snapshot (what replicas bootstrap from)
//	GET  /genlog?after=G  the log records after generation G, long-polled (what replicas tail; -genlog only)
//	GET  /healthz    liveness, scheme shape, and generation
//	GET  /stats      serving and cache counters (hits, misses, occupancy, sweep and LRU evictions)
//	GET  /metrics    the same counters in Prometheus text exposition format
//
// With -listen-bin the daemon additionally serves the binary frame protocol
// (internal/serve/wire) on a second listener: length-prefixed probe frames
// over persistent pipelined connections, sharing the fault-set cache and
// generation semantics with the HTTP surface while skipping JSON entirely —
// the hot path for probe-heavy clients (perfbench's edge-hot workload
// measures it).
//
// With -pprof the daemon additionally serves net/http/pprof on a separate
// side listener (keep it bound to localhost), so CPU and heap profiles can
// be scraped without occupying a serving connection.
//
// Faults may be given as [u,v] endpoint pairs or as edge indices (the
// insertion order of the graph); both forms of the same failure event share
// one cache entry. On a dynamic server edge indices are generation-scoped
// (an update that removes an edge shifts higher indices down); clients
// holding indices across updates should pin them by adding
// "generation": <g> to the probe, which is rejected with 409 when stale.
// With -dynamic the daemon serves a mutable ftc.Network:
// each /update batch commits a new generation — incrementally relabeling
// only what the batch dirties when it can — and evicts only the cached
// fault sets that contain a relabeled edge. The "one build, many decoders"
// pattern is: build once, -save the snapshot, then start any number of
// ftcserve replicas from it.
//
// Replication (DESIGN.md §3.13): a dynamic daemon started with -genlog
// becomes a primary — every committed generation is appended to the log
// file as a replayable delta, which replicas long-poll over HTTP
// (GET /genlog); a primary needs no -listen-bin to feed them. Both ends
// must run a build with this transport: one that tailed over the binary
// listener neither serves nor polls GET /genlog. The primary builds its
// scheme at generation 1, so it exits rather than adopt a log (or
// checkpoint) that ends at a later generation — a previous run's: move
// both aside to restart. A daemon started with
// -replica-of bootstraps from the primary's GET /snapshot and tails its
// generation log, replaying each delta to byte-identical labels; its
// /healthz reports role "replica" with the replication lag, and /metrics
// exports it as ftcserve_replica_lag_generations.
//
// Retention (DESIGN.md §3.14): -genlog-retain-records / -genlog-retain-bytes
// / -genlog-retain-age bound the log. When one trips after a commit, the
// primary writes a
// checkpoint (its current snapshot, to <log>.ckpt) and truncates the log
// down to the newest -genlog-retain-min records; /snapshot then serves the
// checkpoint, and a replica that fell behind the retained window refetches
// it (GET /genlog answers 410) and tails from there.
//
// Overload protection (DESIGN.md §3.16): -max-inflight caps concurrently
// served probes across both surfaces — excess HTTP probes get 503 with
// Retry-After, excess binary frames get a CodeUnavailable error frame,
// and either way the connection survives for the retry. -max-conn-queue
// bounds one binary connection's pipelined backlog in bytes. Probe frames
// may carry a deadline budget; a frame whose budget was already spent
// queueing is shed instead of served dead. Shed counts appear in /stats
// and /metrics (ftcserve_requests_shed_total).
//
// -failpoints arms the deterministic fault-injection registry
// (internal/faultinject) inside this daemon — connection resets, fsync
// latency, torn writes — for chaos drills; never set it in production.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener closes
// immediately and in-flight batch probes drain for up to 10 seconds.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	ftc "repro"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/serve"
	"repro/internal/serve/genlog"
)

func main() {
	addr := flag.String("addr", ":8337", "listen address")
	snapshot := flag.String("snapshot", "", "scheme snapshot to load (from ftcserve -save or ftc.Save)")
	graphPath := flag.String("graph", "", "graph file to build a scheme from (alternative to -snapshot)")
	f := flag.Int("f", 2, "fault budget when building from -graph")
	schemeKind := flag.String("scheme", "det", "det|greedy|rand|agm (with -graph)")
	seed := flag.Int64("seed", 1, "seed for randomized schemes (with -graph)")
	savePath := flag.String("save", "", "write the built scheme's snapshot here (with -graph)")
	cacheSize := flag.Int("cache", 256, "compiled fault-set cache capacity (entries, one LRU)")
	dynamic := flag.Bool("dynamic", false, "serve a mutable network with POST /update (with -graph)")
	headroom := flag.Int("headroom", 0, "per-vertex incremental insertion headroom (with -dynamic; 0 = default)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty = off)")
	listenBin := flag.String("listen-bin", "", "additionally serve the binary frame protocol on this address (e.g. :8338; empty = off)")
	genlogPath := flag.String("genlog", "", "append committed generations to this log file, which replicas tail over HTTP (primary role; requires -dynamic)")
	retainRecords := flag.Int("genlog-retain-records", 0, "compact the generation log when it holds more than this many records (0 = unbounded; with -genlog)")
	retainBytes := flag.Int64("genlog-retain-bytes", 0, "compact the generation log when the file exceeds this many bytes (0 = unbounded; with -genlog)")
	retainAge := flag.Duration("genlog-retain-age", 0, "compact generation-log records older than this (e.g. 6h; 0 = unbounded; ages run from append, checked on the commit path; with -genlog)")
	retainMin := flag.Int("genlog-retain-min", 16, "generations kept in the log across a compaction (with -genlog-retain-*)")
	replicaOf := flag.String("replica-of", "", "tail this primary's generation log (HTTP base URL, e.g. http://host:8337); mutually exclusive with -snapshot/-graph")
	maxInflight := flag.Int("max-inflight", 0, "admission cap on concurrently served probes across both surfaces; excess is shed with 503/CodeUnavailable (0 = unbounded)")
	maxConnQueue := flag.Int("max-conn-queue", 0, "per-connection cap in bytes on a binary connection's pipelined backlog; frames over it are shed (0 = unbounded)")
	failpoints := flag.String("failpoints", "", "arm deterministic failpoints, e.g. 'genlog.fsync=latency:5ms;binserver.conn.read=error-rate:0.01' (chaos testing only; see internal/faultinject)")
	failpointSeed := flag.Int64("failpoint-seed", 1, "seed for failpoint randomness (with -failpoints)")
	flag.Parse()

	if *failpoints != "" {
		reg, err := faultinject.Parse(*failpoints, *failpointSeed)
		if err != nil {
			log.Fatalf("ftcserve: -failpoints: %v", err)
		}
		faultinject.Arm(reg)
		log.Printf("FAILPOINTS ARMED (seed %d): %s — this daemon will misbehave on purpose", *failpointSeed, *failpoints)
	}

	var srv *serve.Server
	var replicator *serve.Replicator
	if *replicaOf != "" {
		if *snapshot != "" || *graphPath != "" || *dynamic || *genlogPath != "" {
			log.Fatalf("ftcserve: -replica-of is mutually exclusive with -snapshot/-graph/-dynamic/-genlog")
		}
		primary := *replicaOf
		if !strings.Contains(primary, "://") {
			primary = "http://" + primary
		}
		rep, err := serve.NewReplicator(primary, serve.ReplicatorOptions{CacheSize: *cacheSize})
		if err != nil {
			log.Fatalf("ftcserve: %v", err)
		}
		replicator = rep
		srv = rep.Server()
		s := rep.Scheme()
		log.Printf("replica of %s: bootstrapped at generation %d (n=%d m=%d f=%d)",
			primary, s.Generation(), s.N(), s.Graph().M(), s.MaxFaults())
		if err := rep.Start(); err != nil {
			log.Fatalf("ftcserve: %v", err)
		}
	} else {
		var err error
		srv, err = openServer(*snapshot, *graphPath, *f, *schemeKind, *seed, *savePath, *cacheSize, *dynamic, *headroom)
		if err != nil {
			log.Fatalf("ftcserve: %v", err)
		}
		if *genlogPath == "" && (*retainRecords > 0 || *retainBytes > 0 || *retainAge > 0) {
			log.Fatalf("ftcserve: -genlog-retain-* requires -genlog")
		}
		if *genlogPath != "" {
			if !*dynamic {
				log.Fatalf("ftcserve: -genlog requires -dynamic (a static scheme never commits generations)")
			}
			l, err := genlog.Open(*genlogPath)
			if err != nil {
				log.Fatalf("ftcserve: genlog: %v", err)
			}
			l.SetRetention(genlog.Retention{
				MaxRecords: *retainRecords,
				MaxBytes:   *retainBytes,
				MaxAge:     *retainAge,
				MinRetain:  *retainMin,
			})
			if err := srv.AttachGenLog(l); err != nil {
				log.Fatalf("ftcserve: genlog: %v", err)
			}
			// A pre-existing log may already exceed the policy; compact it
			// now rather than waiting for the first commit.
			srv.MaybeCompactGenLog()
			st := l.Stats()
			if st.CheckpointGen > 0 {
				log.Printf("generation log %s: %d records (generations %d..%d), checkpoint at generation %d, retention {records>%d bytes>%d keep %d}",
					*genlogPath, st.Records, st.FirstGen, st.LastGen, st.CheckpointGen, *retainRecords, *retainBytes, *retainMin)
			} else {
				log.Printf("generation log %s: %d records (generations %d..%d)", *genlogPath, st.Records, st.FirstGen, st.LastGen)
			}
		}
	}

	if *maxInflight > 0 || *maxConnQueue > 0 {
		srv.SetAdmission(*maxInflight, *maxConnQueue)
		log.Printf("admission gate: max %d in-flight probes, %d bytes of per-connection backlog (0 = unbounded)",
			*maxInflight, *maxConnQueue)
	}

	// The profiling listener is deliberately separate from the serving
	// listener: it can stay bound to localhost while the daemon serves
	// publicly, and a profile scrape can never occupy a serving connection.
	// Importing net/http/pprof registers its handlers on the default mux,
	// which the main server below never uses.
	if *pprofAddr != "" {
		// With profiling on, also sample lock contention: the mutex and block
		// profiles show where probes wait when the cache lock is the
		// bottleneck (perfbench reports the same wait as
		// serve.mutex_wait_ns).
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(100_000) // sample blocks ≥100µs
		go func() {
			log.Printf("pprof listening on %s (/debug/pprof/)", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("ftcserve: pprof listener: %v", err)
			}
		}()
	}

	// The binary frame listener shares the Server — and therefore the
	// fault-set cache, the generation-aware retry, and the update path —
	// with the HTTP handler; it only swaps the serialization.
	var binLn net.Listener
	if *listenBin != "" {
		var err error
		binLn, err = net.Listen("tcp", *listenBin)
		if err != nil {
			log.Fatalf("ftcserve: bin listener: %v", err)
		}
		// Advertise the concrete listener address on /healthz so fronts and
		// operators holding the HTTP address can find where to probe.
		srv.SetBinAddr(binLn.Addr().String())
		go func() {
			log.Printf("binary protocol listening on %s", *listenBin)
			if err := srv.ServeBin(binLn); err != nil {
				log.Printf("ftcserve: bin listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("listening on %s", *addr)

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, drain in-flight
	// batch probes, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("ftcserve: %v", err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("shutting down: draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Both protocol surfaces drain concurrently under one deadline: the
		// bin side closes its listener, wakes idle connections, and lets
		// frames already in flight finish and flush.
		var wg sync.WaitGroup
		if binLn != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = binLn.Close()
				srv.ShutdownBin(shutdownCtx)
			}()
		}
		if replicator != nil {
			replicator.Stop()
		}
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("ftcserve: forced shutdown: %v", err)
			_ = httpSrv.Close()
		}
		wg.Wait()
		if l := srv.GenLog(); l != nil {
			_ = l.Close()
		}
	}
	log.Printf("bye")
}

func schemeOptions(f int, kind string, seed int64, headroom int) ([]ftc.Option, error) {
	opts := []ftc.Option{ftc.WithMaxFaults(f)}
	switch kind {
	case "det":
		opts = append(opts, ftc.WithDeterministic())
	case "greedy":
		opts = append(opts, ftc.WithGreedyNet())
	case "rand":
		opts = append(opts, ftc.WithRandomized(seed))
	case "agm":
		opts = append(opts, ftc.WithAGM(seed))
	default:
		return nil, fmt.Errorf("unknown scheme %q", kind)
	}
	if headroom > 0 {
		opts = append(opts, ftc.WithHeadroom(headroom))
	}
	return opts, nil
}

func openServer(snapshot, graphPath string, f int, kind string, seed int64, savePath string, cacheSize int, dynamic bool, headroom int) (*serve.Server, error) {
	switch {
	case snapshot != "" && graphPath != "":
		return nil, fmt.Errorf("-snapshot and -graph are mutually exclusive")
	case snapshot != "" && savePath != "":
		return nil, fmt.Errorf("-save only applies when building from -graph")
	case dynamic && graphPath == "":
		return nil, fmt.Errorf("-dynamic requires -graph (a snapshot is a frozen generation)")
	case snapshot != "":
		// One pre-sized read, then a zero-copy load: a v3–v5 snapshot's label
		// arena aliases this buffer and decodes lazily per probe, so the
		// daemon is serving as soon as the graph section is parsed.
		data, err := os.ReadFile(snapshot)
		if err != nil {
			return nil, err
		}
		sch, err := ftc.LoadBytes(data)
		if err != nil {
			return nil, err
		}
		banner(sch.Stats(), sch.Graph(), sch.MaxFaults(), false)
		return serve.New(sch, cacheSize), nil
	case graphPath != "":
		in, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		defer in.Close()
		g, err := graphio.ReadGraph(in)
		if err != nil {
			return nil, err
		}
		opts, err := schemeOptions(f, kind, seed, headroom)
		if err != nil {
			return nil, err
		}
		if dynamic {
			nw, err := ftc.OpenFromGraph(g, opts...)
			if err != nil {
				return nil, err
			}
			if savePath != "" {
				if err := saveSnapshot(nw.Snapshot(), savePath); err != nil {
					return nil, err
				}
			}
			banner(nw.Stats(), nw.Graph(), nw.MaxFaults(), true)
			return serve.NewDynamic(func() serve.Scheme { return nw.Snapshot() }, nw, cacheSize), nil
		}
		sch, err := ftc.NewFromGraph(g, opts...)
		if err != nil {
			return nil, err
		}
		if savePath != "" {
			if err := saveSnapshot(sch, savePath); err != nil {
				return nil, err
			}
		}
		banner(sch.Stats(), sch.Graph(), sch.MaxFaults(), false)
		return serve.New(sch, cacheSize), nil
	default:
		return nil, fmt.Errorf("one of -snapshot or -graph is required")
	}
}

func saveSnapshot(sch *ftc.Scheme, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sch.Save(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	log.Printf("saved snapshot to %s", path)
	return nil
}

func banner(st ftc.Stats, g *graph.Graph, f int, dynamic bool) {
	mode := "static"
	if dynamic {
		mode = "dynamic"
	}
	log.Printf("serving %s %s scheme: n=%d m=%d f=%d (max edge label %d bits)",
		mode, st.Kind, g.N(), g.M(), f, st.MaxEdgeLabelBits)
}
