// Package serve is the probe-serving layer behind cmd/ftcserve: an HTTP
// handler that answers batched s–t connectivity probes against one scheme,
// with one LRU of compiled core.FaultSets so that repeated probes of the
// same failure event hit the zero-alloc steady-state path instead of
// re-compiling the fault labels per request (the "one failure event, many
// probes" deployment pattern of §7). Both protocol surfaces and all three
// query products share one executor (executor.go), which canonicalizes and
// hashes each request body at most once into pooled scratch and answers
// the whole batch per cache stab.
//
// A server can also be generation-aware: opened over a mutable network
// (ftc.Network) it additionally serves POST /update, committing a batch of
// edge insertions/deletions as a new generation and sweeping the fault-set
// cache selectively — only entries containing a relabeled or removed edge
// are evicted; every other entry is rebased to the new generation with its
// warm closure intact (sound because an update whose tree paths avoid a
// fault set's subtree boundaries cannot change that fault set's
// connectivity partition; DESIGN.md §3.10).
//
// The package lives below the commands so the daemon (cmd/ftcserve), the
// repository benchmark (perfbench) and the chaos drill (cmd/ftcbench chaos)
// share one implementation, and so the cache's concurrency can be
// exercised directly under -race.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/serve/genlog"
	"repro/internal/serve/products"
	"repro/internal/serve/wire"
)

// Scheme is the read-side surface the server needs: label access plus the
// graph for resolving client-facing edge endpoints to edge indices.
// *ftc.Scheme, *ftc.LoadedScheme, and ftc.Network snapshots all satisfy it.
type Scheme interface {
	Graph() *graph.Graph
	MaxFaults() int
	Generation() uint64
	VertexLabel(v int) core.VertexLabel
	EdgeLabelByIndex(e int) core.EdgeLabel
	EdgeEnds(e int) (parent, child ancestry.Label)
}

// Updatable is the construction-side surface of a dynamic network:
// committing one batch of endpoint-pair mutations, which also yields the
// generation delta a server with a generation log attached appends.
// *ftc.Network satisfies it.
type Updatable interface {
	CommitBatchWithDelta(add, remove [][2]int) (*core.CommitReport, *core.GenDelta, error)
}

// Snapshotter is the optional scheme surface behind GET /snapshot: any
// view whose schemes can serialize themselves (ftc.Scheme, ftc.Network
// snapshots, the replica adapter) makes the server a snapshot source for
// replica bootstrap.
type Snapshotter interface {
	Save(w io.Writer) error
}

// ReplicaStatus is the replication telemetry a tailing replica feeds its
// server for /healthz and /metrics (see the Replicator in replica.go).
type ReplicaStatus struct {
	// State is "syncing" (bootstrapping or catching up), "ok" (streaming
	// at the primary's head), or "disconnected" (redialing the primary).
	State string `json:"state"`
	// SourceGen is the newest generation observed from the primary;
	// LocalGen the replica's serving generation. Lag in generations is
	// SourceGen - LocalGen.
	SourceGen uint64 `json:"source_generation"`
	LocalGen  uint64 `json:"local_generation"`
	// BytesReceived / BytesApplied are cumulative log-record payload
	// bytes; their difference is the replication lag in bytes.
	BytesReceived uint64 `json:"bytes_received"`
	BytesApplied  uint64 `json:"bytes_applied"`
	// RecordsApplied counts delta records replayed onto the serving
	// scheme; SnapshotLoads counts full snapshot (re)fetches — 1 after a
	// clean boot, unchanged across a kill/restart that caught up from the
	// log alone.
	RecordsApplied uint64 `json:"records_applied"`
	SnapshotLoads  uint64 `json:"snapshot_loads"`
	// CatchingUp is true from bootstrap (or a snapshot refetch) until the
	// replica first reaches zero generation lag. /healthz reports 503
	// while it is set, so fronts and load balancers never route to a
	// replica that has not yet served the primary's head once.
	CatchingUp bool `json:"catching_up"`
}

// LagGenerations is the replication lag in generations.
func (rs ReplicaStatus) LagGenerations() uint64 {
	if rs.SourceGen < rs.LocalGen {
		return 0
	}
	return rs.SourceGen - rs.LocalGen
}

// Server serves connectivity probes for one scheme — static, or dynamic
// with generation-aware cache invalidation.
type Server struct {
	view  func() Scheme // consistent immutable snapshot per call
	upd   Updatable     // nil for static schemes
	cache *lruCache
	start time.Time

	// Query products (DESIGN.md §3.15): products hands out the
	// per-generation routing tables. Vertex probes share the one cache
	// through their incident edges; vprobeHits/vprobeMisses count their
	// lookups of it.
	products     *products.Products
	vprobeHits   atomic.Uint64
	vprobeMisses atomic.Uint64

	// updMu serializes commits with their cache sweeps so sweeps apply in
	// generation order.
	updMu sync.Mutex

	requests atomic.Uint64
	updates  atomic.Uint64

	// Per-product counters: pairs answered by each product (both
	// surfaces), and the route and vertex pairs answered over the f
	// budget from a forest of G − F.
	answered        [numProducts]atomic.Uint64
	overBudgetPairs atomic.Uint64

	// Replication surface: the generation log this (primary) server
	// appends to and serves GET /genlog from, the channel the next append
	// closes to wake the polls waiting at the log's head, and the status
	// callback a tailing replica installs. commits counts committed
	// generations from any source — local /update commits and replayed
	// replica records alike.
	genlog        *genlog.Log
	commits       atomic.Uint64
	logAppended   atomic.Uint64
	snapFailures  atomic.Uint64
	logMu         sync.Mutex
	logWake       chan struct{}
	binAddr       atomic.Pointer[string]
	replicaStatus atomic.Pointer[func() ReplicaStatus]

	// Binary-protocol surface (binserver.go): frame counters plus the
	// connection registry ShutdownBin drains.
	binRequests atomic.Uint64
	frameErrors atomic.Uint64
	binInflight atomic.Int64
	binConns    atomic.Int64
	binMu       sync.Mutex
	binOpen     map[net.Conn]struct{}
	binDraining atomic.Bool // written under binMu; the frame loop reads it lock-free

	// Overload protection (DESIGN.md §3.16): when admitMax > 0 the probe
	// surfaces admit at most that many concurrent batches across HTTP and
	// binary connections combined; excess requests are shed immediately
	// (HTTP 503 + Retry-After, wire CodeUnavailable) instead of queueing
	// without bound. connQueueMax bounds the bytes a single pipelined
	// binary connection may hold buffered awaiting service.
	admitMax     atomic.Int64
	connQueueMax atomic.Int64
	httpInflight atomic.Int64
	shedHTTP     atomic.Uint64
	shedBin      atomic.Uint64
	shedDeadline atomic.Uint64
}

// New returns a server over the static scheme sch with an LRU holding up
// to cacheSize compiled fault sets (minimum 1).
func New(sch Scheme, cacheSize int) *Server {
	return NewDynamic(func() Scheme { return sch }, nil, cacheSize)
}

// NewDynamic returns a generation-aware server. view must return the
// current immutable snapshot (e.g. ftc.Network.Snapshot); upd, when
// non-nil, enables POST /update and is used to commit batches. Probes
// racing an update are retried once against the fresh generation, so
// clients see either the old or the new topology, never an error from the
// race itself.
func NewDynamic(view func() Scheme, upd Updatable, cacheSize int) *Server {
	return &Server{
		view:     view,
		upd:      upd,
		cache:    newLRUCache(cacheSize),
		products: products.New(),
		start:    time.Now(),
	}
}

// AttachGenLog makes the server a replication primary: every /update
// commit is exported as a generation delta and appended to l, which
// replicas tail through GET /genlog; attach before serving. A
// log that already ends at another generation than the server's — a
// previous run's log, reopened by a primary that rebuilt from scratch — is
// refused: replicas would replay a history this server never had, and its
// next commit could not be appended.
func (s *Server) AttachGenLog(l *genlog.Log) error {
	if s.upd == nil {
		return errors.New("serve: generation log requires a dynamic server")
	}
	st := l.Stats()
	if head, gen := max(st.LastGen, st.CheckpointGen), s.view().Generation(); head != 0 && head != gen {
		return fmt.Errorf("serve: generation log ends at generation %d but the server is at generation %d; move the log and its .ckpt aside to start a new one", head, gen)
	}
	s.genlog = l
	return nil
}

// GenLog returns the attached generation log (nil on non-primaries).
func (s *Server) GenLog() *genlog.Log { return s.genlog }

// MaybeCompactGenLog runs one retention check against the attached
// generation log, compacting if the policy has tripped. The commit path
// runs this automatically after every /update; call it directly at
// startup, when a pre-existing log may already exceed the policy.
func (s *Server) MaybeCompactGenLog() {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	s.maybeCompactGenLogLocked()
}

// maybeCompactGenLogLocked is MaybeCompactGenLog under updMu: with
// commits serialized, s.view() is the just-committed snapshot, so the
// checkpoint generation equals the log's head and every retained record
// is at or below it. Compaction failures are logged, not fatal — the
// server keeps serving and retention simply re-trips on the next commit.
func (s *Server) maybeCompactGenLogLocked() {
	if s.genlog == nil {
		return
	}
	through, ok := s.genlog.CompactTarget()
	if !ok {
		return
	}
	sch := s.view()
	sv, ok := sch.(Snapshotter)
	if !ok {
		return
	}
	res, err := s.genlog.Compact(through, sch.Generation(), sv.Save)
	if err != nil {
		log.Printf("serve: genlog compaction through generation %d failed: %v", through, err)
		return
	}
	if res.Dropped > 0 {
		log.Printf("serve: genlog compacted through generation %d: dropped %d records, retained %d, reclaimed %d bytes, checkpoint at generation %d",
			through, res.Dropped, res.Retained, res.BytesReclaimed, res.CheckpointGen)
	}
}

// SetAdmission installs the overload-protection bounds: maxInflight caps
// concurrently admitted probe batches across the HTTP and binary surfaces
// combined (0 disables the gate), and maxConnQueue caps the bytes one
// pipelined binary connection may hold buffered awaiting service (0
// disables; frames beyond the cap are shed with CodeUnavailable, the
// connection stays up). Callable at any time, including while serving.
func (s *Server) SetAdmission(maxInflight, maxConnQueue int) {
	s.admitMax.Store(int64(maxInflight))
	s.connQueueMax.Store(int64(maxConnQueue))
}

// admitHTTP reserves an admission slot for one HTTP probe batch, shedding
// with 503 + Retry-After when the server is over its in-flight cap. The
// caller must releaseHTTP after answering iff admitHTTP returned true.
func (s *Server) admitHTTP(w http.ResponseWriter) bool {
	inflight := s.httpInflight.Add(1)
	if max := s.admitMax.Load(); max > 0 && inflight+s.binInflight.Load() > max {
		s.httpInflight.Add(-1)
		s.shedHTTP.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "overloaded: probe shed, retry later"})
		return false
	}
	return true
}

func (s *Server) releaseHTTP() { s.httpInflight.Add(-1) }

// SetBinAddr advertises the binary listener's address in /healthz
// (bin_addr), so fronts and operators holding only the HTTP address can
// find where to probe.
func (s *Server) SetBinAddr(addr string) { s.binAddr.Store(&addr) }

// SetReplicaStatusFn installs the telemetry callback a tailing replica
// feeds /healthz and /metrics from.
func (s *Server) SetReplicaStatusFn(fn func() ReplicaStatus) { s.replicaStatus.Store(&fn) }

// nextAppend returns the channel the next append closes. A poll takes it
// before it reads the log, so an append in between still wakes it.
func (s *Server) nextAppend() <-chan struct{} {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.logWake == nil {
		s.logWake = make(chan struct{})
	}
	return s.logWake
}

// notifyLogSubs wakes every GET /genlog waiting at the log's head after an
// append: it closes the channel they hold and clears it for the next one.
func (s *Server) notifyLogSubs() {
	s.logMu.Lock()
	if s.logWake != nil {
		close(s.logWake)
		s.logWake = nil
	}
	s.logMu.Unlock()
}

// ApplyReplicatedCommit runs the selective cache sweep for a commit report
// replayed from the generation log — the replica-side twin of the /update
// path's sweep, under the same lock so sweeps apply in generation order.
func (s *Server) ApplyReplicatedCommit(rep *core.CommitReport) (evicted, rebased int) {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	s.commits.Add(1)
	return s.cache.applyUpdate(rep)
}

// FaultSet resolves the given fault edge indices against the current
// snapshot to a compiled FaultSet, serving it from the cache when the same
// failure event was compiled before at the same generation. The cache key
// is a hash of the canonical (sorted, deduplicated) fault edge indices, so
// any client-side ordering or duplication of one failure event maps to one
// entry. The hit flag reports whether the cache already held the compiled
// set.
func (s *Server) FaultSet(faultEdges []int) (*core.FaultSet, bool, error) {
	canon := wire.Canonicalize(append([]int(nil), faultEdges...))
	sch := s.view()
	if err := checkEdges(canon, sch.Graph().M()); err != nil {
		return nil, false, err
	}
	return s.resolve(sch, canon, wire.FaultKey(canon))
}

// ConnectedRequest is the wire form of a POST /connected batch probe: one
// failure event (edges by [u,v] endpoint pair and/or by edge index), many
// s–t vertex pairs.
//
// On a dynamic server, fault edge *indices* are generation-scoped: an
// /update that removes an edge shifts every higher index down, so an index
// cached by a client denotes a different edge afterwards. Clients holding
// indices across updates should pin the generation they resolved them
// against via Generation — a mismatched pin is rejected with 409 instead
// of silently probing the wrong edges. The [u,v] endpoint form needs no
// pin; endpoints are stable names.
type ConnectedRequest struct {
	Faults     [][2]int `json:"faults,omitempty"`
	FaultEdges []int    `json:"fault_edges,omitempty"`
	Pairs      [][2]int `json:"pairs"`
	Generation uint64   `json:"generation,omitempty"`
}

// ConnectedResponse answers a batch probe.
type ConnectedResponse struct {
	Connected  []bool `json:"connected"`
	Faults     int    `json:"faults"`
	CacheHit   bool   `json:"cache_hit"`
	Generation uint64 `json:"generation"`
}

// UpdateRequest is the wire form of a POST /update batch: edges to insert
// and delete, by [u,v] endpoint pair, committed as one generation.
type UpdateRequest struct {
	Add    [][2]int `json:"add,omitempty"`
	Remove [][2]int `json:"remove,omitempty"`
}

// UpdateResponse reports a committed update batch.
type UpdateResponse struct {
	Generation   uint64 `json:"generation"`
	Incremental  bool   `json:"incremental"`
	Reason       string `json:"reason,omitempty"`
	Relabeled    int    `json:"relabeled"`
	Removed      int    `json:"removed"`
	CacheEvicted int    `json:"cache_evicted"`
	CacheRebased int    `json:"cache_rebased"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxRequestBytes bounds a request body.
const maxRequestBytes = 1 << 20

// Handler returns the HTTP surface of the server:
//
//	POST /connected  — batch probe (ConnectedRequest → ConnectedResponse)
//	POST /route      — forbidden-set route plans (RouteRequest → RouteResponse)
//	POST /vconnected — batch probe under vertex faults (VConnectedRequest → VConnectedResponse)
//	POST /update     — commit a topology batch (dynamic servers only)
//	GET  /healthz    — liveness plus scheme shape
//	GET  /stats      — serving and cache counters
//	GET  /metrics    — the same counters in Prometheus text format
//	GET  /snapshot   — the binary snapshot replicas bootstrap from
//	GET  /genlog     — long-poll of the generation-log records after ?after=G (primaries only)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /connected", s.handleQuery(productProbe))
	mux.HandleFunc("POST /route", s.handleQuery(productRoute))
	mux.HandleFunc("POST /vconnected", s.handleQuery(productVProbe))
	if s.upd != nil {
		mux.HandleFunc("POST /update", s.handleUpdate)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /genlog", s.handleGenlog)
	return mux
}

// handleSnapshot streams a binary snapshot — the replica bootstrap path.
// When the generation log carries a compaction checkpoint, the checkpoint
// is served (with an exact Content-Length, since its size is known): its
// generation is covered by the log's retained window — the two are updated
// atomically under the log's lock — so a replica bootstrapping from it can
// always tail; if a later compaction outruns a slow bootstrap the tail gets
// a 410 and the replica refetches, converging on a newer checkpoint.
// Otherwise (no checkpoint, or a full-rebuild marker newer than it) the
// current generation's live snapshot is streamed from the immutable view:
// consistent under concurrent commits, and at or past every logged
// generation because commits publish before they append.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.genlog != nil {
		if r, info, err := s.genlog.OpenCheckpoint(); err == nil {
			defer r.Close()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", fmt.Sprint(info.Payload))
			w.Header().Set("X-Ftc-Generation", fmt.Sprint(info.Gen))
			if _, err := io.Copy(faultinject.WrapWriter("snapshot.stream", w), r); err != nil {
				s.abortSnapshotStream(w, info.Gen, err)
			}
			return
		} else if !errors.Is(err, genlog.ErrNoCheckpoint) {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "checkpoint open failed: " + err.Error()})
			return
		}
	}
	sch := s.view()
	sv, ok := sch.(Snapshotter)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "scheme does not support snapshots"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ftc-Generation", fmt.Sprint(sch.Generation()))
	if err := sv.Save(faultinject.WrapWriter("snapshot.stream", w)); err != nil {
		s.abortSnapshotStream(w, sch.Generation(), err)
	}
}

// genlogPollWait bounds how long GET /genlog holds a poll at the log's head
// before it answers with an empty body, so every poll ends well inside an
// HTTP write timeout and a graceful shutdown.
const genlogPollWait = time.Second

// handleGenlog serves GET /genlog?after=G, the replica tail: 200 with
// X-Ftc-Generation set to the serving generation, then every log record
// after G, each framed by wire.AppendLogRecord. At the log's head the
// headers go out at once and the body waits for the next append, the
// request's end, or genlogPollWait, whichever comes first. 410 means the log
// no longer covers G: the caller must refetch /snapshot. A compaction
// during the wait leaves the body empty, and the next poll gets the 410.
func (s *Server) handleGenlog(w http.ResponseWriter, r *http.Request) {
	if s.genlog == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no generation log attached (not a primary)"})
		return
	}
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad after: " + err.Error()})
		return
	}
	wake := s.nextAppend()
	recs, ok := s.genlog.After(after)
	if !ok {
		writeJSON(w, http.StatusGone, errorResponse{Error: fmt.Sprintf("generation log starts after %d; refetch a snapshot", after)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ftc-Generation", fmt.Sprint(s.view().Generation()))
	w.WriteHeader(http.StatusOK)
	if len(recs) == 0 {
		_ = http.NewResponseController(w).Flush()
		t := time.NewTimer(genlogPollWait)
		defer t.Stop()
		select {
		case <-wake:
		case <-r.Context().Done():
		case <-t.C:
		}
		recs, _ = s.genlog.After(after)
	}
	var frame []byte
	for _, rec := range recs {
		frame = wire.AppendLogRecord(frame[:0], rec.Payload)
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
}

// abortSnapshotStream cuts a /snapshot response whose body failed
// mid-stream. The 200 and headers are already gone, so the only correct
// move is to make the truncation visible to the client: hijack and close
// the connection when possible, otherwise panic with http.ErrAbortHandler
// so net/http resets the stream (the HTTP/2 path, where ResponseWriter is
// not a Hijacker). Either way the replica sees a short/invalid body —
// which it rejects at decode or token verification — instead of silently
// applying a truncated snapshot.
func (s *Server) abortSnapshotStream(w http.ResponseWriter, gen uint64, err error) {
	s.snapFailures.Add(1)
	log.Printf("serve: snapshot stream at generation %d failed mid-body: %v", gen, err)
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// Serialize commit + cache sweep so sweeps apply in generation order;
	// probes keep flowing against whichever snapshot they grabbed. The
	// deferred unlock keeps the update path alive even if a commit panics
	// (net/http recovers handler panics, and a stuck updMu would deadlock
	// every later /update).
	rep, evicted, rebased, err := func() (*core.CommitReport, int, int, error) {
		s.updMu.Lock()
		defer s.updMu.Unlock()
		rep, delta, err := s.upd.CommitBatchWithDelta(req.Add, req.Remove)
		if err != nil {
			return nil, 0, 0, err
		}
		if s.genlog != nil && delta != nil {
			// Append before the sweep so a subscriber woken by the notify
			// can never observe a generation the log does not yet carry.
			if _, err := s.genlog.Append(delta); err != nil {
				// The commit is already published; an unloggable commit is
				// an operator-level failure (disk). Report it loudly — the
				// local server keeps serving the new generation either way.
				return nil, 0, 0, fmt.Errorf("generation %d committed but genlog append failed: %w", rep.Gen, err)
			}
			s.logAppended.Add(1)
		}
		evicted, rebased := s.cache.applyUpdate(rep)
		// Retention check after the commit is fully applied: updMu
		// guarantees s.view() here is the just-committed generation, so
		// the checkpoint is taken at the log's head.
		s.maybeCompactGenLogLocked()
		return rep, evicted, rebased, nil
	}()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	if s.genlog != nil {
		s.notifyLogSubs()
	}
	s.updates.Add(1)
	s.commits.Add(1)
	writeJSON(w, http.StatusOK, UpdateResponse{
		Generation:   rep.Gen,
		Incremental:  rep.Incremental,
		Reason:       rep.Reason,
		Relabeled:    len(rep.Relabeled),
		Removed:      len(rep.Removed),
		CacheEvicted: evicted,
		CacheRebased: rebased,
	})
}

// Healthz is the GET /healthz payload. Role is "static", "primary" (a
// generation log is attached), or "replica" (tailing one); Replication is
// present only on replicas and carries the catch-up state — a replica
// reports status "syncing" until it is streaming at the primary's head, so
// fleet tooling can gate traffic on status == "ok".
type Healthz struct {
	Status      string         `json:"status"`
	N           int            `json:"n"`
	M           int            `json:"m"`
	MaxFaults   int            `json:"max_faults"`
	Generation  uint64         `json:"generation"`
	Dynamic     bool           `json:"dynamic"`
	Role        string         `json:"role"`
	BinAddr     string         `json:"bin_addr,omitempty"`
	LogFirstGen uint64         `json:"log_first_generation,omitempty"`
	LogLastGen  uint64         `json:"log_last_generation,omitempty"`
	LogRecords  int            `json:"log_records,omitempty"`
	LogCkptGen  uint64         `json:"log_checkpoint_generation,omitempty"`
	Replication *ReplicaStatus `json:"replication,omitempty"`
	// CatchingUp mirrors Replication.CatchingUp at the top level; when
	// set the handler answers 503 so "healthy" == "HTTP 200" for fronts.
	CatchingUp bool `json:"catching_up,omitempty"`
	// ReplicaLagGenerations surfaces the replication lag where fronts
	// already look, so lag-weighted routing needs no second request.
	ReplicaLagGenerations uint64 `json:"replica_lag_generations,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	sch := s.view()
	h := Healthz{
		Status:     "ok",
		N:          sch.Graph().N(),
		M:          sch.Graph().M(),
		MaxFaults:  sch.MaxFaults(),
		Generation: sch.Generation(),
		Dynamic:    s.upd != nil,
		Role:       "static",
	}
	if addr := s.binAddr.Load(); addr != nil {
		h.BinAddr = *addr
	}
	if s.genlog != nil {
		h.Role = "primary"
		lst := s.genlog.Stats()
		h.LogFirstGen, h.LogLastGen = lst.FirstGen, lst.LastGen
		h.LogRecords = lst.Records
		h.LogCkptGen = lst.CheckpointGen
	}
	status := http.StatusOK
	if fnp := s.replicaStatus.Load(); fnp != nil {
		h.Role = "replica"
		rs := (*fnp)()
		h.Replication = &rs
		h.ReplicaLagGenerations = rs.LagGenerations()
		if rs.State != "ok" {
			h.Status = "syncing"
		}
		// A replica that has never reached the primary's head is not
		// servable: report 503 until the first full catch-up, so a
		// front's health probe (or a load balancer's) excludes it
		// without parsing the body.
		if rs.CatchingUp {
			h.CatchingUp = true
			status = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, status, h)
}

// Stats is the GET /stats payload.
type Stats struct {
	Requests      uint64 `json:"requests"`
	BinRequests   uint64 `json:"bin_requests"`
	BinConns      int64  `json:"bin_connections"`
	BinInflight   int64  `json:"bin_inflight_batches"`
	FrameErrors   uint64 `json:"frame_decode_errors"`
	Probes        uint64 `json:"probes"`
	Updates       uint64 `json:"updates"`
	Commits       uint64 `json:"update_commits"`
	LogAppended   uint64 `json:"genlog_records_appended"`
	LogRecords    int    `json:"genlog_records,omitempty"`
	LogFileBytes  int64  `json:"genlog_file_bytes,omitempty"`
	LogCompact    uint64 `json:"genlog_compactions,omitempty"`
	LogReclaimed  uint64 `json:"genlog_bytes_reclaimed,omitempty"`
	LogCkptGen    uint64 `json:"genlog_checkpoint_generation,omitempty"`
	SnapFailures  uint64 `json:"snapshot_stream_failures"`
	ShedHTTP      uint64 `json:"requests_shed_http"`
	ShedBin       uint64 `json:"requests_shed_bin"`
	ShedDeadline  uint64 `json:"requests_shed_deadline"`
	Generation    uint64 `json:"generation"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	CacheEvicted  uint64 `json:"cache_evicted_by_update"`
	CacheRebased  uint64 `json:"cache_rebased_by_update"`
	CacheCapEvict uint64 `json:"cache_evictions"`
	CacheSize     int    `json:"cache_size"`
	CacheCapacity int    `json:"cache_capacity"`

	// Query-product breakdown (§3.15): route legs and vertex-fault pairs
	// answered, the route and vertex pairs among them answered over the f
	// budget (ApproxAnswers, named before those answers became exact; they
	// look nothing up), and the vertex probes' share of the Cache* lookups
	// above.
	RoutePlans    uint64 `json:"route_plans"`
	VProbes       uint64 `json:"vprobes"`
	ApproxAnswers uint64 `json:"approx_answers"`
	VCacheHits    uint64 `json:"vcache_hits"`
	VCacheMisses  uint64 `json:"vcache_misses"`
	// Deprecated: always 0; vertex probes share the one cache, whose
	// evictions CacheCapEvict counts.
	VCacheCapEvict uint64 `json:"-"`

	UptimeSeconds float64 `json:"uptime_seconds"`

	// Replica is non-nil when this server tails a primary.
	Replica *ReplicaStatus `json:"replica,omitempty"`
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	hits, misses, evicted, rebased, capEvicted, size, capacity := s.cache.stats()
	st := Stats{
		Requests:      s.requests.Load(),
		BinRequests:   s.binRequests.Load(),
		BinConns:      s.binConns.Load(),
		BinInflight:   s.binInflight.Load(),
		FrameErrors:   s.frameErrors.Load(),
		Probes:        s.answered[productProbe].Load(),
		Updates:       s.updates.Load(),
		Commits:       s.commits.Load(),
		LogAppended:   s.logAppended.Load(),
		SnapFailures:  s.snapFailures.Load(),
		ShedHTTP:      s.shedHTTP.Load(),
		ShedBin:       s.shedBin.Load(),
		ShedDeadline:  s.shedDeadline.Load(),
		Generation:    s.view().Generation(),
		CacheHits:     hits,
		CacheMisses:   misses,
		CacheEvicted:  evicted,
		CacheRebased:  rebased,
		CacheCapEvict: capEvicted,
		CacheSize:     size,
		CacheCapacity: capacity,

		RoutePlans:    s.answered[productRoute].Load(),
		VProbes:       s.answered[productVProbe].Load(),
		ApproxAnswers: s.overBudgetPairs.Load(),
		VCacheHits:    s.vprobeHits.Load(),
		VCacheMisses:  s.vprobeMisses.Load(),

		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	if s.genlog != nil {
		lst := s.genlog.Stats()
		st.LogRecords = lst.Records
		st.LogFileBytes = lst.FileBytes
		st.LogCompact = lst.Compactions
		st.LogReclaimed = lst.BytesReclaimed
		st.LogCkptGen = lst.CheckpointGen
	}
	if fnp := s.replicaStatus.Load(); fnp != nil {
		rs := (*fnp)()
		st.Replica = &rs
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeJSONBuf is writeJSON over a pooled buffer: the hot /connected path
// encodes into scratch and hands the kernel one contiguous write.
func writeJSONBuf(w http.ResponseWriter, status int, v any, buf *bytes.Buffer) {
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}
