package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/serve/genlog"
	"repro/internal/serve/wire"
)

// The replica side of the replication tier: a Replicator boots a serving
// scheme from the primary's GET /snapshot, then tails the primary's
// generation log over the binary listener (OpLogSub) and replays each
// delta record through core.ApplyDelta, publishing the resulting scheme
// atomically and sweeping the local fault-set cache through the same
// ApplyReplicatedCommit path a local commit would take. Replay is
// byte-identical to the primary's labels (delta_test.go, replica_test.go),
// so a replica answers probes indistinguishably from the primary at any
// generation it has reached.
//
// A stopped replica keeps its scheme: Stop/Start cycles resume the tail at
// the local generation and catch up from the log alone — SnapshotLoads
// only moves when the log no longer covers the replica (CodeGone), the
// primary ships a full-rebuild marker, or delta replay fails.

// replicaScheme adapts *core.Scheme to the serving surface. core.Scheme
// names its edge accessor EdgeLabel; the serve interface (shared with the
// root package's lazy LoadedScheme) calls it EdgeLabelByIndex. It also
// makes the replica a Snapshotter, so replicas can chain (a replica can
// bootstrap another replica).
type replicaScheme struct{ s *core.Scheme }

func (r replicaScheme) Graph() *graph.Graph                { return r.s.Graph() }
func (r replicaScheme) MaxFaults() int                     { return r.s.MaxFaults() }
func (r replicaScheme) Generation() uint64                 { return r.s.Generation() }
func (r replicaScheme) VertexLabel(v int) core.VertexLabel { return r.s.VertexLabel(v) }
func (r replicaScheme) EdgeLabelByIndex(e int) core.EdgeLabel {
	return r.s.EdgeLabel(e)
}

func (r replicaScheme) Save(w io.Writer) error {
	b, err := r.s.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReplicatorOptions tunes a Replicator. The zero value is usable.
type ReplicatorOptions struct {
	// CacheSize sizes the replica's fault-set cache (default 256 entries).
	CacheSize int

	// RedialBase / RedialMax bound the exponential backoff between tail
	// sessions after a connection failure (defaults 50ms / 2s).
	RedialBase time.Duration
	RedialMax  time.Duration

	// SnapRefetchBase / SnapRefetchMax bound a separate exponential
	// backoff applied to consecutive snapshot refetches (defaults 250ms /
	// 5s). The redial backoff resets whenever a session applies a record,
	// which a compacting primary keeps satisfying — without this second
	// clock a replica that repeatedly lands below the retained window
	// (CodeGone) would tight-loop full snapshot downloads.
	SnapRefetchBase time.Duration
	SnapRefetchMax  time.Duration

	// BinAddr overrides the binary-listener address advertised by the
	// primary's /healthz. Needed when the primary's advertised address is
	// not reachable from the replica (NAT, test harnesses).
	BinAddr string
}

func (o *ReplicatorOptions) fill() {
	if o.CacheSize <= 0 {
		o.CacheSize = 256
	}
	if o.RedialBase <= 0 {
		o.RedialBase = 50 * time.Millisecond
	}
	if o.RedialMax < o.RedialBase {
		o.RedialMax = 2 * time.Second
		if o.RedialMax < o.RedialBase {
			o.RedialMax = o.RedialBase
		}
	}
	if o.SnapRefetchBase <= 0 {
		o.SnapRefetchBase = 250 * time.Millisecond
	}
	if o.SnapRefetchMax < o.SnapRefetchBase {
		o.SnapRefetchMax = 5 * time.Second
		if o.SnapRefetchMax < o.SnapRefetchBase {
			o.SnapRefetchMax = o.SnapRefetchBase
		}
	}
}

// Replicator tails one primary and owns the replica's Server. Construct
// with NewReplicator (which performs the initial snapshot bootstrap
// synchronously), serve HTTP/binary traffic from Server(), and call Start
// to begin tailing. Stop halts the tail without discarding the scheme;
// a subsequent Start resumes from the local generation.
type Replicator struct {
	primary string // primary's HTTP base URL, e.g. http://127.0.0.1:8080
	opts    ReplicatorOptions
	srv     *Server
	// client fetches /snapshot and /healthz from the primary. Its 30 s
	// timeout bounds each whole exchange, the /snapshot body included.
	client *http.Client

	cur atomic.Pointer[core.Scheme] // the serving scheme; never nil after New

	// needSnapshot forces the next tail session to refetch /snapshot
	// before subscribing (set on full-rebuild markers, log gaps, CodeGone,
	// and replay failures).
	needSnapshot atomic.Bool

	// caughtUp latches true the first time a live tail session observes
	// zero generation lag after a bootstrap (or refetch). Until then the
	// replica's /healthz answers 503 with catching_up set: a freshly
	// loaded snapshot may be a stale checkpoint, so loading it is not yet
	// proof of being servable at the primary's head.
	caughtUp atomic.Bool

	state          atomic.Pointer[string]
	sourceGen      atomic.Uint64
	bytesReceived  atomic.Uint64
	bytesApplied   atomic.Uint64
	recordsApplied atomic.Uint64
	snapshotLoads  atomic.Uint64

	mu      sync.Mutex
	running bool
	stopCh  chan struct{}
	conn    net.Conn // the live tail connection, closed by Stop
	wg      sync.WaitGroup
}

// NewReplicator fetches the primary's current snapshot, loads it, and
// returns a Replicator whose Server answers probes at that generation.
// Tailing does not start until Start is called.
func NewReplicator(primaryURL string, opts ReplicatorOptions) (*Replicator, error) {
	opts.fill()
	r := &Replicator{primary: primaryURL, opts: opts, client: &http.Client{Timeout: 30 * time.Second}}
	r.setState("syncing")
	r.srv = NewDynamic(func() Scheme {
		return replicaScheme{r.cur.Load()}
	}, nil, opts.CacheSize)
	r.srv.SetReplicaStatusFn(r.Status)
	if err := r.bootstrap(); err != nil {
		return nil, fmt.Errorf("replica bootstrap: %w", err)
	}
	return r, nil
}

// Server is the replica's serving surface (HTTP handler, binary listener,
// stats). Its /healthz reports role "replica" with this Replicator's
// status.
func (r *Replicator) Server() *Server { return r.srv }

// Scheme is the currently served scheme snapshot.
func (r *Replicator) Scheme() *core.Scheme { return r.cur.Load() }

// Status snapshots the replication telemetry.
func (r *Replicator) Status() ReplicaStatus {
	var local uint64
	if s := r.cur.Load(); s != nil {
		local = s.Generation()
	}
	return ReplicaStatus{
		State:          *r.state.Load(),
		SourceGen:      r.sourceGen.Load(),
		LocalGen:       local,
		BytesReceived:  r.bytesReceived.Load(),
		BytesApplied:   r.bytesApplied.Load(),
		RecordsApplied: r.recordsApplied.Load(),
		SnapshotLoads:  r.snapshotLoads.Load(),
		CatchingUp:     !r.caughtUp.Load(),
	}
}

func (r *Replicator) setState(s string) { r.state.Store(&s) }

// observeSource records a newly observed primary head generation
// (monotonic max).
func (r *Replicator) observeSource(gen uint64) {
	for {
		old := r.sourceGen.Load()
		if gen <= old || r.sourceGen.CompareAndSwap(old, gen) {
			return
		}
	}
}

// Start launches the tail loop. It returns an error if already running.
func (r *Replicator) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return errors.New("replicator already running")
	}
	r.running = true
	r.stopCh = make(chan struct{})
	r.wg.Add(1)
	go r.run(r.stopCh)
	return nil
}

// Stop halts the tail loop and waits for it to exit. The scheme and cache
// are kept; probes keep being answered at the last applied generation.
func (r *Replicator) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	close(r.stopCh)
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.setState("disconnected")
}

// setConn publishes the live tail connection so Stop can sever a blocked
// read. Returns false (and closes the conn) when Stop already won.
func (r *Replicator) setConn(stop chan struct{}, c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case <-stop:
		c.Close()
		return false
	default:
	}
	r.conn = c
	return true
}

func (r *Replicator) clearConn(c net.Conn) {
	r.mu.Lock()
	if r.conn == c {
		r.conn = nil
	}
	r.mu.Unlock()
	c.Close()
}

func stopped(stop chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// run is the tail loop: one session per connection, exponential backoff
// with ±50% jitter between failed sessions, reset after a session that
// applied at least one record. Sessions that end needing a snapshot
// refetch (CodeGone, full-rebuild marker, failed bootstrap) run a second,
// slower backoff clock: applying records resets the redial backoff, so
// under retention pressure it alone would let a slow replica hammer
// /snapshot in a tight fetch→fall-behind→CodeGone loop.
func (r *Replicator) run(stop chan struct{}) {
	defer r.wg.Done()
	backoff := r.opts.RedialBase
	var snapBackoff time.Duration // 0 = previous session needed no refetch
	for !stopped(stop) {
		applied, err := r.tailOnce(stop)
		if stopped(stop) {
			return
		}
		if err != nil {
			r.setState("disconnected")
		}
		if applied > 0 {
			backoff = r.opts.RedialBase
		}
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		if errors.Is(err, errSnapshotNeeded) {
			if snapBackoff == 0 {
				snapBackoff = r.opts.SnapRefetchBase
			}
			if s := snapBackoff/2 + time.Duration(rand.Int63n(int64(snapBackoff))); s > sleep {
				sleep = s
			}
			if snapBackoff *= 2; snapBackoff > r.opts.SnapRefetchMax {
				snapBackoff = r.opts.SnapRefetchMax
			}
		} else {
			snapBackoff = 0
		}
		select {
		case <-stop:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > r.opts.RedialMax {
			backoff = r.opts.RedialMax
		}
	}
}

// errSnapshotNeeded signals that the log cannot carry the replica forward
// and the next session must refetch a snapshot.
var errSnapshotNeeded = errors.New("snapshot refetch needed")

// tailOnce runs one tail session: (re)bootstrap if flagged, resolve the
// primary's binary address, subscribe after the local generation, and
// apply records until the connection drops or Stop closes it. Returns how
// many records were applied.
func (r *Replicator) tailOnce(stop chan struct{}) (applied int, err error) {
	if r.needSnapshot.Load() {
		if err := r.bootstrap(); err != nil {
			// needSnapshot stays set; mark the error so run() applies the
			// refetch backoff to the retry (a short/rejected snapshot body
			// lands here and must not tight-loop downloads either).
			return 0, fmt.Errorf("%w: %v", errSnapshotNeeded, err)
		}
	}
	addr, err := r.resolveBinAddrRetry(stop)
	if err != nil {
		return 0, err
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	if !r.setConn(stop, conn) {
		return 0, nil
	}
	defer r.clearConn(conn)

	if _, err := conn.Write(wire.AppendClientHello(nil)); err != nil {
		return 0, fmt.Errorf("log-tail hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var hello [wire.ServerHelloLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return 0, fmt.Errorf("log-tail hello: %w", err)
	}
	head, err := wire.ParseServerHello(hello[:])
	if err != nil {
		return 0, err
	}
	r.observeSource(head)

	local := r.cur.Load().Generation()
	if _, err := conn.Write(wire.AppendLogSub(nil, local)); err != nil {
		return 0, err
	}
	r.setState("syncing")
	r.refreshState(true)

	rd := wire.NewReader(br)
	// Log records can exceed probe frames; accept anything the log itself
	// could hold plus framing slack.
	rd.SetMaxFrame(genlog.MaxRecordBytes + 64)
	for {
		op, payload, err := rd.Next()
		if err != nil {
			if stopped(stop) {
				return applied, nil
			}
			return applied, err
		}
		switch op {
		case wire.OpLogRecord:
			r.bytesReceived.Add(uint64(len(payload)))
			if err := r.applyRecord(payload); err != nil {
				if errors.Is(err, errSnapshotNeeded) {
					r.needSnapshot.Store(true)
				}
				return applied, err
			}
			applied++
			r.bytesApplied.Add(uint64(len(payload)))
			r.recordsApplied.Add(1)
			r.refreshState(true)
		case wire.OpError:
			_, code, msg, derr := wire.DecodeError(payload)
			if derr != nil {
				return applied, derr
			}
			if code == wire.CodeGone {
				// The primary's log starts after our generation: only a
				// fresh snapshot can carry us forward.
				r.needSnapshot.Store(true)
				return applied, fmt.Errorf("%w: %s", errSnapshotNeeded, msg)
			}
			return applied, fmt.Errorf("log-tail error %d: %s", code, msg)
		default:
			return applied, fmt.Errorf("log-tail: unexpected opcode 0x%02x", op)
		}
	}
}

// applyRecord decodes one log record and replays it onto the serving
// scheme. Records at or below the local generation (possible when the
// subscription raced a concurrent append) are skipped; anything the delta
// path cannot replay escalates to a snapshot refetch.
func (r *Replicator) applyRecord(payload []byte) error {
	d, err := genlog.DecodeDelta(payload)
	if err != nil {
		return fmt.Errorf("log record decode: %w", err)
	}
	r.observeSource(d.Gen)
	cur := r.cur.Load()
	if d.Gen <= cur.Generation() {
		return nil
	}
	if d.Full {
		return fmt.Errorf("%w: full-rebuild marker at generation %d (%s)",
			errSnapshotNeeded, d.Gen, d.Reason)
	}
	rep, next, err := core.ApplyDelta(cur, d)
	if err != nil {
		// ErrDeltaGap, ErrDeltaMismatch, or any replay failure: the log
		// cannot carry this replica forward from its current generation.
		return fmt.Errorf("%w: applying delta %d->%d: %v",
			errSnapshotNeeded, d.PrevGen, d.Gen, err)
	}
	// Publish the scheme before sweeping: a probe racing the sweep sees
	// either its old-generation cache entry (replaced on mismatch) or the
	// swept cache — both sound, same as the primary's /update path.
	r.cur.Store(next)
	r.srv.ApplyReplicatedCommit(rep)
	return nil
}

// refreshState flips the health state to "ok" once the local generation
// has reached every generation observed from the primary. fromTail marks
// a live tail session: only then does zero lag latch caughtUp (clearing
// /healthz's catching_up 503) — bootstrap alone proves a snapshot loaded,
// not that the replica has served the primary's head.
func (r *Replicator) refreshState(fromTail bool) {
	if r.cur.Load().Generation() >= r.sourceGen.Load() {
		r.setState("ok")
		if fromTail {
			r.caughtUp.Store(true)
		}
	} else {
		r.setState("syncing")
	}
}

// bootstrap fetches GET /snapshot from the primary, loads it, publishes it
// as the serving scheme, and drops the entire fault-set cache (a snapshot
// reload is a full-rebuild commit as far as cached fault sets are
// concerned).
func (r *Replicator) bootstrap() error {
	resp, err := r.client.Get(r.primary + "/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET /snapshot: %s: %s", resp.Status, body)
	}
	// Failpoint "replica.snapshot": the receive side of the bootstrap
	// stream — a mid-body failure here must reject the snapshot, never
	// load a truncated one.
	data, err := io.ReadAll(faultinject.WrapReader("replica.snapshot", resp.Body))
	if err != nil {
		return fmt.Errorf("GET /snapshot: %w", err)
	}
	s, err := core.UnmarshalScheme(data)
	if err != nil {
		return fmt.Errorf("snapshot decode: %w", err)
	}
	r.cur.Store(s)
	r.srv.ApplyReplicatedCommit(&core.CommitReport{
		Gen:    s.Generation(),
		Token:  s.Token(),
		Reason: "snapshot reload",
	})
	r.snapshotLoads.Add(1)
	r.bytesReceived.Add(uint64(len(data)))
	r.bytesApplied.Add(uint64(len(data)))
	r.observeSource(s.Generation())
	r.needSnapshot.Store(false)
	r.caughtUp.Store(false)
	r.refreshState(false)
	return nil
}

// resolveBinAddrRetry wraps resolveBinAddr with a few jittered retries on
// the snapshot-refetch backoff clock: at replica start the primary's
// /healthz can be briefly down (process restarting, listener racing the
// HTTP server), and failing the whole tail session for that would double
// the outer redial clock for a hiccup that clears in milliseconds.
func (r *Replicator) resolveBinAddrRetry(stop chan struct{}) (string, error) {
	backoff := r.opts.SnapRefetchBase
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
			select {
			case <-stop:
				return "", lastErr
			case <-time.After(sleep):
			}
			if backoff *= 2; backoff > r.opts.SnapRefetchMax {
				backoff = r.opts.SnapRefetchMax
			}
		}
		addr, err := r.resolveBinAddr()
		if err == nil {
			return addr, nil
		}
		lastErr = err
	}
	return "", lastErr
}

// resolveBinAddr asks the primary's /healthz for its binary-listener
// address (unless pinned by options), substituting the primary's host when
// the listener advertises a wildcard address.
func (r *Replicator) resolveBinAddr() (string, error) {
	if r.opts.BinAddr != "" {
		return r.opts.BinAddr, nil
	}
	resp, err := r.client.Get(r.primary + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var h Healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return "", fmt.Errorf("GET /healthz: %w", err)
	}
	if h.Generation > 0 {
		r.observeSource(h.Generation)
	}
	if h.BinAddr == "" {
		return "", errors.New("primary /healthz advertises no binary listener (bin_addr)")
	}
	host, port, err := net.SplitHostPort(h.BinAddr)
	if err != nil {
		return "", fmt.Errorf("primary bin_addr %q: %w", h.BinAddr, err)
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		// Hostname drops userinfo and port and unescapes an IPv6 zone.
		if u, uerr := url.Parse(r.primary); uerr == nil && u.Hostname() != "" {
			host = u.Hostname()
		}
	}
	return net.JoinHostPort(host, port), nil
}
