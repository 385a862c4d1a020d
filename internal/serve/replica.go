package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
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
	"repro/internal/serve/wire"
)

// The replica side of the replication tier: a Replicator boots a serving
// scheme from the primary's GET /snapshot, then tails the primary's
// generation log by long-polling GET /genlog on the same base URL and
// replays each delta record through core.ApplyDelta, publishing the
// resulting scheme atomically and sweeping the local fault-set cache
// through the same ApplyReplicatedCommit path a local commit would take.
// Replay is byte-identical to the primary's labels (delta_test.go,
// replica_test.go), so a replica answers probes indistinguishably from the
// primary at any generation it has reached.
//
// A stopped replica keeps its scheme: Stop/Start cycles resume the tail at
// the local generation and catch up from the log alone — SnapshotLoads
// only moves when the log no longer covers the replica (a 410 from
// GET /genlog), the primary ships a full-rebuild marker, or delta replay
// fails.

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
func (r replicaScheme) EdgeEnds(e int) (parent, child ancestry.Label) {
	return r.s.EdgeEnds(e)
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

	// RedialBase / RedialMax bound the exponential backoff between polls
	// after a failed one (defaults 50ms / 2s).
	RedialBase time.Duration
	RedialMax  time.Duration

	// SnapRefetchBase / SnapRefetchMax bound a separate exponential
	// backoff applied to consecutive snapshot refetches (defaults 250ms /
	// 5s). The redial backoff resets whenever a poll applies a record,
	// which a compacting primary keeps satisfying — without this second
	// clock a replica that repeatedly lands below the retained window
	// (a 410) would tight-loop full snapshot downloads.
	SnapRefetchBase time.Duration
	SnapRefetchMax  time.Duration
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
	// client fetches /snapshot and /genlog from the primary. Its 30 s
	// timeout bounds each whole exchange, the response body included.
	client *http.Client

	cur atomic.Pointer[core.Scheme] // the serving scheme; never nil after New

	// needSnapshot forces the next poll to refetch /snapshot first (set on
	// full-rebuild markers, log gaps, a 410, and replay failures).
	needSnapshot atomic.Bool

	// caughtUp latches true the first time a live poll observes
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

	mu     sync.Mutex
	cancel context.CancelFunc // ends the running poll loop; nil when stopped
	wg     sync.WaitGroup
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
	if err := r.bootstrap(context.TODO()); err != nil {
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

// Start launches the poll loop. It returns an error if already running.
func (r *Replicator) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cancel != nil {
		return errors.New("replicator already running")
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.wg.Add(1)
	go r.run(ctx)
	return nil
}

// Stop halts the poll loop, cancelling the poll in flight, and waits for it
// to exit. The scheme and cache are kept; probes keep being answered at the
// last applied generation.
func (r *Replicator) Stop() {
	r.mu.Lock()
	if r.cancel == nil {
		r.mu.Unlock()
		return
	}
	r.cancel()
	r.cancel = nil
	r.mu.Unlock()
	r.wg.Wait()
	r.setState("disconnected")
}

// run is the tail loop. A poll that answered is followed by the next one at
// once. After a failed poll it sleeps an exponential backoff with ±50%
// jitter, reset by a poll that applied at least one record. Polls that end
// needing a snapshot refetch (a 410, full-rebuild marker, failed bootstrap)
// run a second, slower backoff clock: applying records resets the redial
// backoff, so under retention pressure it alone would let a slow replica
// hammer /snapshot in a tight fetch→fall-behind→410 loop.
func (r *Replicator) run(ctx context.Context) {
	defer r.wg.Done()
	backoff := r.opts.RedialBase
	var snapBackoff time.Duration // 0 = the last failed poll needed no refetch
	for ctx.Err() == nil {
		applied, err := r.poll(ctx)
		if applied > 0 {
			backoff = r.opts.RedialBase
		}
		if err == nil || ctx.Err() != nil {
			continue
		}
		r.setState("disconnected")
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
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > r.opts.RedialMax {
			backoff = r.opts.RedialMax
		}
	}
}

// errSnapshotNeeded signals that the log cannot carry the replica forward
// and the next poll must refetch a snapshot.
var errSnapshotNeeded = errors.New("snapshot refetch needed")

// get sends GET path to the primary through r.client, bound to ctx, and
// turns any status but 200 into an error. A 410 — the primary's log no
// longer covers the requested generation — also flags a snapshot refetch.
func (r *Replicator) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primary+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil || resp.StatusCode == http.StatusOK {
		return resp, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	if resp.StatusCode == http.StatusGone {
		r.needSnapshot.Store(true)
		err = fmt.Errorf("%w: %v", errSnapshotNeeded, err)
	}
	return nil, err
}

// poll runs one long-poll of the primary's GET /genlog after the local
// generation — (re)bootstrapping first if flagged — and applies the
// records it answers with. Returns how many records were applied.
func (r *Replicator) poll(ctx context.Context) (applied int, err error) {
	if r.needSnapshot.Load() {
		if err := r.bootstrap(ctx); err != nil {
			// needSnapshot stays set; mark the error so run() applies the
			// refetch backoff to the retry (a short/rejected snapshot body
			// lands here and must not tight-loop downloads either).
			return 0, fmt.Errorf("%w: %v", errSnapshotNeeded, err)
		}
	}
	resp, err := r.get(ctx, fmt.Sprintf("/genlog?after=%d", r.cur.Load().Generation()))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	head, err := strconv.ParseUint(resp.Header.Get("X-Ftc-Generation"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("GET /genlog: X-Ftc-Generation: %w", err)
	}
	r.observeSource(head)
	r.refreshState(true)

	// Failpoint "replica.tail": the receive side of the log tail — a
	// mid-body failure ends the poll; the records applied before it stay.
	rd := wire.NewReader(bufio.NewReaderSize(faultinject.WrapReader("replica.tail", resp.Body), 64<<10))
	// Log records can exceed probe frames; accept anything the log itself
	// could hold plus framing slack.
	rd.SetMaxFrame(genlog.MaxRecordBytes + 64)
	for {
		op, payload, err := rd.Next()
		if err == io.EOF {
			return applied, nil
		}
		if err != nil {
			return applied, fmt.Errorf("GET /genlog body: %w", err)
		}
		if op != wire.OpLogRecord {
			return applied, fmt.Errorf("GET /genlog: unexpected opcode 0x%02x", op)
		}
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
	}
}

// applyRecord decodes one log record and replays it onto the serving
// scheme. Records at or below the local generation are skipped; anything
// the delta path cannot replay — a full-rebuild marker included —
// escalates to a snapshot refetch.
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
	rep, next, err := core.ApplyDelta(cur, d)
	if err != nil {
		// ErrFullRebuild, ErrDeltaGap, ErrDeltaMismatch, or any replay
		// failure: the log cannot carry this replica forward from its
		// current generation.
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
// a live poll: only then does zero lag latch caughtUp (clearing
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
func (r *Replicator) bootstrap(ctx context.Context) error {
	resp, err := r.get(ctx, "/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
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
