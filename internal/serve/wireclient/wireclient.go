// Package wireclient is the pipelined client side of the binary probe
// protocol (internal/serve/wire): a fixed pool of persistent connections,
// each carrying up to a bounded number of in-flight batches, with
// responses matched to requests FIFO per connection (the server answers
// in order by contract).
//
// Pipelining model: Probe/ProbeInto are synchronous per caller, but any
// number of goroutines may call concurrently — calls are spread
// round-robin over the connections, and each connection interleaves the
// writes of every caller queued on it. With more callers than
// connections, a connection's wire therefore carries several requests
// before the first response returns, which is what amortizes syscalls and
// keeps the server's frame loop fed (its response flush batches while
// requests are buffered). The Inflight bound is enforced by the pending
// queue: a caller blocks before writing once that many batches are
// unanswered on its connection.
//
// The steady-state client path is allocation-light: calls, canonical
// fault buffers, and encode buffers are pooled, and the caller may pass
// its own answer slice to ProbeInto.
//
// A dropped connection — the server closing on a malformed/desynced
// frame, a network fault, a restart — fails the calls in flight on it and
// is then redialed in the background with capped exponential backoff plus
// jitter. Calls issued while a slot is down spill to the pool's live
// connections (and only fail when every slot is down), so a client
// survives server restarts without caller-side dial logic. Retry policy
// for the failed calls themselves still belongs a layer up (see
// internal/serve/front): the client never re-sends a frame whose fate is
// unknown.
package wireclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve/wire"
)

// dialTimeout bounds each TCP connection attempt of the default dialer.
const dialTimeout = 5 * time.Second

// Options shape a Client.
type Options struct {
	// Conns is the number of persistent connections (default 1).
	Conns int
	// Inflight is the per-connection bound on unanswered batches
	// (default 32).
	Inflight int

	// Dialer overrides how raw connections are made (tests inject flaky
	// in-memory listeners here). Defaults to TCP to the Dial address with
	// a 5s timeout and TCP_NODELAY.
	Dialer func() (net.Conn, error)

	// ReconnectBase and ReconnectMax bound the redial backoff: attempt n
	// waits min(ReconnectBase·2ⁿ, ReconnectMax) ± 50% jitter. Defaults
	// 10ms and 2s. NoReconnect disables redialing entirely (a dead slot
	// stays dead), which is what short-lived test clients want.
	//
	// The backoff is per slot and persists across redial sessions: it only
	// resets to ReconnectBase after a reconnected slot completes one
	// exchange, so a flappy link (TCP accepts, then dies before answering
	// anything) keeps walking toward ReconnectMax instead of hammering the
	// server at ReconnectBase on every accept.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	NoReconnect   bool
}

// ErrAllDown is returned by a probe when every connection slot is down and
// awaiting redial.
var ErrAllDown = errors.New("wireclient: all connections down (reconnecting)")

// ErrClosed is returned after Close.
var ErrClosed = errors.New("wireclient: client closed")

// ServerError is a failure reported by the server in an error frame, with
// the protocol's HTTP-aligned code preserved so callers can distinguish a
// generation conflict (wire.CodeConflict) from an invalid request.
type ServerError struct {
	Code uint16
	Msg  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server error %d: %s", e.Code, e.Msg)
}

// call is one in-flight request. done is buffered so the reader never
// blocks handing off a result. routeDst is non-nil for route calls and
// names the caller-owned RouteResp the reader decodes into; connectivity
// calls (probe and vprobe, which share the response layout) decode into
// dst/resp instead.
type call struct {
	id       uint64
	dst      []bool
	resp     wire.ProbeResp
	routeDst *wire.RouteResp
	err      error
	canon    []int
	frame    []byte
	done     chan struct{}
}

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan struct{}, 1)}
}}

// conn is one persistent connection with its FIFO of unanswered calls.
type conn struct {
	c  net.Conn
	bw *bufio.Writer
	rd *wire.Reader

	// wmu serializes frame writes AND pending enqueues: a call must enter
	// the FIFO in the exact order its frame hits the wire, because the
	// reader matches responses positionally.
	wmu     sync.Mutex
	nextID  uint64
	pending chan *call

	err  atomic.Pointer[error]
	dead chan struct{}

	// onDead, when set, runs exactly once as the connection is poisoned —
	// the slot's hook that schedules the redial.
	onDead func()
	// alive latches on the first response delivered on this connection;
	// its rising edge fires onAlive — the slot's backoff reset.
	alive   atomic.Bool
	onAlive func()
}

// slot is one position in the connection pool: the live connection (nil
// while down) plus the redial state machine.
type slot struct {
	cl  *Client
	cur atomic.Pointer[conn]
	// redialing guards against stacking redial goroutines when the dead
	// hook and a probing caller race.
	redialing atomic.Bool
	// backoff carries the redial backoff (nanoseconds) across redial
	// sessions; 0 means "start from ReconnectBase". It is only reset by a
	// reconnected connection completing one exchange (conn.onAlive), so a
	// link that flaps between accept and first answer cannot collapse the
	// backoff back to base.
	backoff atomic.Int64
}

// Client is a pool of pipelined connections to one server.
type Client struct {
	slots  []*slot
	rr     atomic.Uint64
	gen    atomic.Uint64
	opts   Options
	closed atomic.Bool
	// closeMu serializes redial registration with Close: wg.Add may only
	// run while closed is false under this lock, so Close's wg.Wait can
	// never race an Add from a dead-connection hook firing concurrently.
	closeMu sync.Mutex
	// wg tracks redial goroutines so Close can be followed by test
	// teardown without leaks.
	wg sync.WaitGroup
}

// Dial connects to a binary-protocol listener and performs the handshake
// on every connection.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 1
	}
	if opts.Inflight <= 0 {
		opts.Inflight = 32
	}
	if opts.ReconnectBase <= 0 {
		opts.ReconnectBase = 10 * time.Millisecond
	}
	if opts.ReconnectMax <= 0 {
		opts.ReconnectMax = 2 * time.Second
	}
	if opts.Dialer == nil {
		opts.Dialer = func() (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				return nil, err
			}
			if tc, ok := c.(*net.TCPConn); ok {
				// Frames are tiny; the bufio flush is the batching boundary.
				_ = tc.SetNoDelay(true)
			}
			return c, nil
		}
	}
	cl := &Client{opts: opts}
	for i := 0; i < opts.Conns; i++ {
		sl := &slot{cl: cl}
		cn, err := cl.connect(sl)
		if err != nil {
			cl.Close()
			return nil, err
		}
		sl.cur.Store(cn)
		cl.slots = append(cl.slots, sl)
	}
	return cl, nil
}

// connect dials and handshakes one connection for sl, starting its read
// loop. The caller (or the redial loop) publishes it into the slot.
func (cl *Client) connect(sl *slot) (*conn, error) {
	c, err := cl.opts.Dialer()
	if err != nil {
		return nil, err
	}
	c = faultinject.WrapConn("wireclient.conn", c)
	if _, err := c.Write(wire.AppendClientHello(nil)); err != nil {
		c.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(c, 64<<10)
	var hello [wire.ServerHelloLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("wireclient: handshake: %w", err)
	}
	gen, err := wire.ParseServerHello(hello[:])
	if err != nil {
		c.Close()
		return nil, err
	}
	cl.gen.Store(gen)
	cn := &conn{
		c:       c,
		bw:      bufio.NewWriterSize(c, 64<<10),
		rd:      wire.NewReader(br),
		pending: make(chan *call, cl.opts.Inflight),
		dead:    make(chan struct{}),
		onDead:  func() { cl.scheduleRedial(sl) },
		onAlive: func() { sl.backoff.Store(0) },
	}
	go cn.readLoop()
	return cn, nil
}

// scheduleRedial starts the background redial loop for sl unless one is
// already running, reconnect is disabled, or the client is closed.
func (cl *Client) scheduleRedial(sl *slot) {
	if cl.opts.NoReconnect || cl.closed.Load() {
		return
	}
	if !sl.redialing.CompareAndSwap(false, true) {
		return
	}
	cl.closeMu.Lock()
	if cl.closed.Load() {
		cl.closeMu.Unlock()
		sl.redialing.Store(false)
		return
	}
	cl.wg.Add(1)
	cl.closeMu.Unlock()
	go func() {
		defer cl.wg.Done()
		defer sl.redialing.Store(false)
		for !cl.closed.Load() {
			// The slot's backoff persists across redial sessions and gates
			// the dial attempt itself (not just failed dials): a flappy link
			// — TCP accept, then death before a single answered frame —
			// produces a chain of "successful" dials that each enter a new
			// session, and only the sleep here keeps that chain walking
			// toward ReconnectMax. The backoff resets to zero on the first
			// completed exchange (conn.onAlive), so a healthy link that dies
			// redials immediately.
			backoff := time.Duration(sl.backoff.Load())
			if backoff > 0 {
				// Capped exponential backoff ± 50% jitter, so a restarted
				// server is not greeted by synchronized redial storms.
				time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
				if cl.closed.Load() {
					return
				}
			}
			next := backoff * 2
			if next < cl.opts.ReconnectBase {
				next = cl.opts.ReconnectBase
			}
			if next > cl.opts.ReconnectMax {
				next = cl.opts.ReconnectMax
			}
			sl.backoff.Store(int64(next))
			cn, err := cl.connect(sl)
			if err == nil {
				if cl.closed.Load() {
					cn.fail(ErrClosed)
					return
				}
				sl.cur.Store(cn)
				return
			}
		}
	}()
}

// Generation reports the server generation observed at the most recent
// handshake — the natural pin for index-addressed fault edges against a
// dynamic server.
func (cl *Client) Generation() uint64 { return cl.gen.Load() }

// Close tears down every connection, failing any calls still in flight,
// and stops redialing.
func (cl *Client) Close() error {
	cl.closeMu.Lock()
	cl.closed.Store(true)
	cl.closeMu.Unlock()
	for _, sl := range cl.slots {
		if cn := sl.cur.Load(); cn != nil {
			cn.fail(ErrClosed)
		}
	}
	cl.wg.Wait()
	// A redial may have landed between the sweep and wg.Wait's return.
	for _, sl := range cl.slots {
		if cn := sl.cur.Load(); cn != nil {
			cn.fail(ErrClosed)
		}
	}
	return nil
}

// pick returns a live connection, scanning every slot round-robin and
// kicking redials for dead ones it passes over.
func (cl *Client) pick() (*conn, error) {
	if cl.closed.Load() {
		return nil, ErrClosed
	}
	start := int(cl.rr.Add(1))
	var lastErr error
	for i := 0; i < len(cl.slots); i++ {
		sl := cl.slots[(start+i)%len(cl.slots)]
		cn := sl.cur.Load()
		if cn == nil {
			cl.scheduleRedial(sl)
			continue
		}
		if errp := cn.err.Load(); errp != nil {
			lastErr = *errp
			// Unpublish the dead conn so later picks skip it fast; its
			// onDead hook has already scheduled the redial.
			sl.cur.CompareAndSwap(cn, nil)
			cl.scheduleRedial(sl)
			continue
		}
		return cn, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: last failure: %v", ErrAllDown, lastErr)
	}
	return nil, ErrAllDown
}

// Probe answers one batch: one failure event (fault edge indices, any
// order — canonicalized here, once) against a batch of s–t pairs. It is
// the allocating convenience form of ProbeInto.
func (cl *Client) Probe(faultEdges []int, pairs [][2]int) ([]bool, error) {
	out, _, _, err := cl.ProbeInto(faultEdges, pairs, nil, 0)
	return out, err
}

// ProbeInto is Probe with the answer slice and generation pin under
// caller control: out is reused (grown as needed) and returned, hit
// reports whether the server answered from an already-compiled cache
// entry, gen is the generation the answer is valid for. genPin, when
// nonzero, makes the server reject the probe with wire.CodeConflict if
// its generation differs — the edge-index stability contract of the JSON
// surface, kept identical here.
func (cl *Client) ProbeInto(faultEdges []int, pairs [][2]int, out []bool, genPin uint64) ([]bool, bool, uint64, error) {
	return cl.ProbeIntoBudget(faultEdges, pairs, out, genPin, 0)
}

// ProbeIntoBudget is ProbeInto carrying a deadline budget: the remaining
// end-to-end time the caller is willing to wait, shipped in the frame so
// an overloaded server sheds the request (wire.CodeUnavailable) instead
// of serving it past its usefulness. Zero means no deadline.
func (cl *Client) ProbeIntoBudget(faultEdges []int, pairs [][2]int, out []bool, genPin uint64, budget time.Duration) ([]bool, bool, uint64, error) {
	ca, err := cl.exchange(wire.OpProbe, faultEdges, pairs, out, nil, genPin, budget)
	if err != nil {
		return out, false, 0, err
	}
	out = ca.resp.Connected
	hit, gen := ca.resp.CacheHit, ca.resp.Gen
	err = ca.err
	putCall(ca)
	return out, hit, gen, err
}

// VProbeInto answers one batch probe under VERTEX faults: one set of
// failed vertex indices against a batch of s–t pairs, with the answer
// slice and generation pin under caller control as in ProbeInto. approx
// reports degraded mode — the fault set's incident edges exceeded the
// server's budget and the answer came from the fault-tolerant spanner
// ("connected" is then still always sound; "disconnected" may
// under-report).
func (cl *Client) VProbeInto(faultVertices []int, pairs [][2]int, out []bool, genPin uint64) ([]bool, bool, bool, uint64, error) {
	return cl.VProbeIntoBudget(faultVertices, pairs, out, genPin, 0)
}

// VProbeIntoBudget is VProbeInto with a deadline budget (see
// ProbeIntoBudget).
func (cl *Client) VProbeIntoBudget(faultVertices []int, pairs [][2]int, out []bool, genPin uint64, budget time.Duration) ([]bool, bool, bool, uint64, error) {
	ca, err := cl.exchange(wire.OpVProbe, faultVertices, pairs, out, nil, genPin, budget)
	if err != nil {
		return out, false, false, 0, err
	}
	out = ca.resp.Connected
	hit, approx, gen := ca.resp.CacheHit, ca.resp.Approx, ca.resp.Gen
	err = ca.err
	putCall(ca)
	return out, hit, approx, gen, err
}

// Route computes hop-by-hop route plans avoiding a forbidden edge set:
// one plan per s–t pair, decoded into the caller-owned resp (refilled in
// place, so a resp may be reused across calls). resp.Approx reports
// degraded (spanner-backed) planning; genPin has ProbeInto's semantics
// and is how a caller keeps a plan's edge indices pinned to the
// generation it resolved them against.
func (cl *Client) Route(faultEdges []int, pairs [][2]int, resp *wire.RouteResp, genPin uint64) error {
	return cl.RouteBudget(faultEdges, pairs, resp, genPin, 0)
}

// RouteBudget is Route with a deadline budget (see ProbeIntoBudget).
func (cl *Client) RouteBudget(faultEdges []int, pairs [][2]int, resp *wire.RouteResp, genPin uint64, budget time.Duration) error {
	ca, err := cl.exchange(wire.OpRoute, faultEdges, pairs, nil, resp, genPin, budget)
	if err != nil {
		return err
	}
	err = ca.err
	putCall(ca)
	return err
}

// putCall scrubs caller-owned references and pools the call.
func putCall(ca *call) {
	ca.dst = nil
	ca.routeDst = nil
	ca.resp.Connected = nil
	callPool.Put(ca)
}

// exchange runs one request/response round trip: pick a connection,
// canonicalize the fault indices, enqueue + write the frame, and wait for
// the reader's handoff. On success the returned call holds the decoded
// result (and ca.err the server's verdict); the caller extracts what it
// needs and recycles the call via putCall.
func (cl *Client) exchange(op byte, faults []int, pairs [][2]int, out []bool, routeDst *wire.RouteResp, genPin uint64, budget time.Duration) (*call, error) {
	cn, err := cl.pick()
	if err != nil {
		return nil, err
	}
	var budgetMS uint32
	if budget > 0 {
		budgetMS = uint32(budget / time.Millisecond)
		if budgetMS == 0 {
			budgetMS = 1
		}
	}
	ca := callPool.Get().(*call)
	ca.dst = out
	ca.routeDst = routeDst
	ca.err = nil
	// Canonicalize once, client-side: the wire carries fault indices
	// strictly ascending so the server validates (never sorts) and hashes
	// in the same pass.
	ca.canon = wire.Canonicalize(append(ca.canon[:0], faults...))

	if err := cn.roundTrip(ca, op, genPin, budgetMS, pairs); err != nil {
		putCall(ca)
		return nil, err
	}
	return ca, nil
}

// roundTrip frames ca, enqueues it, writes it, and waits for the reader's
// handoff. It returns the connection's failure when the call never made
// it into the FIFO.
func (cn *conn) roundTrip(ca *call, op byte, genPin uint64, budgetMS uint32, pairs [][2]int) error {
	cn.wmu.Lock()
	cn.nextID++
	ca.id = cn.nextID
	ca.frame = wire.AppendRequest(ca.frame[:0], op, ca.id, genPin, budgetMS, ca.canon, pairs)
	// Enqueue before the bytes hit the wire so the reader's FIFO matches
	// wire order; blocking here (Inflight reached) holds wmu, which is
	// safe — the reader drains pending without ever taking wmu.
	select {
	case cn.pending <- ca:
	case <-cn.dead:
		cn.wmu.Unlock()
		return cn.failure()
	}
	_, werr := cn.bw.Write(ca.frame)
	if werr == nil {
		werr = cn.bw.Flush()
	}
	cn.wmu.Unlock()
	if werr != nil {
		cn.fail(werr)
	}
	// The reader drains the FIFO once, as it exits. When the connection
	// died between pick and the enqueue above, select may still have taken
	// the enqueue branch after that drain: drain again, or the call would
	// wait forever.
	select {
	case <-cn.dead:
		cn.drainPending()
	default:
	}
	<-ca.done
	return nil
}

// failure returns the connection's terminal error.
func (cn *conn) failure() error {
	if errp := cn.err.Load(); errp != nil {
		return *errp
	}
	return errors.New("wireclient: connection closed")
}

// fail poisons the connection, wakes everything blocked on it, and fires
// the slot's redial hook.
func (cn *conn) fail(err error) {
	wrapped := fmt.Errorf("wireclient: connection failed: %w", err)
	if cn.err.CompareAndSwap(nil, &wrapped) {
		close(cn.dead)
		_ = cn.c.Close()
		if cn.onDead != nil {
			cn.onDead()
		}
	}
}

// readLoop matches responses to pending calls FIFO. It exits (failing all
// in-flight calls) on any read error — including the server closing the
// connection after a fatal protocol violation.
func (cn *conn) readLoop() {
	for {
		op, payload, err := cn.rd.Next()
		if err != nil {
			cn.fail(err)
			cn.drainPending()
			return
		}
		var ca *call
		select {
		case ca = <-cn.pending:
		default:
			cn.fail(errors.New("unsolicited response frame"))
			cn.drainPending()
			return
		}
		switch op {
		case wire.OpProbeResp, wire.OpVProbeResp:
			if ca.routeDst != nil {
				ca.err = fmt.Errorf("%w: connectivity response for a route request", wire.ErrFrame)
				break
			}
			ca.err = wire.DecodeProbeResp(payload, ca.dst[:0], &ca.resp)
		case wire.OpRouteResp:
			if ca.routeDst == nil {
				ca.err = fmt.Errorf("%w: route response for a connectivity request", wire.ErrFrame)
				break
			}
			ca.err = wire.DecodeRouteResp(payload, ca.routeDst)
			// The FIFO id check below reads resp.ID for every call shape.
			ca.resp.ID = ca.routeDst.ID
		case wire.OpError:
			id, code, msg, derr := wire.DecodeError(payload)
			if derr != nil {
				ca.err = derr
			} else {
				ca.resp.ID = id
				ca.err = &ServerError{Code: code, Msg: msg}
			}
		default:
			ca.err = fmt.Errorf("%w: unexpected opcode 0x%02x", wire.ErrFrame, op)
		}
		if ca.err == nil && ca.resp.ID != ca.id {
			ca.err = fmt.Errorf("%w: response id %d for request %d (pipeline desync)", wire.ErrFrame, ca.resp.ID, ca.id)
		}
		// Capture the verdict before the handoff: once done is signalled the
		// caller may recycle ca through the pool, so ca must not be touched
		// afterwards.
		ferr := ca.err
		ca.done <- struct{}{}
		// Any cleanly framed response — including a server-reported error —
		// proves the link completed a full exchange: reset the slot's redial
		// backoff (the flappy-link guard only trips links that never get
		// this far).
		if ferr == nil || !errors.Is(ferr, wire.ErrFrame) {
			if cn.onAlive != nil && cn.alive.CompareAndSwap(false, true) {
				cn.onAlive()
			}
		}
		if ferr != nil && errors.Is(ferr, wire.ErrFrame) {
			// A framing-level failure means the stream cannot be trusted
			// (pipeline desync, undecodable response) — drop the connection.
			cn.fail(ferr)
			cn.drainPending()
			return
		}
	}
}

// drainPending fails every call still queued after the connection died.
func (cn *conn) drainPending() {
	err := cn.failure()
	for {
		select {
		case ca := <-cn.pending:
			ca.err = err
			ca.done <- struct{}{}
		default:
			return
		}
	}
}
