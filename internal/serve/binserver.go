package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve/wire"
)

// The binary protocol surface: the same Server that answers JSON over
// HTTP also accepts persistent framed connections (wire package), sharing
// the query executor, the fault-set cache, and the update path.
// One connection is one goroutine reading frames in order and writing
// responses in the same order — which is what lets clients
// pipeline: responses match requests FIFO, so a client may keep any
// number of batches in flight per connection.
//
// The frame hot path allocates nothing at steady state: the wire.Reader
// peeks frames zero-copy out of the connection buffer, DecodeProbe
// refills a per-connection FrameScratch in place (computing the cache key
// incrementally from the canonical on-the-wire fault edges), the query
// runs through the same executor as HTTP, and the response is
// encoded into a reused buffer and handed to a buffered writer that only
// flushes when the inbound queue is drained (so a pipelined burst of k
// frames costs one syscall pair, not k).

// binFlushEvery bounds how many responses may accumulate before a flush
// even while requests keep arriving, so one greedy pipelining client
// cannot defer its own responses indefinitely behind a saturated reader.
const binFlushEvery = 64

// FrameScratch is the reusable per-connection (or per-benchmark) state of
// the binary surface: the decoded request, the executor state, and the
// response encode buffer. A zero value is usable; reuse across calls is
// what makes HandleFrame allocation-free at steady state.
type FrameScratch struct {
	req  wire.ProbeReq
	x    execState
	resp []byte
}

// HandleFrame processes one frame payload against the server: decode,
// execute (with the same one-retry ErrStaleLabel semantics as the HTTP
// surface), encode. The returned response bytes alias sc.resp and are
// valid until the next call with the same scratch. fatal reports a
// protocol violation after which the connection must be closed (the
// response, if any, should still be written first). It is exported so
// benchmarks and fuzzers can drive the exact serving path without a
// socket.
func (s *Server) HandleFrame(sc *FrameScratch, op byte, payload []byte) (resp []byte, fatal bool) {
	s.binRequests.Add(1)
	// The three request frames share one payload layout; the opcode only
	// picks the product.
	var p product
	var err error
	switch op {
	case wire.OpProbe:
		p = productProbe
	case wire.OpRoute:
		p = productRoute
	case wire.OpVProbe:
		p = productVProbe
	default:
		err = fmt.Errorf("unknown opcode 0x%02x", op)
	}
	if err == nil {
		err = wire.DecodeProbe(payload, &sc.req)
	}
	if err != nil {
		// sc.req may still hold the previous frame: answer with the ID this
		// frame carries, so the client sees the 400 instead of a desync.
		s.frameErrors.Add(1)
		id, _ := wire.PeekRequest(op, payload)
		sc.resp = wire.AppendError(sc.resp[:0], id, wire.CodeBadRequest, err.Error())
		return sc.resp, true
	}
	x := &sc.x
	x.q = query{product: p, genPin: sc.req.GenPin, pairs: sc.req.Pairs, faults: sc.req.Faults, canonical: true, key: sc.req.Key}
	status, err := s.execute(x)
	if err == nil {
		switch p {
		case productProbe:
			sc.resp = wire.AppendProbeResp(sc.resp[:0], sc.req.ID, x.hit, x.gen, x.faults, x.out)
		case productVProbe:
			sc.resp = wire.AppendVProbeResp(sc.resp[:0], sc.req.ID, x.hit, false, x.gen, x.faults, x.out)
		case productRoute:
			// Route paths, unlike bitmaps, can outgrow the frame cap on huge
			// graphs; the client is pointed at the HTTP surface.
			if wire.RouteRespSize(x.paths) > wire.MaxFrameBytes {
				status, err = http.StatusUnprocessableEntity, errors.New("route response exceeds the binary frame cap; use the HTTP surface")
			} else {
				sc.resp = wire.AppendRouteResp(sc.resp[:0], sc.req.ID, x.hit, false, x.gen, x.faults, x.out, x.paths)
			}
		}
	}
	if err != nil {
		sc.resp = wire.AppendError(sc.resp[:0], sc.req.ID, uint16(status), err.Error())
		return sc.resp, false
	}
	s.answered[p].Add(uint64(len(sc.req.Pairs)))
	return sc.resp, false
}

// ServeBin accepts framed-protocol connections until the listener is
// closed, serving each connection on its own goroutine. It returns nil
// once the listener reports closure (net.ErrClosed), any other accept
// error otherwise. Pair it with ShutdownBin for a graceful stop.
func (s *Server) ServeBin(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveBinConn(conn)
	}
}

// registerBinConn tracks a live connection so ShutdownBin can wake and
// close it; reports false when the server is already draining.
func (s *Server) registerBinConn(conn net.Conn) bool {
	s.binMu.Lock()
	defer s.binMu.Unlock()
	if s.binDraining.Load() {
		return false
	}
	if s.binOpen == nil {
		s.binOpen = make(map[net.Conn]struct{})
	}
	s.binOpen[conn] = struct{}{}
	return true
}

func (s *Server) unregisterBinConn(conn net.Conn) {
	s.binMu.Lock()
	delete(s.binOpen, conn)
	s.binMu.Unlock()
}

// ShutdownBin gracefully stops the framed-protocol side: new connections
// are refused, existing connections finish the frames already in flight
// (their read loops are woken via a read deadline, flush buffered
// responses, and exit), and any connection still open when ctx expires is
// force-closed. The caller is responsible for closing the listener first
// so ServeBin stops accepting.
func (s *Server) ShutdownBin(ctx context.Context) {
	s.binMu.Lock()
	s.binDraining.Store(true)
	for conn := range s.binOpen {
		// Wake blocked reads; the conn loop sees the draining flag, flushes,
		// and closes cleanly.
		_ = conn.SetReadDeadline(time.Now())
	}
	s.binMu.Unlock()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		s.binMu.Lock()
		open := len(s.binOpen)
		s.binMu.Unlock()
		if open == 0 {
			return
		}
		select {
		case <-ctx.Done():
			s.binMu.Lock()
			for conn := range s.binOpen {
				_ = conn.Close()
			}
			s.binMu.Unlock()
			return
		case <-tick.C:
		}
	}
}

// binScratchPool recycles per-connection scratch across connection churn.
var binScratchPool = sync.Pool{New: func() any { return &FrameScratch{} }}

// serveBinConn runs one framed connection: handshake, then the frame
// loop. Responses are flushed when the inbound buffer drains (or every
// binFlushEvery frames), so pipelined bursts amortize syscalls.
func (s *Server) serveBinConn(conn net.Conn) {
	// Failpoints "binserver.conn.read"/".write": injected connection
	// faults on the server side of the wire, indistinguishable to the
	// peer from a genuine reset.
	conn = faultinject.WrapConn("binserver.conn", conn)
	defer conn.Close()
	if !s.registerBinConn(conn) {
		return
	}
	defer s.unregisterBinConn(conn)
	s.binConns.Add(1)
	defer s.binConns.Add(-1)

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var hello [wire.ClientHelloLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	if err := wire.ParseClientHello(hello[:]); err != nil {
		s.frameErrors.Add(1)
		return
	}
	if _, err := bw.Write(wire.AppendServerHello(nil, s.view().Generation())); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	rd := wire.NewReader(br)
	sc := binScratchPool.Get().(*FrameScratch)
	defer binScratchPool.Put(sc)
	unflushed := 0
	// lastIdle marks the last instant this connection's inbound buffer was
	// observed empty: a frame's queueing delay is bounded below by
	// time.Since(lastIdle), which a deadline budget is checked against. An
	// idle connection never falsely sheds — blocking in Next with an empty
	// buffer re-stamps lastIdle when the frame arrives.
	lastIdle := time.Now()
	for {
		if s.binDraining.Load() {
			_ = bw.Flush()
			return
		}
		idle := rd.Buffered() == 0
		op, payload, err := rd.Next()
		if idle {
			lastIdle = time.Now()
		}
		if err != nil {
			// EOF, peer reset, or a deadline poke from ShutdownBin: flush
			// whatever was answered and drop the connection. Framing errors
			// (oversized/corrupt length) are counted — they are the protocol
			// analog of the HTTP 400 path.
			if errors.Is(err, wire.ErrFrame) {
				s.frameErrors.Add(1)
			}
			_ = bw.Flush()
			return
		}
		inflight := s.binInflight.Add(1)
		var resp []byte
		var fatal bool
		id, budgetMS := wire.PeekRequest(op, payload)
		// Admission gate: shed (never queue unboundedly) when the server
		// is over its in-flight cap, when this connection's pipelined
		// backlog exceeds its byte bound, or when the frame's deadline
		// budget was already spent queueing. Shed responses keep FIFO
		// order and the connection stays up — the client retries elsewhere.
		if max := s.admitMax.Load(); max > 0 && inflight+s.httpInflight.Load() > max {
			s.shedBin.Add(1)
			sc.resp = wire.AppendError(sc.resp[:0], id, wire.CodeUnavailable, "overloaded: probe shed, retry later")
			resp = sc.resp
		} else if qmax := s.connQueueMax.Load(); qmax > 0 && int64(rd.Buffered()) > qmax {
			s.shedBin.Add(1)
			sc.resp = wire.AppendError(sc.resp[:0], id, wire.CodeUnavailable, "connection queue over limit: probe shed")
			resp = sc.resp
		} else if budgetMS > 0 && time.Since(lastIdle) > time.Duration(budgetMS)*time.Millisecond {
			s.shedDeadline.Add(1)
			sc.resp = wire.AppendError(sc.resp[:0], id, wire.CodeUnavailable, "deadline budget exhausted before service")
			resp = sc.resp
		} else if ferr := faultinject.Fire("binserver.handle"); ferr != nil {
			// Failpoint "binserver.handle": a slow or failing server —
			// latency here holds the admission slot and queues the
			// pipeline, which is how deadline/overload tests make
			// shedding deterministic.
			sc.resp = wire.AppendError(sc.resp[:0], id, wire.CodeInternal, ferr.Error())
			resp = sc.resp
		} else {
			resp, fatal = s.HandleFrame(sc, op, payload)
		}
		_, werr := bw.Write(resp)
		s.binInflight.Add(-1)
		if werr != nil || fatal {
			_ = bw.Flush()
			return
		}
		unflushed++
		if rd.Buffered() == 0 || unflushed >= binFlushEvery {
			if err := bw.Flush(); err != nil {
				return
			}
			unflushed = 0
		}
	}
}
