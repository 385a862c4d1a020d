package wireclient

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	ftc "repro"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/workload"
)

// flakyListener wraps a real server listener behind a dialer that can be
// switched off (dial attempts fail) and a kill switch that severs every
// accepted connection — a server crash and restart, in-process.
type flakyListener struct {
	t      *testing.T
	addr   string
	down   atomic.Bool
	dials  atomic.Int64
	refuse atomic.Int64
	conns  []net.Conn
	mu     chan struct{} // 1-token mutex usable from test and dialer
}

func newFlaky(t *testing.T, addr string) *flakyListener {
	fl := &flakyListener{t: t, addr: addr, mu: make(chan struct{}, 1)}
	fl.mu <- struct{}{}
	return fl
}

func (fl *flakyListener) dialer() func() (net.Conn, error) {
	return func() (net.Conn, error) {
		fl.dials.Add(1)
		if fl.down.Load() {
			fl.refuse.Add(1)
			return nil, errors.New("flaky: server down")
		}
		c, err := net.Dial("tcp", fl.addr)
		if err != nil {
			return nil, err
		}
		<-fl.mu
		fl.conns = append(fl.conns, c)
		fl.mu <- struct{}{}
		return c, nil
	}
}

// crash severs every live connection and refuses dials until restore.
func (fl *flakyListener) crash() {
	fl.down.Store(true)
	<-fl.mu
	for _, c := range fl.conns {
		c.Close()
	}
	fl.conns = nil
	fl.mu <- struct{}{}
}

func (fl *flakyListener) restore() { fl.down.Store(false) }

func testServer(t *testing.T) (*serve.Server, string, func()) {
	t.Helper()
	s, err := ftc.NewFromGraph(workload.Petersen(), ftc.WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(s, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBin(ln)
	return srv, ln.Addr().String(), func() { ln.Close() }
}

// TestReconnectAfterServerDrop drives probes through a crash/restart and
// asserts: in-flight/immediate calls fail fast (never hang), the client
// redials with backoff while the server is down, and probes succeed again
// with no caller-side dial logic once it returns.
func TestReconnectAfterServerDrop(t *testing.T) {
	_, addr, stop := testServer(t)
	defer stop()
	fl := newFlaky(t, addr)
	cl, err := Dial(addr, Options{
		Conns:         2,
		Dialer:        fl.dialer(),
		ReconnectBase: 2 * time.Millisecond,
		ReconnectMax:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pairs := [][2]int{{0, 5}, {3, 7}}
	if _, err := cl.Probe([]int{1}, pairs); err != nil {
		t.Fatalf("warm probe: %v", err)
	}

	fl.crash()
	// Every probe while down must fail promptly (dead slots, refused
	// redials) rather than hang.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("probes kept succeeding after the crash")
		}
		if _, err := cl.Probe([]int{1}, pairs); err != nil {
			break
		}
	}
	// Let the backoff loop accumulate refused attempts: proves redial is
	// periodic, not a hot spin and not a one-shot.
	base := fl.refuse.Load()
	time.Sleep(60 * time.Millisecond)
	if grew := fl.refuse.Load() - base; grew < 2 {
		t.Fatalf("only %d redial attempts while down; backoff loop not running", grew)
	}

	fl.restore()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Probe([]int{1}, pairs); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after restart")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReconnectBackoffCaps asserts the retry cadence respects the cap: with
// base 1ms and cap 8ms, n refusals take at least ~n·(cap/2 · 1/2) once
// capped, and far fewer dials happen than a hot loop would make.
func TestReconnectBackoffCaps(t *testing.T) {
	_, addr, stop := testServer(t)
	fl := newFlaky(t, addr)
	cl, err := Dial(addr, Options{
		Dialer:        fl.dialer(),
		ReconnectBase: time.Millisecond,
		ReconnectMax:  8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stop()
	fl.crash()
	for {
		if _, err := cl.Probe(nil, [][2]int{{0, 1}}); err != nil {
			break
		}
	}
	time.Sleep(100 * time.Millisecond)
	// With cap 8ms and ±50% jitter the floor per attempt is 4ms, so 100ms
	// admits at most ~25 attempts plus the uncapped warmup; a hot loop
	// would make thousands.
	if n := fl.refuse.Load(); n > 40 {
		t.Fatalf("%d redials in 100ms: backoff cap not respected", n)
	}
}

// TestNoReconnectOption asserts the opt-out: a dead client stays dead.
func TestNoReconnectOption(t *testing.T) {
	_, addr, stop := testServer(t)
	defer stop()
	fl := newFlaky(t, addr)
	cl, err := Dial(addr, Options{Dialer: fl.dialer(), NoReconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fl.crash()
	fl.restore() // server is back, but the client must not redial
	for {
		if _, err := cl.Probe(nil, [][2]int{{0, 1}}); err != nil {
			break
		}
	}
	dials := fl.dials.Load()
	time.Sleep(30 * time.Millisecond)
	if _, err := cl.Probe(nil, [][2]int{{0, 1}}); err == nil {
		t.Fatal("NoReconnect client recovered")
	}
	if fl.dials.Load() != dials {
		t.Fatal("NoReconnect client dialed")
	}
}

// TestBackoffResetAfterRecovery is the flappy-link guard regression test:
// the redial backoff persists per slot across sessions (a link that
// accepts TCP but dies before answering must keep backing off, not hot
// loop), yet a successful reconnect plus ONE completed exchange resets it
// — so a crash after real recovery is redialed at the base cadence, not
// at the previously grown backoff.
func TestBackoffResetAfterRecovery(t *testing.T) {
	_, addr, stop := testServer(t)
	defer stop()
	fl := newFlaky(t, addr)
	cl, err := Dial(addr, Options{
		Dialer:        fl.dialer(),
		ReconnectBase: 25 * time.Millisecond,
		ReconnectMax:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pairs := [][2]int{{0, 5}}
	if _, err := cl.Probe(nil, pairs); err != nil {
		t.Fatalf("warm probe: %v", err)
	}

	// Grow the backoff well past base: with base 25ms, ~500ms down pushes
	// the stored per-slot backoff to several hundred milliseconds.
	fl.crash()
	for {
		if _, err := cl.Probe(nil, pairs); err != nil {
			break
		}
	}
	time.Sleep(500 * time.Millisecond)

	fl.restore()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cl.Probe(nil, pairs); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after restore")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The completed exchange must have reset the slot's backoff: the next
	// crash gets its first redial attempt at ~base, not at the grown
	// value (which by now would be >= 200ms).
	dialsBefore := fl.dials.Load()
	fl.crash()
	start := time.Now()
	deadline = time.Now().Add(2 * time.Second)
	for fl.dials.Load() == dialsBefore {
		if time.Now().After(deadline) {
			t.Fatal("no redial attempt after second crash")
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Fatalf("first redial after recovery took %v; backoff was not reset by the completed exchange", d)
	}
}

// TestCallOnDrainedConnectionFails: a call enqueued after the reader
// drained the FIFO and exited — the connection died between pick and the
// enqueue — must fail instead of waiting forever for a handoff.
func TestCallOnDrainedConnectionFails(t *testing.T) {
	c, peer := net.Pipe()
	peer.Close()
	cn := &conn{c: c, bw: bufio.NewWriter(c), pending: make(chan *call, 4), dead: make(chan struct{})}
	cn.fail(errors.New("severed")) // no reader runs: it already drained and exited
	for i := 0; i < 100; i++ {
		ca := &call{done: make(chan struct{}, 1)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := cn.roundTrip(ca, wire.OpProbe, 0, 0, [][2]int{{0, 1}}); err == nil && ca.err == nil {
				t.Error("call on a dead connection succeeded")
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d on a drained connection never completed", i)
		}
	}
}
