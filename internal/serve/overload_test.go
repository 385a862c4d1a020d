package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
)

var overloadReq = serve.ConnectedRequest{FaultEdges: []int{0}, Pairs: [][2]int{{0, 1}}}

// overloadRig is a static-scheme server on both surfaces with the
// admission gate armed.
type overloadRig struct {
	srv     *serve.Server
	ts      *httptest.Server
	binAddr string
}

func startOverloadRig(t *testing.T, maxInflight, maxConnQueue int) *overloadRig {
	t.Helper()
	sch := buildScheme(t, 24, 2, 5)
	srv := serve.New(sch, 64)
	srv.SetAdmission(maxInflight, maxConnQueue)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBin(ln)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); ln.Close() })
	return &overloadRig{srv: srv, ts: ts, binAddr: ln.Addr().String()}
}

// TestHTTPAdmissionShed holds the single admission slot with a
// latency-failpointed probe and asserts a second concurrent probe is shed
// with 503 + Retry-After, then admitted again once the slot frees.
func TestHTTPAdmissionShed(t *testing.T) {
	defer faultinject.Disarm()
	rig := startOverloadRig(t, 1, 0)
	reg := faultinject.New(1)
	if err := reg.Set("serve.probe", "latency:150ms"); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(reg)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if status, _ := postJSON[serve.ConnectedResponse](t, rig.ts.URL+"/connected", overloadReq); status != http.StatusOK {
			t.Errorf("slot-holding probe: status %d", status)
		}
	}()
	time.Sleep(30 * time.Millisecond) // the holder is inside the failpoint
	// The shed probe posts by hand: its Retry-After header is under test.
	body, err := json.Marshal(overloadReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(rig.ts.URL+"/connected", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow probe: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 shed carries no Retry-After")
	}
	wg.Wait()
	if st := rig.srv.Stats(); st.ShedHTTP != 1 {
		t.Fatalf("ShedHTTP = %d, want 1", st.ShedHTTP)
	}

	faultinject.Disarm()
	if status, _ := postJSON[serve.ConnectedResponse](t, rig.ts.URL+"/connected", overloadReq); status != http.StatusOK {
		t.Fatalf("post-shed probe: status %d, want 200 (slot freed)", status)
	}
}

// TestBinAdmissionShed fills the single admission slot from one binary
// connection (held there by the handle failpoint) and asserts a probe on
// a second connection is shed with CodeUnavailable while the connection
// survives for the retry.
func TestBinAdmissionShed(t *testing.T) {
	defer faultinject.Disarm()
	rig := startOverloadRig(t, 1, 0)
	reg := faultinject.New(2)
	if err := reg.Set("binserver.handle", "latency:150ms"); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(reg)

	cl1, err := wireclient.Dial(rig.binAddr, wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := wireclient.Dial(rig.binAddr, wireclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := cl1.Probe([]int{0}, [][2]int{{0, 1}}); err != nil {
			t.Errorf("slot-holding probe: %v", err)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	_, err = cl2.Probe([]int{0}, [][2]int{{0, 1}})
	var se *wireclient.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeUnavailable {
		t.Fatalf("overflow probe err = %v, want CodeUnavailable", err)
	}
	wg.Wait()
	if st := rig.srv.Stats(); st.ShedBin < 1 {
		t.Fatalf("ShedBin = %d, want >= 1", st.ShedBin)
	}

	faultinject.Disarm()
	// Same connection, next exchange: the shed was per-frame, not fatal.
	if _, err := cl2.Probe([]int{0}, [][2]int{{0, 1}}); err != nil {
		t.Fatalf("probe after shed on same conn: %v", err)
	}
}

// TestBinDeadlineBudgetShed pipelines a budgeted probe behind a slow one,
// delivering both frames in a single write so the server's inbound buffer
// holds frame 2 while frame 1 is in service: frame 2's budget is spent
// queueing, so the server sheds it with CodeUnavailable instead of doing
// dead work, and counts it as a deadline shed.
func TestBinDeadlineBudgetShed(t *testing.T) {
	defer faultinject.Disarm()
	rig := startOverloadRig(t, 0, 0) // no admission cap: isolate the deadline path
	reg := faultinject.New(3)
	if err := reg.Set("binserver.handle", "latency:120ms"); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(reg)

	conn, err := net.Dial("tcp", rig.binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendClientHello(nil)); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(bufio.NewReader(conn))
	hello := make([]byte, wire.ServerHelloLen)
	if _, err := io.ReadFull(conn, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ParseServerHello(hello); err != nil {
		t.Fatal(err)
	}

	// Frame 1: no budget, rides out the 120ms latency. Frame 2: 10ms
	// budget, already stale by the time frame 1 finishes.
	batch := wire.AppendRequest(nil, wire.OpProbe, 1, 0, 0, []int{0}, [][2]int{{0, 1}})
	batch = wire.AppendRequest(batch, wire.OpProbe, 2, 0, 10, []int{0}, [][2]int{{0, 1}})
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}

	op, _, err := rd.Next()
	if err != nil || op != wire.OpProbeResp {
		t.Fatalf("frame 1 response: op=%#x err=%v, want OpProbeResp", op, err)
	}
	op, payload, err := rd.Next()
	if err != nil || op != wire.OpError {
		t.Fatalf("frame 2 response: op=%#x err=%v, want OpError", op, err)
	}
	id, code, _, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 || code != wire.CodeUnavailable {
		t.Fatalf("frame 2 error: id=%d code=%d, want id=2 code=503", id, code)
	}
	if st := rig.srv.Stats(); st.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", st.ShedDeadline)
	}
}
