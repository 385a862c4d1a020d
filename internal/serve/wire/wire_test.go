package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// TestFaultKeyMatchesHashFnv pins FaultKey to the stdlib FNV-1a it inlines:
// the serving cache was keyed by hash/fnv before the wire package became
// the source of truth, so any drift here would silently split the cache
// between the two protocol surfaces.
func TestFaultKeyMatchesHashFnv(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		canon := make([]int, rng.Intn(20))
		prev := -1
		for i := range canon {
			prev += 1 + rng.Intn(50)
			canon[i] = prev
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, e := range canon {
			binary.LittleEndian.PutUint64(buf[:], uint64(e))
			h.Write(buf[:])
		}
		if got, want := FaultKey(canon), h.Sum64(); got != want {
			t.Fatalf("FaultKey(%v) = %#x, hash/fnv gives %#x", canon, got, want)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	if err := ParseClientHello(AppendClientHello(nil)); err != nil {
		t.Fatalf("client hello round trip: %v", err)
	}
	gen, err := ParseServerHello(AppendServerHello(nil, 42))
	if err != nil || gen != 42 {
		t.Fatalf("server hello round trip: gen=%d err=%v", gen, err)
	}
	bad := AppendClientHello(nil)
	bad[4] = Version + 1
	if err := ParseClientHello(bad); !errors.Is(err, ErrFrame) {
		t.Fatalf("version mismatch accepted: %v", err)
	}
	if _, err := ParseServerHello([]byte("FTCW")); !errors.Is(err, ErrFrame) {
		t.Fatalf("short server hello accepted: %v", err)
	}
}

func TestProbeRoundTrip(t *testing.T) {
	faults := []int{1, 5, 9, 200}
	pairs := [][2]int{{0, 1}, {7, 3}, {100, 100}}
	frame := AppendProbe(nil, 77, 3, faults, pairs)

	var req ProbeReq
	if err := DecodeProbe(frame[frameHeaderLen:], &req); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if req.ID != 77 || req.GenPin != 3 {
		t.Fatalf("id/genPin: got %d/%d", req.ID, req.GenPin)
	}
	if len(req.Faults) != len(faults) {
		t.Fatalf("faults: got %v", req.Faults)
	}
	for i := range faults {
		if req.Faults[i] != faults[i] {
			t.Fatalf("faults: got %v want %v", req.Faults, faults)
		}
	}
	if len(req.Pairs) != len(pairs) {
		t.Fatalf("pairs: got %v", req.Pairs)
	}
	for i := range pairs {
		if req.Pairs[i] != pairs[i] {
			t.Fatalf("pairs: got %v want %v", req.Pairs, pairs)
		}
	}
	if req.Key != FaultKey(faults) {
		t.Fatalf("incremental key %#x != FaultKey %#x", req.Key, FaultKey(faults))
	}
}

func TestDecodeProbeRejectsNonCanonical(t *testing.T) {
	var req ProbeReq
	for _, faults := range [][]int{{5, 5}, {9, 3}, {0, 1, 1}} {
		frame := AppendProbe(nil, 1, 0, faults, nil)
		if err := DecodeProbe(frame[frameHeaderLen:], &req); !errors.Is(err, ErrFrame) {
			t.Fatalf("non-canonical faults %v accepted: %v", faults, err)
		}
	}
}

func TestDecodeProbeRejectsHostileCounts(t *testing.T) {
	// A frame that announces huge counts but carries no bytes for them must
	// be rejected before any slice is grown to the announced size.
	payload := make([]byte, probeFixedLen)
	binary.LittleEndian.PutUint32(payload[16:], 1<<30) // nFaults
	binary.LittleEndian.PutUint32(payload[20:], 1<<30) // nPairs
	var req ProbeReq
	if err := DecodeProbe(payload, &req); !errors.Is(err, ErrFrame) {
		t.Fatalf("hostile counts accepted: %v", err)
	}
	if cap(req.Faults) > 0 || cap(req.Pairs) > 0 {
		t.Fatalf("hostile counts grew slices: faults cap %d, pairs cap %d", cap(req.Faults), cap(req.Pairs))
	}
}

func TestProbeRespRoundTrip(t *testing.T) {
	for _, nPairs := range []int{0, 1, 7, 8, 9, 16, 100} {
		connected := make([]bool, nPairs)
		for i := range connected {
			if i%3 == 0 {
				connected[i] = true
			}
		}
		frame := AppendProbeResp(nil, 9, true, 5, 2, connected)
		var resp ProbeResp
		if err := DecodeProbeResp(frame[frameHeaderLen:], nil, &resp); err != nil {
			t.Fatalf("nPairs=%d decode: %v", nPairs, err)
		}
		if resp.ID != 9 || !resp.CacheHit || resp.Gen != 5 || resp.Faults != 2 {
			t.Fatalf("nPairs=%d header fields: %+v", nPairs, resp)
		}
		if len(resp.Connected) != nPairs {
			t.Fatalf("nPairs=%d got %d answers", nPairs, len(resp.Connected))
		}
		for i := range connected {
			if resp.Connected[i] != connected[i] {
				t.Fatalf("nPairs=%d answer %d: got %v want %v", nPairs, i, resp.Connected[i], connected[i])
			}
		}
	}
}

// TestRouteAndVProbeRoundTrip covers the query-product request frames:
// same payload layout as probes, decoded by DecodeProbe, different opcode.
func TestRouteAndVProbeRoundTrip(t *testing.T) {
	faults := []int{2, 3, 11}
	pairs := [][2]int{{1, 9}, {4, 4}}

	var req ProbeReq
	frame := AppendRequest(nil, OpRoute, 5, 7, 0, faults, pairs)
	if frame[frameHeaderLen-1] != OpRoute {
		t.Fatalf("route opcode: %#x", frame[frameHeaderLen-1])
	}
	if err := DecodeProbe(frame[frameHeaderLen:], &req); err != nil {
		t.Fatalf("route decode: %v", err)
	}
	if req.ID != 5 || req.GenPin != 7 || req.Key != FaultKey(faults) {
		t.Fatalf("route fields: %+v (want key %#x)", req, FaultKey(faults))
	}

	frame = AppendRequest(nil, OpVProbe, 6, 0, 0, faults, pairs)
	if frame[frameHeaderLen-1] != OpVProbe {
		t.Fatalf("vprobe opcode: %#x", frame[frameHeaderLen-1])
	}
	if err := DecodeProbe(frame[frameHeaderLen:], &req); err != nil {
		t.Fatalf("vprobe decode: %v", err)
	}
	if req.ID != 6 || req.Key != FaultKey(faults) {
		t.Fatalf("vprobe fields: %+v (want key %#x)", req, FaultKey(faults))
	}
}

func TestVProbeRespRoundTrip(t *testing.T) {
	connected := []bool{true, false, true, true}
	frame := AppendVProbeResp(nil, 12, true, true, 9, 3, connected)
	if frame[frameHeaderLen-1] != OpVProbeResp {
		t.Fatalf("opcode: %#x", frame[frameHeaderLen-1])
	}
	var resp ProbeResp
	if err := DecodeProbeResp(frame[frameHeaderLen:], nil, &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.ID != 12 || !resp.CacheHit || !resp.Approx || resp.Gen != 9 || resp.Faults != 3 {
		t.Fatalf("fields: %+v", resp)
	}
	for i := range connected {
		if resp.Connected[i] != connected[i] {
			t.Fatalf("answer %d: got %v", i, resp.Connected[i])
		}
	}
	// The exact probe response must decode with Approx false.
	frame = AppendProbeResp(nil, 1, false, 2, 1, connected)
	if err := DecodeProbeResp(frame[frameHeaderLen:], nil, &resp); err != nil || resp.Approx {
		t.Fatalf("exact probe resp: approx=%v err=%v", resp.Approx, err)
	}
}

func TestRouteRespRoundTrip(t *testing.T) {
	reach := []bool{true, false, true}
	paths := [][]int{{0, 4, 2}, nil, {7}}
	frame := AppendRouteResp(nil, 3, true, false, 8, 2, reach, paths)
	if want, got := RouteRespSize(paths), len(frame)-frameHeaderLen; got != want {
		t.Fatalf("RouteRespSize %d, encoded payload %d", want, got)
	}
	var resp RouteResp
	if err := DecodeRouteResp(frame[frameHeaderLen:], &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.ID != 3 || !resp.CacheHit || resp.Approx || resp.Gen != 8 || resp.Faults != 2 {
		t.Fatalf("fields: %+v", resp)
	}
	if len(resp.Reachable) != 3 || !resp.Reachable[0] || resp.Reachable[1] || !resp.Reachable[2] {
		t.Fatalf("reachable: %v", resp.Reachable)
	}
	if len(resp.Paths) != 3 || resp.Paths[1] != nil {
		t.Fatalf("paths: %v", resp.Paths)
	}
	for i, want := range paths {
		if len(resp.Paths[i]) != len(want) {
			t.Fatalf("path %d: got %v want %v", i, resp.Paths[i], want)
		}
		for j := range want {
			if resp.Paths[i][j] != want[j] {
				t.Fatalf("path %d: got %v want %v", i, resp.Paths[i], want)
			}
		}
	}
}

func TestDecodeRouteRespRejectsHostileLengths(t *testing.T) {
	// Announce one route whose path length points far past the payload:
	// the decoder must reject before allocating the announced size.
	frame := AppendRouteResp(nil, 1, false, false, 1, 0, []bool{true}, [][]int{{1, 2}})
	payload := append([]byte(nil), frame[frameHeaderLen:]...)
	binary.LittleEndian.PutUint32(payload[routeRespFixedLen+1:], 1<<30)
	var resp RouteResp
	if err := DecodeRouteResp(payload, &resp); !errors.Is(err, ErrFrame) {
		t.Fatalf("hostile path length accepted: %v", err)
	}
}

// TestDecodeRouteRespPathsIsolated: the decoded paths share one backing
// array, so each must be capped — an append through Paths[0] must not
// write into Paths[1] — and a second decode into the same RouteResp must
// leave the first decode's paths intact.
func TestDecodeRouteRespPathsIsolated(t *testing.T) {
	frame := AppendRouteResp(nil, 1, false, false, 1, 0, []bool{true, true}, [][]int{{0, 1, 2}, {3, 4}})
	var resp RouteResp
	if err := DecodeRouteResp(frame[frameHeaderLen:], &resp); err != nil {
		t.Fatal(err)
	}
	first := resp.Paths[1]
	resp.Paths[0] = append(resp.Paths[0], 99, 98)
	if !slices.Equal(resp.Paths[1], []int{3, 4}) {
		t.Fatalf("append through Paths[0] reached Paths[1]: %v", resp.Paths[1])
	}
	other := AppendRouteResp(nil, 2, false, false, 1, 0, []bool{true, true}, [][]int{{7}, {8, 9}})
	if err := DecodeRouteResp(other[frameHeaderLen:], &resp); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, []int{3, 4}) || !slices.Equal(resp.Paths[1], []int{8, 9}) {
		t.Fatalf("redecode clobbered an earlier path: first %v, now %v", first, resp.Paths[1])
	}
}

// TestDecodeRouteRespRejectsHostileRouteCount: a route count the payload
// cannot hold is refused before Reachable or Paths is sized from it.
func TestDecodeRouteRespRejectsHostileRouteCount(t *testing.T) {
	frame := AppendRouteResp(nil, 1, false, false, 1, 0, []bool{true}, [][]int{{1, 2}})
	payload := append([]byte(nil), frame[frameHeaderLen:]...)
	binary.LittleEndian.PutUint32(payload[routeRespFixedLen-4:], 1<<31)
	var resp RouteResp
	if err := DecodeRouteResp(payload, &resp); !errors.Is(err, ErrFrame) {
		t.Fatalf("hostile route count accepted: %v", err)
	}
	if cap(resp.Reachable) != 0 || cap(resp.Paths) != 0 {
		t.Fatalf("hostile route count sized the response: cap %d/%d", cap(resp.Reachable), cap(resp.Paths))
	}
}

func TestErrorRoundTrip(t *testing.T) {
	frame := AppendError(nil, 4, CodeConflict, "stale")
	id, code, msg, err := DecodeError(frame[frameHeaderLen:])
	if err != nil || id != 4 || code != CodeConflict || msg != "stale" {
		t.Fatalf("error round trip: id=%d code=%d msg=%q err=%v", id, code, msg, err)
	}
}

// TestReaderZeroCopyAndScratch exercises both Reader paths: small frames
// peeked out of the bufio buffer, and a frame larger than the buffer
// forced through the scratch fallback.
func TestReaderZeroCopyAndScratch(t *testing.T) {
	var stream []byte
	stream = AppendProbe(stream, 1, 0, []int{2, 4}, [][2]int{{0, 1}})
	big := make([]int, 500) // 4*500 B payload > the 256 B buffer below
	for i := range big {
		big[i] = i
	}
	stream = AppendProbe(stream, 2, 0, big, nil)
	stream = AppendError(stream, 3, CodeInternal, "x")

	r := NewReader(bufio.NewReaderSize(bytes.NewReader(stream), 256))
	var req ProbeReq

	op, payload, err := r.Next()
	if err != nil || op != OpProbe {
		t.Fatalf("frame 1: op=%#x err=%v", op, err)
	}
	if err := DecodeProbe(payload, &req); err != nil || req.ID != 1 {
		t.Fatalf("frame 1 decode: id=%d err=%v", req.ID, err)
	}

	op, payload, err = r.Next()
	if err != nil || op != OpProbe {
		t.Fatalf("frame 2 (oversized): op=%#x err=%v", op, err)
	}
	if err := DecodeProbe(payload, &req); err != nil || req.ID != 2 || len(req.Faults) != len(big) {
		t.Fatalf("frame 2 decode: id=%d nFaults=%d err=%v", req.ID, len(req.Faults), err)
	}

	op, payload, err = r.Next()
	if err != nil || op != OpError {
		t.Fatalf("frame 3: op=%#x err=%v", op, err)
	}
	if id, _, _, err := DecodeError(payload); err != nil || id != 3 {
		t.Fatalf("frame 3 decode: id=%d err=%v", id, err)
	}

	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestReaderTruncatedAndOversized(t *testing.T) {
	full := AppendProbe(nil, 1, 0, []int{1, 2, 3}, [][2]int{{0, 1}})
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bufio.NewReader(bytes.NewReader(full[:cut])))
		if _, _, err := r.Next(); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", cut, len(full))
		}
	}

	// A length prefix beyond MaxFrameBytes fails before any read of the
	// announced payload.
	hostile := binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1)
	hostile = append(hostile, OpProbe)
	r := NewReader(bufio.NewReader(bytes.NewReader(hostile)))
	if _, _, err := r.Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized length prefix: %v", err)
	}
}

// TestDecodeAllocFree guards the steady-state decode paths: with warm
// scratch, neither probe decode nor response decode allocates.
func TestDecodeAllocFree(t *testing.T) {
	frame := AppendProbe(nil, 1, 0, []int{3, 8, 11}, [][2]int{{0, 5}, {2, 2}})
	var req ProbeReq
	if err := DecodeProbe(frame[frameHeaderLen:], &req); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeProbe(frame[frameHeaderLen:], &req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm DecodeProbe allocates %v/op", n)
	}

	respFrame := AppendProbeResp(nil, 1, false, 1, 3, []bool{true, false, true})
	var resp ProbeResp
	dst := make([]bool, 0, 16)
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeProbeResp(respFrame[frameHeaderLen:], dst, &resp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm DecodeProbeResp allocates %v/op", n)
	}
}

// FuzzWireFrame feeds arbitrary bytes through the full frame pipeline —
// Reader framing plus every payload decoder — asserting it never panics
// and never allocates a buffer sized from an unvalidated length prefix.
func FuzzWireFrame(f *testing.F) {
	f.Add(AppendProbe(nil, 1, 0, []int{1, 2}, [][2]int{{0, 1}}))
	f.Add(AppendProbeResp(nil, 1, true, 2, 2, []bool{true, false, true}))
	f.Add(AppendError(nil, 1, CodeBadRequest, "bad"))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, OpProbe})
	trunc := AppendProbe(nil, 9, 9, []int{5, 6, 7}, nil)
	f.Add(trunc[:len(trunc)-3])
	// Query-product opcodes: well-formed, truncated, and hostile-length
	// seeds for each.
	f.Add(AppendRequest(nil, OpRoute, 2, 1, 0, []int{0, 3}, [][2]int{{1, 2}}))
	f.Add(AppendRequest(nil, OpVProbe, 3, 0, 0, []int{4}, [][2]int{{0, 5}, {6, 6}}))
	f.Add(AppendRequest(nil, OpRoute, 6, 0, 250, []int{1}, [][2]int{{0, 1}}))
	f.Add(AppendVProbeResp(nil, 4, false, true, 3, 1, []bool{false, true}))
	routeResp := AppendRouteResp(nil, 5, true, false, 2, 1, []bool{true, false}, [][]int{{0, 1, 2}, nil})
	f.Add(routeResp)
	f.Add(routeResp[:len(routeResp)-4])
	hostile := append([]byte(nil), routeResp...)
	binary.LittleEndian.PutUint32(hostile[frameHeaderLen+routeRespFixedLen+1:], 1<<31)
	f.Add(hostile)
	manyRoutes := append([]byte(nil), routeResp...)
	binary.LittleEndian.PutUint32(manyRoutes[frameHeaderLen+routeRespFixedLen-4:], 1<<20)
	f.Add(manyRoutes)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bufio.NewReaderSize(bytes.NewReader(data), 512))
		var req ProbeReq
		var resp ProbeResp
		var rresp RouteResp
		for {
			op, payload, err := r.Next()
			if err != nil {
				return // framing rejected — fine, as long as nothing panicked
			}
			if len(payload) > MaxFrameBytes {
				t.Fatalf("payload of %d bytes escaped MaxFrameBytes", len(payload))
			}
			// The peek must agree with every successful decode: shed and
			// decode-error frames answer with the peeked ID and budget.
			peekAgrees := func() {
				if id, budget := PeekRequest(op, payload); id != req.ID || budget != req.BudgetMS {
					t.Fatalf("peek (%d, %d) disagrees with decode (%d, %d)", id, budget, req.ID, req.BudgetMS)
				}
			}
			switch op {
			case OpProbe, OpRoute, OpVProbe:
				if err := DecodeProbe(payload, &req); err == nil {
					peekAgrees()
					if FaultKey(req.Faults) != req.Key {
						t.Fatalf("incremental key mismatch for %v", req.Faults)
					}
				}
			case OpProbeResp, OpVProbeResp:
				_ = DecodeProbeResp(payload, resp.Connected, &resp)
			case OpRouteResp:
				if DecodeRouteResp(payload, &rresp) == nil {
					if len(rresp.Paths) != len(rresp.Reachable) {
						t.Fatalf("%d paths for %d routes", len(rresp.Paths), len(rresp.Reachable))
					}
					for i, p := range rresp.Paths {
						if cap(p) != len(p) {
							t.Fatalf("path %d: cap %d > len %d, an append could reach the next path", i, cap(p), len(p))
						}
					}
				}
			case OpError:
				_, _, _, _ = DecodeError(payload)
			}
		}
	})
}

func TestLogRecordFrameAndMaxFrame(t *testing.T) {
	// A record above the default cap must be rejected at the default cap
	// and accepted once the tailing client raises it.
	record := bytes.Repeat([]byte{0x5a}, MaxFrameBytes+512)
	frame := AppendLogRecord(nil, record)

	r := NewReader(bufio.NewReader(bytes.NewReader(frame)))
	if _, _, err := r.Next(); err == nil {
		t.Fatal("oversized log record passed the default frame cap")
	}

	r = NewReader(bufio.NewReader(bytes.NewReader(frame)))
	r.SetMaxFrame(MaxFrameBytes * 2)
	op, payload, err := r.Next()
	if err != nil || op != OpLogRecord {
		t.Fatalf("Next with raised cap = (%#x, %v)", op, err)
	}
	if !bytes.Equal(payload, record) {
		t.Fatal("log record payload mangled in framing")
	}
}
