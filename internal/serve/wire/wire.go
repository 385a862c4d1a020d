// Package wire is the binary probe protocol of the serving layer:
// length-prefixed request/response frames over persistent connections, the
// hot-path alternative to the JSON HTTP surface (DESIGN.md §3.12). The
// protocol exists because at warm-cache steady state the probe itself is
// ~15ns while each HTTP request pays a JSON decode/encode — serialization,
// not the scheme, bounds serving throughput.
//
// Design rules, all in service of a zero-allocation steady state:
//
//   - Fault edges are canonical ON THE WIRE: a probe frame must carry its
//     fault edge indices strictly ascending (sorted, deduplicated). The
//     client canonicalizes once when building the frame; the server
//     validates ascending order during decode — an O(count) comparison —
//     and computes the fault-set cache key incrementally from the same
//     pass, so a fault set is hashed and canonicalized exactly once per
//     frame. Canonicalize and FaultKey here are the single source of
//     truth for that form and its hash: the client, the serve cache and
//     its vertex-fault reduction all call them.
//
//   - Frames are read zero-copy: Reader peeks frames directly out of the
//     underlying bufio buffer whenever they fit (the common case — a
//     batch-16 probe frame is ~150 bytes against a 64KB buffer), falling
//     back to one reused scratch buffer for oversized frames. Decoding
//     aliases nothing and refills caller-owned slices in place.
//
//   - Responses answer a batch of pairs as a bitmap, so a batch-16
//     response is 34 bytes where the JSON form is ~100.
//
// Connection lifecycle: the client opens with a 5-byte hello (magic +
// version); the server answers with magic + version + its current
// generation, then both sides exchange frames. Responses are written in
// request order per connection, which is what makes pipelining trivial —
// a client may keep any number of requests in flight and match responses
// FIFO (request ids are echoed as a cross-check, not a matching key).
//
// Frame layout (all integers little-endian):
//
//	u32 payload length | u8 opcode | payload
//
//	OpProbe payload:
//	  u64 id | u64 generation pin (0 = none) | u32 nFaults | u32 nPairs
//	  u32 deadline budget in ms (0 = none)
//	  nFaults × u32 fault edge index (strictly ascending)
//	  nPairs  × (u32 s, u32 t)
//
//	The deadline budget is the requester's remaining end-to-end budget at
//	send time; a server that cannot start serving the frame within it
//	answers OpError CodeUnavailable instead of holding the request in a
//	queue past its usefulness (DESIGN.md §3.16).
//
//	OpProbeResp payload:
//	  u64 id | u8 flags (bit0 = cache hit) | u64 generation
//	  u32 nFaults (canonical count) | u32 nPairs | ⌈nPairs/8⌉ bitmap bytes
//
//	OpError payload:
//	  u64 id | u16 code (HTTP-aligned) | message bytes
//
//	OpLogSub payload (replication tailing, client → server):
//	  u64 afterGen — stream generation-log records with gen > afterGen
//
//	OpLogRecord payload (server → client):
//	  one genlog record payload, verbatim (self-describing; see the
//	  genlog package for its layout and versioning)
//
//	OpRoute payload (query product, DESIGN.md §3.15):
//	  identical layout to OpProbe — the forbidden set is fault EDGE
//	  indices (strictly ascending) and the pairs are (source, target).
//
//	OpRouteResp payload:
//	  u64 id | u8 flags (bit0 = cache hit, bit1 = approx) | u64 generation
//	  u32 nFaults (canonical count) | u32 nRoutes
//	  nRoutes × ( u8 reachable | u32 pathLen | pathLen × u32 vertex )
//
//	OpVProbe payload:
//	  identical layout to OpProbe, but the fault indices are VERTEX
//	  indices (strictly ascending).
//
//	OpVProbeResp payload:
//	  identical layout to OpProbeResp, plus bit1 of the flags byte, the
//	  approx flag (never set by current servers; every answer is exact).
//
// A connection that sends OpLogSub switches to push mode: the server
// streams OpLogRecord frames (backlog, then live appends) and accepts no
// further requests on that connection. Log records may exceed the normal
// frame cap; a tailing client raises its Reader cap via SetMaxFrame.
//
// Any layout change must bump Version; a mismatched hello fails the
// handshake instead of misparsing frames. New opcodes are additive: a
// server that predates one answers OpError CodeBadRequest and drops the
// connection, which a client treats as "feature unsupported".
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Version is the protocol version exchanged in the hello. Bump on any
// frame-layout change. Version 2 added the u32 deadline-budget field to
// the probe-layout request frames.
const Version = 2

// magic opens both hello messages.
var magic = [4]byte{'F', 'T', 'C', 'W'}

// Opcodes. Responses have the high bit clear too — the opcode namespace is
// shared so a Reader can hand any frame to the right decoder.
const (
	OpProbe      byte = 0x01 // client → server batch probe
	OpProbeResp  byte = 0x02 // server → client batch answer
	OpError      byte = 0x03 // server → client failure report
	OpLogSub     byte = 0x04 // client → server genlog subscription
	OpLogRecord  byte = 0x05 // server → client genlog record push
	OpRoute      byte = 0x06 // client → server batch route-plan request
	OpRouteResp  byte = 0x07 // server → client route plans
	OpVProbe     byte = 0x08 // client → server batch vertex-fault probe
	OpVProbeResp byte = 0x09 // server → client vertex-fault answers
)

// Error codes carried by OpError frames, aligned with the HTTP handler's
// status codes so the two protocol surfaces report failures identically.
const (
	CodeBadRequest    uint16 = 400
	CodeConflict      uint16 = 409 // generation pin mismatch / stale label
	CodeGone          uint16 = 410 // genlog no longer covers the requested gen
	CodeUnprocessable uint16 = 422 // invalid fault set (budget, range)
	CodeInternal      uint16 = 500
	CodeUnavailable   uint16 = 503 // overload shed / deadline budget exhausted
)

// MaxFrameBytes bounds one frame's payload, mirroring the HTTP handler's
// request-body cap. A peer announcing a larger frame is malformed and the
// connection is dropped before any allocation is sized from the length.
const MaxFrameBytes = 1 << 20

// frameHeaderLen is the u32 length prefix plus the opcode byte.
const frameHeaderLen = 5

// probeFixedLen is the fixed part of an OpProbe payload: id, generation
// pin, the two counts, and the deadline budget.
const probeFixedLen = 8 + 8 + 4 + 4 + 4

// ErrFrame is returned for any malformed frame or handshake.
var ErrFrame = errors.New("wire: malformed frame")

// ErrTooLarge is returned when a length prefix exceeds MaxFrameBytes.
var ErrTooLarge = fmt.Errorf("%w: frame exceeds %d bytes", ErrFrame, MaxFrameBytes)

// fnv64Offset/fnv64Prime are the FNV-1a 64 parameters (hash/fnv inlined so
// the per-frame key needs no hasher allocation).
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// FaultKey hashes a canonical (strictly ascending) fault-edge index slice:
// FNV-1a over each index as 8 little-endian bytes. This is the fault-set
// cache key — the serve layer's cache derives its key from this function,
// and DecodeProbe computes the identical value incrementally while
// validating the frame, so the serving path never hashes twice.
func FaultKey(canon []int) uint64 {
	h := fnv64Offset
	for _, e := range canon {
		h = faultKeyStep(h, uint64(e))
	}
	return h
}

// faultKeyStep folds one index (as 8 LE bytes) into an FNV-1a state.
func faultKeyStep(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnv64Prime
	}
	return h
}

// Canonicalize sorts and deduplicates a fault index slice in place and
// returns the result: the strictly ascending form that request frames
// carry and FaultKey hashes.
func Canonicalize(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// AppendClientHello appends the 5-byte client hello.
func AppendClientHello(b []byte) []byte {
	b = append(b, magic[:]...)
	return append(b, Version)
}

// ClientHelloLen is the size of the client hello.
const ClientHelloLen = 5

// ServerHelloLen is the size of the server hello.
const ServerHelloLen = 13

// ParseClientHello validates a client hello.
func ParseClientHello(b []byte) error {
	if len(b) != ClientHelloLen || string(b[:4]) != string(magic[:]) {
		return fmt.Errorf("%w: bad client hello", ErrFrame)
	}
	if b[4] != Version {
		return fmt.Errorf("%w: protocol version %d, want %d", ErrFrame, b[4], Version)
	}
	return nil
}

// AppendServerHello appends the 13-byte server hello carrying the server's
// current generation.
func AppendServerHello(b []byte, gen uint64) []byte {
	b = append(b, magic[:]...)
	b = append(b, Version)
	return binary.LittleEndian.AppendUint64(b, gen)
}

// ParseServerHello validates a server hello and returns the generation.
func ParseServerHello(b []byte) (uint64, error) {
	if len(b) != ServerHelloLen || string(b[:4]) != string(magic[:]) {
		return 0, fmt.Errorf("%w: bad server hello", ErrFrame)
	}
	if b[4] != Version {
		return 0, fmt.Errorf("%w: protocol version %d, want %d", ErrFrame, b[4], Version)
	}
	return binary.LittleEndian.Uint64(b[5:]), nil
}

// ProbeReq is one decoded request frame of the probe layout. Faults and
// Pairs are refilled in place by DecodeProbe, so a long-lived ProbeReq
// makes the decode path allocation-free; Key is FaultKey(Faults), computed
// during decode — the cache key when the faults are edges.
type ProbeReq struct {
	ID     uint64
	GenPin uint64
	Faults []int
	Pairs  [][2]int
	Key    uint64
	// BudgetMS is the requester's remaining end-to-end deadline budget in
	// milliseconds at send time (0 = no deadline). Servers shed with
	// CodeUnavailable instead of serving past it.
	BudgetMS uint32
}

// AppendRequest appends one complete probe-layout request frame (header +
// payload) under the given opcode. OpProbe, OpRoute and OpVProbe share the
// layout and differ only in what the fault indices mean: fault edges for
// probes and routes (each pair a source–target query), failed vertices for
// vertex probes. faults must already be canonical — strictly ascending —
// or the server rejects the frame. budgetMS is the remaining deadline
// budget (0 = none).
func AppendRequest(b []byte, op byte, id, genPin uint64, budgetMS uint32, faults []int, pairs [][2]int) []byte {
	payload := probeFixedLen + 4*len(faults) + 8*len(pairs)
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, op)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint64(b, genPin)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(faults)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pairs)))
	b = binary.LittleEndian.AppendUint32(b, budgetMS)
	for _, e := range faults {
		b = binary.LittleEndian.AppendUint32(b, uint32(e))
	}
	for _, p := range pairs {
		b = binary.LittleEndian.AppendUint32(b, uint32(p[0]))
		b = binary.LittleEndian.AppendUint32(b, uint32(p[1]))
	}
	return b
}

// AppendProbe appends one complete probe frame (header + payload). faults
// must already be canonical — strictly ascending — which the pipelined
// client guarantees by sorting and deduplicating once per call; the server
// rejects non-canonical frames.
func AppendProbe(b []byte, id, genPin uint64, faults []int, pairs [][2]int) []byte {
	return AppendRequest(b, OpProbe, id, genPin, 0, faults, pairs)
}

// PeekRequest reads a request frame's ID and deadline budget without a
// full decode, so a shed or decode-error response still correlates FIFO
// with its request and an expired frame is shed before any per-frame
// work. id is 0 when the payload is shorter than 8 bytes; budgetMS is 0
// when the payload is too short to carry it or op is not one of the
// probe-layout request opcodes (OpProbe, OpRoute, OpVProbe).
func PeekRequest(op byte, payload []byte) (id uint64, budgetMS uint32) {
	if len(payload) >= 8 {
		id = binary.LittleEndian.Uint64(payload)
	}
	switch op {
	case OpProbe, OpRoute, OpVProbe:
		if len(payload) >= probeFixedLen {
			budgetMS = binary.LittleEndian.Uint32(payload[24:])
		}
	}
	return id, budgetMS
}

// DecodeProbe decodes a payload of the probe layout — OpProbe, OpRoute or
// OpVProbe — into req, reusing req's slices. The fault indices must be
// strictly ascending — the canonical form — or the frame is rejected;
// req.Key is left as FaultKey(req.Faults), computed in the same pass. The
// counts are validated against the payload length before any slice is
// grown, so a hostile frame cannot force a large allocation.
func DecodeProbe(payload []byte, req *ProbeReq) error {
	if len(payload) < probeFixedLen {
		return fmt.Errorf("%w: truncated probe header", ErrFrame)
	}
	req.ID = binary.LittleEndian.Uint64(payload)
	req.GenPin = binary.LittleEndian.Uint64(payload[8:])
	nFaults := int(binary.LittleEndian.Uint32(payload[16:]))
	nPairs := int(binary.LittleEndian.Uint32(payload[20:]))
	req.BudgetMS = binary.LittleEndian.Uint32(payload[24:])
	if want := probeFixedLen + 4*nFaults + 8*nPairs; nFaults < 0 || nPairs < 0 || want != len(payload) {
		return fmt.Errorf("%w: probe counts disagree with payload length", ErrFrame)
	}
	rest := payload[probeFixedLen:]
	req.Faults = req.Faults[:0]
	key := fnv64Offset
	prev := int64(-1)
	for i := 0; i < nFaults; i++ {
		e := binary.LittleEndian.Uint32(rest[4*i:])
		if int64(e) <= prev {
			return fmt.Errorf("%w: fault indices not strictly ascending (canonical form required)", ErrFrame)
		}
		prev = int64(e)
		req.Faults = append(req.Faults, int(e))
		key = faultKeyStep(key, uint64(e))
	}
	req.Key = key
	rest = rest[4*nFaults:]
	req.Pairs = req.Pairs[:0]
	for i := 0; i < nPairs; i++ {
		req.Pairs = append(req.Pairs, [2]int{
			int(binary.LittleEndian.Uint32(rest[8*i:])),
			int(binary.LittleEndian.Uint32(rest[8*i+4:])),
		})
	}
	return nil
}

// probeRespFixedLen is the fixed part of an OpProbeResp payload.
const probeRespFixedLen = 8 + 1 + 8 + 4 + 4

// flagCacheHit marks a response served from an already-compiled cache
// entry. flagApprox marked an approximate answer to a fault set over the
// f budget; servers now answer those exactly from G − F (DESIGN.md
// §3.15) and never set it, but it stays decodable.
const (
	flagCacheHit = 1 << 0
	flagApprox   = 1 << 1
)

// appendConnResp appends one complete connectivity-bitmap response frame
// under the given opcode — shared by OpProbeResp and OpVProbeResp, which
// have identical layouts.
func appendConnResp(b []byte, op byte, id uint64, hit, approx bool, gen uint64, faults int, connected []bool) []byte {
	payload := probeRespFixedLen + (len(connected)+7)/8
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, op)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, respFlags(hit, approx))
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint32(b, uint32(faults))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(connected)))
	var cur byte
	for i, ok := range connected {
		if ok {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(connected)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

func respFlags(hit, approx bool) byte {
	var flags byte
	if hit {
		flags |= flagCacheHit
	}
	if approx {
		flags |= flagApprox
	}
	return flags
}

// AppendProbeResp appends one complete probe response frame. The connected
// answers are packed as a bitmap, LSB-first within each byte.
func AppendProbeResp(b []byte, id uint64, hit bool, gen uint64, faults int, connected []bool) []byte {
	return appendConnResp(b, OpProbeResp, id, hit, false, gen, faults, connected)
}

// AppendVProbeResp appends one complete vertex-fault probe response frame:
// OpProbeResp's layout under OpVProbeResp, with the approx flag available.
func AppendVProbeResp(b []byte, id uint64, hit, approx bool, gen uint64, faults int, connected []bool) []byte {
	return appendConnResp(b, OpVProbeResp, id, hit, approx, gen, faults, connected)
}

// ProbeResp is one decoded probe response. Connected is refilled in place
// from the caller-passed destination slice. Approx mirrors the frame's
// approx flag (always false on OpProbeResp, and from current servers).
type ProbeResp struct {
	ID        uint64
	CacheHit  bool
	Approx    bool
	Gen       uint64
	Faults    int
	Connected []bool
}

// DecodeProbeResp decodes an OpProbeResp or OpVProbeResp payload (they
// share a layout), unpacking the bitmap into dst (reused, returned inside
// resp.Connected).
func DecodeProbeResp(payload []byte, dst []bool, resp *ProbeResp) error {
	if len(payload) < probeRespFixedLen {
		return fmt.Errorf("%w: truncated probe response", ErrFrame)
	}
	resp.ID = binary.LittleEndian.Uint64(payload)
	resp.CacheHit = payload[8]&flagCacheHit != 0
	resp.Approx = payload[8]&flagApprox != 0
	resp.Gen = binary.LittleEndian.Uint64(payload[9:])
	resp.Faults = int(binary.LittleEndian.Uint32(payload[17:]))
	nPairs := int(binary.LittleEndian.Uint32(payload[21:]))
	bitmap := payload[probeRespFixedLen:]
	if nPairs < 0 || len(bitmap) != (nPairs+7)/8 {
		return fmt.Errorf("%w: probe response bitmap disagrees with pair count", ErrFrame)
	}
	dst = dst[:0]
	for i := 0; i < nPairs; i++ {
		dst = append(dst, bitmap[i/8]&(1<<(i%8)) != 0)
	}
	resp.Connected = dst
	return nil
}

// routeRespFixedLen is the fixed part of an OpRouteResp payload.
const routeRespFixedLen = 8 + 1 + 8 + 4 + 4

// RouteRespSize computes the encoded payload size of a route response —
// the server checks it against MaxFrameBytes before encoding, since route
// paths (unlike connectivity bitmaps) can be long.
func RouteRespSize(paths [][]int) int {
	n := routeRespFixedLen
	for _, p := range paths {
		n += 1 + 4 + 4*len(p)
	}
	return n
}

// AppendRouteResp appends one complete route response frame. reachable and
// paths are parallel per-pair slices; an unreachable pair's path is
// ignored (encoded empty).
func AppendRouteResp(b []byte, id uint64, hit, approx bool, gen uint64, faults int, reachable []bool, paths [][]int) []byte {
	payload := routeRespFixedLen
	for i, p := range paths {
		payload += 1 + 4
		if reachable[i] {
			payload += 4 * len(p)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, OpRouteResp)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = append(b, respFlags(hit, approx))
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint32(b, uint32(faults))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(paths)))
	for i, p := range paths {
		if reachable[i] {
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
			for _, v := range p {
				b = binary.LittleEndian.AppendUint32(b, uint32(v))
			}
		} else {
			b = append(b, 0)
			b = binary.LittleEndian.AppendUint32(b, 0)
		}
	}
	return b
}

// RouteResp is one decoded route response. Reachable and Paths are
// parallel per-pair slices; an unreachable pair has a nil path.
type RouteResp struct {
	ID        uint64
	CacheHit  bool
	Approx    bool
	Gen       uint64
	Faults    int
	Reachable []bool
	Paths     [][]int
}

// DecodeRouteResp decodes an OpRouteResp payload. Each pathLen is
// validated against the remaining payload before its slice is allocated,
// so a hostile frame cannot force a large allocation.
func DecodeRouteResp(payload []byte, resp *RouteResp) error {
	if len(payload) < routeRespFixedLen {
		return fmt.Errorf("%w: truncated route response", ErrFrame)
	}
	resp.ID = binary.LittleEndian.Uint64(payload)
	resp.CacheHit = payload[8]&flagCacheHit != 0
	resp.Approx = payload[8]&flagApprox != 0
	resp.Gen = binary.LittleEndian.Uint64(payload[9:])
	resp.Faults = int(binary.LittleEndian.Uint32(payload[17:]))
	nRoutes := int(binary.LittleEndian.Uint32(payload[21:]))
	rest := payload[routeRespFixedLen:]
	resp.Reachable = resp.Reachable[:0]
	resp.Paths = resp.Paths[:0]
	for i := 0; i < nRoutes; i++ {
		if len(rest) < 5 {
			return fmt.Errorf("%w: truncated route leg", ErrFrame)
		}
		ok := rest[0] != 0
		pathLen := int(binary.LittleEndian.Uint32(rest[1:]))
		rest = rest[5:]
		if pathLen < 0 || len(rest) < 4*pathLen {
			return fmt.Errorf("%w: route path length disagrees with payload", ErrFrame)
		}
		var path []int
		if ok {
			path = make([]int, pathLen)
			for j := range path {
				path[j] = int(binary.LittleEndian.Uint32(rest[4*j:]))
			}
		}
		rest = rest[4*pathLen:]
		resp.Reachable = append(resp.Reachable, ok)
		resp.Paths = append(resp.Paths, path)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: route response trailing bytes", ErrFrame)
	}
	return nil
}

// AppendError appends one complete error frame.
func AppendError(b []byte, id uint64, code uint16, msg string) []byte {
	if len(msg) > MaxFrameBytes-16 {
		msg = msg[:MaxFrameBytes-16]
	}
	payload := 8 + 2 + len(msg)
	b = binary.LittleEndian.AppendUint32(b, uint32(payload))
	b = append(b, OpError)
	b = binary.LittleEndian.AppendUint64(b, id)
	b = binary.LittleEndian.AppendUint16(b, code)
	return append(b, msg...)
}

// DecodeError decodes an OpError payload. The message is copied into a
// string — the error path may allocate.
func DecodeError(payload []byte) (id uint64, code uint16, msg string, err error) {
	if len(payload) < 10 {
		return 0, 0, "", fmt.Errorf("%w: truncated error frame", ErrFrame)
	}
	return binary.LittleEndian.Uint64(payload),
		binary.LittleEndian.Uint16(payload[8:]),
		string(payload[10:]), nil
}

// AppendLogSub appends a framed OpLogSub subscription request: stream
// genlog records with gen > afterGen.
func AppendLogSub(b []byte, afterGen uint64) []byte {
	b = binary.LittleEndian.AppendUint32(b, 8)
	b = append(b, OpLogSub)
	return binary.LittleEndian.AppendUint64(b, afterGen)
}

// DecodeLogSub decodes an OpLogSub payload.
func DecodeLogSub(payload []byte) (afterGen uint64, err error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: log-sub payload %d bytes, want 8", ErrFrame, len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// AppendLogRecord appends a framed OpLogRecord carrying one genlog record
// payload verbatim. The payload is self-describing; no inner envelope.
func AppendLogRecord(b []byte, record []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(record)))
	b = append(b, OpLogRecord)
	return append(b, record...)
}

// Reader reads frames off a connection. Frames that fit the bufio buffer
// are returned as direct aliases of it (zero-copy): the payload is valid
// only until the next call to Next, which discards it. Oversized frames
// fall back to one reused scratch buffer.
type Reader struct {
	br       *bufio.Reader
	scratch  []byte
	pending  int // bytes of the previously returned frame still to discard
	maxFrame int // payload cap; 0 = MaxFrameBytes
}

// NewReader wraps an existing bufio.Reader (so the caller controls buffer
// size and can interleave handshake reads).
func NewReader(br *bufio.Reader) *Reader {
	return &Reader{br: br}
}

// SetMaxFrame raises (or lowers) the per-frame payload cap from the
// default MaxFrameBytes. Genlog-tailing connections raise it to the log's
// record bound; request/response connections keep the default.
func (r *Reader) SetMaxFrame(n int) { r.maxFrame = n }

// Buffered reports how many bytes are ready without blocking — the frame
// loop uses it to batch response flushes while requests are still queued
// (the pipelining fast path).
func (r *Reader) Buffered() int {
	return r.br.Buffered() - r.pending
}

// Next returns the next frame's opcode and payload. The payload is valid
// only until the following Next call. Errors are either IO errors from the
// connection or ErrFrame-wrapped protocol violations; both mean the
// connection must be dropped (framing cannot be resynchronized).
func (r *Reader) Next() (op byte, payload []byte, err error) {
	if r.pending > 0 {
		if _, err := r.br.Discard(r.pending); err != nil {
			return 0, nil, err
		}
		r.pending = 0
	}
	hdr, err := r.br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	op = hdr[4]
	limit := uint32(MaxFrameBytes)
	if r.maxFrame > 0 {
		limit = uint32(r.maxFrame)
	}
	if n > limit {
		return 0, nil, ErrTooLarge
	}
	total := frameHeaderLen + int(n)
	if total <= r.br.Size() {
		buf, err := r.br.Peek(total)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		r.pending = total
		return op, buf[frameHeaderLen:], nil
	}
	// Oversized frame: copy through the reused scratch buffer. The length
	// was already bounded by MaxFrameBytes above.
	if _, err := r.br.Discard(frameHeaderLen); err != nil {
		return 0, nil, err
	}
	if cap(r.scratch) < int(n) {
		r.scratch = make([]byte, n)
	}
	buf := r.scratch[:n]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return op, buf, nil
}
