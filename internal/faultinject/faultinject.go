// Package faultinject is the failpoint registry of the serving tier
// (DESIGN.md §3.16): named points threaded through the tier's IO seams —
// genlog append/fsync/compaction, /snapshot streaming on both ends, wire
// connection read/write in binserver and wireclient — each carrying one
// policy (error, error-once, error-rate, latency, partial-write,
// torn-write) driven by a per-point PRNG derived from one global seed.
//
// The seed fixes the schedule a chaos harness derives from it and each
// point's PRNG stream, the values its firing decisions and torn-write
// lengths draw in turn. Goroutine scheduling decides the rest: which
// connection, request or write evaluates a point, and so draws its next
// value, and how many evaluations happen before the harness disarms it. A
// chaos run from one seed therefore does not replay identically: its
// failures may fire a different number of times, on different requests.
//
// The package is built to cost nothing when disarmed: every hook starts
// with one atomic pointer load and a nil check, and the connection/writer
// wrappers return their argument unwrapped unless a registry is armed at
// wrap time. Armed, a point that does not fire costs one map read under
// an RWMutex read lock.
//
// Arming is process-global (ftcserve -failpoints, chaos harnesses) or
// per-test via Arm/Disarm; tests that arm the global registry must not
// run in parallel with tests that probe the same seams.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Error is the injected failure: callers can unwrap to it (errors.As) to
// distinguish an injected fault from a real one in assertions.
type Error struct {
	Point  string
	Policy string
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: %s (%s)", e.Point, e.Policy)
}

// policy kinds. A point holds exactly one policy.
const (
	kindError        = "error"
	kindLatency      = "latency"
	kindPartialWrite = "partial-write"
)

// point is one armed failpoint: a policy, a firing probability, an
// optional remaining-fire budget, and its own deterministic PRNG.
type point struct {
	name    string
	kind    string
	policy  string // the spec text, echoed in errors and String()
	rate    float64
	latency time.Duration

	mu        sync.Mutex
	rng       *rand.Rand
	remaining int64 // <0 = unlimited
	fired     uint64
}

// decide rolls the point's dice: whether this evaluation fires, consuming
// one unit of the remaining budget when it does.
func (p *point) decide() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.remaining == 0 {
		return false
	}
	if p.rate < 1 && p.rng.Float64() >= p.rate {
		return false
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.fired++
	return true
}

// tear picks how many of n bytes a firing partial write lets through:
// a uniformly random strict prefix (at least 0, at most n-1 bytes).
func (p *point) tear(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 1 {
		return 0
	}
	return p.rng.Intn(n)
}

// Registry is a set of armed failpoints sharing one seed.
type Registry struct {
	seed int64
	mu   sync.RWMutex
	pts  map[string]*point
}

// New returns an empty registry whose points derive their PRNG streams
// from seed.
func New(seed int64) *Registry {
	return &Registry{seed: seed, pts: make(map[string]*point)}
}

// Seed reports the registry's seed.
func (r *Registry) Seed() int64 { return r.seed }

// pointSeed mixes the registry seed with the point name (FNV-1a) so each
// point gets an independent, reproducible stream.
func pointSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

// Set arms one point from a policy spec (the part after "="):
//
//	error            — every evaluation fails
//	error-once       — exactly one evaluation fails
//	error-rate:P     — each evaluation fails with probability P
//	latency:D[:P]    — sleep D (Go duration) [with probability P]
//	partial-write:P  — a write lets a random strict prefix through, then
//	                   fails, with probability P (write seams only)
//	torn-write       — exactly one partial write (the torn-tail injection)
func (r *Registry) Set(name, policy string) error {
	p := &point{name: name, policy: policy, rate: 1, remaining: -1}
	parts := strings.Split(policy, ":")
	switch parts[0] {
	case "error":
		p.kind = kindError
	case "error-once":
		p.kind = kindError
		p.remaining = 1
	case "error-rate":
		p.kind = kindError
		if len(parts) != 2 {
			return fmt.Errorf("faultinject: %s: error-rate needs a probability", name)
		}
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || rate < 0 || rate > 1 {
			return fmt.Errorf("faultinject: %s: bad error rate %q", name, parts[1])
		}
		p.rate = rate
	case "latency":
		p.kind = kindLatency
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("faultinject: %s: latency needs a duration", name)
		}
		d, err := time.ParseDuration(parts[1])
		if err != nil || d < 0 {
			return fmt.Errorf("faultinject: %s: bad latency %q", name, parts[1])
		}
		p.latency = d
		if len(parts) == 3 {
			rate, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || rate < 0 || rate > 1 {
				return fmt.Errorf("faultinject: %s: bad latency rate %q", name, parts[2])
			}
			p.rate = rate
		}
	case "partial-write":
		p.kind = kindPartialWrite
		if len(parts) != 2 {
			return fmt.Errorf("faultinject: %s: partial-write needs a probability", name)
		}
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || rate < 0 || rate > 1 {
			return fmt.Errorf("faultinject: %s: bad partial-write rate %q", name, parts[1])
		}
		p.rate = rate
	case "torn-write":
		p.kind = kindPartialWrite
		p.remaining = 1
	default:
		return fmt.Errorf("faultinject: %s: unknown policy %q", name, parts[0])
	}
	p.rng = rand.New(rand.NewSource(pointSeed(r.seed, name)))
	r.mu.Lock()
	r.pts[name] = p
	r.mu.Unlock()
	return nil
}

// Parse builds a registry from a spec string: semicolon-separated
// point=policy entries, e.g.
//
//	"genlog.append=torn-write;binserver.conn.read=error-rate:0.05"
func Parse(spec string, seed int64) (*Registry, error) {
	r := New(seed)
	for _, ent := range strings.Split(spec, ";") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, policy, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: entry %q is not point=policy", ent)
		}
		if err := r.Set(strings.TrimSpace(name), strings.TrimSpace(policy)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// String renders the armed points back as a spec string (sorted-free;
// diagnostic only).
func (r *Registry) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	for name, p := range r.pts {
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%s", name, p.policy)
	}
	return b.String()
}

// Fired reports how many times the named point has fired.
func (r *Registry) Fired(name string) uint64 {
	r.mu.RLock()
	p := r.pts[name]
	r.mu.RUnlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

func (r *Registry) lookup(name string) *point {
	r.mu.RLock()
	p := r.pts[name]
	r.mu.RUnlock()
	return p
}

// eval runs one evaluation of a point: latency policies sleep and return
// nil; error policies return an *Error when they fire.
func (r *Registry) eval(name string) error {
	p := r.lookup(name)
	if p == nil || !p.decide() {
		return nil
	}
	switch p.kind {
	case kindLatency:
		time.Sleep(p.latency)
		return nil
	default:
		return &Error{Point: name, Policy: p.policy}
	}
}

// evalWrite evaluates a write-shaped point over an n-byte write: allow is
// how many bytes to let through; err non-nil means the write must fail
// after allow bytes (allow == n with err == nil is the pass-through).
func (r *Registry) evalWrite(name string, n int) (allow int, err error) {
	p := r.lookup(name)
	if p == nil || !p.decide() {
		return n, nil
	}
	switch p.kind {
	case kindLatency:
		time.Sleep(p.latency)
		return n, nil
	case kindPartialWrite:
		return p.tear(n), &Error{Point: name, Policy: p.policy}
	default:
		return 0, &Error{Point: name, Policy: p.policy}
	}
}

// active is the process-global armed registry; nil when disarmed — the
// zero-cost fast path every hook checks first.
var active atomic.Pointer[Registry]

// Arm installs r as the process-global registry (nil disarms).
func Arm(r *Registry) {
	active.Store(r)
}

// Disarm removes the global registry.
func Disarm() { active.Store(nil) }

// Fire evaluates the named point against the global registry: nil when
// disarmed, when the point is not armed, or when its policy decides not
// to fire this time. Latency policies sleep here.
func Fire(name string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.eval(name)
}

// FailWrite evaluates a write-shaped point over an n-byte write against
// the global registry. The caller writes buf[:allow] and returns err when
// err is non-nil — which is what leaves a torn tail on disk.
func FailWrite(name string, n int) (allow int, err error) {
	r := active.Load()
	if r == nil {
		return n, nil
	}
	return r.evalWrite(name, n)
}

// errConnInjected distinguishes wrapper-injected conn failures; the
// wrapped *Error is preserved for errors.As.
var errConnInjected = errors.New("faultinject: connection fault")

// faultConn injects read/write failures into a net.Conn under the points
// "<name>.read" and "<name>.write". An injected failure also closes the
// underlying conn — a failed socket does not come back.
type faultConn struct {
	net.Conn
	read, write string
}

func (c *faultConn) Read(p []byte) (int, error) {
	if err := Fire(c.read); err != nil {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: %w", errConnInjected, err)
	}
	return c.Conn.Read(p)
}

func (c *faultConn) Write(p []byte) (int, error) {
	allow, err := FailWrite(c.write, len(p))
	if err != nil {
		n := 0
		if allow > 0 {
			n, _ = c.Conn.Write(p[:allow])
		}
		c.Conn.Close()
		return n, fmt.Errorf("%w: %w", errConnInjected, err)
	}
	return c.Conn.Write(p)
}

// WrapConn wraps a connection with the "<name>.read"/"<name>.write"
// failpoints. Returns c unwrapped when no registry is armed at wrap time,
// so the disarmed hot path keeps the raw conn (and its TCPConn fast
// paths).
func WrapConn(name string, c net.Conn) net.Conn {
	if active.Load() == nil {
		return c
	}
	return &faultConn{Conn: c, read: name + ".read", write: name + ".write"}
}

// faultWriter injects failures (including partial writes) into a writer.
type faultWriter struct {
	w    io.Writer
	name string
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	allow, err := FailWrite(fw.name, len(p))
	if err != nil {
		n := 0
		if allow > 0 {
			n, _ = fw.w.Write(p[:allow])
		}
		return n, err
	}
	return fw.w.Write(p)
}

// WrapWriter wraps w with the named write failpoint; returns w unwrapped
// when disarmed at wrap time.
func WrapWriter(name string, w io.Writer) io.Writer {
	if active.Load() == nil {
		return w
	}
	return &faultWriter{w: w, name: name}
}

// faultReader injects read failures into a reader.
type faultReader struct {
	r    io.Reader
	name string
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if err := Fire(fr.name); err != nil {
		return 0, err
	}
	return fr.r.Read(p)
}

// WrapReader wraps r with the named read failpoint; returns r unwrapped
// when disarmed at wrap time.
func WrapReader(name string, r io.Reader) io.Reader {
	if active.Load() == nil {
		return r
	}
	return &faultReader{r: r, name: name}
}
