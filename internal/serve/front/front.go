// Package front is the probe front of the replicated serving tier: one
// client-side fan-out point that spreads query-product requests (Do, with
// ConnectedBatch as the probe shorthand) across a fleet of replicas over
// pooled binary-protocol connections (wireclient) and hedges the latency
// tail.
//
// Every probe goes to one backend picked round-robin from the live
// membership view. If no answer has arrived after the hedge delay —
// derived from the front's own observed p99 so it adapts to the fleet's
// real latency profile — the same probe is resent to the next backend and
// the first answer wins; the straggler's answer is discarded when it
// eventually lands (probes are read-only and idempotent, so duplicates
// are harmless). Hedging converts a stuck or GC-pausing replica from a
// p99 disaster into one extra in-flight probe.
//
// Membership is self-healing (DESIGN.md §3.16): each backend runs a
// per-backend state machine healthy → suspect → ejected. Consecutive
// transport failures (from probes or the optional /healthz poll) trip the
// breaker and eject the backend; an ejected backend sits out a jittered
// probation window, then a single probe may readmit it. Backends whose
// replication lag exceeds LagThreshold (or that report catching_up) stay
// members but are deprioritized — routed to only when every fresh backend
// is down. When no backend is routable at all, probes fail fast with
// ErrNoBackends instead of hanging on hedge timers.
//
// Generation pins thread through: a pinned probe answered with
// wire.CodeConflict (the replica is at a different generation — typically
// lagging the primary) is retried on the other replicas rather than
// failed, because replication lag is a per-replica, transient condition.
// A backend that sheds with wire.CodeUnavailable is alive but overloaded:
// the front retries exactly once against a different backend, then
// surfaces the shed to the caller.
package front

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
)

// The adaptive hedge delay is clamped to [hedgeMin, hedgeMax]. The lower
// clamp stops a fast fleet from hedging every probe into double load; the
// upper stops a cold ring from never hedging.
const (
	hedgeMin = 500 * time.Microsecond
	hedgeMax = 50 * time.Millisecond
)

// Options tunes a Front. The zero value is usable. Each replica gets one
// wireclient with that package's defaults (one connection, 32 in-flight
// batches).
type Options struct {
	// HedgeAfter fixes the hedge delay. Zero means adaptive: the delay
	// tracks the front's observed p99 probe latency, clamped to
	// [500µs, 50ms].
	HedgeAfter time.Duration
	// NoHedge disables hedging entirely (tests use it to make attempt
	// counts and failover paths deterministic).
	NoHedge bool

	// FailThreshold is how many consecutive transport failures move a
	// backend from healthy through suspect to ejected (default 3).
	FailThreshold int
	// Probation is how long an ejected backend sits out before one
	// jittered probe may readmit it (default 1s; the actual wait is
	// uniform in [Probation/2, Probation*3/2] so a fleet-wide outage does
	// not readmit in lockstep).
	Probation time.Duration
	// LagThreshold deprioritizes backends whose replica_lag_generations
	// (reported by their /healthz) exceeds it. 0 disables lag weighting.
	LagThreshold uint64

	// HealthURLs maps addrs[i] to that backend's HTTP base URL (e.g.
	// "http://127.0.0.1:8080"). When set (length must match addrs), the
	// front polls each backend's /healthz every HealthInterval: 200
	// readmits and refreshes lag, 503/timeouts feed the same breaker as
	// probe failures, and a backend that was unreachable at Dial time is
	// (re)dialed once its health check passes. Empty disables polling —
	// the breaker then runs on probe outcomes alone.
	HealthURLs []string
	// HealthInterval is the active poll cadence (default 500ms).
	HealthInterval time.Duration

	// RequestBudget is the end-to-end deadline budget for one probe: it
	// is stamped on every frame (replicas shed frames whose budget was
	// already spent queueing) and enforced front-side — a probe with no
	// answer inside the budget fails with ErrBudgetExceeded. 0 disables.
	RequestBudget time.Duration

	// Reconnect tuning, passed through to wireclient.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
}

// Stats is a snapshot of the front's counters.
type Stats struct {
	Probes    uint64 // Do calls with a valid opcode (ConnectedBatch included)
	Hedges    uint64 // hedge requests actually sent
	HedgeWins uint64 // probes whose hedge answered first
	Conflicts uint64 // generation-pin conflicts retried on another replica
	Failovers uint64 // probes retried on another replica after an error

	Ejections      uint64 // backends ejected by the breaker
	Readmits       uint64 // ejected backends readmitted
	Unavailable    uint64 // CodeUnavailable sheds observed from backends
	BudgetExceeded uint64 // probes failed by the front-side deadline
	NoBackends     uint64 // probes failed fast with no routable backend

	// P50 / P99 are the current latency quantiles over the sliding
	// observation window (zero until enough samples).
	P50 time.Duration
	P99 time.Duration
}

// ErrNoReplicas is returned when a probe has exhausted every replica.
var ErrNoReplicas = errors.New("front: no replica answered")

// ErrNoBackends is returned immediately — no hedge timers, no dial
// attempts — when the membership view has no routable backend: everything
// is ejected and still inside probation.
var ErrNoBackends = errors.New("front: no live backends")

// ErrBudgetExceeded is returned when a probe's end-to-end deadline budget
// (Options.RequestBudget) expires before any backend answered.
var ErrBudgetExceeded = errors.New("front: request deadline budget exceeded")

// latWindow is the sliding latency window size (power of two).
const latWindow = 512

// latRing records recent probe latencies and answers quantile queries.
// Quantiles are recomputed at most once per refreshEvery observations and
// cached, so the hot path pays one mutexed append.
type latRing struct {
	mu     sync.Mutex
	buf    [latWindow]time.Duration
	n      int // total observations (min(n, latWindow) valid entries)
	sinceQ int // observations since last quantile refresh
	p50    time.Duration
	p99    time.Duration
}

const refreshEvery = 64

func (l *latRing) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%latWindow] = d
	l.n++
	l.sinceQ++
	if l.sinceQ >= refreshEvery || (l.p99 == 0 && l.n >= 16) {
		l.refreshLocked()
	}
	l.mu.Unlock()
}

func (l *latRing) refreshLocked() {
	n := l.n
	if n > latWindow {
		n = latWindow
	}
	if n == 0 {
		return
	}
	tmp := make([]time.Duration, n)
	copy(tmp, l.buf[:n])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	l.p50 = tmp[n/2]
	l.p99 = tmp[(n*99)/100]
	l.sinceQ = 0
}

func (l *latRing) quantiles() (p50, p99 time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p50, l.p99
}

// Backend state machine values.
const (
	stateHealthy int32 = iota
	stateSuspect
	stateEjected
)

func stateName(s int32) string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateSuspect:
		return "suspect"
	default:
		return "ejected"
	}
}

// backend is one member of the fleet: its client (nil until the first
// successful dial), breaker state, and the lag view from health polling.
type backend struct {
	addr      string
	healthURL string
	cl        atomic.Pointer[wireclient.Client]

	state       atomic.Int32
	consecFails atomic.Int32
	retryAt     atomic.Int64 // unix nanos when probation expires (ejected only)

	lag        atomic.Uint64
	catchingUp atomic.Bool
}

func (b *backend) client() *wireclient.Client { return b.cl.Load() }

// BackendState is the externally visible snapshot of one backend, for
// operators and the chaos harness's assertions.
type BackendState struct {
	Addr        string `json:"addr"`
	State       string `json:"state"` // "healthy" | "suspect" | "ejected"
	ConsecFails int    `json:"consecutive_failures"`
	Lag         uint64 `json:"replica_lag_generations"`
	CatchingUp  bool   `json:"catching_up"`
	Connected   bool   `json:"connected"` // a wireclient exists for this backend
}

// Front fans probes across a replica fleet. Safe for concurrent use.
type Front struct {
	backends []*backend
	opts     Options
	rr       atomic.Uint64
	lat      latRing

	probes         atomic.Uint64
	hedges         atomic.Uint64
	hedgeWins      atomic.Uint64
	conflicts      atomic.Uint64
	failovers      atomic.Uint64
	ejections      atomic.Uint64
	readmits       atomic.Uint64
	unavailable    atomic.Uint64
	budgetExceeded atomic.Uint64
	noBackends     atomic.Uint64

	stopHealth chan struct{}
	healthWG   sync.WaitGroup
	closeOnce  sync.Once
}

// Dial connects to every replica address. It fails only if every replica
// is unreachable; reachable clients reconnect to the rest in the
// background (wireclient's redial loop), and with health polling enabled
// a backend that was down at Dial time is dialed once its health check
// passes.
func Dial(addrs []string, opts Options) (*Front, error) {
	if len(addrs) == 0 {
		return nil, errors.New("front: no replica addresses")
	}
	if len(opts.HealthURLs) > 0 && len(opts.HealthURLs) != len(addrs) {
		return nil, fmt.Errorf("front: %d health URLs for %d addresses", len(opts.HealthURLs), len(addrs))
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.Probation <= 0 {
		opts.Probation = time.Second
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 500 * time.Millisecond
	}
	f := &Front{opts: opts, stopHealth: make(chan struct{})}
	var firstErr error
	up := 0
	for i, addr := range addrs {
		b := &backend{addr: addr}
		if len(opts.HealthURLs) > 0 {
			b.healthURL = opts.HealthURLs[i]
		}
		cl, err := f.dial(addr)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("front: dial %s: %w", addr, err)
			}
			// Down at start: ejected from the first probe's point of
			// view, eligible for probation (or health-poll) readmission.
			b.state.Store(stateEjected)
			b.retryAt.Store(time.Now().Add(f.probationWait()).UnixNano())
		} else {
			b.cl.Store(cl)
			up++
		}
		f.backends = append(f.backends, b)
	}
	if up == 0 {
		f.Close()
		return nil, firstErr
	}
	if len(opts.HealthURLs) > 0 {
		f.healthWG.Add(1)
		go f.healthLoop()
	}
	return f, nil
}

// dial opens the wireclient for one replica address.
func (f *Front) dial(addr string) (*wireclient.Client, error) {
	return wireclient.Dial(addr, wireclient.Options{
		ReconnectBase: f.opts.ReconnectBase,
		ReconnectMax:  f.opts.ReconnectMax,
	})
}

// Close stops health polling and tears down every replica client.
func (f *Front) Close() error {
	f.closeOnce.Do(func() { close(f.stopHealth) })
	f.healthWG.Wait()
	var first error
	for _, b := range f.backends {
		if cl := b.client(); cl != nil {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Replicas is how many replica addresses the front spreads over.
func (f *Front) Replicas() int { return len(f.backends) }

// Backends snapshots the per-backend membership state.
func (f *Front) Backends() []BackendState {
	out := make([]BackendState, len(f.backends))
	for i, b := range f.backends {
		out[i] = BackendState{
			Addr:        b.addr,
			State:       stateName(b.state.Load()),
			ConsecFails: int(b.consecFails.Load()),
			Lag:         b.lag.Load(),
			CatchingUp:  b.catchingUp.Load(),
			Connected:   b.client() != nil,
		}
	}
	return out
}

// Stats snapshots the front's counters and latency quantiles.
func (f *Front) Stats() Stats {
	p50, p99 := f.lat.quantiles()
	return Stats{
		Probes:         f.probes.Load(),
		Hedges:         f.hedges.Load(),
		HedgeWins:      f.hedgeWins.Load(),
		Conflicts:      f.conflicts.Load(),
		Failovers:      f.failovers.Load(),
		Ejections:      f.ejections.Load(),
		Readmits:       f.readmits.Load(),
		Unavailable:    f.unavailable.Load(),
		BudgetExceeded: f.budgetExceeded.Load(),
		NoBackends:     f.noBackends.Load(),
		P50:            p50,
		P99:            p99,
	}
}

// probationWait is the jittered sit-out before an ejected backend may be
// probed again: uniform in [Probation/2, Probation*3/2].
func (f *Front) probationWait() time.Duration {
	p := f.opts.Probation
	return p/2 + time.Duration(rand.Int63n(int64(p)))
}

// markAlive records a definitive sign of backend life — a completed
// exchange, any server-sent response (including conflicts and sheds), or
// a 200 health check — resetting the breaker and readmitting the backend
// if it was ejected.
func (f *Front) markAlive(b *backend) {
	b.consecFails.Store(0)
	if b.state.Swap(stateHealthy) == stateEjected {
		f.readmits.Add(1)
	}
}

// markFailure records a transport-level failure (dial error, reset, hang,
// failed health check). FailThreshold consecutive failures eject the
// backend; each further failure extends its probation.
func (f *Front) markFailure(b *backend) {
	fails := b.consecFails.Add(1)
	if int(fails) >= f.opts.FailThreshold {
		if b.state.Swap(stateEjected) != stateEjected {
			f.ejections.Add(1)
		}
		b.retryAt.Store(time.Now().Add(f.probationWait()).UnixNano())
		return
	}
	b.state.CompareAndSwap(stateHealthy, stateSuspect)
}

// candidates returns the indices a probe may route to, in preference
// order: fresh members first (rotated round-robin), then lagging /
// catching-up members, then ejected backends whose probation has expired
// (their probe doubles as the readmission check). Empty means fail fast.
func (f *Front) candidates() []int {
	now := time.Now().UnixNano()
	var fresh, lagged, probation []int
	for i, b := range f.backends {
		switch b.state.Load() {
		case stateEjected:
			if b.retryAt.Load() <= now && b.client() != nil {
				probation = append(probation, i)
			}
		default:
			if b.client() == nil {
				continue
			}
			if b.catchingUp.Load() || (f.opts.LagThreshold > 0 && b.lag.Load() > f.opts.LagThreshold) {
				lagged = append(lagged, i)
			} else {
				fresh = append(fresh, i)
			}
		}
	}
	if k := len(fresh); k > 1 {
		rot := int(f.rr.Add(1)-1) % k
		fresh = append(fresh[rot:], fresh[:rot]...)
	}
	return append(append(fresh, lagged...), probation...)
}

// hedgeDelay picks the current hedge delay.
func (f *Front) hedgeDelay() time.Duration {
	if f.opts.HedgeAfter > 0 {
		return f.opts.HedgeAfter
	}
	_, p99 := f.lat.quantiles()
	if p99 == 0 {
		// Cold ring: hedge conservatively until quantiles exist.
		return hedgeMax
	}
	return min(max(p99, hedgeMin), hedgeMax)
}

// Request is one query-product request to the fleet. Op is wire.OpProbe,
// wire.OpRoute or wire.OpVProbe; Faults are fault edge indices (failed
// vertex indices for OpVProbe) in any order; GenPin 0 means unpinned.
type Request struct {
	Op     byte
	Faults []int
	Pairs  [][2]int
	GenPin uint64
}

// Result is the winning replica's answer: Connected for probes and vertex
// probes, Route for route plans. Approx mirrors the frame's approx flag,
// which current servers never set, and Gen is the generation the answer
// is valid for.
type Result struct {
	Connected []bool
	Route     *wire.RouteResp
	Approx    bool
	Gen       uint64
}

// Do answers one request across the fleet with hedging and failover. A
// nonzero GenPin makes replicas at any other generation answer
// wire.CodeConflict, and the front retries those on the remaining
// replicas (replication lag is per-replica and transient); that failover
// is what keeps a pinned route plan from being computed against shifted
// edge indices. All errors from one attempt chain fail over to the next
// replica until the routable set is exhausted. An unknown Op fails before
// any backend is tried.
func (f *Front) Do(req Request) (Result, error) {
	switch req.Op {
	case wire.OpProbe, wire.OpRoute, wire.OpVProbe:
	default:
		return Result{}, fmt.Errorf("front: unknown request opcode 0x%02x", req.Op)
	}
	r, err := f.hedged(func(cl *wireclient.Client, budget time.Duration) probeResult {
		// Each attempt owns its result storage, since hedged attempts race.
		var res Result
		var err error
		switch req.Op {
		case wire.OpProbe:
			res.Connected, _, res.Gen, err = cl.ProbeIntoBudget(req.Faults, req.Pairs, nil, req.GenPin, budget)
		case wire.OpVProbe:
			res.Connected, _, res.Approx, res.Gen, err = cl.VProbeIntoBudget(req.Faults, req.Pairs, nil, req.GenPin, budget)
		case wire.OpRoute:
			res.Route = new(wire.RouteResp)
			err = cl.RouteBudget(req.Faults, req.Pairs, res.Route, req.GenPin, budget)
			res.Approx, res.Gen = res.Route.Approx, res.Route.Gen
		}
		return probeResult{res: res, err: err}
	})
	return r.res, err
}

// ConnectedBatch answers one failure event against a batch of s–t pairs,
// unpinned: any replica's current generation is acceptable. Returns the
// answers and the generation they are valid for.
func (f *Front) ConnectedBatch(faultEdges []int, pairs [][2]int) ([]bool, uint64, error) {
	r, err := f.Do(Request{Op: wire.OpProbe, Faults: faultEdges, Pairs: pairs})
	return r.Connected, r.Gen, err
}

// probeResult carries one replica's answer through the hedging select.
type probeResult struct {
	res     Result
	err     error
	replica int
	hedge   bool
}

// hedged runs one query-product attempt through the hedging/failover
// loop: the routable candidate list in preference order, a hedge to the
// next candidate after the adaptive delay, conflict/error failover until
// the candidates are exhausted, all under the end-to-end deadline budget.
// do must be safe to run concurrently against different replicas (hedges
// race); the budget passed to do is the remaining end-to-end budget at
// launch (0 when budgets are disabled).
func (f *Front) hedged(do func(cl *wireclient.Client, budget time.Duration) probeResult) (probeResult, error) {
	f.probes.Add(1)
	cand := f.candidates()
	if len(cand) == 0 {
		f.noBackends.Add(1)
		return probeResult{}, ErrNoBackends
	}
	start := time.Now()
	var deadlineC <-chan time.Time
	if f.opts.RequestBudget > 0 {
		t := time.NewTimer(f.opts.RequestBudget)
		defer t.Stop()
		deadlineC = t.C
	}

	// resCh is buffered for every possible sender so stragglers never
	// leak a goroutine.
	resCh := make(chan probeResult, len(cand))
	next := 0 // next unlaunched candidate position
	launch := func(hedge bool) bool {
		for ; next < len(cand); next++ {
			idx := cand[next]
			cl := f.backends[idx].client()
			if cl == nil {
				continue
			}
			budget := time.Duration(0)
			if f.opts.RequestBudget > 0 {
				budget = f.opts.RequestBudget - time.Since(start)
				if budget <= 0 {
					return false
				}
			}
			next++
			go func() {
				t0 := time.Now()
				r := do(cl, budget)
				if r.err == nil {
					f.lat.observe(time.Since(t0))
				}
				r.replica = idx
				r.hedge = hedge
				resCh <- r
			}()
			return true
		}
		return false
	}

	if !launch(false) {
		f.noBackends.Add(1)
		return probeResult{}, ErrNoBackends
	}
	pending := 1
	var hedgeC <-chan time.Time
	if !f.opts.NoHedge && len(cand) > 1 {
		hedgeTimer := time.NewTimer(f.hedgeDelay())
		hedgeC = hedgeTimer.C
		defer hedgeTimer.Stop()
	}

	unavailSeen := 0
	var lastErr error
	for pending > 0 {
		select {
		case r := <-resCh:
			pending--
			b := f.backends[r.replica]
			if r.err == nil {
				f.markAlive(b)
				if r.hedge {
					f.hedgeWins.Add(1)
				}
				return r, nil
			}
			lastErr = r.err
			var se *wireclient.ServerError
			if errors.As(r.err, &se) {
				// The server answered: it is alive regardless of the code.
				f.markAlive(b)
				switch se.Code {
				case wire.CodeConflict:
					f.conflicts.Add(1)
				case wire.CodeUnavailable:
					// Overloaded, not broken: retry exactly once against
					// a different backend, then surface the shed — piling
					// retries onto a saturated fleet makes the overload
					// worse.
					f.unavailable.Add(1)
					if unavailSeen++; unavailSeen > 1 {
						continue
					}
				default:
					f.failovers.Add(1)
				}
			} else {
				f.markFailure(b)
				f.failovers.Add(1)
			}
			if launch(false) {
				pending++
			}
		case <-hedgeC:
			hedgeC = nil
			if launch(true) {
				f.hedges.Add(1)
				pending++
			}
		case <-deadlineC:
			f.budgetExceeded.Add(1)
			return probeResult{}, fmt.Errorf("%w (%v)", ErrBudgetExceeded, f.opts.RequestBudget)
		}
	}
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return probeResult{}, fmt.Errorf("front: all %d routable backends failed: %w", len(cand), lastErr)
}

// healthzView is the slice of the backend /healthz body membership cares
// about.
type healthzView struct {
	CatchingUp bool   `json:"catching_up"`
	Lag        uint64 `json:"replica_lag_generations"`
}

// healthLoop polls every backend's /healthz on a jittered cadence,
// feeding the same breaker as probe outcomes: 200 readmits and refreshes
// the lag view, 503 (catching up) and transport failures count against
// the backend, and a backend with no client yet (down at Dial time) is
// dialed once its health check passes.
func (f *Front) healthLoop() {
	defer f.healthWG.Done()
	client := &http.Client{Timeout: f.opts.HealthInterval}
	for {
		iv := f.opts.HealthInterval
		sleep := iv/2 + time.Duration(rand.Int63n(int64(iv)))
		select {
		case <-f.stopHealth:
			return
		case <-time.After(sleep):
		}
		for _, b := range f.backends {
			if b.healthURL == "" {
				continue
			}
			f.healthCheck(client, b)
		}
	}
}

// healthCheck runs one poll of one backend.
func (f *Front) healthCheck(client *http.Client, b *backend) {
	resp, err := client.Get(b.healthURL + "/healthz")
	if err != nil {
		f.markFailure(b)
		return
	}
	defer resp.Body.Close()
	var hv healthzView
	_ = json.NewDecoder(resp.Body).Decode(&hv)
	b.lag.Store(hv.Lag)
	b.catchingUp.Store(hv.CatchingUp)
	if resp.StatusCode != http.StatusOK {
		// 503 catching-up (or any other failure status): alive but not
		// servable — keep it out of the fresh set, count it against the
		// breaker so a perpetually unready backend ejects.
		f.markFailure(b)
		return
	}
	if b.client() == nil {
		cl, err := f.dial(b.addr)
		if err != nil {
			f.markFailure(b)
			return
		}
		b.cl.Store(cl)
	}
	f.markAlive(b)
}
