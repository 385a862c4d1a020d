package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrLabelMismatch is returned when labels from different graphs or
// constructions are mixed in one query.
var ErrLabelMismatch = errors.New("core: labels belong to different schemes")

// ErrStaleLabel is returned when labels from different generations of a
// dynamic network are mixed in one query: the topology changed under the
// older label, so answering would be meaningless. It wraps ErrLabelMismatch,
// so errors.Is(err, ErrLabelMismatch) continues to hold for existing
// callers.
var ErrStaleLabel = fmt.Errorf("%w: stale label from an earlier network generation", ErrLabelMismatch)

// ErrTooManyFaults is returned when the (deduplicated) fault set exceeds the
// budget f the labels were constructed for.
var ErrTooManyFaults = errors.New("core: fault set exceeds the labels' budget")

// checkStamp validates that two label stamps belong to the same scheme and
// generation. Generations are folded into the token, so a token match alone
// proves both — crucially, it must NOT also require the in-memory Gen
// fields to agree: the wire codecs omit Gen, so a label that round-tripped
// through Marshal/Unmarshal carries Gen 0 yet is byte-for-byte the same
// label.
//
// On a token mismatch the generation stamps (zero for static schemes) pick
// the error: differing nonzero stamps yield ErrStaleLabel. Labels carry no
// network identity, so this is a best-effort diagnosis, not proof of
// staleness — two unrelated dynamic networks whose generation counters
// happen to differ are also reported as stale. Every such error still
// wraps ErrLabelMismatch; callers reacting to ErrStaleLabel by refreshing
// labels should treat a second failure as a genuine scheme mix. what names
// the label pair for the error message.
func checkStamp(tokA, genA, tokB, genB uint64, what string) error {
	if tokA == tokB {
		return nil
	}
	if genA != 0 && genB != 0 && genA != genB {
		return fmt.Errorf("%w: %s (generation %d vs %d)", ErrStaleLabel, what, genA, genB)
	}
	return fmt.Errorf("%w: %s differ", ErrLabelMismatch, what)
}

// Connected is the universal decoder D^con (§7.1): it decides the s–t
// connectivity of G − F purely from the labels of s, t, and the edges of F,
// using the fast query algorithm of §7.6. It never accesses the graph.
//
// Connected compiles a throwaway FaultSet per call; callers probing one
// fault set repeatedly should CompileFaults once and probe the FaultSet.
func Connected(s, t VertexLabel, faults []EdgeLabel) (bool, error) {
	return connected(s, t, faults, true)
}

// ConnectedBasic runs the simpler §7.2 query algorithm (always grow the
// fragment containing s). Primarily a cross-check and a Table 1 measurement
// point; results are always identical to Connected.
func ConnectedBasic(s, t VertexLabel, faults []EdgeLabel) (bool, error) {
	return connected(s, t, faults, false)
}

func connected(s, t VertexLabel, faults []EdgeLabel, fast bool) (bool, error) {
	if err := checkStamp(s.Token, s.Gen, t.Token, t.Gen, "vertex tokens"); err != nil {
		return false, err
	}
	if s.Anc.Root != t.Anc.Root {
		// Different trees of the spanning forest: never connected, no
		// matter the faults.
		return false, nil
	}
	if s.Anc.Pre == t.Anc.Pre {
		return true, nil
	}
	q, err := oneShotQuery(s, t, faults)
	if err != nil {
		return false, err
	}
	if q == nil {
		// No relevant faults: same component ⇒ connected.
		return true, nil
	}
	defer releaseQueryState(q)
	if q.fragS == q.fragT {
		return true, nil
	}
	if fast {
		return q.runFast()
	}
	return q.runBasic()
}

// oneShotQuery is the compatibility path behind the per-call decoders
// (Connected, ConnectedBasic, RoutePlan): it compiles the faults relevant to
// s's component into a throwaway FaultSet and prepares pooled per-probe
// state with s and t marked. Returns nil when no fault is relevant.
func oneShotQuery(s, t VertexLabel, faults []EdgeLabel) (*queryState, error) {
	var relevant []EdgeLabel
	for i := range faults {
		fl := &faults[i]
		if err := checkStamp(fl.Token, fl.Gen, s.Token, s.Gen, fmt.Sprintf("fault %d and vertex tokens", i)); err != nil {
			return nil, err
		}
		if fl.Child.Root != s.Anc.Root {
			continue // fault in another component: irrelevant
		}
		relevant = append(relevant, *fl)
	}
	if len(relevant) == 0 {
		return nil, nil
	}
	fs, err := CompileFaults(relevant)
	if err != nil {
		return nil, err
	}
	comp := fs.comps[0]
	q := comp.acquire()
	q.fragS = int32(comp.frags.StabLabel(s.Anc))
	q.fragT = int32(comp.frags.StabLabel(t.Anc))
	q.flags[q.fragS] |= flagHasS
	q.flags[q.fragT] |= flagHasT
	return q, nil
}

// Super-fragment state flags (per union-find root).
const (
	flagHasS    uint8 = 1 << iota // contains s's fragment
	flagHasT                      // contains t's fragment
	flagDiscard                   // merged away or closed without s/t
)

// queryState is the per-probe working set of the §7.6 engine: a union-find
// over fragments plus, per live root, the aggregated outdetect payload, the
// boundary fault bitset, and the bookkeeping flags — all held in flat,
// reusable slices so a probe performs no per-call map or slice allocations.
// States are recycled through a package-level sync.Pool; acquire resets one
// from a component's immutable initial state.
type queryState struct {
	comp         *faultComponent
	fragS, fragT int32

	parent  []int32  // union-find parent per fragment
	sums    []uint64 // count×words aggregated payloads
	cuts    []uint64 // count×cutWords boundary bitsets
	cutSize []int32
	version []int32 // bumped on merge for lazy heap deletion
	flags   []uint8
	heap    []heapItem

	// recording, when set (closure runs and the one-shot RoutePlan),
	// retains every decoded crossing with its endpoint fragments for route
	// extraction.
	recording bool
	records   []crossRec
}

type heapItem struct {
	root, version, cutSize int32
}

var qsPool = sync.Pool{New: func() any { return new(queryState) }}

// grown returns s resized to n elements, reusing capacity when possible.
func grown[T int32 | uint64 | uint8 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// acquire takes a pooled queryState and resets it to the component's initial
// super-fragment state. The copies reuse the state's capacity: a warmed pool
// serves probes without allocating.
func (c *faultComponent) acquire() *queryState {
	q := qsPool.Get().(*queryState)
	q.comp = c
	n := c.count
	q.parent = grown(q.parent, n)
	for i := range q.parent {
		q.parent[i] = int32(i)
	}
	q.sums = grown(q.sums, n*c.words)
	copy(q.sums, c.initSum)
	q.cuts = grown(q.cuts, n*c.cutWords)
	copy(q.cuts, c.initCut)
	q.cutSize = grown(q.cutSize, n)
	copy(q.cutSize, c.initCutSize)
	q.version = grown(q.version, n)
	clear(q.version)
	q.flags = grown(q.flags, n)
	clear(q.flags)
	q.heap = q.heap[:0]
	q.records = q.records[:0]
	q.recording = false
	q.fragS, q.fragT = -1, -1
	return q
}

func releaseQueryState(q *queryState) {
	q.comp = nil // don't pin the component's label payloads from the pool
	qsPool.Put(q)
}

// sum returns fragment c's payload block.
func (q *queryState) sum(c int32) []uint64 {
	w := q.comp.words
	return q.sums[int(c)*w : (int(c)+1)*w]
}

// cut returns fragment c's boundary bitset block.
func (q *queryState) cut(c int32) []uint64 {
	w := q.comp.cutWords
	return q.cuts[int(c)*w : (int(c)+1)*w]
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// find is the union-find lookup over fragment indices (path halving).
func (q *queryState) find(c int32) int32 {
	for q.parent[c] != c {
		q.parent[c] = q.parent[q.parent[c]]
		c = q.parent[c]
	}
	return c
}

// adaptiveBudget scales the Reed–Solomon prefix budget to the actual
// boundary size of the queried super-fragment (Appendix B): the threshold
// grows as f² for the deterministic hierarchy and as f for the sampled one,
// so a boundary of b ≤ f faults needs only the correspondingly scaled
// prefix. DecodeOutgoing retries at the full threshold on failure, so this
// is purely a speed optimization.
func (q *queryState) adaptiveBudget(boundary int32) int {
	spec, maxFaults := q.comp.spec, q.comp.maxFaults
	if spec.Kind == KindAGM || maxFaults == 0 || int(boundary) >= maxFaults {
		return spec.K
	}
	var scaled int
	switch spec.Kind {
	case KindRandRS:
		scaled = spec.K * int(boundary) / maxFaults
	default:
		scaled = spec.K * int(boundary) * int(boundary) / (maxFaults * maxFaults)
	}
	if scaled < 4 {
		scaled = 4
	}
	if scaled > spec.K {
		scaled = spec.K
	}
	return scaled
}

// mergeInto unions the super-fragment rooted at src into the one rooted at
// dst (both must be distinct union-find roots).
func (q *queryState) mergeInto(dst, src int32) {
	q.parent[src] = dst
	xorInto(q.sum(dst), q.sum(src))
	cd, cs := q.cut(dst), q.cut(src)
	for w := range cd {
		cd[w] ^= cs[w]
	}
	q.cutSize[dst] = int32(popcount(cd))
	q.flags[dst] |= q.flags[src] & (flagHasS | flagHasT)
	q.version[dst]++
	q.flags[src] |= flagDiscard
}

// growOnce decodes the outgoing edges of the super-fragment rooted at root
// and merges every discovered neighbor super-fragment into it. It returns
// (done, answer): done=true when the query is resolved.
func (q *queryState) growOnce(root int32) (bool, bool, error) {
	ids, err := q.comp.spec.DecodeOutgoing(q.sum(root), q.adaptiveBudget(q.cutSize[root]))
	if err != nil {
		return false, false, err
	}
	if len(ids) == 0 {
		// Closed: V(S) is a union of G−F components.
		if q.flags[root]&(flagHasS|flagHasT) != 0 {
			return true, false, nil
		}
		q.flags[root] |= flagDiscard
		return false, false, nil
	}
	merges := 0
	for _, id := range ids {
		p1, p2 := edgeIDParts(id)
		f1, f2 := q.comp.frags.Stab(p1), q.comp.frags.Stab(p2)
		if q.recording {
			q.records = append(q.records, crossRec{p1: p1, p2: p2, c1: f1, c2: f2})
		}
		c1 := q.find(int32(f1))
		c2 := q.find(int32(f2))
		cur := q.find(root)
		var other int32
		switch {
		case c1 == cur && c2 != cur:
			other = c2
		case c2 == cur && c1 != cur:
			other = c1
		default:
			// Both endpoints already inside (an earlier id this round
			// merged the other side) — skip.
			continue
		}
		merges++
		q.mergeInto(cur, other)
		if q.flags[cur]&(flagHasS|flagHasT) == flagHasS|flagHasT {
			return true, true, nil
		}
	}
	if merges == 0 {
		// Every decoded edge claims to stay inside the super-fragment: a
		// genuine outgoing-edge set cannot do that, so the syndrome was
		// an undetected overload (only reachable with thresholds far
		// below the defaults). Surface it rather than looping.
		return false, false, fmt.Errorf("%w: decoded edges do not leave the fragment", ErrDecode)
	}
	return false, false, nil
}

// runBasic grows the fragment containing s until t's fragment is merged or
// the component closes (§7.2).
func (q *queryState) runBasic() (bool, error) {
	for {
		root := q.find(q.fragS)
		done, ans, err := q.growOnce(root)
		if err != nil {
			return false, err
		}
		if done {
			return ans, nil
		}
		if q.flags[q.find(q.fragS)]&flagDiscard != 0 {
			// s's component closed without touching t.
			return false, nil
		}
	}
}

// Heap over live super-fragments ordered by boundary size (then fragment
// root for determinism) — the §7.6 refinement. Hand-rolled on the pooled
// item slice instead of container/heap so pushes don't box through
// interface{}.

func heapLess(a, b heapItem) bool {
	if a.cutSize != b.cutSize {
		return a.cutSize < b.cutSize
	}
	return a.root < b.root
}

func (q *queryState) heapPush(it heapItem) {
	q.heap = append(q.heap, it)
	i := len(q.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !heapLess(q.heap[i], q.heap[p]) {
			break
		}
		q.heap[i], q.heap[p] = q.heap[p], q.heap[i]
		i = p
	}
}

func (q *queryState) heapPop() heapItem {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.heap = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && heapLess(h[l], h[small]) {
			small = l
		}
		if r < n && heapLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}

// runFast is the heap-driven query of §7.6: always expand the live
// super-fragment with the smallest tree boundary. With no s/t fragments
// marked (fragS = fragT = -1) it drives every super-fragment to closure,
// which is how FaultSet components compute their cached partition.
func (q *queryState) runFast() (bool, error) {
	q.heap = q.heap[:0]
	for c := int32(0); int(c) < q.comp.count; c++ {
		q.heapPush(heapItem{root: c, version: 0, cutSize: q.cutSize[c]})
	}
	for len(q.heap) > 0 {
		it := q.heapPop()
		root := it.root
		if q.flags[root]&flagDiscard != 0 || q.find(root) != root || q.version[root] != it.version {
			continue // stale entry (lazy deletion)
		}
		done, ans, err := q.growOnce(root)
		if err != nil {
			return false, err
		}
		if done {
			return ans, nil
		}
		cur := q.find(root)
		if q.flags[cur]&flagDiscard == 0 {
			q.heapPush(heapItem{root: cur, version: q.version[cur], cutSize: q.cutSize[cur]})
		}
	}
	// Every super-fragment closed without uniting s and t.
	return false, nil
}
