package core

// Session amortizes queries that share one fault set — the dominant pattern
// in practice (one failure event, many reachability probes). It is a thin
// view over a compiled FaultSet with every component's fragment closure
// forced eagerly: each probe costs two interval stabs plus two partition
// lookups and performs no allocations. A Session covers every
// spanning-forest component that the fault set touches, so probes for
// vertex pairs in any component are answered correctly. Build one with
// FaultSet.Session.
//
// A Session is still decoder-side only: it is built purely from labels.
type Session struct {
	fs *FaultSet
}

// Connected probes s–t connectivity under the session's fault set.
func (s *Session) Connected(sv, tv VertexLabel) (bool, error) {
	return s.fs.Connected(sv, tv)
}

// FaultSet returns the compiled fault set backing the session.
func (s *Session) FaultSet() *FaultSet { return s.fs }

// Fragments returns the number of tree fragments the fault set induced,
// summed over every component the faults touch (1 when the fault set is
// empty or irrelevant).
func (s *Session) Fragments() int {
	if len(s.fs.comps) == 0 {
		return 1
	}
	n := 0
	for _, c := range s.fs.comps {
		n += c.count
	}
	return n
}

// Components returns the number of connected components the fragments form
// in G − F, summed over every spanning-forest component the faults touch
// (1 when the fault set is empty or irrelevant).
func (s *Session) Components() int {
	if len(s.fs.comps) == 0 {
		return 1
	}
	n := 0
	for _, c := range s.fs.comps {
		// closure entries are fully resolved roots, so the distinct roots
		// are exactly the fixed points.
		for i, r := range c.closure {
			if r == int32(i) {
				n++
			}
		}
	}
	return n
}
