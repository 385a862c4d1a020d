// Package fragments implements the fragment structure induced by tree-edge
// faults (paper §3.1, §7.2): removing |F| tree edges splits the spanning
// tree into |F|+1 fragments, each identified by a preorder interval. The
// decoder reconstructs this structure purely from the ancestry labels
// embedded in fault-edge labels (Proposition 3) — it never sees the graph.
//
// Fragment 0 is always the root fragment (the component root's residue);
// fragment i ≥ 1 is the subtree of fault i's child endpoint minus the
// subtrees of faults nested inside it.
package fragments

import (
	"fmt"
	"sort"

	"repro/internal/ancestry"
)

// Fault is one faulty tree edge, described by the ancestry labels of its two
// endpoints: Parent is the endpoint closer to the root, Child the farther
// one (the subtree side).
type Fault struct {
	Parent, Child ancestry.Label
}

// Set is the fragment decomposition induced by a fault set within a single
// tree. It is built once per query.
type Set struct {
	// Faults, sorted by Child.Pre. Fault j's fragment index is j+1.
	Faults []Fault
	// ParentFrag[i] is the fragment that fragment i+1's fault edge leaves
	// into (the fragment containing the fault's parent endpoint).
	ParentFrag []int
	// Boundary[c] lists the fault indices (into Faults) on fragment c's
	// tree boundary ∂T: for c ≥ 1, fault c-1 itself plus directly nested
	// faults; for c = 0, the top-level faults.
	Boundary [][]int
}

// Normalize orients a fault edge so that Parent is the ancestor: labels
// arrive from edge labels that already store (parent, child), but queries
// may hand them over in either order. Returns an error when the two labels
// are not in ancestor relation (not a tree edge of this forest) or belong to
// different components.
func Normalize(a, b ancestry.Label) (Fault, error) {
	switch ancestry.Compare(a, b) {
	case 1:
		return Fault{Parent: a, Child: b}, nil
	case -1:
		return Fault{Parent: b, Child: a}, nil
	default:
		return Fault{}, fmt.Errorf("fragments: labels (pre %d, pre %d) are not an ancestor pair", a.Pre, b.Pre)
	}
}

// Build constructs the fragment decomposition for the given faults, which
// must all belong to one component (same Root). Duplicates (same child
// preorder) are collapsed. Runs in O(|F|²) worst case — |F| ≤ f is small by
// assumption, and the quadratic corner only arises for deeply nested faults.
func Build(faults []Fault) (*Set, error) {
	// Dedupe by child preorder: a tree edge is determined by its child.
	dedup := map[uint32]Fault{}
	for _, ft := range faults {
		if !ft.Child.Valid() || !ft.Parent.Valid() {
			return nil, fmt.Errorf("fragments: invalid fault label")
		}
		if ft.Child.Root != ft.Parent.Root {
			return nil, fmt.Errorf("fragments: fault endpoints in different components")
		}
		dedup[ft.Child.Pre] = ft
	}
	s := &Set{}
	for _, ft := range dedup {
		s.Faults = append(s.Faults, ft)
	}
	sort.Slice(s.Faults, func(i, j int) bool { return s.Faults[i].Child.Pre < s.Faults[j].Child.Pre })
	q := len(s.Faults)
	s.ParentFrag = make([]int, q)
	s.Boundary = make([][]int, q+1)
	for i, ft := range s.Faults {
		// The fragment the fault leaves into is the fragment containing
		// the parent endpoint: the deepest *other* fault interval
		// containing Parent.Pre.
		pf := s.stabExcluding(ft.Parent.Pre, i)
		s.ParentFrag[i] = pf
		s.Boundary[pf] = append(s.Boundary[pf], i)
		s.Boundary[i+1] = append(s.Boundary[i+1], i)
	}
	return s, nil
}

// Count returns the number of fragments (|F| + 1).
func (s *Set) Count() int { return len(s.Faults) + 1 }

// Stab returns the fragment index containing the vertex with preorder p
// (Proposition 3). Linear in |F|, which is at most f.
func (s *Set) Stab(p uint32) int { return s.stabExcluding(p, -1) }

// StabLabel returns the fragment containing the vertex with the given
// ancestry label.
func (s *Set) StabLabel(l ancestry.Label) int { return s.Stab(l.Pre) }

func (s *Set) stabExcluding(p uint32, exclude int) int {
	best := -1
	var bestPre uint32
	for i, ft := range s.Faults {
		if i == exclude {
			continue
		}
		if ft.Child.Contains(p) && (best == -1 || ft.Child.Pre > bestPre) {
			best = i
			bestPre = ft.Child.Pre
		}
	}
	return best + 1 // fragment index; 0 when no fault interval contains p
}
