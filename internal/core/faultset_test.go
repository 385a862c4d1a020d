package core

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// TestFaultSetMatchesConnectedAllGraphs is the reuse-parity suite over the
// exhaustive 5-vertex corpus (see allgraphs_test.go): for every labeled
// graph on 5 vertices and every scheme variant, a compiled FaultSet probed
// repeatedly must answer exactly like the one-shot decoder — and both must
// match ground truth. AGM runs with a high repetition count so its whp
// failure mode cannot make the parity flaky.
func TestFaultSetMatchesConnectedAllGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive graph enumeration")
	}
	const n = 5
	var pairs [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	kinds := []struct {
		name string
		// stride subsamples the 2^10 graph corpus for the slower kinds;
		// det-netfind (the headline scheme) covers every mask.
		stride int
		params Params
	}{
		{"det-netfind", 1, Params{MaxFaults: 1, Kind: KindDetNetFind}},
		{"det-greedy", 5, Params{MaxFaults: 1, Kind: KindDetGreedy}},
		{"rand-rs", 5, Params{MaxFaults: 1, Kind: KindRandRS, Seed: 6}},
		{"agm", 5, Params{MaxFaults: 1, Kind: KindAGM, Seed: 7, AGMReps: 48}},
	}
	for _, kr := range kinds {
		kr := kr
		t.Run(kr.name, func(t *testing.T) {
			t.Parallel()
			for mask := 0; mask < 1<<len(pairs); mask += kr.stride {
				g := graph.New(n)
				for i, p := range pairs {
					if mask>>i&1 == 1 {
						if _, err := g.AddEdge(p[0], p[1]); err != nil {
							t.Fatal(err)
						}
					}
				}
				s, err := Build(g, kr.params)
				if err != nil {
					t.Fatalf("mask %b: %v", mask, err)
				}
				for e := 0; e < g.M(); e++ {
					fl := []EdgeLabel{s.EdgeLabel(e)}
					fs, err := CompileFaults(fl)
					if err != nil {
						t.Fatalf("mask %b fault %d: CompileFaults: %v", mask, e, err)
					}
					set := workload.FaultSet([]int{e})
					for sv := 0; sv < n; sv++ {
						for tv := sv + 1; tv < n; tv++ {
							want := graph.ConnectedUnder(g, set, sv, tv)
							one, err := Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
							if err != nil {
								t.Fatalf("mask %b: Connected: %v", mask, err)
							}
							got, err := fs.Connected(s.VertexLabel(sv), s.VertexLabel(tv))
							if err != nil {
								t.Fatalf("mask %b: FaultSet.Connected: %v", mask, err)
							}
							if got != one || got != want {
								t.Fatalf("mask %b: probe(%d,%d,F={%d}): faultset=%v one-shot=%v truth=%v",
									mask, sv, tv, e, got, one, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestFaultSetReuseParityRandom exercises larger random instances across all
// four variants: several fault sets per scheme, each compiled once and
// probed many times, compared against the one-shot decoder, the batch API,
// and the session view.
func TestFaultSetReuseParityRandom(t *testing.T) {
	kinds := []struct {
		name   string
		params Params
	}{
		{"det-netfind", Params{MaxFaults: 4, Kind: KindDetNetFind}},
		{"det-greedy", Params{MaxFaults: 4, Kind: KindDetGreedy}},
		{"rand-rs", Params{MaxFaults: 4, Kind: KindRandRS, Seed: 16}},
		{"agm", Params{MaxFaults: 4, Kind: KindAGM, Seed: 17, AGMReps: 64}},
	}
	for _, kr := range kinds {
		kr := kr
		t.Run(kr.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(21))
			g := workload.ErdosRenyi(80, 0.06, true, rng)
			s := mustBuild(t, g, kr.params)
			for trial := 0; trial < 8; trial++ {
				faults := workload.TreeEdgeFaults(g, s.Forest, 1+rng.Intn(4), rng)
				fl := make([]EdgeLabel, len(faults))
				for i, e := range faults {
					fl[i] = s.EdgeLabel(e)
				}
				fs, err := CompileFaults(fl)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				sess, err := fs.Session()
				if err != nil {
					t.Fatalf("trial %d: Session: %v", trial, err)
				}
				var batch [][2]VertexLabel
				var wantBatch []bool
				for q := 0; q < 60; q++ {
					sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
					want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
					got, err := fs.Connected(s.VertexLabel(sv), s.VertexLabel(tv))
					if err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
					sGot, err := sess.Connected(s.VertexLabel(sv), s.VertexLabel(tv))
					if err != nil {
						t.Fatalf("trial %d: session: %v", trial, err)
					}
					if got != want || sGot != want {
						t.Fatalf("trial %d: probe(%d,%d) faultset=%v session=%v want %v",
							trial, sv, tv, got, sGot, want)
					}
					batch = append(batch, [2]VertexLabel{s.VertexLabel(sv), s.VertexLabel(tv)})
					wantBatch = append(wantBatch, want)
				}
				gotBatch, err := fs.ConnectedBatch(batch)
				if err != nil {
					t.Fatalf("trial %d: batch: %v", trial, err)
				}
				for i := range gotBatch {
					if gotBatch[i] != wantBatch[i] {
						t.Fatalf("trial %d: batch[%d] = %v, want %v", trial, i, gotBatch[i], wantBatch[i])
					}
				}
			}
		})
	}
}

// TestFaultSetConcurrentProbes hammers one shared FaultSet from many
// goroutines — the serving scenario the redesign exists for. Run under
// `go test -race` this doubles as the engine's data-race check: the closure
// is computed once under sync.Once and read-only afterwards.
func TestFaultSetConcurrentProbes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := workload.ErdosRenyi(200, 0.04, true, rng)
	const f = 4
	s := mustBuild(t, g, Params{MaxFaults: f})
	faults := workload.TreeEdgeFaults(g, s.Forest, f, rng)
	fl := make([]EdgeLabel, len(faults))
	for i, e := range faults {
		fl[i] = s.EdgeLabel(e)
	}
	fs, err := CompileFaults(fl)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		want[v] = graph.ConnectedUnder(g, workload.FaultSet(faults), 0, v)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				tv := (i*7 + w*13) % g.N()
				got, err := fs.Connected(s.VertexLabel(0), s.VertexLabel(tv))
				if err != nil {
					errs <- err
					return
				}
				if got != want[tv] {
					errs <- errors.New("concurrent probe mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestFaultSetProbeZeroAllocs asserts the pooled steady state: once a
// component's closure is cached, a probe allocates nothing.
func TestFaultSetProbeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := workload.ErdosRenyi(256, 0.04, true, rng)
	const f = 3
	s := mustBuild(t, g, Params{MaxFaults: f})
	faults := workload.TreeEdgeFaults(g, s.Forest, f, rng)
	fl := make([]EdgeLabel, len(faults))
	for i, e := range faults {
		fl[i] = s.EdgeLabel(e)
	}
	fs, err := CompileFaults(fl)
	if err != nil {
		t.Fatal(err)
	}
	sv, tv := s.VertexLabel(3), s.VertexLabel(200)
	if _, err := fs.Connected(sv, tv); err != nil { // warm the closure
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := fs.Connected(sv, tv); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state probe allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFaultSetRoutePlanAllocs pins the allocations of a warm route plan by
// plan length on a seeded corpus, once a component's crossing structure is
// recorded. AppendRoutePlan into a reused plan and scratch allocates
// nothing. The allocating RoutePlan wrapper allocates its growing step
// slice, plus, when the plan crosses at least one fault, the fragment
// walk's three scratch buffers. An increase fails; a decrease should lower
// the pin.
func TestFaultSetRoutePlanAllocs(t *testing.T) {
	want := map[int]float64{1: 1, 2: 5, 3: 6} // plan steps → RoutePlan allocs/op
	rng := rand.New(rand.NewSource(12))
	g := workload.ErdosRenyi(60, 0.1, true, rng)
	s := mustBuild(t, g, Params{MaxFaults: 3})
	seen := map[int]int{}
	var dst []RouteStep
	var sc RouteScratch
	for trial := 0; trial < 30; trial++ {
		faults := workload.TreeEdgeFaults(g, s.Forest, 1+trial%3, rng)
		fl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = s.EdgeLabel(e)
		}
		fs, err := CompileFaults(fl)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 8; q++ {
			sv, tv := s.VertexLabel(rng.Intn(g.N())), s.VertexLabel(rng.Intn(g.N()))
			plan, _, err := fs.RoutePlan(sv, tv) // records the crossings
			if err != nil {
				t.Fatal(err)
			}
			pin, ok := want[len(plan)]
			if !ok {
				t.Fatalf("trial %d: %d-step plan has no pinned allocation count", trial, len(plan))
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, _, err := fs.RoutePlan(sv, tv); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != pin {
				t.Fatalf("trial %d: warm %d-step RoutePlan allocates %.1f objects/op, pinned %.0f", trial, len(plan), allocs, pin)
			}
			dst, _, _ = fs.AppendRoutePlan(dst[:0], &sc, sv, tv) // sizes the scratch
			if !slices.Equal(dst, plan) {
				t.Fatalf("trial %d: AppendRoutePlan %v, RoutePlan %v", trial, dst, plan)
			}
			allocs = testing.AllocsPerRun(20, func() {
				if dst, _, err = fs.AppendRoutePlan(dst[:0], &sc, sv, tv); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("trial %d: warm %d-step AppendRoutePlan into reused storage allocates %.1f objects/op, pinned 0", trial, len(plan), allocs)
			}
			seen[len(plan)]++
		}
	}
	for steps := 1; steps <= 3; steps++ {
		if seen[steps] == 0 {
			t.Fatalf("corpus produced no %d-step plan (seen %v)", steps, seen)
		}
	}
	t.Logf("plans by step count: %v", seen)
}

// TestFaultSetRouteAfterProbeDecodesNothing: the closure a probe runs
// records the component's crossings, so the first plan on a probed set
// decodes nothing and, into reused storage, allocates nothing (a decode
// allocates, and so does indexing its crossings). Its plans equal those of
// a fresh set that is routed first.
func TestFaultSetRouteAfterProbeDecodesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := workload.ErdosRenyi(60, 0.1, true, rng)
	s := mustBuild(t, g, Params{MaxFaults: 3})
	compile := func(faults []int) *FaultSet {
		fl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = s.EdgeLabel(e)
		}
		fs, err := CompileFaults(fl)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	var dst []RouteStep
	var sc RouteScratch
	crossing := 0
	for trial := 0; trial < 30; trial++ {
		faults := workload.TreeEdgeFaults(g, s.Forest, 1+trial%3, rng)
		probed, routed := compile(faults), compile(faults)
		for q := 0; q < 8; q++ {
			u := rng.Intn(g.N())
			v := (u + 1 + rng.Intn(g.N()-1)) % g.N()
			sv, tv := s.VertexLabel(u), s.VertexLabel(v)
			want, _, err := routed.RoutePlan(sv, tv)
			if err != nil {
				t.Fatal(err)
			}
			// Size the plan and the scratch on the routed-first set.
			dst, _, _ = routed.AppendRoutePlan(dst[:0], &sc, sv, tv)
			if q == 0 {
				if _, err := probed.Connected(sv, tv); err != nil {
					t.Fatal(err)
				}
				if probed.compForRoot(sv.Anc.Root).route.adj == nil {
					t.Fatalf("trial %d: the probe's closure recorded no crossing graph", trial)
				}
			}
			// One P while counting, as testing.AllocsPerRun does, so that
			// no other goroutine's allocations land in the window.
			procs := runtime.GOMAXPROCS(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dst, _, err = probed.AppendRoutePlan(dst[:0], &sc, sv, tv)
			runtime.ReadMemStats(&after)
			runtime.GOMAXPROCS(procs)
			if err != nil {
				t.Fatal(err)
			}
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("trial %d pair %d: a plan on a probed set allocated %d objects", trial, q, n)
			}
			if !slices.Equal(dst, want) {
				t.Fatalf("trial %d pair %d: plan after a probe %v, routed first %v", trial, q, dst, want)
			}
			if len(want) > 1 {
				crossing++
			}
		}
	}
	if crossing == 0 {
		t.Fatal("corpus produced no plan that crosses a non-tree edge")
	}
}

// twoComponentFixture builds a graph whose spanning forest has two trees: a
// 4-cycle on {0..3} and a 4-path on {4..7}, returning the scheme plus the
// edge ids of one cycle edge (harmless) and the path's middle edge (a
// bridge whose failure disconnects {4,5} from {6,7}).
func twoComponentFixture(t *testing.T) (*Scheme, *graph.Graph, int, int) {
	t.Helper()
	g := graph.New(8)
	cycle := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	for _, e := range cycle {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	var bridge int
	for _, e := range [][2]int{{4, 5}, {5, 6}, {6, 7}} {
		id, err := g.AddEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if e == [2]int{5, 6} {
			bridge = id
		}
	}
	s := mustBuild(t, g, Params{MaxFaults: 2})
	return s, g, 0, bridge
}

// TestSessionHonorsFaultsInOtherComponents is the multi-component
// regression: a session must not drop faults whose spanning-forest tree
// differs from some other fault's, or it answers "connected" for vertex
// pairs that the dropped faults disconnect. Faults are split across the two
// trees (a harmless cycle edge and the path's bridge); the session must
// honor both.
func TestSessionHonorsFaultsInOtherComponents(t *testing.T) {
	s, g, cycleEdge, bridge := twoComponentFixture(t)
	fl := []EdgeLabel{s.EdgeLabel(cycleEdge), s.EdgeLabel(bridge)}
	sess := mustSession(t, fl)
	set := workload.FaultSet([]int{cycleEdge, bridge})
	cases := [][2]int{{4, 7}, {4, 5}, {6, 7}, {5, 7}, {0, 2}, {0, 5}, {1, 3}}
	for _, c := range cases {
		want := graph.ConnectedUnder(g, set, c[0], c[1])
		got, err := sess.Connected(s.VertexLabel(c[0]), s.VertexLabel(c[1]))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("session probe (%d,%d) = %v, want %v (fault in the other component dropped?)",
				c[0], c[1], got, want)
		}
	}
	if !testingConnectedFalse(t, sess, s, 4, 7) {
		t.Fatalf("bridge fault in the path component not honored")
	}
	// Shape accounting sums over both touched components: 2 fragments in
	// the cycle tree + 2 in the path tree; the cycle closes back up (1
	// component), the path stays split (2).
	if frag := sess.Fragments(); frag != 4 {
		t.Fatalf("Fragments() = %d, want 4", frag)
	}
	if comps := sess.Components(); comps != 3 {
		t.Fatalf("Components() = %d, want 3", comps)
	}
}

func testingConnectedFalse(t *testing.T, sess *Session, s *Scheme, a, b int) bool {
	t.Helper()
	got, err := sess.Connected(s.VertexLabel(a), s.VertexLabel(b))
	if err != nil {
		t.Fatal(err)
	}
	return !got
}

// TestFaultSetMultiComponentProbes checks the FaultSet probe path directly
// on faults split across two spanning-forest trees.
func TestFaultSetMultiComponentProbes(t *testing.T) {
	s, g, cycleEdge, bridge := twoComponentFixture(t)
	fs, err := CompileFaults([]EdgeLabel{s.EdgeLabel(cycleEdge), s.EdgeLabel(bridge)})
	if err != nil {
		t.Fatal(err)
	}
	if fs.FaultComponents() != 2 {
		t.Fatalf("FaultComponents() = %d, want 2", fs.FaultComponents())
	}
	if fs.Faults() != 2 {
		t.Fatalf("Faults() = %d, want 2", fs.Faults())
	}
	set := workload.FaultSet([]int{cycleEdge, bridge})
	for a := 0; a < g.N(); a++ {
		for b := a + 1; b < g.N(); b++ {
			want := graph.ConnectedUnder(g, set, a, b)
			got, err := fs.Connected(s.VertexLabel(a), s.VertexLabel(b))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("fs.Connected(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestCompileFaultsErrors pins the compile-time validation: global budget
// across components, mixed tokens, and duplicate collapsing.
func TestCompileFaultsErrors(t *testing.T) {
	s, _, cycleEdge, bridge := twoComponentFixture(t)
	// Budget is global: MaxFaults=2 fixture, 3 distinct faults across two
	// components must overflow.
	fl := []EdgeLabel{s.EdgeLabel(cycleEdge), s.EdgeLabel(1), s.EdgeLabel(bridge)}
	if _, err := CompileFaults(fl); !errors.Is(err, ErrTooManyFaults) {
		t.Fatalf("err = %v, want ErrTooManyFaults", err)
	}
	// Duplicates collapse before the budget check.
	dup := []EdgeLabel{s.EdgeLabel(cycleEdge), s.EdgeLabel(cycleEdge), s.EdgeLabel(bridge)}
	fs, err := CompileFaults(dup)
	if err != nil {
		t.Fatalf("duplicate faults must dedupe, got %v", err)
	}
	if fs.Faults() != 2 {
		t.Fatalf("deduped Faults() = %d, want 2", fs.Faults())
	}
	// Mixed tokens are rejected at compile time.
	other := mustBuild(t, workload.Cycle(5), Params{MaxFaults: 2})
	mixed := []EdgeLabel{s.EdgeLabel(cycleEdge), other.EdgeLabel(0)}
	if _, err := CompileFaults(mixed); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("err = %v, want ErrLabelMismatch", err)
	}
	// Probing with labels from another scheme is rejected.
	fs2, err := CompileFaults([]EdgeLabel{s.EdgeLabel(cycleEdge)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Connected(other.VertexLabel(0), other.VertexLabel(1)); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("err = %v, want ErrLabelMismatch", err)
	}
	// The empty FaultSet degenerates to same-component connectivity.
	empty, err := CompileFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := empty.Connected(s.VertexLabel(0), s.VertexLabel(2))
	if err != nil || !ok {
		t.Fatalf("empty fault set same component: ok=%v err=%v", ok, err)
	}
	ok, err = empty.Connected(s.VertexLabel(0), s.VertexLabel(5))
	if err != nil || ok {
		t.Fatalf("empty fault set cross component: ok=%v err=%v", ok, err)
	}
}
