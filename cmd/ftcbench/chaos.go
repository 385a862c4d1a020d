package main

// E22 — the chaos harness: a full in-process serving tier (primary with a
// generation log, two tailing replicas with HTTP + binary listeners, a
// self-healing front) driven through a seeded fault schedule — injected
// connection resets, log-tail read failures, snapshot-stream failures,
// fsync latency, and a replica kill/restart — while every answer the
// front returns is checked against a per-generation oracle. The invariant
// under test is the one DESIGN.md §3.16 promises: faults may slow or shed
// requests, but a served answer is always exactly correct for the
// generation the server reports. Fault policies that would corrupt the
// live primary's log (error/torn-write on genlog.append) are deliberately
// absent from the schedule — a published generation whose record is
// missing wedges replication permanently; crash-atomicity of the log
// itself is covered by a separate torn-write sub-check on a scratch log.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	ftc "repro"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/front"
	"repro/internal/serve/genlog"
	"repro/internal/workload"
)

// chaosSeed drives the whole schedule: workload, fault points, kill
// timing. CI runs two fixed seeds.
var chaosSeed int64

func chaosFatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "ftcbench: chaos: "+format+"\n", a...)
	os.Exit(1)
}

// chaosReplica is one replica "process": the Replicator plus its two
// listeners, restartable on the same addresses so the front's fixed
// membership view sees the same backend come back.
type chaosReplica struct {
	rep      *serve.Replicator
	binAddr  string
	httpAddr string

	mu      sync.Mutex
	binLn   *trackedListener
	httpSrv *http.Server
}

// trackedListener records accepted connections so a simulated process
// kill can sever live connections, not just stop accepting — a closed
// listener alone leaves established conns serving, and the front would
// never see the backend die.
type trackedListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func (t *trackedListener) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.conns == nil {
		t.conns = make(map[net.Conn]struct{})
	}
	t.conns[c] = struct{}{}
	t.mu.Unlock()
	return c, nil
}

func (t *trackedListener) CloseAll() {
	t.Listener.Close()
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.conns = nil
	t.mu.Unlock()
}

func (r *chaosReplica) start(binAddr, httpAddr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bln, err := net.Listen("tcp", binAddr)
	if err != nil {
		chaosFatalf("replica bin listen %s: %v", binAddr, err)
	}
	hln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		chaosFatalf("replica http listen %s: %v", httpAddr, err)
	}
	r.binLn = &trackedListener{Listener: bln}
	r.binAddr = bln.Addr().String()
	r.httpAddr = hln.Addr().String()
	r.httpSrv = &http.Server{Handler: r.rep.Server().Handler()}
	go r.rep.Server().ServeBin(r.binLn)
	go r.httpSrv.Serve(hln)
}

// kill simulates the process dying: stop the tail, sever every live
// connection on both surfaces, free the ports for the restart.
func (r *chaosReplica) kill() {
	r.rep.Stop()
	r.mu.Lock()
	binLn, httpSrv := r.binLn, r.httpSrv
	r.mu.Unlock()
	if httpSrv != nil {
		httpSrv.Close()
	}
	if binLn != nil {
		binLn.CloseAll()
	}
}

func (r *chaosReplica) restart() {
	r.start(r.binAddr, r.httpAddr)
	if err := r.rep.Start(); err != nil {
		chaosFatalf("replica restart: %v", err)
	}
}

// chaosTornWrite is the crash-atomicity sub-check that must never run
// against a live log: a torn append on a scratch genlog, then reopen and
// verify the clean prefix survived and the log accepts appends again.
func chaosTornWrite(dir string) int {
	g := workload.Petersen()
	d, err := core.NewDynamic(g.Clone(), core.Params{MaxFaults: 2, Kind: core.KindDetNetFind})
	if err != nil {
		chaosFatalf("torn-write dynamic: %v", err)
	}
	var deltas []*core.GenDelta
	for _, batch := range [][]core.Update{
		{{Add: true, U: 0, V: 2}, {Add: true, U: 1, V: 3}},
		{{U: 0, V: 2}},
		{{Add: true, U: 0, V: 2}},
	} {
		_, delta, _, err := d.Commit(batch)
		if err != nil || delta == nil {
			chaosFatalf("torn-write commit: delta=%v err=%v", delta, err)
		}
		deltas = append(deltas, delta)
	}
	path := dir + "/scratch.log"
	l, err := genlog.Open(path)
	if err != nil {
		chaosFatalf("torn-write open: %v", err)
	}
	for _, dl := range deltas[:2] {
		if _, err := l.Append(dl); err != nil {
			chaosFatalf("torn-write append: %v", err)
		}
	}
	reg := faultinject.New(chaosSeed)
	if err := reg.Set("genlog.append", "torn-write"); err != nil {
		chaosFatalf("torn-write policy: %v", err)
	}
	faultinject.Arm(reg)
	_, terr := l.Append(deltas[2])
	faultinject.Disarm()
	if terr == nil {
		chaosFatalf("torn-write: append under torn-write failpoint succeeded")
	}
	l.Close()
	l2, err := genlog.Open(path)
	if err != nil {
		chaosFatalf("torn-write reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		chaosFatalf("torn-write reopen: %d records, want the 2-record clean prefix", l2.Len())
	}
	if _, err := l2.Append(deltas[2]); err != nil {
		chaosFatalf("torn-write re-append after recovery: %v", err)
	}
	return l2.Len()
}

type chaosRecord struct {
	Seed            int64  `json:"seed"`
	N               int    `json:"n"`
	M               int    `json:"m"`
	F               int    `json:"f"`
	Rounds          int    `json:"rounds"`
	Probes          uint64 `json:"probes"`
	Commits         int    `json:"commits"`
	WrongAnswers    uint64 `json:"wrong_answers"`
	ProbeErrors     uint64 `json:"probe_errors"`
	Ejections       uint64 `json:"ejections"`
	Readmits        uint64 `json:"readmits"`
	Unavailable     uint64 `json:"unavailable_sheds_seen"`
	Failovers       uint64 `json:"failovers"`
	TimeToEjectMs   int64  `json:"time_to_eject_ms"`
	TimeToReadmitMs int64  `json:"time_to_readmit_ms"`
	TornWriteRecs   int    `json:"torn_write_recovered_records"`
}

func chaosBench() {
	const (
		n = 160
		f = 3
	)
	rounds, probesPerRound, pairsPerProbe := 60, 6, 4
	if smokeMode {
		rounds = 24
	}
	fmt.Printf("E22 — chaos: seeded fault injection, membership self-healing, no-wrong-answers (seed %d)\n", chaosSeed)

	dir, err := os.MkdirTemp("", "ftcbench-chaos")
	if err != nil {
		chaosFatalf("tmp: %v", err)
	}
	defer os.RemoveAll(dir)

	tornRecs := chaosTornWrite(dir)
	fmt.Printf("   torn-write: scratch log recovered to %d records after a torn append (crash-atomic)\n", tornRecs)

	// WrapConn wraps a connection only while a registry is armed, and the
	// cluster opens its connections before the schedule starts: arm the
	// schedule's registry now, empty, and fill it at armRound.
	reg := faultinject.New(chaosSeed)
	faultinject.Arm(reg)

	// --- cluster ---
	rng := rand.New(rand.NewSource(chaosSeed))
	g := workload.ErdosRenyi(n, 8.0/n, true, rng)
	edges := make([][2]int, g.M())
	for i, e := range g.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	nw, err := ftc.Open(n, edges, ftc.WithMaxFaults(f), ftc.WithHeadroom(64))
	if err != nil {
		chaosFatalf("open: %v", err)
	}
	primary := serve.NewDynamic(func() serve.Scheme { return nw.Snapshot() }, nw, 64)
	glog, err := genlog.Open(dir + "/gen.log")
	if err != nil {
		chaosFatalf("genlog: %v", err)
	}
	defer glog.Close()
	if err := primary.AttachGenLog(glog); err != nil {
		chaosFatalf("attach: %v", err)
	}
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()

	// The oracle: every generation's graph, recorded before the commit
	// that creates it returns to the driver, so any generation a replica
	// can serve is already checkable. Answers are verified against the
	// generation the server REPORTS, which is exactly the degraded-answer
	// contract: a lagging replica may answer from an older world, but
	// never incorrectly for that world.
	var oracleMu sync.RWMutex
	oracle := map[uint64]*graph.Graph{nw.Generation(): nw.Snapshot().Graph()}
	recordGen := func() {
		oracleMu.Lock()
		oracle[nw.Generation()] = nw.Snapshot().Graph()
		oracleMu.Unlock()
	}

	newReplica := func() *chaosReplica {
		rep, err := serve.NewReplicator(ts.URL, serve.ReplicatorOptions{
			CacheSize:       64,
			RedialBase:      2 * time.Millisecond,
			RedialMax:       50 * time.Millisecond,
			SnapRefetchBase: 5 * time.Millisecond,
			SnapRefetchMax:  100 * time.Millisecond,
		})
		if err != nil {
			chaosFatalf("replicator: %v", err)
		}
		if err := rep.Start(); err != nil {
			chaosFatalf("replica start: %v", err)
		}
		cr := &chaosReplica{rep: rep}
		cr.start("127.0.0.1:0", "127.0.0.1:0")
		return cr
	}
	waitReplica := func(rep *serve.Replicator) {
		want := nw.Generation()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if s := rep.Scheme(); s != nil && s.Generation() >= want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		chaosFatalf("replica stuck below generation %d", want)
	}
	r1, r2 := newReplica(), newReplica()
	defer r1.rep.Stop()
	defer r2.rep.Stop()
	waitReplica(r1.rep)
	waitReplica(r2.rep)

	fr, err := front.Dial([]string{r1.binAddr, r2.binAddr}, front.Options{
		HedgeAfter:     2 * time.Millisecond,
		FailThreshold:  2,
		Probation:      250 * time.Millisecond,
		LagThreshold:   16,
		HealthURLs:     []string{"http://" + r1.httpAddr, "http://" + r2.httpAddr},
		HealthInterval: 50 * time.Millisecond,
		RequestBudget:  5 * time.Second,
		ReconnectBase:  2 * time.Millisecond,
		ReconnectMax:   50 * time.Millisecond,
	})
	if err != nil {
		chaosFatalf("front: %v", err)
	}
	defer fr.Close()

	commits := 0
	commitOne := func() {
		inner := nw.Snapshot().Inner()
		cg, forest := inner.Graph(), inner.Forest
		var add, remove [][2]int
		for try := 0; try < 300; try++ {
			u, v := rng.Intn(cg.N()), rng.Intn(cg.N())
			if u != v && !cg.HasEdge(u, v) && forest.Comp[u] == forest.Comp[v] {
				add = append(add, [2]int{u, v})
				break
			}
		}
		for try := 0; try < 300; try++ {
			e := rng.Intn(cg.M())
			if !forest.IsTreeEdge[e] {
				remove = append(remove, [2]int{cg.Edges[e].U, cg.Edges[e].V})
				break
			}
		}
		if len(add) == 0 && len(remove) == 0 {
			return
		}
		body, _ := json.Marshal(serve.UpdateRequest{Add: add, Remove: remove})
		resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			chaosFatalf("commit: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			chaosFatalf("commit: status %d", resp.StatusCode)
		}
		recordGen()
		commits++
	}

	var probes, wrong, probeErrs atomic.Uint64
	// probeRound fires probesPerRound concurrent probes built against the
	// primary's current graph and verifies each answer against the
	// responder's generation. Transport errors are tolerated (counted);
	// wrong answers are not.
	probeRound := func(seed int64) {
		var wg sync.WaitGroup
		for p := 0; p < probesPerRound; p++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				prng := rand.New(rand.NewSource(seed))
				cg := nw.Snapshot().Graph()
				faults := workload.RandomFaults(cg, 1+prng.Intn(f), prng)
				pairs := make([][2]int, pairsPerProbe)
				for i := range pairs {
					pairs[i] = [2]int{prng.Intn(n), prng.Intn(n)}
				}
				probes.Add(1)
				ans, gen, err := fr.ConnectedBatch(faults, pairs)
				if err != nil {
					probeErrs.Add(1)
					return
				}
				oracleMu.RLock()
				og := oracle[gen]
				oracleMu.RUnlock()
				if og == nil {
					wrong.Add(1)
					fmt.Fprintf(os.Stderr, "ftcbench: chaos: answer from unknown generation %d\n", gen)
					return
				}
				set := map[int]bool{}
				bad := false
				for _, e := range faults {
					if e >= og.M() {
						bad = true // index from a newer graph; server should have rejected it
						break
					}
					set[e] = true
				}
				if bad {
					wrong.Add(1)
					fmt.Fprintf(os.Stderr, "ftcbench: chaos: gen %d served a fault index outside its graph\n", gen)
					return
				}
				for i, pr := range pairs {
					if ans[i] != graph.ConnectedUnder(og, set, pr[0], pr[1]) {
						wrong.Add(1)
						fmt.Fprintf(os.Stderr, "ftcbench: chaos: WRONG ANSWER gen %d faults %v pair %v: got %v\n",
							gen, faults, pr, ans[i])
					}
				}
			}(seed + int64(p)*7919)
		}
		wg.Wait()
	}

	// --- the schedule ---
	// genlog.append error policies are forbidden on a live primary (see
	// the package comment); fsync gets latency only.
	schedule := [][2]string{
		{"wireclient.conn.read", "error-rate:0.03"},
		{"binserver.conn.write", "error-rate:0.03"},
		{"replica.tail", "error-rate:0.03"},
		{"snapshot.stream", "error-rate:0.3"},
		{"genlog.fsync", "latency:2ms"},
	}
	armRound, killRound, healRound := rounds/4, rounds/3, 2*rounds/3
	var killAt, restartAt time.Time
	var timeToEject, timeToReadmit time.Duration
	waitBackend := func(idx int, state string, deadline time.Duration) time.Duration {
		t0 := time.Now()
		for time.Since(t0) < deadline {
			if fr.Backends()[idx].State == state {
				return time.Since(t0)
			}
			time.Sleep(2 * time.Millisecond)
		}
		chaosFatalf("backend %d never reached state %q (now %q)", idx, state, fr.Backends()[idx].State)
		return 0
	}

	for step := 0; step < rounds; step++ {
		switch step {
		case armRound:
			for _, pt := range schedule {
				if err := reg.Set(pt[0], pt[1]); err != nil {
					chaosFatalf("failpoint %s: %v", pt[0], err)
				}
			}
			fmt.Printf("   round %d: armed conn resets and log-tail failures (3%%), snapshot failures (30%%), fsync latency\n", step)
		case killRound:
			r2.kill()
			killAt = time.Now()
			timeToEject = waitBackend(1, "ejected", 10*time.Second)
			fmt.Printf("   round %d: killed replica 2 — ejected after %s\n", step, round(timeToEject))
		case healRound:
			faultinject.Disarm()
			fmt.Printf("   round %d: disarmed faults; fired", step)
			for _, pt := range schedule {
				fmt.Printf(" %s %d", pt[0], reg.Fired(pt[0]))
			}
			fmt.Println()
			r2.restart()
			restartAt = time.Now()
			timeToReadmit = waitBackend(1, "healthy", 10*time.Second)
			fmt.Printf("   round %d: restarted replica 2 — readmitted after %s\n", step, round(timeToReadmit))
		}
		if rng.Intn(2) == 0 {
			commitOne()
		}
		probeRound(chaosSeed*1_000_003 + int64(step)*104_729)
	}
	_ = killAt
	_ = restartAt

	// Heal check: both replicas converge to the primary's generation and a
	// final error-free sweep answers correctly everywhere.
	waitReplica(r1.rep)
	waitReplica(r2.rep)
	finalDeadline := time.Now().Add(15 * time.Second)
	for {
		errsBefore, wrongBefore := probeErrs.Load(), wrong.Load()
		probeRound(chaosSeed * 999_983)
		if wrong.Load() != wrongBefore {
			break // reported below
		}
		if probeErrs.Load() == errsBefore {
			break // one fully clean sweep
		}
		if time.Now().After(finalDeadline) {
			chaosFatalf("fleet never produced an error-free sweep after heal")
		}
	}

	st := fr.Stats()
	fmt.Printf("   %d rounds, %d commits, %d probes: %d wrong answers, %d probe errors tolerated\n",
		rounds, commits, probes.Load(), wrong.Load(), probeErrs.Load())
	fmt.Printf("   front: %d ejections, %d readmits, %d failovers, %d sheds seen, %d hedges (%d wins)\n",
		st.Ejections, st.Readmits, st.Failovers, st.Unavailable, st.Hedges, st.HedgeWins)

	if wrong.Load() != 0 {
		chaosFatalf("%d WRONG ANSWERS — the no-wrong-answers invariant is broken", wrong.Load())
	}
	if st.Ejections < 1 {
		chaosFatalf("dead replica was never ejected")
	}
	if st.Readmits < 1 {
		chaosFatalf("restarted replica was never readmitted")
	}

	if !jsonOut {
		return
	}
	rec := chaosRecord{
		Seed:            chaosSeed,
		N:               n,
		M:               g.M(),
		F:               f,
		Rounds:          rounds,
		Probes:          probes.Load(),
		Commits:         commits,
		WrongAnswers:    wrong.Load(),
		ProbeErrors:     probeErrs.Load(),
		Ejections:       st.Ejections,
		Readmits:        st.Readmits,
		Unavailable:     st.Unavailable,
		Failovers:       st.Failovers,
		TimeToEjectMs:   timeToEject.Milliseconds(),
		TimeToReadmitMs: timeToReadmit.Milliseconds(),
		TornWriteRecs:   tornRecs,
	}
	mergeBenchJSON("BENCH_serve.json", func(doc map[string]json.RawMessage) {
		raw, err := json.Marshal(rec)
		if err != nil {
			chaosFatalf("marshal chaos record: %v", err)
		}
		doc[fmt.Sprintf("chaos_seed%d", chaosSeed)] = raw
	})
}
