package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	ftc "repro"
	"repro/internal/serve"
	"repro/internal/serve/front"
	"repro/internal/serve/genlog"
)

const (
	// liveCommits of the twin's batches are committed on the live
	// deployment, in bursts of liveBurst with liveReads front reads after
	// each burst. Batch updTreeFirst is a tree-edge delete, so the replica
	// refetches one snapshot.
	liveCommits = 12
	liveBurst   = 4
	liveReads   = 64
	liveCache   = 256
)

// loopback owns the listeners and components the layer pass starts;
// close stops them in reverse order.
type loopback struct{ closers []func() }

func (d *loopback) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// serveBin serves srv's binary protocol on a fresh loopback listener.
func (d *loopback) serveBin(srv *serve.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go srv.ServeBin(ln)
	d.closers = append(d.closers, func() { ln.Close() })
	return ln.Addr().String(), nil
}

// serveHTTP serves h on a fresh loopback listener and returns its URL.
func (d *loopback) serveHTTP(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	d.closers = append(d.closers, func() { hs.Close(); <-done })
	return "http://" + ln.Addr().String(), nil
}

// replication measures the front, the replica and the update-time cache
// sweep on a live deployment: a dynamic primary (ftc.Open with headroom)
// committing /update batches into an fsync'd generation log, one
// Replicator tailing it, and an adaptive-hedging front over both. It
// commits the first liveCommits of the twin replay's batches, which start
// from the same graph, so each commit must reach the twin's generation.
func (lp *layerPass) replication(in *inputs, evs [][]int, pairs [][2]int, batches []updateBatch) error {
	tr := lp.tr
	if len(batches) < liveCommits {
		return fmt.Errorf("twin replay made %d batches, the live deployment needs %d", len(batches), liveCommits)
	}
	var d loopback
	defer d.close()
	nw, err := ftc.OpenFromGraph(in.g.Clone(), ftc.WithMaxFaults(in.f), ftc.WithHeadroom(updHeadroom))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "genlog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	glog, err := genlog.Open(dir + "/gen.log")
	if err != nil {
		return err
	}
	d.closers = append(d.closers, func() { glog.Close() })
	primary := serve.NewDynamic(func() serve.Scheme { return nw.Snapshot() }, nw, liveCache)
	if err := primary.AttachGenLog(glog); err != nil {
		return err
	}
	pBin, err := d.serveBin(primary)
	if err != nil {
		return err
	}
	primary.SetBinAddr(pBin)
	url, err := d.serveHTTP(primary.Handler())
	if err != nil {
		return err
	}

	sp := tr.begin("replica.bootstrap", -1, 0)
	rep, err := serve.NewReplicator(url, serve.ReplicatorOptions{
		CacheSize:       liveCache,
		RedialBase:      2 * time.Millisecond,
		RedialMax:       50 * time.Millisecond,
		SnapRefetchBase: 5 * time.Millisecond,
		SnapRefetchMax:  50 * time.Millisecond,
	})
	if err == nil {
		d.closers = append(d.closers, rep.Stop)
		err = rep.Start()
	}
	if err == nil {
		err = waitGen(rep, nw.Generation())
	}
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	lp.set("replica.bootstrap_s", tr.medianNs("replica.bootstrap")/1e9, "s")
	rBin, err := d.serveBin(rep.Server())
	if err != nil {
		return err
	}
	fr, err := front.Dial([]string{pBin, rBin}, front.Options{})
	if err != nil {
		return err
	}
	d.closers = append(d.closers, func() { fr.Close() })

	// Reads use events whose edge indices stay valid at every generation
	// the commits reach (a batch deletes at most five edges).
	var live [][]int
	for _, ev := range evs {
		if ev[len(ev)-1] < in.g.M()-5*liveCommits {
			live = append(live, ev)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("no hot event stays valid across %d commits", liveCommits)
	}
	srvs := []*serve.Server{primary, rep.Server()}
	for _, srv := range srvs {
		for _, ev := range live {
			if _, _, err := srv.FaultSet(ev); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	readErrs := 0
	read := func(i int) {
		if _, _, err := fr.ConnectedBatch(live[i%len(live)], pairs); err != nil {
			readErrs++
		}
	}
	// Fill the front's latency window, so its hedge delay is adaptive.
	for i := 0; i < 256; i++ {
		read(i)
	}
	fs0 := fr.Stats()
	lp.set("front.call_ns", lp.micro("front.call", 500, read), "ns")

	// Commits under reads: after each burst, read through the front while
	// the replica catches up.
	st0 := sumStats(srvs)
	loads0 := rep.Status().SnapshotLoads
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	var lag float64
	for i := 0; i < liveCommits; i++ {
		b := batches[i]
		sp := tr.begin("update.post", -1, int64(i))
		gen, err := postUpdate(hc, url, b)
		tr.end(sp)
		if err != nil {
			return err
		}
		if gen != b.gen {
			return fmt.Errorf("live commit %d reached generation %d, the twin's %d", i, gen, b.gen)
		}
		if (i+1)%liveBurst != 0 {
			continue
		}
		lag += float64(gen - rep.Status().LocalGen)
		for k := 0; k < liveReads; k++ {
			read(k)
		}
		if err := waitGen(rep, gen); err != nil {
			return err
		}
	}
	st1, fs1 := sumStats(srvs), fr.Stats()
	lp.set("serve.cache.update_evicted", float64(st1.CacheEvicted-st0.CacheEvicted), "count")
	lp.set("serve.cache.update_rebased", float64(st1.CacheRebased-st0.CacheRebased), "count")
	lp.set("replica.lag_generations", lag/float64(liveCommits/liveBurst), "generations")
	lp.set("replica.snapshot_refetches", float64(rep.Status().SnapshotLoads-loads0), "count")
	probes := fs1.Probes - fs0.Probes
	hedges := fs1.Hedges - fs0.Hedges
	lp.set("front.hedge_ratio", float64(hedges)/float64(max(probes, 1)), "ratio")
	winRatio := 0.0
	if hedges > 0 {
		winRatio = float64(fs1.HedgeWins-fs0.HedgeWins) / float64(hedges)
	}
	lp.set("front.hedge_win_ratio", winRatio, "ratio")
	lp.set("front.failovers", float64(fs1.Failovers-fs0.Failovers), "count")
	lp.facts["live_replication"] = map[string]any{
		"backends":              "dynamic primary + replicator, adaptive-hedging front",
		"commits":               liveCommits,
		"burst":                 liveBurst,
		"reads_per_burst":       liveReads,
		"front_probes":          probes,
		"front_read_errors":     readErrs,
		"update_post_ms_median": tr.medianNs("update.post") / 1e6,
		"replica.lag_generations": "primary generation minus the replica's Status().LocalGen, " +
			"read right after each burst is acknowledged, mean over bursts",
	}
	if readErrs > 0 {
		return fmt.Errorf("%d front reads failed on the live deployment", readErrs)
	}
	return nil
}

// waitGen waits until the replica serves generation gen.
func waitGen(rep *serve.Replicator, gen uint64) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s := rep.Scheme(); s != nil && s.Generation() >= gen {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("replica stuck below generation %d", gen)
}

// postUpdate commits one batch through POST /update and returns the
// generation it produced.
func postUpdate(hc *http.Client, url string, b updateBatch) (uint64, error) {
	raw, err := json.Marshal(serve.UpdateRequest{Add: b.add, Remove: b.remove})
	if err != nil {
		return 0, err
	}
	resp, err := hc.Post(url+"/update", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, fmt.Errorf("/update: %s: %s", resp.Status, msg)
	}
	var out serve.UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return out.Generation, nil
}
