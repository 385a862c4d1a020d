package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/workload"
)

// productsChurn is the JSON HTTP surface under cache churn: /connected,
// /route and /vconnected (50/30/20) against a static det-netfind scheme on
// a power-law clustered graph, n=1024, f=4. Failure events are drawn
// Zipf(1.1) from a universe 4× the cache capacity, so compiles, route
// planning, the vertex-to-edge reduction, degraded answers and eviction
// do most of the work. (At f=8, or over a universe 64× the cache, a few
// events that compile in 0.1–3 s decide each run's numbers.)
type productsChurn struct {
	in    *inputs
	orc   *oracle
	bits  int
	snapN int
	// overBudget marks edge events larger than f; only /route sends them
	// (it degrades to an approx answer; /connected would refuse them).
	overBudget []bool

	sch  *ftc.LoadedScheme
	srv  *serve.Server
	ln   net.Listener
	hs   *http.Server
	url  string
	hc   *http.Client
	done chan struct{}
}

const (
	churnF        = 4
	churnCache    = 64
	churnUniverse = 4 * churnCache
	churnOpenRPS  = 600
)

func (w *productsChurn) inputs() *inputs          { return w.in }
func (w *productsChurn) oracle() *oracle          { return w.orc }
func (w *productsChurn) servers() []*serve.Server { return []*serve.Server{w.srv} }
func (w *productsChurn) openRate() float64        { return churnOpenRPS }
func (w *productsChurn) labelBits() int           { return w.bits }
func (w *productsChurn) snapshotBytes() int       { return w.snapN }

func (w *productsChurn) prepare(seed int64) error {
	g := powerLawGraph()
	// The event universe and which events are hot belong to the
	// deployment; the seed draws the traffic over them.
	rng := rand.New(rand.NewSource(topologySeed ^ 0xc4a7))
	in := &inputs{g: g, f: churnF}
	forest := graph.SpanningForest(g)
	w.overBudget = make([]bool, churnUniverse)
	for i := 0; i < churnUniverse; i++ {
		size := 1 + rng.Intn(churnF)
		if rng.Float64() < 0.1 {
			size = churnF + 1 + rng.Intn(3)
			w.overBudget[i] = true
		}
		tree := workload.TreeEdgeFaults(g, forest, (size+1)/2, rng)
		ev := canon(append(tree, workload.RandomFaults(g, size-len(tree), rng)...))
		for len(ev) < size { // a random pick collided with a tree pick
			ev = canon(append(ev, rng.Intn(g.M())))
		}
		in.edgeEv = append(in.edgeEv, ev)
	}
	for i := 0; i < churnUniverse; i++ {
		vs := []int{rng.Intn(g.N())}
		if rng.Intn(2) == 0 {
			vs = append(vs, rng.Intn(g.N()))
		}
		in.vertEv = append(in.vertEv, canon(vs))
	}
	// Zipf ranks map through a permutation, so the hot events are not
	// simply the low indices.
	edgePerm, vertPerm := rng.Perm(churnUniverse), rng.Perm(churnUniverse)
	rng = rand.New(rand.NewSource(seed ^ 0xc4a7))
	in.batches = pairBatches(g.N(), 1024, rng)
	zipf := rand.NewZipf(rng, 1.1, 1, churnUniverse-1)
	deck := []op{opProbe, opProbe, opProbe, opProbe, opProbe, opRoute, opRoute, opRoute, opVProbe, opVProbe}
	in.pool = buildPool(rng, deck, len(in.batches), func(o op) int32 {
		if o == opVProbe {
			return int32(vertPerm[zipf.Uint64()])
		}
		for {
			e := edgePerm[zipf.Uint64()]
			if o == opRoute || !w.overBudget[e] {
				return int32(e)
			}
		}
	})
	w.in = in
	w.orc = &oracle{in: in}
	return nil
}

func (w *productsChurn) setup(tr *tracer) error {
	g := powerLawGraph()
	sp := tr.begin("core.build", -1, 0)
	s, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(churnF))
	tr.end(sp)
	if err != nil {
		return err
	}
	w.bits = s.Stats().MaxEdgeLabelBits
	var buf bytes.Buffer
	sp = tr.begin("ftc.save", -1, 0)
	err = s.Save(&buf)
	tr.end(sp)
	if err != nil {
		return err
	}
	s = nil
	w.snapN = buf.Len()
	sp = tr.begin("ftc.load", -1, 0)
	w.sch, err = ftc.LoadBytes(buf.Bytes())
	tr.end(sp)
	if err != nil {
		return err
	}
	w.srv = serve.New(w.sch, churnCache)
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.done = make(chan struct{})
	go func(hs *http.Server, ln net.Listener, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln)
	}(w.hs, w.ln, w.done)
	w.url = "http://" + w.ln.Addr().String()
	w.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}, Timeout: 30 * time.Second}
	// Warm-up: the hottest events fill the cache, and one route plus one
	// degraded answer build the generation's route tables and spanner.
	c := &client{}
	for i := 0; i < churnCache; i++ {
		r := w.in.pool[i]
		if err := w.do(c, r); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for e, over := range w.overBudget {
		if over {
			if err := w.do(c, request{op: opRoute, event: int32(e)}); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			break
		}
	}
	return nil
}

func (w *productsChurn) teardown() {
	if w.hc != nil {
		w.hc.CloseIdleConnections()
		w.hc = nil
	}
	if w.hs != nil {
		w.hs.Close()
		<-w.done
		w.hs = nil
	}
	w.srv, w.sch = nil, nil
}

func (w *productsChurn) do(c *client, r request) error {
	return doHTTP(w.hc, w.url, w.in, c, r)
}

// doHTTP sends one request over the JSON surface and records it.
func doHTTP(hc *http.Client, url string, in *inputs, c *client, r request) error {
	pairs := in.batches[r.batch]
	var path string
	var body any
	switch r.op {
	case opProbe:
		path, body = "/connected", serve.ConnectedRequest{FaultEdges: in.edgeEv[r.event], Pairs: pairs}
	case opRoute:
		path, body = "/route", serve.RouteRequest{FaultEdges: in.edgeEv[r.event], Pairs: pairs}
	case opVProbe:
		path, body = "/vconnected", serve.VConnectedRequest{FaultVertices: in.vertEv[r.event], Pairs: pairs}
	}
	sp := c.tr.begin("http.call", c.span, c.req)
	defer c.tr.end(sp)
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := hc.Post(url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: %s: %s", path, resp.Status, msg)
	}
	rec := record{req: r}
	dec := json.NewDecoder(resp.Body)
	switch r.op {
	case opProbe:
		var out serve.ConnectedResponse
		err = dec.Decode(&out)
		rec.gen, rec.bits = out.Generation, packBits(out.Connected)
	case opVProbe:
		var out serve.VConnectedResponse
		err = dec.Decode(&out)
		rec.gen, rec.bits, rec.approx = out.Generation, packBits(out.Connected), out.Confidence == serve.ConfidenceApprox
	case opRoute:
		var out serve.RouteResponse
		err = dec.Decode(&out)
		rec.gen, rec.approx = out.Generation, out.Confidence == serve.ConfidenceApprox
		reach := make([]bool, len(out.Routes))
		for i, leg := range out.Routes {
			reach[i] = leg.Reachable
			rec.paths = append(rec.paths, leg.Path)
		}
		rec.bits = packBits(reach)
	}
	if err != nil {
		return fmt.Errorf("%s: decoding response: %w", path, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	c.recs = append(c.recs, rec)
	return nil
}

func (w *productsChurn) target() layerTarget {
	return layerTarget{sch: w.sch, srv: w.srv}
}
