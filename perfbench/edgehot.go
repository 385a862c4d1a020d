package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
	"repro/internal/workload"
)

// edgeHot is the warm wire path: OpProbe batches (with a tenth each of
// route and vertex-probe frames) against a static det-netfind scheme on
// Erdős–Rényi n=1024, f=3, over 256 recurring failure events of 1–3 tree
// edges, all compiled during setup. Nearly all the work is codec,
// pipelined client, executor, cache stab and FaultSet.Connected.
type edgeHot struct {
	in    *inputs
	orc   *oracle
	bits  int
	snapN int

	sch *ftc.LoadedScheme
	srv *serve.Server
	ln  net.Listener
	cl  *wireclient.Client
}

const (
	edgeHotF       = 3
	edgeHotEvents  = 256
	edgeHotCache   = 512
	edgeHotOpenRPS = 28000
)

func (w *edgeHot) inputs() *inputs          { return w.in }
func (w *edgeHot) oracle() *oracle          { return w.orc }
func (w *edgeHot) servers() []*serve.Server { return []*serve.Server{w.srv} }
func (w *edgeHot) openRate() float64        { return edgeHotOpenRPS }
func (w *edgeHot) labelBits() int           { return w.bits }
func (w *edgeHot) snapshotBytes() int       { return w.snapN }

func (w *edgeHot) prepare(seed int64) error {
	g := erGraph()
	// The recurring events are compiled during setup, so they belong to
	// the deployment; the seed draws the traffic over them.
	rng := rand.New(rand.NewSource(topologySeed ^ 0x5eed))
	in := &inputs{g: g, f: edgeHotF}
	forest := graph.SpanningForest(g)
	for i := 0; i < edgeHotEvents; i++ {
		in.edgeEv = append(in.edgeEv, canon(workload.TreeEdgeFaults(g, forest, 1+rng.Intn(edgeHotF), rng)))
	}
	rng = rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, v := range lowDegreeVertices(g, edgeHotF) {
		in.vertEv = append(in.vertEv, []int{v})
	}
	if len(in.vertEv) == 0 {
		return fmt.Errorf("graph has no vertex of degree ≤ %d for exact vertex probes", edgeHotF)
	}
	in.batches = pairBatches(g.N(), 1024, rng)
	deck := []op{opProbe, opProbe, opProbe, opProbe, opProbe, opProbe, opProbe, opProbe, opRoute, opVProbe}
	in.pool = buildPool(rng, deck, len(in.batches), func(o op) int32 {
		if o == opVProbe {
			return int32(rng.Intn(len(in.vertEv)))
		}
		return int32(rng.Intn(len(in.edgeEv)))
	})
	w.in = in
	w.orc = &oracle{in: in}
	return nil
}

func (w *edgeHot) setup(tr *tracer) error {
	g := erGraph()
	sp := tr.begin("core.build", -1, 0)
	s, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(edgeHotF))
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
	w.snapN = buf.Len()
	sp = tr.begin("ftc.load", -1, 0)
	w.sch, err = ftc.LoadBytes(buf.Bytes())
	tr.end(sp)
	if err != nil {
		return err
	}
	w.srv = serve.New(w.sch, edgeHotCache)
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	go w.srv.ServeBin(w.ln)
	if w.cl, err = wireclient.Dial(w.ln.Addr().String(), wireclient.Options{Conns: 2}); err != nil {
		return err
	}
	return warmWire(w.cl, w.in)
}

// warmWire compiles every event into the server's caches and builds the
// route tables: one probe, one route and one vertex probe per event, from
// two goroutines like the load itself.
func warmWire(cl *wireclient.Client, in *inputs) error {
	pairs := in.batches[0]
	errs := make(chan error, 2)
	for k := 0; k < 2; k++ {
		go func(k int) {
			var resp wire.RouteResp
			for i := k; i < len(in.edgeEv); i += 2 {
				if _, _, _, err := cl.ProbeInto(in.edgeEv[i], pairs, nil, 0); err != nil {
					errs <- fmt.Errorf("warm probe: %w", err)
					return
				}
				if err := cl.Route(in.edgeEv[i], pairs, &resp, 0); err != nil {
					errs <- fmt.Errorf("warm route: %w", err)
					return
				}
			}
			for i := k; i < len(in.vertEv); i += 2 {
				if _, _, _, _, err := cl.VProbeInto(in.vertEv[i], pairs, nil, 0); err != nil {
					errs <- fmt.Errorf("warm vprobe: %w", err)
					return
				}
			}
			errs <- nil
		}(k)
	}
	return errors.Join(<-errs, <-errs)
}

func (w *edgeHot) teardown() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
	if w.ln != nil {
		w.ln.Close()
		w.ln = nil
	}
	w.srv, w.sch = nil, nil
}

func (w *edgeHot) do(c *client, r request) error {
	return doWire(w.cl, w.in, c, r)
}

// doWire sends one request over a pipelined wire client and records it.
func doWire(cl *wireclient.Client, in *inputs, c *client, r request) error {
	pairs := in.batches[r.batch]
	sp := c.tr.begin("wireclient.call", c.span, c.req)
	rec := record{req: r}
	var err error
	switch r.op {
	case opProbe:
		c.out, _, rec.gen, err = cl.ProbeInto(in.edgeEv[r.event], pairs, c.out[:0], 0)
		rec.bits = packBits(c.out)
	case opVProbe:
		c.out, _, rec.approx, rec.gen, err = cl.VProbeInto(in.vertEv[r.event], pairs, c.out[:0], 0)
		rec.bits = packBits(c.out)
	case opRoute:
		var resp wire.RouteResp
		err = cl.Route(in.edgeEv[r.event], pairs, &resp, 0)
		rec.gen, rec.approx, rec.bits, rec.paths = resp.Gen, resp.Approx, packBits(resp.Reachable), resp.Paths
	}
	c.tr.end(sp)
	if err != nil {
		return err
	}
	c.recs = append(c.recs, rec)
	return nil
}

func (w *edgeHot) target() layerTarget {
	return layerTarget{sch: w.sch, srv: w.srv, binAddr: w.ln.Addr().String()}
}
