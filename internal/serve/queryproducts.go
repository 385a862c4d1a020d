package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"repro/internal/faultinject"
)

// The JSON surface of the three query products (DESIGN.md §3.15): POST
// /connected answers s–t probes under edge faults, POST /route answers
// forbidden-set route plans, POST /vconnected answers s–t probes under
// vertex faults. One handler decodes each body into the executor's query
// and encodes its answer; the pipeline itself lives in executor.go.
//
// Degraded mode: a route or vertex fault set beyond the scheme's f budget
// flips the answer source to the per-generation spanner view (products
// package) and marks the response "confidence": "approx" instead of
// refusing with 422.

// Confidence markers carried by query-product responses.
const (
	ConfidenceExact  = "exact"
	ConfidenceApprox = "approx"
)

// RouteRequest is the wire form of a POST /route batch: one forbidden
// edge set (by [u,v] endpoint pair and/or edge index — same
// generation-pinning rules as ConnectedRequest), many (source, target)
// pairs to plan routes for.
type RouteRequest struct {
	Faults     [][2]int `json:"faults,omitempty"`
	FaultEdges []int    `json:"fault_edges,omitempty"`
	Pairs      [][2]int `json:"pairs"`
	Generation uint64   `json:"generation,omitempty"`
}

// RouteLeg is one answered route: whether the target is reachable in
// G − F and, if so, the full hop-by-hop vertex path the plan's execution
// traversed (source first, target last). The path is the packet
// simulator's actual trajectory, so it never crosses a forbidden edge.
type RouteLeg struct {
	Reachable bool  `json:"reachable"`
	Path      []int `json:"path,omitempty"`
}

// RouteResponse answers a batch of route-plan queries.
type RouteResponse struct {
	Routes     []RouteLeg `json:"routes"`
	Faults     int        `json:"faults"`
	CacheHit   bool       `json:"cache_hit"`
	Confidence string     `json:"confidence"`
	Generation uint64     `json:"generation"`
}

// VConnectedRequest is the wire form of a POST /vconnected batch probe:
// one set of failed vertices, many s–t pairs. Vertex indices are stable
// names (vertices are never removed), so no endpoint-pair form is needed;
// Generation optionally pins the answer generation like ConnectedRequest.
type VConnectedRequest struct {
	FaultVertices []int    `json:"fault_vertices"`
	Pairs         [][2]int `json:"pairs"`
	Generation    uint64   `json:"generation,omitempty"`
}

// VConnectedResponse answers a batch vertex-fault probe. Faults is the
// canonical failed-vertex count; FaultEdges the deduplicated incident
// edge count the exact reduction compiled (0 in degraded mode, where
// nothing is compiled).
type VConnectedResponse struct {
	Connected  []bool `json:"connected"`
	Faults     int    `json:"faults"`
	FaultEdges int    `json:"fault_edges,omitempty"`
	CacheHit   bool   `json:"cache_hit"`
	Confidence string `json:"confidence"`
	Generation uint64 `json:"generation"`
}

// jsonScratch is the pooled per-request state of the JSON surface: the
// decoded request (whose slices the JSON decoder refills in place), the
// executor state, the response of each product, and the encode buffer.
// Pooling these leaves the JSON decoder and net/http's own bookkeeping as
// the warm path's only allocations (see BenchmarkHandleConnected).
type jsonScratch struct {
	edges ConnectedRequest // /connected and /route bodies share this shape
	verts VConnectedRequest
	x     execState

	probe  ConnectedResponse
	route  RouteResponse
	legs   []RouteLeg
	vprobe VConnectedResponse
	enc    bytes.Buffer
}

// The answer slice starts non-nil so an empty connectivity batch encodes
// as [], not null.
var jsonScratchPool = sync.Pool{New: func() any {
	return &jsonScratch{x: execState{out: make([]bool, 0, 16)}}
}}

// handleQuery returns the JSON handler of one query product: admit,
// decode, execute, encode.
func (s *Server) handleQuery(p product) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if !s.admitHTTP(w) {
			return
		}
		defer s.releaseHTTP()
		// Failpoint "serve.probe": slow (or fail) the admitted query while
		// it holds its admission slot — how overload tests occupy the gate.
		if err := faultinject.Fire("serve.probe"); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		sc := jsonScratchPool.Get().(*jsonScratch)
		defer jsonScratchPool.Put(sc)
		if err := sc.decode(p, w, r); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
			return
		}
		if status, err := s.execute(&sc.x); err != nil {
			writeJSON(w, status, errorResponse{Error: err.Error()})
			return
		}
		s.answered[p].Add(uint64(len(sc.x.q.pairs)))
		writeJSONBuf(w, http.StatusOK, sc.response(), &sc.enc)
	}
}

// decode reads a request body of product p into the scratch and points
// the executor's query at it.
func (sc *jsonScratch) decode(p product, w http.ResponseWriter, r *http.Request) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if p == productVProbe {
		v := &sc.verts
		v.FaultVertices, v.Pairs, v.Generation = v.FaultVertices[:0], v.Pairs[:0], 0
		err := dec.Decode(v)
		sc.x.q = query{product: p, genPin: v.Generation, pairs: v.Pairs, faults: v.FaultVertices}
		return err
	}
	e := &sc.edges
	e.Faults, e.FaultEdges, e.Pairs, e.Generation = e.Faults[:0], e.FaultEdges[:0], e.Pairs[:0], 0
	var dst any = e
	if p == productRoute {
		// Same shape; decoding through the product's own type keeps its
		// name in decode errors.
		dst = (*RouteRequest)(e)
	}
	err := dec.Decode(dst)
	sc.x.q = query{product: p, genPin: e.Generation, pairs: e.Pairs, faults: e.FaultEdges, endpoints: e.Faults}
	return err
}

// response fills the executed query's JSON response from pooled scratch.
func (sc *jsonScratch) response() any {
	x := &sc.x
	confidence := ConfidenceExact
	if x.approx {
		confidence = ConfidenceApprox
	}
	switch x.q.product {
	case productRoute:
		sc.legs = sc.legs[:0]
		for i, ok := range x.out {
			sc.legs = append(sc.legs, RouteLeg{Reachable: ok, Path: x.paths[i]})
		}
		sc.route = RouteResponse{
			Routes: sc.legs, Faults: x.faults, CacheHit: x.hit, Confidence: confidence, Generation: x.gen,
		}
		return &sc.route
	case productVProbe:
		sc.vprobe = VConnectedResponse{
			Connected: x.out, Faults: x.faults, FaultEdges: x.faultEdges, CacheHit: x.hit, Confidence: confidence, Generation: x.gen,
		}
		return &sc.vprobe
	}
	sc.probe = ConnectedResponse{Connected: x.out, Faults: x.faults, CacheHit: x.hit, Generation: x.gen}
	return &sc.probe
}
