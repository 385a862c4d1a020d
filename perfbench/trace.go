package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A tracer records spans in memory around the benchmark's calls into each
// layer's public functions; they are written out when the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

// span is one timed call. iters > 1 marks a span around a loop of iters
// identical calls, timed together because one call is shorter than the
// clock's own overhead.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Iters  int32  `json:"iters"`
}

// maxSpans bounds the in-memory span buffer.
const maxSpans = 1 << 21

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (-1 when untraced or full).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req, Iters: 1})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// loop times iters calls of fn as one span and returns the span id.
func (t *tracer) loop(name string, iters int, fn func(i int)) int32 {
	id := t.begin(name, -1, 0)
	for i := 0; i < iters; i++ {
		fn(i)
	}
	t.end(id)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].Iters = int32(iters)
		t.mu.Unlock()
	}
	return id
}

// perCall returns every closed span named name as nanoseconds per call.
func (t *tracer) perCall(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/float64(s.Iters))
		}
	}
	return out
}

// medianNs is the median per-call time of the spans named name.
func (t *tracer) medianNs(name string) float64 { return median(t.perCall(name)) }

// layerTime is one span name's totals: total and self time, where self
// time is a span's duration minus the part its child spans cover.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	MeanNs  float64 `json:"mean_ns"`
}

// selfTimes aggregates total and self time per span name.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]int32{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.End == 0 {
			continue
		}
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalNs += dur
		lt.SelfNs += dur - covered(t.spans, children[int32(i)], s.Start, s.End)
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		lt.MeanNs = float64(lt.TotalNs) / float64(lt.Count)
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of [start, end) the given spans cover, counting
// overlapping children once.
func covered(spans []span, ids []int32, start, end int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, id := range ids {
		c := spans[id]
		if c.End == 0 {
			continue
		}
		a, b := max(c.Start, start), min(c.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
