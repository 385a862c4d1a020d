package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The Prometheus-format metrics surface: GET /metrics renders the same
// counters as /stats in the text exposition format, hand-rolled (no
// client library dependency — the format is lines of `name{labels} value`
// with # HELP / # TYPE preambles). This is the first piece of the
// replicated-tier ops story: a fleet of ftcserve replicas becomes
// scrapeable by any standard Prometheus/Grafana stack, and the cache
// counters make a hit-rate collapse after an /update storm visible without
// shelling into the box.

// metricsNamespace prefixes every exported series.
const metricsNamespace = "ftcserve"

// handleMetrics renders the serving counters in Prometheus text format.
// The exposition is rebuilt per scrape from the same counters /stats
// reads, taking the cache lock once, as /stats does.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	var b strings.Builder
	b.Grow(2048)

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			metricsNamespace, name, help, metricsNamespace, name, metricsNamespace, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s %s\n",
			metricsNamespace, name, help, metricsNamespace, name, metricsNamespace, name,
			strconv.FormatFloat(v, 'g', -1, 64))
	}

	counter("probes_total", "Connectivity probes answered (pairs, both protocols).", st.Probes)
	counter("route_plans_total", "Route-plan legs answered (both protocols, either confidence).", st.RoutePlans)
	counter("vprobes_total", "Vertex-fault probes answered (pairs, both protocols, either confidence).", st.VProbes)
	counter("approx_answers_total", "Route and vertex-probe pairs answered over the f budget (exactly, from a BFS forest of G - F).", st.ApproxAnswers)
	counter("http_requests_total", "Query requests received over HTTP (POST /connected, /route, /vconnected).", st.Requests)
	counter("bin_requests_total", "Binary-protocol frames received.", st.BinRequests)
	counter("updates_total", "POST /update batches committed.", st.Updates)
	counter("frame_decode_errors_total", "Binary frames rejected as malformed.", st.FrameErrors)
	counter("update_commits_total", "Generations committed (local /update commits plus replayed replica records).", st.Commits)
	counter("genlog_records_appended_total", "Generation-log records appended by this primary.", st.LogAppended)
	counter("snapshot_stream_failures_total", "GET /snapshot responses aborted mid-body after a stream error.", st.SnapFailures)
	counter("cache_evicted_by_update_total", "Cache entries evicted by update sweeps.", st.CacheEvicted)
	counter("cache_rebased_by_update_total", "Cache entries rebased across generations by update sweeps.", st.CacheRebased)
	counter("cache_evictions_total", "Cache entries displaced by capacity pressure (LRU evictions).", st.CacheCapEvict)
	counter("vcache_hits_total", "Fault-set cache hits of vertex probes (counted in cache_hits_total too).", st.VCacheHits)
	counter("vcache_misses_total", "Fault-set cache misses of vertex probes (counted in cache_misses_total too).", st.VCacheMisses)
	// Shed counters carry a surface label so one dashboard panel shows
	// where overload pressure lands: the HTTP admission gate, the binary
	// admission/queue gates, or the per-frame deadline budget.
	fmt.Fprintf(&b, "# HELP %s_requests_shed_total Requests shed by overload protection, by surface.\n# TYPE %s_requests_shed_total counter\n",
		metricsNamespace, metricsNamespace)
	fmt.Fprintf(&b, "%s_requests_shed_total{surface=\"http\"} %d\n", metricsNamespace, st.ShedHTTP)
	fmt.Fprintf(&b, "%s_requests_shed_total{surface=\"bin\"} %d\n", metricsNamespace, st.ShedBin)
	fmt.Fprintf(&b, "%s_requests_shed_total{surface=\"deadline\"} %d\n", metricsNamespace, st.ShedDeadline)
	gauge("generation", "Current scheme generation.", float64(st.Generation))
	gauge("bin_connections", "Open binary-protocol connections.", float64(st.BinConns))
	gauge("bin_inflight_batches", "Binary-protocol frames currently being served.", float64(st.BinInflight))
	counter("cache_hits_total", "Fault-set cache hits.", st.CacheHits)
	counter("cache_misses_total", "Fault-set cache misses.", st.CacheMisses)
	gauge("cache_entries", "Compiled fault sets held.", float64(st.CacheSize))
	gauge("cache_capacity_entries", "Total fault-set cache capacity.", float64(st.CacheCapacity))
	gauge("uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())

	// Generation-log retention series, present only on a primary.
	if s.genlog != nil {
		counter("genlog_compactions_total", "Checkpoint-and-truncate compactions of the generation log.", st.LogCompact)
		counter("genlog_bytes_reclaimed_total", "Log-file bytes reclaimed by compaction.", st.LogReclaimed)
		gauge("genlog_records", "Records currently retained in the generation log window.", float64(st.LogRecords))
		gauge("genlog_file_bytes", "Current size of the generation-log file.", float64(st.LogFileBytes))
		gauge("genlog_checkpoint_generation", "Generation of the latest compaction checkpoint (0 when none).", float64(st.LogCkptGen))
	}

	// Replication series, present only on a tailing replica.
	if st.Replica != nil {
		rs := *st.Replica
		gauge("replica_lag_generations", "Generations behind the primary's observed head.", float64(rs.LagGenerations()))
		gauge("replica_lag_bytes", "Log-record bytes received but not yet applied.", float64(rs.BytesReceived-rs.BytesApplied))
		counter("replica_records_applied_total", "Generation-log records replayed onto the serving scheme.", rs.RecordsApplied)
		counter("replica_snapshot_loads_total", "Full snapshot (re)fetches from the primary.", rs.SnapshotLoads)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
