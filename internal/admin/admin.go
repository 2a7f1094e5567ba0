// Package admin is the scrapeable export plane of a DjiNN process: a
// small HTTP listener, separate from the query socket, that exposes the
// service's internal instrumentation. The WSC operator story from the
// paper (Section 6 sizes fleets from measured throughput and latency)
// needs those measurements to leave the process somehow; this package
// serves them in the three forms operations tooling already speaks —
// Prometheus text on /metrics, net/http/pprof under /debug/pprof/, and
// a JSON slow-query log of the worst recent traces on /slowlog.
package admin

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"djinn/internal/alerts"
	"djinn/internal/controlplane"
	"djinn/internal/events"
	"djinn/internal/gateway"
	"djinn/internal/metrics"
	"djinn/internal/modelstore"
	"djinn/internal/router"
	"djinn/internal/sched"
	"djinn/internal/service"
	"djinn/internal/timeseries"
	"djinn/internal/trace"
)

// Replica pairs a server with the name it reports under (a process
// hosting several replicas labels each one, e.g. "replica-0").
type Replica struct {
	Name   string
	Server *service.Server
}

// Options selects what the admin plane exports. Every field is
// optional: a router-only process omits Replicas, a single-server
// process omits Router.
type Options struct {
	// Replicas are the in-process servers to export.
	Replicas []Replica
	// Router, when set, contributes per-backend routing counters.
	Router *router.Router
	// ControlPlane, when set, contributes the djinn_placement_* and
	// djinn_autoscale_* families: shard-map weights, membership and
	// rebalance counters, and per-app autoscaler state.
	ControlPlane *controlplane.Controller
	// Stores are the trace stores the slow-query log and /trace draw
	// from (typically one per tier in this process).
	Stores []*trace.Store
	// SlowLog bounds the /slowlog response to the K worst traces.
	// Zero means 10.
	SlowLog int
	// Journal, when set, serves the structured fleet event log on
	// /events.
	Journal *events.Journal
	// Collector, when set, serves the fleet time-series rollups on
	// /dash and contributes djinn_fleet_* gauges to /metrics.
	Collector *timeseries.Collector
	// Alerts, when set, contributes alert states to /dash and the
	// djinn_alert_* family to /metrics.
	Alerts *alerts.Engine
	// Gateway, when set, contributes the djinn_gateway_* and
	// djinn_pipeline_* families: HTTP status counts, response-cache
	// and rate-limit counters, and pipeline stage/latency stats.
	Gateway *gateway.Gateway
	// DashWindow is the trailing window /dash aggregates over (default
	// 30s).
	DashWindow time.Duration
	// Runtime disables the djinn_runtime_* Go runtime family on
	// /metrics when false is wanted; default (zero value) exports it.
	NoRuntimeMetrics bool
}

// NewHandler builds the admin HTTP handler:
//
//	/metrics        Prometheus text exposition
//	/slowlog        JSON: the K slowest retained traces, worst first
//	/trace?id=<id>  JSON: one trace merged across this process's tiers
//	/events         JSON: the structured fleet event journal
//	/dash           JSON: fleet rollups + alert states (tonic top reads it)
//	/debug/pprof/   the standard Go profiler endpoints
func NewHandler(opts Options) http.Handler {
	if opts.SlowLog <= 0 {
		opts.SlowLog = 10
	}
	if opts.DashWindow <= 0 {
		opts.DashWindow = 30 * time.Second
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, opts)
	})
	mux.HandleFunc("/slowlog", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(slowlog(opts.Stores, opts.SlowLog))
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		if !trace.ValidID(id) {
			http.Error(w, "missing or invalid ?id=", http.StatusBadRequest)
			return
		}
		tr, ok := trace.Merge(id, opts.Stores...)
		if !ok {
			http.Error(w, "trace not retained", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(traceEntry(tr))
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(w, r, opts.Journal)
	})
	mux.HandleFunc("/dash", func(w http.ResponseWriter, r *http.Request) {
		serveDash(w, r, opts)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		io.WriteString(w, "djinn admin: /metrics /slowlog /trace?id= /events /dash /debug/pprof/\n")
	})
	return mux
}

// SlowEntry is one slow-query-log record: a retained trace plus its
// total wall-clock extent, ready for jq-style consumption.
type SlowEntry struct {
	ID    string        `json:"id"`
	Tier  string        `json:"tier"`
	Total time.Duration `json:"total_ns"`
	Spans []trace.Span  `json:"spans"`
}

func traceEntry(tr trace.Trace) SlowEntry {
	return SlowEntry{ID: tr.ID, Tier: tr.Tier, Total: tr.Duration(), Spans: tr.Spans}
}

// slowlog collects the k worst traces across every store, slowest
// first. The same ID may appear once per tier; the per-tier views are
// kept distinct (merge on demand via /trace?id=).
func slowlog(stores []*trace.Store, k int) []SlowEntry {
	var all []SlowEntry
	for _, st := range stores {
		if st == nil {
			continue
		}
		for _, tr := range st.Slowest(k) {
			all = append(all, traceEntry(tr))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Total > all[j].Total })
	if len(all) > k {
		all = all[:k]
	}
	if all == nil {
		all = []SlowEntry{}
	}
	return all
}

// writeMetrics renders the Prometheus text exposition format by hand —
// the format is a stable line protocol and hand-rolling it keeps the
// repo dependency-free.
func writeMetrics(w io.Writer, opts Options) {
	writeBuildInfo(w)

	if len(opts.Replicas) > 0 {
		fmt.Fprintln(w, "# HELP djinn_app_events_total Per-application lifecycle counters (queries, instances, batches, errors, shed_admission, shed_expired, expired).")
		fmt.Fprintln(w, "# TYPE djinn_app_events_total counter")
		for _, rep := range opts.Replicas {
			if rep.Server == nil {
				continue
			}
			for _, app := range sortedApps(rep.Server) {
				st, ok := rep.Server.StatsFor(app)
				if !ok {
					continue
				}
				for _, c := range []struct {
					event string
					v     int64
				}{
					{"queries", st.Queries}, {"instances", st.Instances},
					{"batches", st.Batches}, {"errors", st.Errors},
					{"shed_admission", st.ShedAdmission}, {"shed_expired", st.ShedExpired},
					{"expired", st.Expired},
				} {
					fmt.Fprintf(w, "djinn_app_events_total{replica=%q,app=%q,event=%q} %d\n",
						rep.Name, app, c.event, c.v)
				}
			}
		}

		fmt.Fprintln(w, "# HELP djinn_stage_latency_seconds Per-stage request lifecycle latency.")
		fmt.Fprintln(w, "# TYPE djinn_stage_latency_seconds histogram")
		for _, rep := range opts.Replicas {
			if rep.Server == nil {
				continue
			}
			for _, app := range sortedApps(rep.Server) {
				for _, stage := range metrics.Stages {
					h, ok := rep.Server.StageHistogram(app, stage)
					if !ok || h.Count == 0 {
						continue
					}
					writeHistogram(w, "djinn_stage_latency_seconds",
						fmt.Sprintf("replica=%q,app=%q,stage=%q", rep.Name, app, stage), h)
				}
			}
		}

		fmt.Fprintln(w, "# HELP djinn_stage_latency_quantile_seconds Reservoir-sampled stage latency quantiles.")
		fmt.Fprintln(w, "# TYPE djinn_stage_latency_quantile_seconds gauge")
		for _, rep := range opts.Replicas {
			if rep.Server == nil {
				continue
			}
			for _, app := range sortedApps(rep.Server) {
				sum, ok := rep.Server.LatencyFor(app)
				if !ok {
					continue
				}
				for _, st := range []struct {
					stage metrics.Stage
					s     metrics.Summary
				}{
					{metrics.StageQueueWait, sum.QueueWait},
					{metrics.StageBatchAssembly, sum.BatchAssembly},
					{metrics.StageForward, sum.Forward},
					{metrics.StageRespond, sum.Respond},
				} {
					if st.s.Count == 0 {
						continue
					}
					base := fmt.Sprintf("replica=%q,app=%q,stage=%q", rep.Name, app, st.stage)
					for _, q := range []struct {
						q string
						d time.Duration
					}{{"0.5", st.s.P50}, {"0.95", st.s.P95}, {"0.99", st.s.P99}} {
						fmt.Fprintf(w, "djinn_stage_latency_quantile_seconds{%s,quantile=%q} %g\n",
							base, q.q, q.d.Seconds())
					}
				}
			}
		}

		writeRequestLatency(w, opts)
		writeSchedMetrics(w, opts)
		writeModelMetrics(w, opts)

		fmt.Fprintln(w, "# HELP djinn_recent_qps Completed queries per second over the last 10s window.")
		fmt.Fprintln(w, "# TYPE djinn_recent_qps gauge")
		for _, rep := range opts.Replicas {
			if rep.Server == nil {
				continue
			}
			fmt.Fprintf(w, "djinn_recent_qps{replica=%q} %g\n",
				rep.Name, rep.Server.Throughput().RecentRate(10*time.Second))
		}
	}

	if opts.Router != nil {
		fmt.Fprintln(w, "# HELP djinn_backend_events_total Per-backend routing counters (sent, ok, failures, backpressure, slow, markdowns, probes).")
		fmt.Fprintln(w, "# TYPE djinn_backend_events_total counter")
		snaps := opts.Router.Stats()
		for _, bs := range snaps {
			for _, c := range []struct {
				event string
				v     int64
			}{
				{"sent", bs.Stats.Sent}, {"ok", bs.Stats.OK},
				{"failures", bs.Stats.Failures}, {"backpressure", bs.Stats.Backpressure},
				{"slow", bs.Stats.Slow},
				{"markdowns", bs.Stats.MarkDowns}, {"probes", bs.Stats.Probes},
			} {
				fmt.Fprintf(w, "djinn_backend_events_total{backend=%q,event=%q} %d\n",
					bs.ID, c.event, c.v)
			}
		}
		fmt.Fprintln(w, "# HELP djinn_backend_healthy Whether the router considers the backend routable (1) or marked down (0).")
		fmt.Fprintln(w, "# TYPE djinn_backend_healthy gauge")
		for _, bs := range snaps {
			v := 0
			if bs.Healthy {
				v = 1
			}
			fmt.Fprintf(w, "djinn_backend_healthy{backend=%q} %d\n", bs.ID, v)
		}
		fmt.Fprintln(w, "# HELP djinn_backend_outstanding Queries in flight to the backend.")
		fmt.Fprintln(w, "# TYPE djinn_backend_outstanding gauge")
		for _, bs := range snaps {
			fmt.Fprintf(w, "djinn_backend_outstanding{backend=%q} %d\n", bs.ID, bs.Outstanding)
		}
		fmt.Fprintln(w, "# HELP djinn_backend_pressure Decaying overload penalty load-based policies add to outstanding.")
		fmt.Fprintln(w, "# TYPE djinn_backend_pressure gauge")
		for _, bs := range snaps {
			fmt.Fprintf(w, "djinn_backend_pressure{backend=%q} %d\n", bs.ID, bs.Pressure)
		}
		writeSplitMetrics(w, opts.Router)
	}

	if opts.ControlPlane != nil {
		writeControlPlaneMetrics(w, opts.ControlPlane)
	}

	if len(opts.Stores) > 0 {
		fmt.Fprintln(w, "# HELP djinn_traces_retained Traces currently held in each tier's bounded store.")
		fmt.Fprintln(w, "# TYPE djinn_traces_retained gauge")
		for _, st := range opts.Stores {
			if st == nil {
				continue
			}
			fmt.Fprintf(w, "djinn_traces_retained{tier=%q} %d\n", st.Tier(), st.Len())
		}
	}

	if opts.Journal != nil {
		fmt.Fprintln(w, "# HELP djinn_events_total Events appended to the fleet journal (monotone; survives ring overwrite).")
		fmt.Fprintln(w, "# TYPE djinn_events_total counter")
		fmt.Fprintf(w, "djinn_events_total %d\n", opts.Journal.LastSeq())
	}
	if opts.Collector != nil {
		writeFleetMetrics(w, opts.Collector, opts.DashWindow)
	}
	if opts.Alerts != nil {
		writeAlertMetrics(w, opts.Alerts)
	}
	if opts.Gateway != nil {
		writeGatewayMetrics(w, opts.Gateway)
	}
	if !opts.NoRuntimeMetrics {
		writeRuntimeMetrics(w)
	}
}

// writeSchedMetrics renders per-app scheduler gauges for every replica
// app registered with an SLO: the adaptive batch size, the SLO, the
// admission rate, the queued instances and the live queue-delay
// estimate the admission controller is steering on.
func writeSchedMetrics(w io.Writer, opts Options) {
	type entry struct {
		replica, app string
		info         sched.Info
	}
	var entries []entry
	for _, rep := range opts.Replicas {
		if rep.Server == nil {
			continue
		}
		for _, app := range sortedApps(rep.Server) {
			if info, ok := rep.Server.SchedFor(app); ok {
				entries = append(entries, entry{rep.Name, app, info})
			}
		}
	}
	if len(entries) == 0 {
		return
	}
	for _, g := range []struct {
		name, help string
		v          func(sched.Info) float64
	}{
		{"djinn_sched_batch_size", "Current adaptive batch cap in instances.",
			func(i sched.Info) float64 { return float64(i.Batch) }},
		{"djinn_sched_slo_seconds", "Declared p99 latency SLO.",
			func(i sched.Info) float64 { return i.SLO.Seconds() }},
		{"djinn_sched_admission_rate", "Fraction of admission decisions that admitted (lifetime).",
			func(i sched.Info) float64 { return i.AdmissionRate() }},
		{"djinn_sched_queued_instances", "Instances admitted but not yet executed.",
			func(i sched.Info) float64 { return float64(i.Queued) }},
		{"djinn_sched_est_wait_seconds", "Queue-delay estimate a new 1-instance query would see.",
			func(i sched.Info) float64 { return i.EstWait.Seconds() }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, e := range entries {
			fmt.Fprintf(w, "%s{replica=%q,app=%q,priority=%q} %g\n",
				g.name, e.replica, e.app, e.info.Priority, g.v(e.info))
		}
	}
}

// writeModelMetrics renders the djinn_model_* family for every replica
// with a model store attached: residency gauges (count, mapped bytes,
// peak, budget) plus lifetime lifecycle counters (loads, first-query
// faults, evictions, load errors).
func writeModelMetrics(w io.Writer, opts Options) {
	type entry struct {
		replica string
		st      modelstore.Stats
	}
	var entries []entry
	for _, rep := range opts.Replicas {
		if rep.Server == nil {
			continue
		}
		if st, ok := rep.Server.ModelStats(); ok {
			entries = append(entries, entry{rep.Name, st})
		}
	}
	if len(entries) == 0 {
		return
	}
	for _, g := range []struct {
		name, help string
		v          func(modelstore.Stats) float64
	}{
		{"djinn_model_registered", "Model versions registered with the store.",
			func(s modelstore.Stats) float64 { return float64(s.Registered) }},
		{"djinn_model_resident", "Model versions currently loaded.",
			func(s modelstore.Stats) float64 { return float64(s.Resident) }},
		{"djinn_model_resident_bytes", "Bytes of weight files currently mapped.",
			func(s modelstore.Stats) float64 { return float64(s.ResidentBytes) }},
		{"djinn_model_peak_bytes", "High-water mark of mapped bytes.",
			func(s modelstore.Stats) float64 { return float64(s.PeakBytes) }},
		{"djinn_model_budget_bytes", "Configured residency budget (0 = unbounded).",
			func(s modelstore.Stats) float64 { return float64(s.BudgetBytes) }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, e := range entries {
			fmt.Fprintf(w, "%s{replica=%q} %g\n", g.name, e.replica, g.v(e.st))
		}
	}
	fmt.Fprintln(w, "# HELP djinn_model_events_total Model lifecycle counters (loads, faults, evictions, load_errors).")
	fmt.Fprintln(w, "# TYPE djinn_model_events_total counter")
	for _, e := range entries {
		for _, c := range []struct {
			event string
			v     int64
		}{
			{"loads", e.st.Loads}, {"faults", e.st.Faults},
			{"evictions", e.st.Evictions}, {"load_errors", e.st.LoadErrors},
		} {
			fmt.Fprintf(w, "djinn_model_events_total{replica=%q,event=%q} %d\n",
				e.replica, c.event, c.v)
		}
	}
}

// writeControlPlaneMetrics renders the cluster control plane: the
// shard map as per-(app, replica) weight gauges, membership and
// rebalance counters, and the autoscaler's per-app replica counts and
// lifetime scale events.
func writeControlPlaneMetrics(w io.Writer, ctl *controlplane.Controller) {
	m := ctl.Snapshot()
	fmt.Fprintln(w, "# HELP djinn_placement_members Members known to the control plane.")
	fmt.Fprintln(w, "# TYPE djinn_placement_members gauge")
	fmt.Fprintf(w, "djinn_placement_members{state=\"live\"} %d\n", m.Members-m.Dead)
	fmt.Fprintf(w, "djinn_placement_members{state=\"dead\"} %d\n", m.Dead)
	fmt.Fprintln(w, "# HELP djinn_placement_events_total Control-plane lifecycle counters (rebalances, moves, activate_errors).")
	fmt.Fprintln(w, "# TYPE djinn_placement_events_total counter")
	for _, c := range []struct {
		event string
		v     int64
	}{
		{"rebalances", m.Rebalances}, {"moves", m.Moves},
		{"activate_errors", m.ActivateErrors},
	} {
		fmt.Fprintf(w, "djinn_placement_events_total{event=%q} %d\n", c.event, c.v)
	}
	fmt.Fprintln(w, "# HELP djinn_placement_last_rebalance_seconds Duration of the most recent reconcile pass.")
	fmt.Fprintln(w, "# TYPE djinn_placement_last_rebalance_seconds gauge")
	fmt.Fprintf(w, "djinn_placement_last_rebalance_seconds %g\n", m.LastRebalance.Seconds())
	if len(m.Placements) > 0 {
		apps := make([]string, 0, len(m.Placements))
		for app := range m.Placements {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		fmt.Fprintln(w, "# HELP djinn_placement_weight Routing weight of one (app, replica) assignment in the shard map.")
		fmt.Fprintln(w, "# TYPE djinn_placement_weight gauge")
		for _, app := range apps {
			for _, p := range m.Placements[app] {
				fmt.Fprintf(w, "djinn_placement_weight{app=%q,replica=%q} %d\n", app, p.Replica, p.Weight)
			}
		}
	}
	if len(m.Scales) > 0 {
		fmt.Fprintln(w, "# HELP djinn_autoscale_count Current autoscaler replica count per app.")
		fmt.Fprintln(w, "# TYPE djinn_autoscale_count gauge")
		for _, s := range m.Scales {
			fmt.Fprintf(w, "djinn_autoscale_count{app=%q} %d\n", s.App, s.Count)
		}
		fmt.Fprintln(w, "# HELP djinn_autoscale_events_total Autoscaler decisions per app and direction.")
		fmt.Fprintln(w, "# TYPE djinn_autoscale_events_total counter")
		for _, s := range m.Scales {
			fmt.Fprintf(w, "djinn_autoscale_events_total{app=%q,direction=\"up\"} %d\n", s.App, s.ScaleUps)
			fmt.Fprintf(w, "djinn_autoscale_events_total{app=%q,direction=\"down\"} %d\n", s.App, s.ScaleDowns)
		}
	}
}

// writeSplitMetrics renders the router's live traffic splits: the
// configured weight and the routed-query counter of every arm, so an
// operator can verify a canary is actually receiving its fraction.
func writeSplitMetrics(w io.Writer, rt *router.Router) {
	splits := rt.Splits()
	if len(splits) == 0 {
		return
	}
	apps := rt.SplitApps()
	fmt.Fprintln(w, "# HELP djinn_split_weight Configured weight of one traffic-split arm.")
	fmt.Fprintln(w, "# TYPE djinn_split_weight gauge")
	for _, app := range apps {
		for _, st := range splits[app] {
			fmt.Fprintf(w, "djinn_split_weight{app=%q,target=%q} %d\n", app, st.Target, st.Weight)
		}
	}
	fmt.Fprintln(w, "# HELP djinn_split_routed_total Queries routed to one traffic-split arm.")
	fmt.Fprintln(w, "# TYPE djinn_split_routed_total counter")
	for _, app := range apps {
		for _, st := range splits[app] {
			fmt.Fprintf(w, "djinn_split_routed_total{app=%q,target=%q} %d\n", app, st.Target, st.Routed)
		}
	}
}

// writeHistogram emits one Prometheus histogram series. The snapshot's
// per-bucket counts become cumulative le-labelled buckets; durations
// become seconds. A bucket that retained a traced sample carries an
// OpenMetrics-style exemplar (`# {trace_id="..."} <seconds>`) pointing
// at the trace /slowlog and /trace?id= can expand.
func writeHistogram(w io.Writer, name, labels string, h metrics.HistogramSnapshot) {
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d%s\n", name, labels, formatLe(bound), cum, exemplarSuffix(h, i))
	}
	cum += h.Counts[len(h.Counts)-1]
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d%s\n", name, labels, cum, exemplarSuffix(h, len(h.Counts)-1))
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum.Seconds())
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count)
}

func exemplarSuffix(h metrics.HistogramSnapshot, i int) string {
	if i >= len(h.Exemplars) || h.Exemplars[i].TraceID == "" {
		return ""
	}
	ex := h.Exemplars[i]
	return fmt.Sprintf(" # {trace_id=%q} %g", ex.TraceID, ex.Value.Seconds())
}

// formatLe renders a bucket bound in seconds without exponent noise
// ("0.0005", not "5e-04") so scrapes diff cleanly.
func formatLe(d time.Duration) string {
	s := fmt.Sprintf("%.6f", d.Seconds())
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".") // whole-second bounds: "5." → "5"
}

func sortedApps(s *service.Server) []string {
	apps := s.Apps()
	sort.Strings(apps)
	return apps
}

func writeBuildInfo(w io.Writer) {
	fmt.Fprintln(w, "# HELP djinn_build_info Build metadata; the value is always 1.")
	fmt.Fprintln(w, "# TYPE djinn_build_info gauge")
	goVersion, revision := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	fmt.Fprintf(w, "djinn_build_info{goversion=%q,revision=%q} 1\n", goVersion, revision)
}
