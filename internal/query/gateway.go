package query

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
)

// SetSource is the live-data source the gateway reads: the daemon's
// registry of local sets and mirrored aggregated sets. metric.Registry
// implements it.
type SetSource interface {
	Dir() []string
	Get(name string) *metric.Set
}

// ProducerHealth describes one collection target for /healthz, as computed
// by the daemon (which knows updater intervals and error streaks).
type ProducerHealth struct {
	Name              string    `json:"name"`
	Host              string    `json:"host,omitempty"`
	State             string    `json:"state"`
	Standby           bool      `json:"standby,omitempty"`
	Active            bool      `json:"active"`
	Connects          int64     `json:"connects"`
	Disconnects       int64     `json:"disconnects"`
	LastUpdate        time.Time `json:"last_update,omitempty"`
	ConsecutiveErrors int64     `json:"consecutive_errors"`
	Stale             bool      `json:"stale"`
	// Sets counts the metric sets currently mirrored from this producer,
	// summed across updaters — the fan-in contribution of one downstream
	// daemon in a tiered topology. Unmirrored counts the matched sets that
	// have no mirror (no set memory left, bad metadata): a partial fleet.
	Sets       int `json:"sets"`
	Unmirrored int `json:"unmirrored,omitempty"`
	// Updates and DeltaUpdates count completed data pulls over this
	// producer's connection and how many of them were answered with a
	// delta; BytesPerSample is inbound wire bytes per completed pull, the
	// per-sample cost the delta protocol exists to shrink.
	Updates        int64   `json:"updates,omitempty"`
	DeltaUpdates   int64   `json:"delta_updates,omitempty"`
	BytesPerSample float64 `json:"bytes_per_sample,omitempty"`
}

// StoreHealth describes one storage policy for /healthz: a policy whose
// plugin hit a sticky error keeps collecting but silently drops every
// row, so it must degrade the health endpoint rather than hide.
type StoreHealth struct {
	Policy     string `json:"policy"`
	Plugin     string `json:"plugin"`
	Schema     string `json:"schema"`
	Rows       int64  `json:"rows"`
	Dropped    int64  `json:"dropped"`
	QueueDepth int    `json:"queue_depth"`
	Failed     bool   `json:"failed"`
	Error      string `json:"error,omitempty"`
}

// Gateway serves the query API. All fields are wired by the daemon before
// Handler is called; nil optional fields disable their endpoints.
type Gateway struct {
	// DaemonName labels responses and self-metrics.
	DaemonName string
	// Sets is the live set directory (required).
	Sets SetSource
	// Window, when non-nil, serves /api/v1/series from the recent-window
	// cache.
	Window *Window
	// Health, when non-nil, supplies producer health for /healthz.
	Health func() []ProducerHealth
	// Stores, when non-nil, supplies storage-policy health for /healthz.
	Stores func() []StoreHealth
	// Collect, when non-nil, contributes daemon self-metrics to /metrics.
	Collect func(*Expo)
	// Latency, when non-nil, serves per-hop sample-age histograms on
	// /api/v1/latency and as hop-latency quantiles on /metrics.
	Latency *obs.Pipeline
	// Journal, when non-nil, serves the daemon's event journal on
	// /api/v1/events.
	Journal *obs.Journal
	// Spans, when non-nil, serves the cross-tier span summaries — sample
	// age per (daemon, role, stage) over every traced hop below this tier —
	// on /api/v1/trace and as ldmsd_trace_hop_seconds on /metrics.
	Spans func() []obs.SpanLatency
	// Chains, when non-nil, serves each published set's current hop chain
	// on /api/v1/trace.
	Chains func() []obs.ChainSnapshot
	// TierRole, when non-nil, reports the daemon's position in a tiered
	// aggregation topology (leaf/mid/top) on /healthz and /metrics, so
	// topology consumers can render fan-in depth.
	TierRole func() string
	// Started stamps the gateway start time for uptime reporting.
	Started time.Time
	// Now supplies the gateway's clock (series window cut-off, uptime).
	// The owning daemon wires its scheduler clock so virtual-time runs
	// are deterministic; nil falls back to wall time.
	Now func() time.Time
	// PProf additionally mounts net/http/pprof under /debug/pprof/.
	PProf bool

	requests map[string]*atomic.Int64
	errors   atomic.Int64

	// Memstats cache for /metrics: runtime.ReadMemStats stops the world,
	// so scrapes within the TTL reuse the last reading instead of pausing
	// the daemon once per scraper. readMemStats is injectable for tests;
	// nil means runtime.ReadMemStats.
	readMemStats func(*runtime.MemStats)
	memMu        sync.Mutex
	memAt        time.Time
	memStats     runtime.MemStats
	memRoutines  int
}

// memStatsTTL bounds how often /metrics may stop the world for a fresh
// runtime.MemStats reading. Scrapes arriving faster than this — multiple
// Prometheus servers, dashboards polling sub-second — share one reading.
const memStatsTTL = time.Second

// memSnapshot returns the cached runtime reading, refreshing it when the
// TTL (on the gateway clock) has elapsed.
func (g *Gateway) memSnapshot() (runtime.MemStats, int) {
	now := g.now()
	g.memMu.Lock()
	defer g.memMu.Unlock()
	if g.memAt.IsZero() || now.Sub(g.memAt) >= memStatsTTL || now.Before(g.memAt) {
		if g.readMemStats != nil {
			g.readMemStats(&g.memStats)
		} else {
			runtime.ReadMemStats(&g.memStats)
		}
		g.memRoutines = runtime.NumGoroutine()
		g.memAt = now
	}
	return g.memStats, g.memRoutines
}

// now resolves the gateway clock, falling back to wall time when no
// daemon wired a scheduler clock in.
func (g *Gateway) now() time.Time {
	if g.Now != nil {
		return g.Now()
	}
	//ldms:wallclock standalone gateways without a daemon default to wall time
	return time.Now()
}

// Handler builds the gateway's HTTP routing table.
func (g *Gateway) Handler() http.Handler {
	g.requests = make(map[string]*atomic.Int64)
	mux := http.NewServeMux()
	mux.Handle("/api/v1/dir", g.count("/api/v1/dir", g.handleDir))
	mux.Handle("/api/v1/sets/", g.count("/api/v1/sets", g.handleSet))
	mux.Handle("/api/v1/metrics", g.count("/api/v1/metrics", g.handleMetrics))
	mux.Handle("/api/v1/series", g.count("/api/v1/series", g.handleSeries))
	mux.Handle("/api/v1/aggregate", g.count("/api/v1/aggregate", g.handleAggregate))
	mux.Handle("/api/v1/latency", g.count("/api/v1/latency", g.handleLatency))
	mux.Handle("/api/v1/events", g.count("/api/v1/events", g.handleEvents))
	mux.Handle("/api/v1/trace", g.count("/api/v1/trace", g.handleTrace))
	mux.Handle("/healthz", g.count("/healthz", g.handleHealthz))
	mux.Handle("/metrics", g.count("/metrics", g.handleExposition))
	if g.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// count wraps a handler with a per-endpoint request counter.
func (g *Gateway) count(key string, h http.HandlerFunc) http.Handler {
	c := &atomic.Int64{}
	g.requests[key] = c
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Add(1)
		h(w, r)
	})
}

// fail writes a JSON error response.
func (g *Gateway) fail(w http.ResponseWriter, code int, format string, args ...any) {
	g.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a 200 JSON response. json.Encoder marshals the whole
// reply before it writes a byte, so a reply that does not encode is a
// counted 500, never an empty 200.
func (g *Gateway) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	tw := &trackedWriter{w: w}
	if err := json.NewEncoder(tw).Encode(v); err != nil && !tw.wrote {
		g.fail(w, http.StatusInternalServerError, "encode reply: %v", err)
	}
}

// trackedWriter tells an encode error (nothing written) from a client that
// went away mid-reply.
type trackedWriter struct {
	w     io.Writer
	wrote bool
}

func (t *trackedWriter) Write(p []byte) (int, error) {
	t.wrote = true
	return t.w.Write(p)
}

// jsonValue renders a metric value with its natural JSON type.
func jsonValue(v metric.Value) any {
	switch v.Type {
	case metric.TypeF32, metric.TypeD64:
		return jsonFloat(v.F64())
	case metric.TypeS8, metric.TypeS16, metric.TypeS32, metric.TypeS64:
		return v.S64()
	default:
		return v.U64()
	}
}

// jsonFloat renders a float for a reply: JSON has no NaN or infinity, so
// those are null (docs/QUERY.md); every other value, -0 included, is the
// number itself.
func jsonFloat(f float64) any {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return f
}

// setInfo is one /api/v1/dir entry.
type setInfo struct {
	Instance   string    `json:"instance"`
	Schema     string    `json:"schema"`
	CompID     uint64    `json:"comp_id"`
	Card       int       `json:"card"`
	Consistent bool      `json:"consistent"`
	DGN        uint64    `json:"dgn"`
	Timestamp  time.Time `json:"timestamp"`
	MetaSize   int       `json:"meta_size"`
	DataSize   int       `json:"data_size"`
	Local      bool      `json:"local"`
}

// handleDir serves the set directory.
func (g *Gateway) handleDir(w http.ResponseWriter, r *http.Request) {
	names := g.Sets.Dir()
	infos := make([]setInfo, 0, len(names))
	for _, n := range names {
		set := g.Sets.Get(n)
		if set == nil {
			continue
		}
		infos = append(infos, setInfo{
			Instance:   set.Name(),
			Schema:     set.SchemaName(),
			CompID:     set.CompID(0),
			Card:       set.Card(),
			Consistent: set.Consistent(),
			DGN:        set.DGN(),
			Timestamp:  set.Timestamp(),
			MetaSize:   set.MetaSize(),
			DataSize:   set.DataSize(),
			Local:      set.Local(),
		})
	}
	g.writeJSON(w, map[string]any{"daemon": g.DaemonName, "sets": infos})
}

// handleSet serves one set snapshot: every metric read under a single lock
// acquisition so the response is never torn across an update pass.
func (g *Gateway) handleSet(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/api/v1/sets/")
	if name == "" {
		g.fail(w, http.StatusBadRequest, "set name required: /api/v1/sets/<instance>")
		return
	}
	set := g.Sets.Get(name)
	if set == nil {
		g.fail(w, http.StatusNotFound, "no set %q", name)
		return
	}
	vals := make([]metric.Value, set.Card())
	ts, dgn, consistent, n := set.ReadValues(vals)
	type metricOut struct {
		Name  string `json:"name"`
		Type  string `json:"type"`
		Value any    `json:"value"`
	}
	metrics := make([]metricOut, n)
	for i := 0; i < n; i++ {
		metrics[i] = metricOut{
			Name:  set.MetricName(i),
			Type:  set.MetricType(i).String(),
			Value: jsonValue(vals[i]),
		}
	}
	g.writeJSON(w, map[string]any{
		"instance":   set.Name(),
		"schema":     set.SchemaName(),
		"comp_id":    set.CompID(0),
		"timestamp":  ts,
		"dgn":        dgn,
		"consistent": consistent,
		"metrics":    metrics,
	})
}

// latestOut is one per-producer latest value.
type latestOut struct {
	Instance   string    `json:"instance"`
	Schema     string    `json:"schema"`
	CompID     uint64    `json:"comp_id"`
	Type       string    `json:"type"`
	Value      any       `json:"value"`
	Timestamp  time.Time `json:"timestamp"`
	Consistent bool      `json:"consistent"`
}

// handleMetrics serves the latest value of one metric across every set
// that carries it (live data, straight from the mirrored sets). Without
// ?metric= it lists the metric names available.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	metricName := r.URL.Query().Get("metric")
	comp, err := parseComp(r.URL.Query().Get("comp"))
	if err != nil {
		g.fail(w, http.StatusBadRequest, "bad comp: %v", err)
		return
	}
	if metricName == "" {
		seen := make(map[string]bool)
		for _, n := range g.Sets.Dir() {
			set := g.Sets.Get(n)
			if set == nil {
				continue
			}
			for i := 0; i < set.Card(); i++ {
				seen[set.MetricName(i)] = true
			}
		}
		names := make([]string, 0, len(seen))
		for n := range seen {
			names = append(names, n)
		}
		// Dir() is sorted but metric names are not; sort for determinism.
		sort.Strings(names)
		g.writeJSON(w, map[string]any{"metrics": names})
		return
	}
	var out []latestOut
	var vals []metric.Value
	for _, n := range g.Sets.Dir() {
		set := g.Sets.Get(n)
		if set == nil {
			continue
		}
		i, ok := set.MetricIndex(metricName)
		if !ok || (comp != 0 && set.CompID(0) != comp) {
			continue
		}
		if c := set.Card(); cap(vals) < c {
			vals = make([]metric.Value, c)
		}
		ts, _, consistent, _ := set.ReadValues(vals[:set.Card()])
		out = append(out, latestOut{
			Instance:   set.Name(),
			Schema:     set.SchemaName(),
			CompID:     set.CompID(0),
			Type:       set.MetricType(i).String(),
			Value:      jsonValue(vals[i]),
			Timestamp:  ts,
			Consistent: consistent,
		})
	}
	g.writeJSON(w, map[string]any{"metric": metricName, "values": out})
}

// handleSeries serves recent history of one metric from the in-memory
// window: no storage backend is touched. step= asks the server to
// downsample each series onto a step grid (agg= picks the per-bucket
// reduction, default avg) so dashboard payloads are O(buckets) rather
// than O(raw points).
func (g *Gateway) handleSeries(w http.ResponseWriter, r *http.Request) {
	if g.Window == nil {
		g.fail(w, http.StatusServiceUnavailable, "recent window disabled (start the gateway with a window)")
		return
	}
	q := r.URL.Query()
	metricName := q.Get("metric")
	if metricName == "" {
		g.fail(w, http.StatusBadRequest, "metric= is required")
		return
	}
	comp, err := parseComp(q.Get("comp"))
	if err != nil {
		g.fail(w, http.StatusBadRequest, "bad comp: %v", err)
		return
	}
	window := g.Window.Retention()
	if s := q.Get("window"); s != "" {
		window, err = time.ParseDuration(s)
		if err != nil {
			g.fail(w, http.StatusBadRequest, "bad window: %v", err)
			return
		}
	}
	var step time.Duration
	if s := q.Get("step"); s != "" {
		step, err = time.ParseDuration(s)
		if err != nil || step <= 0 {
			g.fail(w, http.StatusBadRequest, "bad step %q (want a positive duration)", s)
			return
		}
	}
	aggFn := q.Get("agg")
	if aggFn == "" {
		aggFn = "avg"
	}
	if aggFn != "last" && !ValidAggFunc(aggFn) {
		g.fail(w, http.StatusBadRequest, "bad agg %q (want sum, avg, min, max, count, quantile, last)", aggFn)
		return
	}
	qv, err := parseQuantile(q.Get("q"))
	if err != nil {
		g.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	series := g.Window.Query(metricName, comp, g.now().Add(-window))
	type pointOut struct {
		Time  time.Time `json:"time"`
		Value any       `json:"value"`
	}
	type seriesOut struct {
		Instance string     `json:"instance"`
		Schema   string     `json:"schema"`
		CompID   uint64     `json:"comp_id"`
		Type     string     `json:"type"`
		Points   []pointOut `json:"points"`
	}
	out := make([]seriesOut, len(series))
	for i, s := range series {
		if step > 0 {
			s = Downsample(s, step, aggFn, qv)
		}
		so := seriesOut{
			Instance: s.Instance,
			Schema:   s.Schema,
			CompID:   s.CompID,
			Type:     s.Type.String(),
			Points:   make([]pointOut, len(s.Points)),
		}
		for j, p := range s.Points {
			so.Points[j] = pointOut{Time: p.Time, Value: jsonValue(p.Value)}
		}
		out[i] = so
	}
	resp := map[string]any{
		"metric": metricName,
		"window": window.String(),
		"series": out,
	}
	if step > 0 {
		resp["step"] = step.String()
		resp["agg"] = aggFn
	}
	g.writeJSON(w, resp)
}

// handleAggregate folds one metric across every matching producer into
// a single series, reduced server-side (sum/avg/min/max/count/quantile
// per step bucket). The multi-producer dashboard view becomes one
// request with an O(buckets) response.
func (g *Gateway) handleAggregate(w http.ResponseWriter, r *http.Request) {
	if g.Window == nil {
		g.fail(w, http.StatusServiceUnavailable, "recent window disabled (start the gateway with a window)")
		return
	}
	q := r.URL.Query()
	metricName := q.Get("metric")
	if metricName == "" {
		g.fail(w, http.StatusBadRequest, "metric= is required")
		return
	}
	comp, err := parseComp(q.Get("comp"))
	if err != nil {
		g.fail(w, http.StatusBadRequest, "bad comp: %v", err)
		return
	}
	window := g.Window.Retention()
	if s := q.Get("window"); s != "" {
		window, err = time.ParseDuration(s)
		if err != nil {
			g.fail(w, http.StatusBadRequest, "bad window: %v", err)
			return
		}
	}
	var step time.Duration
	if s := q.Get("step"); s != "" {
		step, err = time.ParseDuration(s)
		if err != nil || step < 0 {
			g.fail(w, http.StatusBadRequest, "bad step %q", s)
			return
		}
	}
	fn := q.Get("func")
	if fn == "" {
		fn = "avg"
	}
	qv, err := parseQuantile(q.Get("q"))
	if err != nil {
		g.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := g.Window.Aggregate(metricName, comp, g.now().Add(-window), step, fn, qv)
	if err != nil {
		g.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	type pointOut struct {
		Time  time.Time `json:"time"`
		Value any       `json:"value"`
		Count int       `json:"count"`
	}
	points := make([]pointOut, len(res.Points))
	for i, p := range res.Points {
		points[i] = pointOut{Time: p.Time, Value: jsonFloat(p.Value), Count: p.Count}
	}
	resp := map[string]any{
		"metric":       res.Metric,
		"func":         res.Func,
		"window":       window.String(),
		"series_count": res.SeriesCount,
		"points":       points,
	}
	if step > 0 {
		resp["step"] = step.String()
	}
	if fn == "quantile" {
		resp["q"] = qv
	}
	g.writeJSON(w, resp)
}

// handleLatency serves the per-hop sample-age histograms: for each hop of
// the pipeline (pull, window, store), the count and conservative p50/p95/
// p99/max in seconds. Ages measure sample transaction timestamp against
// the daemon clock at the hop, so aggregate end-to-end delay — the figure
// the paper's overhead analysis cares about — is read directly.
func (g *Gateway) handleLatency(w http.ResponseWriter, r *http.Request) {
	if g.Latency == nil {
		g.fail(w, http.StatusServiceUnavailable, "latency tracing disabled")
		return
	}
	type hopOut struct {
		Hop        string  `json:"hop"`
		Count      uint64  `json:"count"`
		P50Seconds float64 `json:"p50_seconds"`
		P95Seconds float64 `json:"p95_seconds"`
		P99Seconds float64 `json:"p99_seconds"`
		MaxSeconds float64 `json:"max_seconds"`
	}
	hops := g.Latency.Snapshot()
	out := make([]hopOut, len(hops))
	for i, h := range hops {
		out[i] = hopOut{
			Hop:        h.Hop,
			Count:      h.Count,
			P50Seconds: h.P50.Seconds(),
			P95Seconds: h.P95.Seconds(),
			P99Seconds: h.P99.Seconds(),
			MaxSeconds: h.Max.Seconds(),
		}
	}
	g.writeJSON(w, map[string]any{"daemon": g.DaemonName, "hops": out})
}

// handleEvents serves the daemon's event journal, newest last. Query
// parameters: n= caps the count (default 100), severity= filters to that
// level and above, component= and subject= filter exactly.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	if g.Journal == nil {
		g.fail(w, http.StatusServiceUnavailable, "event journal disabled")
		return
	}
	q := r.URL.Query()
	n := 100
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			g.fail(w, http.StatusBadRequest, "bad n %q", s)
			return
		}
		n = v
	}
	minSev := obs.SevInfo
	if s := q.Get("severity"); s != "" {
		v, err := obs.ParseSeverity(s)
		if err != nil {
			g.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		minSev = v
	}
	events := g.Journal.Query(n, minSev, q.Get("component"), q.Get("subject"))
	if events == nil {
		events = []obs.Event{}
	}
	g.writeJSON(w, map[string]any{
		"daemon":   g.DaemonName,
		"total":    g.Journal.Total(),
		"capacity": g.Journal.Cap(),
		"events":   events,
	})
}

// handleTrace serves cross-tier sample tracing: the span summaries (sample
// age per daemon/role/stage over every traced hop below this tier) and
// each published set's current hop chain, origin hop first. Chain stamps
// are scheduler-clock unix nanoseconds; 0 means the stage was not reached.
func (g *Gateway) handleTrace(w http.ResponseWriter, r *http.Request) {
	if g.Spans == nil && g.Chains == nil {
		g.fail(w, http.StatusServiceUnavailable, "sample tracing disabled")
		return
	}
	type spanOut struct {
		Daemon     string  `json:"daemon"`
		Role       string  `json:"role"`
		Stage      string  `json:"stage"`
		Count      uint64  `json:"count"`
		P50Seconds float64 `json:"p50_seconds"`
		P95Seconds float64 `json:"p95_seconds"`
		P99Seconds float64 `json:"p99_seconds"`
		MaxSeconds float64 `json:"max_seconds"`
	}
	type hopOut struct {
		Daemon string `json:"daemon"`
		Role   string `json:"role"`
		Pull   int64  `json:"pull,omitempty"`
		Reduce int64  `json:"reduce,omitempty"`
		Window int64  `json:"window,omitempty"`
		Store  int64  `json:"store,omitempty"`
	}
	type chainOut struct {
		Set   string   `json:"set"`
		Depth int      `json:"depth"`
		Hops  []hopOut `json:"hops"`
	}
	spans := []spanOut{}
	if g.Spans != nil {
		for _, s := range g.Spans() {
			spans = append(spans, spanOut{
				Daemon:     s.Daemon,
				Role:       s.Role.String(),
				Stage:      s.Stage.String(),
				Count:      s.Count,
				P50Seconds: s.P50.Seconds(),
				P95Seconds: s.P95.Seconds(),
				P99Seconds: s.P99.Seconds(),
				MaxSeconds: s.Max.Seconds(),
			})
		}
	}
	chains := []chainOut{}
	if g.Chains != nil {
		for _, c := range g.Chains() {
			co := chainOut{Set: c.Set, Depth: len(c.Hops), Hops: make([]hopOut, len(c.Hops))}
			for i, h := range c.Hops {
				co.Hops[i] = hopOut{
					Daemon: h.Daemon,
					Role:   h.Role.String(),
					Pull:   h.Pull,
					Reduce: h.Reduce,
					Window: h.Window,
					Store:  h.Store,
				}
			}
			chains = append(chains, co)
		}
	}
	g.writeJSON(w, map[string]any{"daemon": g.DaemonName, "spans": spans, "chains": chains})
}

// handleHealthz reports daemon liveness plus per-producer staleness and
// per-storage-policy failures; a stale producer, a producer with matched
// sets it cannot mirror, or a failed store policy degrades the response to
// 503 so orchestration probes and external failover watchdogs (paper §IV-B)
// can react.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	var producers []ProducerHealth
	if g.Health != nil {
		producers = g.Health()
	}
	var stale, partial []string
	for _, p := range producers {
		if p.Stale {
			stale = append(stale, p.Name)
		}
		if p.Unmirrored > 0 {
			partial = append(partial, p.Name)
		}
	}
	var stores []StoreHealth
	if g.Stores != nil {
		stores = g.Stores()
	}
	var failedStores []string
	for _, s := range stores {
		if s.Failed {
			failedStores = append(failedStores, s.Policy)
		}
	}
	code := http.StatusOK
	if len(stale) > 0 || len(partial) > 0 || len(failedStores) > 0 {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	resp := map[string]any{
		"status":    status,
		"daemon":    g.DaemonName,
		"producers": producers,
	}
	if g.TierRole != nil {
		resp["tier"] = g.TierRole()
	}
	if len(stores) > 0 {
		resp["stores"] = stores
	}
	if !g.Started.IsZero() {
		resp["uptime_seconds"] = g.now().Sub(g.Started).Seconds()
	}
	if len(stale) > 0 {
		resp["stale"] = stale
	}
	if len(partial) > 0 {
		resp["unmirrored"] = partial
	}
	if len(failedStores) > 0 {
		resp["failed_stores"] = failedStores
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// expoPool recycles exposition builders across scrapes: the grown byte
// buffer and family map survive between requests, so a steady-state
// scrape allocates nothing inside Expo itself (asserted in
// bench_test.go).
var expoPool = sync.Pool{New: func() any { return NewExpo() }}

// handleExposition serves the Prometheus-style self-metrics text page.
func (g *Gateway) handleExposition(w http.ResponseWriter, r *http.Request) {
	e := expoPool.Get().(*Expo)
	defer expoPool.Put(e)
	e.Reset()
	self := []Label{{"daemon", g.DaemonName}}
	for key, c := range g.requests {
		e.Counter("ldmsd_http_requests_total", "Gateway requests served, by endpoint.",
			append([]Label{{"endpoint", key}}, self...), float64(c.Load()))
	}
	e.Counter("ldmsd_http_errors_total", "Gateway error responses.", self, float64(g.errors.Load()))
	if g.TierRole != nil {
		e.Gauge("ldmsd_tier_info", "Daemon tier role in the aggregation topology (constant 1; role in the label).",
			append([]Label{{"tier", g.TierRole()}}, self...), 1)
	}
	if g.Window != nil {
		ws := g.Window.Stats()
		e.Gauge("ldmsd_window_sets", "Set instances tracked by the recent window.", self, float64(ws.SeriesSets))
		e.Gauge("ldmsd_window_series", "Metric series tracked by the recent window.", self, float64(ws.Series))
		e.Gauge("ldmsd_window_points", "Samples currently retained across all window series.", self, float64(ws.Points))
		e.Gauge("ldmsd_window_bytes", "Window storage footprint: the capacity of every set's stamps, change log and whole rows.", self, float64(ws.Bytes))
		e.Gauge("ldmsd_window_shards", "Lock stripes over the window set index.", self, float64(g.Window.Shards()))
		e.Counter("ldmsd_window_observed_total", "Samples recorded into the recent window.", self, float64(ws.Observed))
		e.Counter("ldmsd_window_skipped_total", "Samples the window dropped (inconsistent or stale DGN).", self, float64(ws.Skipped))
		e.Counter("ldmsd_window_queries_total", "Series/latest queries answered from the window.", self, float64(ws.Queries))
		e.Counter("ldmsd_window_aggregates_total", "Server-side aggregate queries answered from the window.", self, float64(ws.Aggregates))
	}
	if g.Latency != nil {
		for _, h := range g.Latency.Snapshot() {
			hop := []Label{{"hop", h.Hop}, {"daemon", g.DaemonName}}
			e.Counter("ldmsd_hop_latency_count", "Samples recorded at each pipeline hop.", hop, float64(h.Count))
			for _, qv := range []struct {
				q string
				d time.Duration
			}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
				e.Gauge("ldmsd_hop_latency_seconds", "Sample age quantiles at each pipeline hop (log2-bucket upper bounds).",
					append([]Label{{"quantile", qv.q}}, hop...), qv.d.Seconds())
			}
		}
		// Cumulative histogram rendering of the same hop histograms, so
		// PromQL histogram_quantile and cross-daemon aggregation work on the
		// raw log2 buckets (the quantile gauges above cannot be aggregated).
		for _, nh := range g.Latency.ByHop() {
			s := nh.Hist.Snapshot()
			hop := []Label{{"hop", nh.Hop}, {"daemon", g.DaemonName}}
			e.emitHistBuckets("ldmsd_hop_latency_seconds", hop, s)
		}
	}
	if g.Spans != nil {
		for _, s := range g.Spans() {
			span := []Label{
				{"hop_daemon", s.Daemon}, {"role", s.Role.String()},
				{"stage", s.Stage.String()}, {"daemon", g.DaemonName},
			}
			e.Counter("ldmsd_trace_hop_count", "Traced samples observed per hop daemon, role, and stage.",
				span, float64(s.Count))
			for _, qv := range []struct {
				q string
				d time.Duration
			}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
				e.Gauge("ldmsd_trace_hop_seconds", "Cross-tier sample age quantiles per hop daemon, role, and stage (log2-bucket upper bounds).",
					append([]Label{{"quantile", qv.q}}, span...), qv.d.Seconds())
			}
		}
	}
	if g.Journal != nil {
		info, warn, errs := g.Journal.CountBySeverity()
		for _, sv := range []struct {
			sev string
			n   int64
		}{{"info", info}, {"warn", warn}, {"error", errs}} {
			e.Counter("ldmsd_events_total", "Journal events recorded, by severity.",
				append([]Label{{"severity", sv.sev}}, self...), float64(sv.n))
		}
	}
	ms, goroutines := g.memSnapshot()
	e.Gauge("ldmsd_goroutines", "Goroutines in the daemon process.", self, float64(goroutines))
	e.Gauge("ldmsd_heap_alloc_bytes", "Live heap bytes.", self, float64(ms.HeapAlloc))
	if g.Collect != nil {
		g.Collect(e)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteTo(w)
}

// emitHistBuckets renders one log2 age histogram as Prometheus cumulative
// counters — <name>_bucket{le=...}, <name>_sum, <name>_count — so PromQL
// histogram_quantile and cross-daemon aggregation work on the raw buckets.
// Only buckets up to the highest occupied one are emitted (plus +Inf), so
// an empty histogram costs three lines, not 65.
func (e *Expo) emitHistBuckets(name string, labels []Label, s obs.HistSnapshot) {
	bucket := name + "_bucket"
	e.Family(bucket, "counter", "Cumulative sample-age distribution (log2 bucket upper bounds in seconds).")
	top := -1
	for i := 0; i < obs.NumBuckets; i++ {
		if s.Buckets[i] != 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		le := strconv.FormatFloat(obs.BucketUpper(i).Seconds(), 'g', -1, 64)
		e.Sample(bucket, append(append([]Label{}, labels...), Label{"le", le}), float64(cum))
	}
	e.Sample(bucket, append(append([]Label{}, labels...), Label{"le", "+Inf"}), float64(s.Count))
	e.Counter(name+"_sum", "Total observed sample age in seconds.", labels, s.Sum.Seconds())
	e.Counter(name+"_count", "Total observations in the cumulative buckets.", labels, float64(s.Count))
}

// parseComp parses a component-id query parameter ("" = all).
func parseComp(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// parseQuantile parses a q= query parameter ("" = 0.95).
func parseQuantile(s string) (float64, error) {
	if s == "" {
		return 0.95, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 {
		return 0, fmt.Errorf("bad q %q (want a value in [0, 1])", s)
	}
	return v, nil
}
