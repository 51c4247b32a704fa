package ldmsd

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
	"goldms/internal/query"
	"goldms/internal/sched"
)

// The query & observability gateway: an HTTP server running inside an
// aggregator ldmsd that answers live-data queries from the mirrored sets,
// recent-history queries from an in-memory window, and exposes the
// daemon's own operational counters. It is the "application access to
// in-transit data" path of the paper (§III): consumers read the
// aggregator's mirrors directly instead of round-tripping through the
// storage backend.

// GatewayConfig configures the daemon's HTTP gateway.
type GatewayConfig struct {
	// Addr is the TCP listen address (e.g. ":8080", "127.0.0.1:0").
	Addr string
	// Window is the recent-window retention. 0 means query.DefaultRetention;
	// negative disables the window (series queries answer 503).
	Window time.Duration
	// Points caps points kept per series (0 = query.DefaultPoints).
	Points int
	// Shards is the window's set-index lock-stripe count, rounded up to
	// a power of two (0 = query.DefaultShards).
	Shards int
	// PProf additionally mounts net/http/pprof under /debug/pprof/.
	PProf bool
}

// gatewayState is one running HTTP gateway.
type gatewayState struct {
	srv *http.Server
	ln  net.Listener
}

// A gateway client must send its request header within
// gatewayReadHeaderTimeout of the connection starting to read one, and a
// keep-alive connection may sit idle between requests for
// gatewayIdleTimeout. Dashboards and probes poll every few hundred
// milliseconds at most, so neither cuts a live client; both bound what a
// client that connects and goes quiet can hold.
const (
	gatewayReadHeaderTimeout = time.Second
	gatewayIdleTimeout       = time.Minute
)

// staleErrorStreak is how many consecutive failed pulls mark a producer
// stale on /healthz.
const staleErrorStreak = 3

// staleIntervalFactor: a producer with no clean pull for this many of its
// fastest updater's intervals is stale.
const staleIntervalFactor = 4

// ServeHTTP starts the query gateway on cfg.Addr and returns the bound
// address. At most one gateway runs per daemon; Stop shuts it down.
func (d *Daemon) ServeHTTP(cfg GatewayConfig) (string, error) {
	var w *query.Window
	if cfg.Window >= 0 {
		retention := cfg.Window
		if retention == 0 {
			retention = query.DefaultRetention
		}
		w = query.NewWindowOpts(query.WindowOptions{
			Points:    cfg.Points,
			Retention: retention,
			Shards:    cfg.Shards,
		})
	}
	if w != nil {
		// Window-insert hop of the latency pipeline, on the scheduler clock
		// so virtual-time runs record deterministic ages.
		w.SetLatencyTap(&d.lat.Window, d.sch.Now)
		// Retention pruning on the same clock: a virtual-time run must not
		// discard simulated samples against the wall clock.
		w.SetClock(d.sch.Now)
	}
	gw := &query.Gateway{
		DaemonName: d.name,
		Sets:       d.reg,
		Window:     w,
		Health:     d.producerHealth,
		Stores:     d.storeHealth,
		Collect:    d.collectSelfMetrics,
		Latency:    &d.lat,
		Journal:    d.journal,
		Spans:      d.Spans,
		Chains:     d.Chains,
		TierRole:   d.TierRole,
		Started:    d.sch.Now(),
		Now:        d.sch.Now,
		PProf:      cfg.PProf,
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("ldmsd %s: gateway: %w", d.name, err)
	}
	srv := &http.Server{
		Handler:           gw.Handler(),
		ReadHeaderTimeout: gatewayReadHeaderTimeout,
		IdleTimeout:       gatewayIdleTimeout,
	}

	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("ldmsd %s: daemon stopped", d.name)
	}
	if d.gw != nil {
		d.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("ldmsd %s: gateway already running", d.name)
	}
	d.gw = &gatewayState{srv: srv, ln: ln}
	d.mu.Unlock()

	// Publishing the window makes the updaters' store path start feeding it;
	// a single atomic load keeps the no-gateway hot path untouched.
	d.window.Store(w)
	go srv.Serve(ln)
	d.journal.Appendf(obs.SevInfo, obs.CompGateway, "", 0,
		"query gateway listening on %s", ln.Addr())
	return ln.Addr().String(), nil
}

// Window returns the gateway's recent-window cache, or nil when no gateway
// (or a window-less one) is running.
func (d *Daemon) Window() *query.Window { return d.window.Load() }

// closeGateway shuts the HTTP gateway down, if one is running.
func (d *Daemon) closeGateway(gw *gatewayState) {
	if gw == nil {
		return
	}
	d.window.Store(nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	gw.srv.Shutdown(ctx)
	cancel()
}

// producerHealth assembles the /healthz payload: connection state and
// lifecycle counters from each producer, pull recency and error streaks
// from the updaters pulling it. The paper's failover model has no internal
// failure detector (§IV-B) — this is the hook an external watchdog polls
// before activating a standby.
func (d *Daemon) producerHealth() []query.ProducerHealth {
	d.mu.Lock()
	prdcrs := mapValues(d.prdcrs)
	updtrs := mapValues(d.updtrs)
	d.mu.Unlock()

	// Fold per-updater pull health into per-producer records: most recent
	// success across updaters, worst error streak, fastest pull interval.
	type pull struct {
		last       time.Time
		errs       int64
		interval   time.Duration
		unmirrored int
	}
	pulls := make(map[string]pull)
	for _, u := range updtrs {
		for _, ph := range u.PullHealth() {
			pr, seen := pulls[ph.Producer]
			if ph.LastSuccess.After(pr.last) {
				pr.last = ph.LastSuccess
			}
			if ph.ConsecErrors > pr.errs {
				pr.errs = ph.ConsecErrors
			}
			if !seen || u.Interval() < pr.interval {
				pr.interval = u.Interval()
			}
			pr.unmirrored += ph.Unmirrored
			pulls[ph.Producer] = pr
		}
	}

	now := d.sch.Now()
	out := make([]query.ProducerHealth, 0, len(prdcrs))
	for _, p := range prdcrs {
		c := p.Counters()
		ph := query.ProducerHealth{
			Name:           p.Name(),
			Host:           p.Host(),
			State:          p.State().String(),
			Standby:        p.Standby(),
			Active:         p.Active(),
			Connects:       c.Connects,
			Disconnects:    c.Disconnects,
			Updates:        c.Transport.Updates,
			DeltaUpdates:   c.Transport.DeltaUpdates,
			BytesPerSample: c.Transport.BytesPerSample(),
		}
		if pr, ok := pulls[p.Name()]; ok && ph.Active {
			ph.LastUpdate = pr.last
			ph.ConsecutiveErrors = pr.errs
			ph.Unmirrored = pr.unmirrored
			if pr.errs >= staleErrorStreak {
				ph.Stale = true
			} else if !pr.last.IsZero() && now.Sub(pr.last) > staleIntervalFactor*pr.interval {
				ph.Stale = true
			}
		}
		for _, u := range updtrs {
			ph.Sets += u.MirroredSets(p.Name())
		}
		out = append(out, ph)
	}
	return out
}

// storeHealth assembles the storage-policy section of /healthz: a policy
// with a sticky plugin error silently drops every subsequent row, so it
// degrades the endpoint instead of hiding behind a healthy pull path.
func (d *Daemon) storeHealth() []query.StoreHealth {
	d.mu.Lock()
	strgps := mapValues(d.strgps)
	d.mu.Unlock()
	out := make([]query.StoreHealth, 0, len(strgps))
	for _, sp := range strgps {
		c := sp.Counters()
		sh := query.StoreHealth{
			Policy:     sp.Name(),
			Plugin:     sp.Plugin(),
			Schema:     sp.Schema(),
			Rows:       c.Rows,
			Dropped:    c.Dropped,
			QueueDepth: c.QueueDepth,
			Failed:     c.Failed,
		}
		if err := sp.Err(); err != nil {
			sh.Error = err.Error()
		}
		out = append(out, sh)
	}
	return out
}

// collectSelfMetrics contributes the daemon's operational counters to the
// gateway's /metrics exposition.
func (d *Daemon) collectSelfMetrics(e *query.Expo) {
	d.mu.Lock()
	samplers := mapValues(d.samplers)
	prdcrs := mapValues(d.prdcrs)
	updtrs := mapValues(d.updtrs)
	strgps := mapValues(d.strgps)
	d.mu.Unlock()
	dl := query.Label{K: "daemon", V: d.name}

	for _, u := range updtrs {
		l := []query.Label{dl, {K: "updater", V: u.name}}
		e.Counter("ldmsd_updater_passes_total", "Completed update passes.", l, float64(u.passes.Load()))
		e.Gauge("ldmsd_updater_last_pass_seconds", "Duration of the last completed update pass.", l, float64(u.lastPassNanos.Load())/1e9)
		e.Gauge("ldmsd_updater_inflight_pulls", "Producer pulls currently in flight.", l, float64(u.inflight.Load()))
		e.Counter("ldmsd_updater_skipped_busy_total", "Scheduled passes skipped because the previous pass was still running.", l, float64(u.skippedBusy.Load()))
		e.Counter("ldmsd_updater_lookups_total", "Set lookups performed.", l, float64(u.lookups.Load()))
		e.Counter("ldmsd_updater_errors_total", "Transport or decode errors on the pull path.", l, float64(u.errors.Load()))
		e.Counter("ldmsd_updater_mirror_nomem_total", "Looked-up sets left unmirrored because the set memory budget (-m) refused their chunks.", l, float64(u.mirrorNomem.Load()))
		e.Counter("ldmsd_updater_mirror_badmeta_total", "Looked-up sets left unmirrored because their metadata describes no valid layout.", l, float64(u.mirrorBadmeta.Load()))
		for _, rc := range []struct {
			result string
			v      int64
		}{
			{"fresh", u.fresh.Load()},
			{"stale", u.stale.Load()},
			{"inconsistent", u.inconsistent.Load()},
		} {
			e.Counter("ldmsd_updater_updates_total", "Completed data pulls by outcome.",
				append([]query.Label{{K: "result", V: rc.result}}, l...), float64(rc.v))
		}
		if ops, _, rst, enabled := u.ReduceStatus(); enabled {
			rl := append([]query.Label{{K: "ops", V: ops}}, l...)
			e.Gauge("ldmsd_reduce_groups", "Schema groups being folded by in-flight reduction.", rl, float64(rst.Groups))
			e.Gauge("ldmsd_reduce_members", "Mirrored sets feeding in-flight reduction.", rl, float64(rst.Members))
			e.Gauge("ldmsd_reduce_sets", "Synthetic reduced sets produced by in-flight reduction.", rl, float64(rst.Outputs))
			e.Counter("ldmsd_reduce_folds_total", "Reduction fold passes executed.", rl, float64(rst.Folds))
			e.Counter("ldmsd_reduce_published_total", "Reduced-set publications (fold passes x output sets).", rl, float64(rst.Published))
		}
	}

	for _, p := range prdcrs {
		c := p.Counters()
		l := []query.Label{dl, {K: "producer", V: p.Name()}}
		e.Counter("ldmsd_producer_connects_total", "Successful producer connections.", l, float64(c.Connects))
		e.Counter("ldmsd_producer_disconnects_total", "Producer connection teardowns.", l, float64(c.Disconnects))
		e.Counter("ldmsd_producer_connect_failures_total", "Failed producer connection attempts.", l, float64(c.ConnectFails))
		for _, dir := range []struct {
			name  string
			bytes int64
			msgs  int64
		}{
			{"in", c.Transport.BytesIn, c.Transport.MsgsIn},
			{"out", c.Transport.BytesOut, c.Transport.MsgsOut},
		} {
			dl := append([]query.Label{{K: "direction", V: dir.name}}, l...)
			e.Counter("ldmsd_transport_bytes_total", "Transport bytes by direction, per producer.", dl, float64(dir.bytes))
			e.Counter("ldmsd_transport_msgs_total", "Transport messages by direction, per producer.", dl, float64(dir.msgs))
		}
		e.Counter("ldmsd_transport_batches_total", "Pipelined update batches issued.", l, float64(c.Transport.Batches))
		e.Counter("ldmsd_transport_batched_ops_total", "Update ops carried in pipelined batches.", l, float64(c.Transport.BatchedOps))
		e.Counter("ldmsd_transport_updates_total", "Completed data pulls over this producer's connection.", l, float64(c.Transport.Updates))
		e.Counter("ldmsd_transport_delta_updates_total", "Data pulls answered with a delta instead of a full chunk.", l, float64(c.Transport.DeltaUpdates))
		e.Gauge("ldmsd_transport_bytes_per_sample", "Inbound transport bytes per completed pull (wire cost of one sample).", l, c.Transport.BytesPerSample())
	}

	for _, sp := range samplers {
		l := []query.Label{dl, {K: "sampler", V: sp.name}}
		e.Counter("ldmsd_sampler_samples_total", "Sampling plugin invocations.", l, float64(sp.samples.Load()))
		e.Counter("ldmsd_sampler_errors_total", "Sampling plugin errors.", l, float64(sp.errors.Load()))
		e.Counter("ldmsd_sampler_seconds_total", "Cumulative time inside sampling plugins.", l, float64(sp.sampleNanos.Load())/1e9)
	}

	for _, sp := range strgps {
		c := sp.Counters()
		l := []query.Label{dl, {K: "policy", V: sp.Name()}, {K: "plugin", V: sp.Plugin()}}
		e.Counter("ldmsd_store_rows_total", "Samples written to storage.", l, float64(c.Rows))
		e.Counter("ldmsd_store_enqueued_total", "Samples pushed onto the storage queue.", l, float64(c.Enqueued))
		e.Counter("ldmsd_store_dropped_total", "Samples lost to queue overflow or a failed policy.", l, float64(c.Dropped))
		e.Counter("ldmsd_store_batches_total", "Batched store-plugin calls issued by the drain worker.", l, float64(c.Batches))
		e.Gauge("ldmsd_store_queue_depth", "Rows waiting in the storage queue.", l, float64(c.QueueDepth))
		e.Gauge("ldmsd_store_queue_peak", "Most rows the storage queue has held at once.", l, float64(c.QueuePeak))
		e.Gauge("ldmsd_store_queue_cap", "Storage queue capacity.", l, float64(c.QueueCap))
		e.Counter("ldmsd_store_seconds_total", "Cumulative time inside store writes.", l, float64(c.StoreNanos)/1e9)
		e.Counter("ldmsd_store_flushes_total", "Store flushes.", l, float64(c.Flushes))
		e.Counter("ldmsd_store_flush_seconds_total", "Cumulative time inside store flushes.", l, float64(c.FlushNanos)/1e9)
		failed := 0.0
		if c.Failed {
			failed = 1
		}
		e.Gauge("ldmsd_store_failed", "1 when a sticky error has disabled the policy.", l, failed)
	}

	for _, pl := range []struct {
		name string
		p    *sched.Pool
	}{
		{"connect", d.conn},
		{"update", d.upd},
		{"store", d.str},
	} {
		if pl.p == nil {
			continue
		}
		l := []query.Label{dl, {K: "pool", V: pl.name}}
		e.Gauge("ldmsd_pool_workers", "Worker goroutines in the pool.", l, float64(pl.p.Workers()))
		e.Gauge("ldmsd_pool_queue_depth", "Jobs queued but not yet started.", l, float64(pl.p.QueueDepth()))
		e.Gauge("ldmsd_pool_queue_cap", "Submission queue capacity.", l, float64(pl.p.QueueCap()))
	}

	ss := d.srv.Stats()
	e.Counter("ldmsd_server_dirs_total", "Dir requests served to pulling peers.", []query.Label{dl}, float64(ss.Dirs))
	e.Counter("ldmsd_server_lookups_total", "Lookup requests served to pulling peers.", []query.Label{dl}, float64(ss.Lookups))
	e.Counter("ldmsd_server_updates_total", "Update (data pull) requests served to pulling peers.", []query.Label{dl}, float64(ss.Updates))
	e.Counter("ldmsd_server_bytes_out_total", "Payload bytes served to pulling peers.", []query.Label{dl}, float64(ss.BytesOut))
	e.Counter("ldmsd_server_deflate_offers_total", "Response frames offered to deflate (every one >= 512 B, but a set's update responses back off while deflate keeps losing on them, and its first one is not offered where its layout was offered on the connection and never won).", []query.Label{dl}, float64(ss.DeflateOffers))
	e.Counter("ldmsd_server_deflate_wins_total", "Offers that shrank the frame, which then went out compressed.", []query.Label{dl}, float64(ss.DeflateWins))
	e.Counter("ldmsd_server_host_cpu_seconds_total", "Wall time spent serving dir, lookup and update requests, deflate included (the paper's sampler-host overhead).", []query.Label{dl}, ss.HostCPU.Seconds())

	e.Gauge("ldmsd_interned_schemas", "Distinct set layouts held in the process: every mirror of a layout shares its one schema.", []query.Label{dl}, float64(metric.InternedSchemas()))

	as := d.arena.Stats()
	for _, m := range []struct {
		state string
		v     int
	}{{"used", as.InUse}, {"peak", as.Peak}, {"budget", as.Capacity}} {
		e.Gauge("ldmsd_set_memory_bytes", "Metric-set arena memory.",
			[]query.Label{dl, {K: "state", V: m.state}}, float64(m.v))
	}
}
