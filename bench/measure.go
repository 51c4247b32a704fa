package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// result is what one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Disturbed []string           `json:"disturbed,omitempty"`
	Stalls    int                `json:"host_stalls"` // host stalls seen from warm-up to the end of the window
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// problem records wrong output: a torn, altered, duplicated or dropped row,
// a wrong reply, counters that do not add up. No timing explains one, so the
// run is incorrect at once and is never measured again.
func (res *result) problem(format string, args ...any) {
	res.Correct = false
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
}

// disturbed records that the run was not the one the workload describes:
// samples skipped, a producer connection broken and made again, probes or
// requests that ran late. Every output checked was still right. A frozen
// vCPU does all of these on this box and so would a daemon that is too
// slow, so such a run is measured again (see measure) and what it lost is
// reported, but it is not incorrect.
func (res *result) disturbed(format string, args ...any) {
	res.Disturbed = append(res.Disturbed, fmt.Sprintf(format, args...))
}

// probeChains lists, per top-level producer, the instances the prober
// watches in the order the top's updater pulls them (directory order).
func (r *rig) probeChains() [][]string {
	per := make([][]string, numGens)
	for _, s := range r.gen.sets {
		if s.probe {
			per[s.gen] = append(per[s.gen], fmt.Sprintf("gen%d/%s", s.gen, s.name))
		}
	}
	if !r.w.tiered {
		return per
	}
	// One producer (mid) at the top: one chain, ending with the real leaf's
	// sets, which sort after the generators'.
	var chain []string
	for _, c := range per {
		chain = append(chain, c...)
	}
	return [][]string{append(chain, "leaf/loadavg", "leaf/meminfo")}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lossTolerance is the share of on-time samples (those no recorded host
// stall overlaps) that may be skipped before a run counts as disturbed.
// Below it the loss is only reported, as loss_ratio.
const lossTolerance = 0.01

// attemptCost is what must be left of a run's allowance (see pace.go) for
// the workload to be measured again: set-ups, warm-up, a window and the tail,
// with a little to spare.
const attemptCost = 50 * time.Second

// measure is runWorkload, again while the run comes out disturbed. This box
// has calm minutes and busy ones (see hostSteal). In the busy ones vCPUs
// freeze for 20-150 ms at a time, against 20-80 ms of slack between a sample
// and its pull, a freeze beyond the updater's 100 ms pull timeout breaks a
// producer connection for a second, and CPU per sample and the ages read
// 20-100 % high, through no fault of the daemons. runWorkload therefore
// waits for the host to calm down before its window, and an attempt that is
// disturbed all the same is thrown away and the workload measured again;
// wrong output (result.problem) is never retried. Busy minutes can outlast
// the run's allowance, so the attempt that uses it up stands as it is: its
// outputs were checked and were right, and what it lost shows in loss_ratio,
// ldmsd.update_errors, ldmsd.lookups_excess and query_fail_ratio.
// bench.attempts says which attempt the result is.
func measure(ctx context.Context, w workload, o *options) (*result, error) {
	began := time.Now()
	defer func() { settle(o.work, time.Since(began)) }()
	oo := *o
	oo.deadline = began.Add(allowance(o.work))
	rctx, stop := context.WithDeadline(ctx, began.Add(runBudget+10*time.Second))
	defer stop()
	for attempt := 1; ; attempt++ {
		res, err := runWorkload(rctx, w, &oo)
		last := time.Until(oo.deadline) < attemptCost
		switch {
		case err != nil && (last || ctx.Err() != nil):
			return nil, err
		case err != nil:
			logf("%s: attempt %d: %v; measuring again", w.name, attempt, err)
			continue
		}
		res.PerLayer["bench.attempts"] = float64(attempt)
		for _, p := range res.Disturbed {
			logf("%s: attempt %d disturbed: %s", w.name, attempt, p)
		}
		if len(res.Problems) > 0 || len(res.Disturbed) == 0 || last {
			return res, nil
		}
		logf("%s: attempt %d saw %d host stalls; measuring again", w.name, attempt, res.Stalls)
	}
}

// runWorkload runs one workload end to end: set-ups, warm-up, the measured
// window, teardown, the correctness gate, and — when tracing — the traced
// replay.
func runWorkload(ctx context.Context, w workload, o *options) (res *result, err error) {
	w = w.scaled(o.scale)
	res = &result{Workload: w.name, Seed: o.seed, Correct: true,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		return nil, err
	}
	// A run that fails leaves its directory (the daemons' logs, the CSVs)
	// for the post-mortem, in place of the last one that did; a run that was
	// interrupted or timed out leaves nothing.
	defer func() {
		kept := filepath.Join(o.work, "failed-run")
		if ctx.Err() != nil || err == nil && len(res.Problems)+len(res.Disturbed) == 0 ||
			os.RemoveAll(kept) != nil || os.Rename(runDir, kept) != nil {
			os.RemoveAll(runDir)
			return
		}
		logf("%s: run directory kept at %s", w.name, kept)
	}()

	gen, err := newGenerator(w, o.seed, true)
	if err != nil {
		return nil, err
	}
	defer gen.close()

	// Set up several times and keep the last rig. Synchronous updaters fire
	// on the sample grid, so a set-up ends on a pass, 100 ms after the one
	// it just missed: from any one phase of the grid set-up time is a step
	// function of the work done, and it flipped between two modes 100 ms
	// apart from run to run. The set-ups therefore start at evenly spaced
	// phases and setup_s is their mean, which moves smoothly with the work.
	var r *rig
	var setups []float64
	for i := 0; i < o.setups; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("rig%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		rg, took, err := startRig(ctx, w, o, gen, dir, time.Duration(i)*interval/time.Duration(o.setups))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < o.setups-1 {
			rg.kill()
			os.RemoveAll(dir)
		} else {
			r = rg
		}
	}
	defer r.kill()
	logf("%s: set-up %.3fs (mean of %v)", w.name, mean(setups), setups)

	watch := startStallWatch()
	defer watch.close()
	edgeAt := func(seq int64) time.Time { return time.Unix(0, (seq-1)*int64(interval)+int64(edgePhase)) }

	// A per-layer run watches the probes only every other second of the
	// window: the seconds without polling are the baseline the probes'
	// overhead is read against, interleaved so drift hits both alike.
	var from atomic.Int64 // the window's first sample; the probers read it
	probed := func(seq int64) bool {
		lo := from.Load()
		return !o.trace || seq < lo || (seq-lo)/perSlice%2 == 0
	}
	probes := startProber(r.http, r.topOffset, r.probeChains(), probed)
	defer probes.close()
	var rd *reader
	defer func() {
		if rd != nil {
			rd.close()
		}
	}()

	// Warm-up, until the rings are full. Then the window: the first o.window
	// the host leaves alone. The rig keeps running while the bench waits for
	// the host to calm down, and a window of which the host steals more than
	// stealLimit is given up and begun again, as long as the run's deadline
	// leaves room for another after it; what comes after a window (teardown,
	// the CSV check, the replay) is the tail.
	tail := 15 * time.Second
	if o.trace {
		tail += 15 * time.Second
	}
	if err := sleepUntil(ctx, time.Now().Add(o.warmup-calmLookback)); err != nil {
		return nil, err
	}
	var lo, hi int64
	var edges []edge
	var poll *poller
	for {
		waited, err := awaitCalm(ctx, time.Until(o.deadline)-o.window-tail)
		if err != nil {
			return nil, err
		}
		if waited > 2*calmLookback {
			logf("%s: waited %.1fs for the host to calm down", w.name, waited.Seconds())
		}
		lo = grid(time.Now()) + 12 // the prober wants a sample of lead, the reader a second
		hi = lo + int64(o.window/interval)
		from.Store(lo)
		for i := range r.stores {
			if fi, err := os.Stat(r.stores[i].path); err == nil {
				r.stores[i].offset = fi.Size() // no row of the window lies before it (csvRows)
			}
		}
		if w.reader && rd == nil {
			rd = startReader(r.http, gen, edgeAt(lo).Add(-time.Second))
		}
		// One edge per second: CPU per sample and the age percentiles are
		// taken per one-second slice and the median slice is reported, so a
		// burst of host noise moves one slice, not the result.
		if err := sleepUntil(ctx, edgeAt(lo)); err != nil {
			return nil, err
		}
		poll = startPoller(r.top)
		edges, err = r.edges(ctx, lo, hi, edgeAt, time.Until(o.deadline) > 2*o.window+calmLookback+tail)
		poll.close()
		if err == errHostBusy {
			logf("%s: the host stole more than %v of the window; beginning it again", w.name, stealLimit(o.window))
			continue
		}
		if err != nil {
			return nil, err
		}
		break
	}
	if poll.err != nil {
		return nil, poll.err
	}
	a, b := edges[0], edges[len(edges)-1]
	hwm := map[string]float64{}
	for _, d := range r.daemons() {
		if hwm[d.name], err = d.hwmMB(); err != nil {
			return nil, err
		}
	}
	probes.close()
	if probes.failed > 0 {
		res.disturbed("%d probe polls got no answer, the first: %v", probes.failed, probes.err)
	}

	if rd != nil {
		rd.close()
	}
	// Quiesce, then hold the fleet to its invariants before tearing down.
	for _, d := range r.aggs {
		if err := d.configure("updtr_stop name=u"); err != nil {
			return nil, err
		}
	}
	if err := sleepUntil(ctx, time.Now().Add(300*time.Millisecond)); err != nil {
		return nil, err
	}
	stalls := watch.close()
	res.Stalls = len(stalls)
	if stolen := b.steal - a.steal; stolen > stealLimit(o.window) {
		res.disturbed("the host stole %v of the window", stolen)
	}
	r.checkFleet(ctx, res, edges[0])
	r.stop()
	gen.close()
	for _, s := range stalls {
		logf("%s: host stall %.1fms at grid+%.1fms seq+%d", w.name, float64(s.to.Sub(s.from))/1e6,
			float64(s.from.UnixNano()%int64(interval))/1e6, grid(s.from)-lo)
	}

	// Which samples the generator produced on time: the rest are its own
	// lateness, not the system's loss, and are left out of every count.
	sw := &seqWindow{lo: lo, hi: hi, made: make([]bool, hi-lo)}
	var lateMs []float64
	for _, s := range gen.log {
		if s.seq < lo || s.seq >= hi {
			continue
		}
		due := time.Unix(0, s.seq*int64(interval))
		lateMs = append(lateMs, float64(s.start.Sub(due))/1e6)
		sw.made[s.seq-lo] = s.end.Before(due.Add(pullOffset-2*time.Millisecond)) &&
			!overlaps(stalls, due.Add(-5*time.Millisecond), due.Add(interval+r.topOffset))
	}
	seqs := sw.count()
	if seqs < len(sw.made)*9/10 {
		res.disturbed("only %d of %d samples were written on time and clear of a host stall", seqs, len(sw.made))
	}

	// The correctness gate: every stored row recomputed from the seed. A row
	// that is there and wrong is a failed operation. A row that is not there
	// is a sample the updater skipped: the loss is reported, and beyond
	// lossTolerance the run counts as disturbed.
	var produced, matched, wrong int64
	// unsettled marks the window offsets at which the mid tier cannot be
	// shown to have held one whole sample: the top lacks a member's row, or
	// the seq is left out of the counts (a host stall, a late write).
	unsettled := make([]bool, len(sw.made))
	for q, ok := range sw.made {
		unsettled[q] = !ok
	}
	for _, s := range r.stores { // the workload's schema first, the reduced ones last
		var chk csvCheck
		switch s.schema {
		case w.schema:
			chk, err = checkLeafCSV(s.path, s.offset, gen, false, sw)
			for _, q := range chk.lostAt {
				unsettled[q] = true
			}
		case "probe":
			chk, err = checkLeafCSV(s.path, s.offset, gen, true, sw)
		case w.schema + "_avg":
			chk, err = checkReducedCSV(s.path, s.offset, "avg", gen, sw, unsettled)
		case w.schema + "_max":
			chk, err = checkReducedCSV(s.path, s.offset, "max", gen, sw, unsettled)
		}
		if err != nil {
			return nil, err
		}
		if chk.wrong > 0 {
			res.problem("%s: %d wrong rows, first: %v", s.schema, chk.wrong, chk.first)
		}
		if chk.missing != "" {
			logf("%s: %s rows missing (seq offset in window:sets):%s", w.name, s.schema, chk.missing)
		}
		produced += int64(s.sets * seqs)
		matched += int64(chk.matched)
		wrong += int64(chk.wrong)
	}
	res.Attempted, res.Failed = produced, wrong
	if lost := produced - matched - wrong; float64(lost) > lossTolerance*float64(produced) {
		res.disturbed("%d of %d samples were skipped", lost, produced)
	}

	top := func(e edge) counters { return e.d["top"] }
	delta := func(x, y edge, f func(counters) int64) float64 {
		var sum int64
		for _, d := range r.aggs {
			sum += f(y.d[d.name]) - f(x.d[d.name])
		}
		return float64(sum)
	}
	stat := func(key string) func(counters) int64 {
		return func(c counters) int64 { return c.stats[key] }
	}
	// cpuPerSample is the median one-second slice of aggregator CPU over
	// fresh samples landed at the top.
	cpuPerSample := func(ds []*daemon, keep func(slice int) bool) float64 {
		var slices []float64
		for i := 1; i < len(edges); i++ {
			if !keep(i - 1) {
				continue
			}
			var cpu int64
			for _, d := range ds {
				cpu += edges[i].d[d.name].cpu - edges[i-1].d[d.name].cpu
			}
			slices = append(slices, ratio(float64(cpu)/1e3, float64(top(edges[i]).stats["fresh"]-top(edges[i-1]).stats["fresh"])))
		}
		return median(slices)
	}
	every := func(int) bool { return true }
	updates := delta(a, b, func(c counters) int64 { return c.updates })
	var ages []float64
	slices := make([][]float64, (hi-lo)/perSlice)
	for _, s := range probes.ages {
		if sw.has(s.seq) {
			ages = append(ages, float64(s.age)/1e6)
			slices[(s.seq-lo)/perSlice] = append(slices[(s.seq-lo)/perSlice], float64(s.age)/1e6)
		}
	}
	var p50s, p90s []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			p50s, p90s = append(p50s, percentile(sl, 0.50)), append(p90s, percentile(sl, 0.90))
		}
	}
	var watched int
	for _, chain := range probes.chains {
		watched += len(chain)
	}
	want := 0
	for q := lo; q < hi; q++ {
		if sw.has(q) && probed(q) {
			want += watched
		}
	}
	switch {
	case len(ages) == 0:
		res.problem("prober saw none of %d samples arrive at the top gateway", want)
	case len(ages) < want*9/10:
		res.disturbed("prober saw %d of %d samples arrive before the next was due", len(ages), want)
	}
	var rss float64
	for _, d := range r.aggs {
		rss += hwm[d.name]
	}

	e := res.EndToEnd
	e["setup_s"] = mean(setups)
	e["sample_age_ms_p50"] = median(p50s)
	e["sample_age_ms_p90"] = median(p90s)
	e["wire_bytes_per_sample"] = ratio(delta(a, b, func(c counters) int64 { return c.bytesIn }), updates)
	e["agg_rss_mb_per_kset"] = ratio(rss, float64(top(b).sets)/1e3)

	l := res.PerLayer
	l["agg_cpu_us_per_sample"] = cpuPerSample(r.aggs, every)
	l["ldmsd.top_cpu_us_per_sample"] = cpuPerSample([]*daemon{r.top}, every)
	l["ldmsd.mid_cpu_us_per_sample"] = 0
	if r.mid != nil {
		l["ldmsd.mid_cpu_us_per_sample"] = cpuPerSample([]*daemon{r.mid}, every)
	}
	l["ldmsd.pass_ms_p50"] = median(poll.passMs)
	l["ldmsd.stale_ratio"] = ratio(delta(a, b, stat("stale")), delta(a, b, stat("updates")))
	l["ldmsd.skipped_busy"] = delta(a, b, stat("skipped_busy"))
	l["ldmsd.update_errors"] = delta(a, b, stat("update_errors"))
	l["ldmsd.lookups_excess"] = delta(a, b, lookupsExcess)
	l["ldmsd.store_queue_depth_max"] = float64(poll.queueMax)
	l["ldmsd.store_dropped_rows"] = float64(top(b).stats["dropped_rows"])
	l["transport.delta_update_ratio"] = ratio(delta(a, b, func(c counters) int64 { return c.deltaUpdates }), updates)
	l["transport.batch_ops_per_flush"] = ratio(delta(a, b, func(c counters) int64 { return c.batchedOps }),
		delta(a, b, func(c counters) int64 { return c.batches }))
	l["transport.msgs_per_sample"] = ratio(delta(a, b, func(c counters) int64 { return c.msgsIn }), updates)
	l["gen.cpu_us_per_sample"] = ratio(float64(b.self-a.self)/1e3, float64(len(gen.sets)*len(sw.made)))
	l["gen.late_ms_p99"] = percentile(lateMs, 0.99)
	l["gen.excluded_seqs"] = float64(len(sw.made) - seqs)
	l["sample_age_ms_p99"] = percentile(ages, 0.99)
	l["sample_age_ms_max"] = percentile(ages, 1)
	l["loss_ratio"] = ratio(float64(produced-matched), float64(produced)) // skipped, torn or wrong
	l["leaf_cpu_us_per_sample"], l["leaf_rss_mb"] = 0, 0
	if r.leaf != nil {
		la, lb := a.d["leaf"], b.d["leaf"]
		l["leaf_cpu_us_per_sample"] = ratio(float64(lb.cpu-la.cpu)/1e3, float64(lb.stats["samples"]-la.stats["samples"]))
		l["leaf_rss_mb"] = hwm["leaf"]
	}
	readerMetrics(res, rd, a, b, edgeAt(lo), edgeAt(hi))
	l["bench.probe_overhead_pct"] = 0
	if o.trace {
		on := cpuPerSample(r.aggs, func(i int) bool { return i%2 == 0 })
		off := cpuPerSample(r.aggs, func(i int) bool { return i%2 == 1 })
		l["bench.probe_overhead_pct"] = 100 * (ratio(on, off) - 1)

		pinSelf(allCPUs()) // the replay is both sides of the wire in one process
		defer pinSelf(leafCPUs())
		layers, err := runReplay(ctx, w, o, runDir)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		// The reconciliation row: what the aggregators spend per sample
		// beyond the layer calls the replay accounts for — updater, storage
		// policy and trace-plane glue, and the runtime.
		l["ldmsd.residual_us_per_sample"] = l["agg_cpu_us_per_sample"] - layers["replay.agg_ns_per_sample"]/1e3
		delete(layers, "replay.agg_ns_per_sample")
		for k, v := range layers {
			l[k] = v
		}
		loc, err := sizeRows(".")
		if err != nil {
			return nil, err
		}
		for k, v := range loc {
			l[k] = v
		}
	}
	return res, nil
}

// stealLimit is how much of a window the host may steal, summed over the
// CPUs, before the attempt counts as disturbed: a hundredth of its length.
// Calm minutes on this box read a tenth of that, busy ones ten times it.
func stealLimit(window time.Duration) time.Duration { return window / 100 }

var errHostBusy = errors.New("the host stole too much of the window")

// edges takes one edge per second from sample seq from to sample seq to.
// With giveUp it returns errHostBusy as soon as the host has stolen more
// than stealLimit since the first edge.
func (r *rig) edges(ctx context.Context, from, to int64, edgeAt func(int64) time.Time, giveUp bool) ([]edge, error) {
	var out []edge
	for q := from; q <= to; q += perSlice {
		if err := sleepUntil(ctx, edgeAt(q)); err != nil {
			return nil, err
		}
		e, err := r.edge()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if giveUp && e.steal-out[0].steal > stealLimit(time.Duration(to-from)*interval) {
			return nil, errHostBusy
		}
	}
	return out, nil
}

// lookupsExcess is how many lookups a daemon has made beyond one per set it
// mirrors.
func lookupsExcess(c counters) int64 { return c.stats["lookups"] - c.sets }

// checkFleet fails the run on a partial or leaky fleet: the default -m
// mirrors only part of a wide directory and retries lookups forever while
// the numbers still look plausible, so the counters are held to exact
// values here, after the updaters stopped and once the store queues have
// drained. first is the window's first edge.
//
// A producer connection broken and made again (a vCPU frozen for longer than
// the 100 ms pull timeout) also repeats lookups and counts update errors, but
// it shows as a disconnect; an undersized or leaky fleet never disconnects.
// With a disconnect on an aggregator's books those findings make the run
// disturbed, without one they are problems.
func (r *rig) checkFleet(ctx context.Context, res *result, first edge) {
	var c map[string]counters
	var stored int64
	var policies string
	// The store drains behind the pass; give it until every fresh sample is a
	// written row, or five seconds.
	for deadline := time.Now().Add(5 * time.Second); ; {
		e, err := r.edge()
		if err != nil {
			res.problem("fleet status: %v", err)
			return
		}
		rows, err := r.top.status("strgp_status")
		if err != nil {
			res.problem("%v", err)
			return
		}
		c, stored, policies = e.d, 0, ""
		for _, kv := range rows {
			if num(kv, "rows") != num(kv, "enqueued") || kv["state"] != "running" {
				policies += fmt.Sprintf(" %s wrote %s of %s rows, state %s;", kv["name"], kv["rows"], kv["enqueued"], kv["state"])
			}
			stored += num(kv, "rows")
		}
		top := c["top"].stats
		drained := policies == "" && (r.w.tiered || top["stored_rows"] == top["fresh"] && stored == top["fresh"])
		if drained || time.Now().After(deadline) || sleepUntil(ctx, time.Now().Add(50*time.Millisecond)) != nil {
			break
		}
	}
	if policies != "" {
		res.problem("top: storage policy%s", policies)
	}
	// With a policy on every schema the top mirrors, every fresh sample is a
	// stored row; the tiered top also mirrors schemas it does not store.
	if top := c["top"].stats; !r.w.tiered && (top["stored_rows"] != top["fresh"] || stored != top["fresh"]) {
		res.problem("top: stored_rows=%d, policies wrote %d, but fresh=%d", top["stored_rows"], stored, top["fresh"])
	}

	whole, report, err := r.fleet()
	if err != nil {
		res.problem("fleet status: %v", err)
		return
	}
	// One tier's reconnect re-creates its mirrors, which the tier above then
	// looks up again: a disconnect anywhere accounts for every aggregator.
	found, reconnected := res.problem, false
	for _, d := range r.aggs {
		if c[d.name].disconnects > 0 { // since the daemon started: set-up can lose a connection too
			found, reconnected = res.disturbed, true
		}
	}
	if !whole {
		found("mirrored sets differ from offered sets:%s", report)
	}
	for _, d := range r.aggs {
		now, then := c[d.name], first.d[d.name]
		// Set-up looks every set up once; nothing is looked up after it. What a
		// reconnect before the window looked up again is not the window's.
		if lookupsExcess(then) != 0 && !reconnected {
			res.problem("%s: %d lookups for %d mirrored sets before the window", d.name, then.stats["lookups"], then.sets)
		}
		if n := lookupsExcess(now) - lookupsExcess(then); n != 0 {
			found("%s: %d lookups for %d mirrored sets (lookups_excess=%d)", d.name, now.stats["lookups"], now.sets, n)
		}
		if n := now.stats["update_errors"] - then.stats["update_errors"]; n != 0 {
			found("%s: %d update errors in the window", d.name, n)
		}
		if n := now.stats["dropped_rows"]; n != 0 {
			res.problem("%s: %d rows dropped by the store queue", d.name, n)
		}
	}
}

// readerMetrics folds the query reader's results inside the window into the
// result: latency percentiles, per-endpoint medians, CPU per request and
// the failure ratio. Workloads without a reader report zeros.
func readerMetrics(res *result, rd *reader, a, b edge, from, to time.Time) {
	l := res.PerLayer
	var all, late []float64
	per := make([][]float64, reqKinds)
	var failed, wrong int64
	if rd != nil {
		for _, q := range rd.res {
			if q.due.Before(from) || !q.due.Before(to) {
				continue
			}
			res.Attempted++
			if q.fail != "" {
				if failed == 0 {
					logf("%s: first failed request (%s): %s", res.Workload, reqKindNames[q.kind], q.fail)
				}
				failed++
				if q.wrong {
					wrong++
				}
				continue
			}
			ms := float64(q.latency) / 1e6
			all = append(all, ms)
			per[q.kind] = append(per[q.kind], ms)
			late = append(late, float64(q.late)/1e6)
		}
	}
	// A reply that carries a wrong value is a failed operation. One that is
	// short of points, late or cut off is what skipped samples or a frozen
	// vCPU look like from the read side.
	res.Failed += wrong
	n := float64(len(all)) + float64(failed)
	if wrong > 0 {
		res.problem("%d of %.0f replies were wrong", wrong, n)
	}
	if l["query_fail_ratio"] = ratio(float64(failed), n); l["query_fail_ratio"] > 0.001 {
		res.disturbed("%d of %.0f requests failed", failed, n)
	}
	l["query_ms_p50"] = percentile(all, 0.50)
	l["query_ms_p95"] = percentile(all, 0.95)
	l["query_ms_p99"] = percentile(all, 0.99)
	for k, name := range reqKindNames {
		l["query_ms_p50."+name] = median(per[k])
	}
	l["query_cpu_us_per_req"] = ratio(float64(b.d["top"].cpu-a.d["top"].cpu)/1e3, n)
	l["reader.late_ms_p99"] = percentile(late, 0.99)
}
