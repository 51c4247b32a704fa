package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// options are the settings of one bench run. The command line sets seed,
// window and trace; the rest are constants there (main.go), and the smoke
// test shrinks them.
type options struct {
	ldmsd  string // built daemon binary
	work   string // scratch directory (relative, short: unix socket paths live under it)
	out    string // where the replay's spans are written
	seed   uint64
	window time.Duration
	warmup time.Duration // before the window: ringFill, so the gateway's rings have wrapped
	setups int           // set-ups per run, at evenly spaced phases of the grid; setup_s is their mean
	trace  bool          // per-layer run: probe-overhead segment and traced replay
	scale  float64       // of every workload's set population; 1 outside the tests

	deadline time.Time // measure sets it: no window is begun again, and no attempt made, that cannot end by then
}

// link is one pull edge of the topology: aggregator agg pulls producer prdcr,
// which offers offered() sets.
type link struct {
	agg     *daemon
	prdcr   string
	offered func() (int, error)
}

// stored is one storage policy of the top daemon.
type stored struct {
	schema string
	path   string
	sets   int   // sets of that schema the top mirrors
	offset int64 // of the CSV's end shortly before the window began
}

// rig is one running topology: the generator, the daemons and what the
// bench knows about how they are wired.
type rig struct {
	w   workload
	o   *options
	dir string
	gen *generator

	top, mid, leaf *daemon
	aggs           []*daemon // every aggregator, top first
	links          []link
	stores         []stored
	http           string // top gateway base URL
	topOffset      time.Duration
	trim           *cacheTrimmer
	trimOnce       sync.Once
}

func grid(t time.Time) int64 { return t.UnixNano() / int64(interval) }

func sleepUntil(ctx context.Context, t time.Time) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(max(0, time.Until(t))):
		return nil
	}
}

// startRig spawns the workload's daemons against gen, starting phase after
// a point of the sample grid, and waits until every set in the rig has a
// fresh row stored at the top. The returned duration is one set-up: first
// daemon spawn to that point (connect, dir, lookups, first full pull, first
// store batch).
func startRig(ctx context.Context, w workload, o *options, gen *generator, dir string, phase time.Duration) (*rig, time.Duration, error) {
	r := &rig{w: w, o: o, dir: dir, gen: gen, topOffset: pullOffset}
	if err := sleepUntil(ctx, time.Unix(0, (grid(time.Now())+1)*int64(interval)+int64(phase))); err != nil {
		return nil, 0, err
	}
	r.trim = startCacheTrimmer(dir)
	t0 := time.Now()
	if err := r.spawn(ctx); err != nil {
		r.kill()
		return nil, 0, err
	}
	if err := r.awaitReady(ctx); err != nil {
		r.kill()
		return nil, 0, err
	}
	return r, time.Since(t0), nil
}

func usec(d time.Duration) int64 { return d.Microseconds() }

func (r *rig) spawn(ctx context.Context) error {
	var err error
	w, gen := r.w, r.gen
	synthSets := numGens * w.setsPerGen
	genPrdcrs := func(d *daemon, upd string) []string {
		var cfg []string
		for gi := 0; gi < numGens; gi++ {
			name := fmt.Sprintf("gen%d", gi)
			cfg = append(cfg,
				fmt.Sprintf("prdcr_add name=%s xprt=sock host=%s", name, gen.addr(gi)),
				"prdcr_start name="+name,
				fmt.Sprintf("updtr_prdcr_add name=%s prdcr=%s", upd, name))
			gi := gi
			r.links = append(r.links, link{d, name, func() (int, error) { return gen.dirCount(gi), nil }})
		}
		return cfg
	}
	feeder := func(agg, from *daemon, upd string) ([]string, error) {
		addr, err := from.xprtAddr(ctx)
		if err != nil {
			return nil, err
		}
		r.links = append(r.links, link{agg, from.name, from.dirCount})
		return []string{
			fmt.Sprintf("prdcr_add name=%s xprt=sock host=%s", from.name, addr),
			"prdcr_start name=" + from.name,
			fmt.Sprintf("updtr_prdcr_add name=%s prdcr=%s", upd, from.name),
		}, nil
	}

	if w.tiered {
		r.topOffset = topHopOffset
		// The real leaf: real samplers over real /proc, synchronous at the
		// same 100 ms grid as the generator.
		if r.leaf, err = startDaemon(ctx, r.o.ldmsd, r.dir, "leaf", leafCPUs(), "-x", "sock:127.0.0.1:0"); err != nil {
			return err
		}
		var cfg []string
		for _, p := range strings.Fields(leafPlugins) {
			cfg = append(cfg, "load name="+p, "config name="+p+" component_id=9001",
				fmt.Sprintf("start name=%s interval=%d synchronous=1", p, usec(interval)))
		}
		if err = r.leaf.configure(cfg...); err != nil {
			return err
		}
		if r.mid, err = startDaemon(ctx, r.o.ldmsd, r.dir, "mid", aggCPUs(), "-x", "sock:127.0.0.1:0"); err != nil {
			return err
		}
		cfg = []string{fmt.Sprintf("updtr_add name=u interval=%d offset=%d synchronous=1 reduce=avg,max export=raw",
			usec(interval), usec(pullOffset))}
		cfg = append(cfg, genPrdcrs(r.mid, "u")...)
		more, err := feeder(r.mid, r.leaf, "u")
		if err != nil {
			return err
		}
		if err = r.mid.configure(append(append(cfg, more...), "updtr_start name=u")...); err != nil {
			return err
		}
	}

	r.top, err = startDaemon(ctx, r.o.ldmsd, r.dir, "top", aggCPUs(),
		"-http", "127.0.0.1:0", "-http-points", fmt.Sprint(httpPoints))
	if err != nil {
		return err
	}
	addr, err := r.top.httpAddr(ctx)
	if err != nil {
		return err
	}
	r.http = "http://" + addr
	cfg := []string{fmt.Sprintf("updtr_add name=u interval=%d offset=%d synchronous=1", usec(interval), usec(r.topOffset))}
	r.stores = []stored{{schema: w.schema, sets: synthSets}, {schema: "probe", sets: numGens * probesPerGen}}
	if w.tiered {
		more, err := feeder(r.top, r.mid, "u")
		if err != nil {
			return err
		}
		cfg = append(cfg, more...)
		r.stores = append(r.stores, stored{schema: w.schema + "_avg", sets: 1}, stored{schema: w.schema + "_max", sets: 1})
		r.aggs = []*daemon{r.top, r.mid}
	} else {
		cfg = append(cfg, genPrdcrs(r.top, "u")...)
		r.aggs = []*daemon{r.top}
	}
	cfg = append(cfg, "updtr_start name=u")
	for i := range r.stores {
		s := &r.stores[i]
		s.path = filepath.Join(r.dir, s.schema+".csv")
		cfg = append(cfg, fmt.Sprintf("strgp_add name=%s plugin=store_csv schema=%s container=%s queue=%d",
			s.schema, s.schema, s.path, storeQueue), "strgp_start name="+s.schema)
	}
	return r.top.configure(cfg...)
}

// fleet reports, for every link, how many sets the aggregator mirrors and
// how many pulls it has completed against how many sets are on offer.
func (r *rig) fleet() (complete bool, report string, err error) {
	complete = true
	var b strings.Builder
	for _, l := range r.links {
		want, err := l.offered()
		if err != nil {
			return false, "", err
		}
		rows, err := l.agg.status("prdcr_status")
		if err != nil {
			return false, "", err
		}
		var sets, updates int64 = -1, -1
		for _, kv := range rows {
			if kv["name"] == l.prdcr {
				sets, updates = num(kv, "sets"), num(kv, "updates")
			}
		}
		fmt.Fprintf(&b, " %s<-%s sets=%d/%d updates=%d;", l.agg.name, l.prdcr, sets, want, updates)
		if sets != int64(want) || updates < int64(want) || want == 0 {
			complete = false
		}
	}
	return complete, b.String(), nil
}

// awaitReady polls until the fleet is whole and every storage policy has
// written a row for each of its sets.
func (r *rig) awaitReady(ctx context.Context) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		whole, report, err := r.fleet()
		if err != nil {
			return err
		}
		if whole {
			rows, err := r.top.status("strgp_status")
			if err != nil {
				return err
			}
			have := map[string]int64{}
			for _, kv := range rows {
				have[kv["schema"]] = num(kv, "rows")
			}
			for _, s := range r.stores {
				if have[s.schema] < int64(s.sets) {
					whole = false
					report += fmt.Sprintf(" %s rows=%d/%d;", s.schema, have[s.schema], s.sets)
				}
			}
		}
		if whole {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: fleet not whole after 15s:%s", r.w.name, report)
		}
		if err := sleepUntil(ctx, time.Now().Add(5*time.Millisecond)); err != nil {
			return err
		}
	}
}

func (r *rig) daemons() []*daemon {
	var ds []*daemon
	for _, d := range []*daemon{r.top, r.mid, r.leaf} {
		if d != nil {
			ds = append(ds, d)
		}
	}
	return ds
}

// kill tears the daemons down without draining anything.
func (r *rig) kill() {
	for _, d := range r.daemons() {
		d.kill()
	}
	r.trimOnce.Do(r.trim.close)
}

// stop shuts the daemons down top first, each draining its stores, so the
// CSVs are complete when it returns.
func (r *rig) stop() {
	for _, d := range r.daemons() {
		d.stop()
	}
	r.trimOnce.Do(r.trim.close)
}

// counters is what the bench reads from one daemon at a window edge.
type counters struct {
	cpu   int64            // on-CPU ns
	stats map[string]int64 // `stats`
	// Sums over the daemon's producers (`prdcr_status`).
	bytesIn, msgsIn, updates, deltaUpdates, batches, batchedOps, sets, disconnects int64
}

func (d *daemon) counters() (counters, error) {
	var c counters
	var err error
	if c.cpu, err = d.cpuNanos(); err != nil {
		return c, err
	}
	rows, err := d.status("stats")
	if err != nil {
		return c, err
	}
	c.stats = map[string]int64{}
	for _, kv := range rows {
		for k := range kv {
			c.stats[k] = num(kv, k)
		}
	}
	if rows, err = d.status("prdcr_status"); err != nil {
		return c, err
	}
	for _, kv := range rows {
		c.bytesIn += num(kv, "bytes_in")
		c.msgsIn += num(kv, "msgs_in")
		c.updates += num(kv, "updates")
		c.deltaUpdates += num(kv, "delta_updates")
		c.batches += num(kv, "batches")
		c.batchedOps += num(kv, "batched_ops")
		c.sets += num(kv, "sets")
		c.disconnects += num(kv, "disconnects")
	}
	return c, nil
}

// edge is every daemon's counters plus the bench's own CPU at one instant.
type edge struct {
	at    time.Time
	self  int64         // the bench's own CPU, ns
	steal time.Duration // hostSteal
	d     map[string]counters
}

func (r *rig) edge() (edge, error) {
	e := edge{at: time.Now(), self: int64(processCPU()), steal: hostSteal(), d: map[string]counters{}}
	var err error
	for _, d := range r.daemons() {
		if e.d[d.name], err = d.counters(); err != nil {
			return e, err
		}
	}
	return e, nil
}

// poller samples what only has an instantaneous value — the last pass
// duration and the store queue depth — at 5 Hz from the control socket.
type poller struct {
	stop, done chan struct{}
	passMs     []float64
	queueMax   int64
	err        error
}

func startPoller(top *daemon) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			rows, err := top.status("updtr_status")
			if err != nil {
				p.err = err
				return
			}
			for _, kv := range rows {
				if _, ok := kv["last_pass_us"]; ok {
					p.passMs = append(p.passMs, float64(num(kv, "last_pass_us"))/1e3)
				}
			}
			if rows, err = top.status("strgp_status"); err != nil {
				p.err = err
				return
			}
			for _, kv := range rows {
				depth, _, _ := strings.Cut(kv["queue"], "/") // "depth/capacity"
				n, _ := strconv.ParseInt(depth, 10, 64)
				p.queueMax = max(p.queueMax, n)
			}
		}
	}()
	return p
}

func (p *poller) close() { close(p.stop); <-p.done }

// percentile returns the q-quantile (0..1] of vals by nearest rank; 0 for
// an empty slice.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func mean(vals []float64) float64 {
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return ratio(sum, float64(len(vals)))
}
