package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
	"goldms/internal/query"
	"goldms/internal/sampler"
	"goldms/internal/sched"
	"goldms/internal/store"
	"goldms/internal/tier"
	"goldms/internal/transport"
)

// The traced replay walks the pipeline a sample crosses in the rig — set
// write, delta encode, pull over loopback, delta apply, mirror load, hop
// trace, reduce, window append, row snapshot, store batch, query cut — by
// calling each layer's public functions from the bench process in the
// daemon's order, one goroutine, one span around each call site. The daemons
// carry no spans of their own yet; this is where the per-layer numbers come
// from until they do.

const (
	pullBatch  = 32  // the updater's default pipelining batch
	storeBatch = 256 // the storage policy's default batch
	flushEvery = 4   // traced passes between store flushes
	cutCalls   = 40  // query cuts and handler calls per kind
)

// span is one timed call site. A span covers calls public calls (a batch of
// sets), because a clock read per 100 ns call would be most of the cost.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a pass
	Pass   int    `json:"pass"`
	Calls  int    `json:"calls"`
}

// tracer keeps spans in memory; they are written out when the replay ends.
// With on false begin and end do nothing, which is the spans-off replay the
// tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	pass  int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Pass: t.pass})
	return len(t.spans) - 1
}

func (t *tracer) end(i, calls int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
		t.spans[i].Calls = calls
	}
}

// stageTotals sums span time and calls by name; a parent's children are
// subtracted so every name holds self time.
func (t *tracer) stageTotals() (ns map[string]float64, calls map[string]float64) {
	ns, calls = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		ns[s.Name] += d
		calls[s.Name] += float64(s.Calls)
		if s.Parent >= 0 {
			ns[t.spans[s.Parent].Name] -= d
		}
	}
	return ns, calls
}

// medianUs is the median duration of the spans called name, in microseconds.
func (t *tracer) medianUs(name string) float64 {
	var us []float64
	for _, s := range t.spans {
		if s.Name == name {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return median(us)
}

// mirrorState is the aggregator-side pull state for one set, the fields an
// updater keeps.
type mirrorState struct {
	src      *genSet
	regName  string
	remote   transport.RemoteSet
	mirror   *metric.Set
	buf      []byte
	bufDGN   uint64
	bufValid bool
	shadow   []byte // a second copy of the acknowledged chunk, for the direct ApplyDelta call
	trace    []byte
	vals     []metric.Value
}

type replay struct {
	w      workload
	gen    *generator
	tr     tracer
	conns  [numGens]transport.Conn
	sets   [numGens][]*mirrorState
	reg    *metric.Registry // the mirrors, as the gateway's set source
	win    *query.Window
	red    *tier.Reducer
	st     store.Store
	plug   []sampler.Plugin
	clock  time.Time // virtual: one interval per pass
	seq    int64
	rows   []metric.Row
	names  []string
	delta  []byte
	ops    []transport.UpdateOp
	dec    obs.HopDecoder
	rec    *obs.SpanRecorder
	hops   []obs.HopRecord
	blk    []byte
	passes int

	deltaBytes, fallbacks, encodes float64
	published, flushes             float64
	flushNs, rowsStored            float64
}

// runReplay runs the replay for w and returns its per-layer metrics; spans
// go to bench/out/<workload>.trace.json.
func runReplay(ctx context.Context, w workload, o *options, dir string) (map[string]float64, error) {
	gen, err := newGenerator(w, o.seed, false)
	if err != nil {
		return nil, err
	}
	defer gen.close()
	rp := &replay{w: w, gen: gen, reg: metric.NewRegistry(), rec: obs.NewSpanRecorder(),
		seq: grid(time.Now())}
	rp.clock = time.Unix(0, rp.seq*int64(interval))
	rp.win = query.NewWindowOpts(query.WindowOptions{Points: httpPoints})
	rp.win.SetClock(func() time.Time { return rp.clock })
	if w.tiered {
		rp.red = tier.New(tier.Config{Daemon: "replay", Ops: []tier.Op{tier.OpAvg, tier.OpMax}})
		for _, name := range strings.Fields(leafPlugins) {
			p, err := sampler.New(name, sampler.Config{Instance: "replay/" + name, CompID: 1,
				Self: func() sampler.SelfStats { return sampler.SelfStats{} }})
			if err != nil {
				return nil, err
			}
			rp.plug = append(rp.plug, p)
		}
	}
	out := map[string]float64{}

	// Connect, dir and lookup as a producer + updater would.
	lookupStart := time.Now()
	looked := 0
	for gi := 0; gi < numGens; gi++ {
		conn, err := transport.SockFactory{}.Dial(gen.addr(gi))
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		rp.conns[gi] = conn
		names, err := conn.Dir(ctx)
		if err != nil {
			return nil, err
		}
		byName := map[string]*genSet{}
		for _, s := range gen.sets {
			if s.gen == gi {
				byName[s.name] = s
			}
		}
		for _, name := range names {
			src := byName[name]
			if src == nil || src.probe {
				continue
			}
			remote, err := conn.Lookup(ctx, name)
			if err != nil {
				return nil, err
			}
			looked++
			ms := &mirrorState{src: src, regName: fmt.Sprintf("gen%d/%s", gi, name), remote: remote}
			if ms.mirror, err = remote.Meta().NewMirrorNamed(ms.regName); err != nil {
				return nil, err
			}
			size := remote.Meta().DataSize
			ms.buf, ms.shadow = make([]byte, size), make([]byte, size)
			ms.vals = make([]metric.Value, w.card)
			if err := rp.reg.Add(ms.mirror); err != nil {
				return nil, err
			}
			if rp.red != nil {
				if _, err := rp.red.AddMember(ms.regName, ms.mirror); err != nil {
					return nil, err
				}
			}
			rp.sets[gi] = append(rp.sets[gi], ms)
		}
	}
	out["transport.lookup_us_per_set"] = ratio(float64(time.Since(lookupStart))/1e3, float64(looked))

	first := rp.sets[0][0].mirror
	types := make([]metric.Type, w.card)
	for m := 0; m < w.card; m++ {
		rp.names = append(rp.names, first.MetricName(m))
		types[m] = first.MetricType(m)
	}
	csvPath := filepath.Join(dir, "replay.csv")
	rp.st, err = store.New("store_csv", store.Config{Path: csvPath,
		Schema: w.schema, Names: rp.names, Types: types})
	if err != nil {
		return nil, err
	}
	defer rp.st.Close()

	// Timer lateness of the scheduler the daemons run on, while the replay
	// keeps the box as busy as a daemon would.
	var lateMu sync.Mutex
	var lateUs []float64
	sch := sched.NewReal(2)
	sch.Every(10*time.Millisecond, 0, true, func(at time.Time) {
		d := float64(time.Since(at)) / 1e3
		lateMu.Lock()
		lateUs = append(lateUs, d)
		lateMu.Unlock()
	})

	// One pass primes the mirrors (full chunks, no acknowledged base); then
	// traced and untraced passes alternate so drift hits both alike.
	if err := rp.pass(ctx); err != nil {
		return nil, err
	}
	rp.tr.t0 = time.Now()
	var tracedMs, plainMs []float64
	for i := 0; i < 2*w.passes; i++ {
		rp.tr.on = i%2 == 0
		rp.tr.pass = i / 2
		start := time.Now()
		if err := rp.pass(ctx); err != nil {
			return nil, err
		}
		if took := float64(time.Since(start)) / 1e6; rp.tr.on {
			tracedMs = append(tracedMs, took)
			rp.passes++
		} else {
			plainMs = append(plainMs, took)
		}
		// The flush ticker's work, outside both timings; the flushed pages
		// are then let go, as in the rig (see cache.go).
		if i%(2*flushEvery) == 2*flushEvery-1 {
			start := time.Now()
			if err := rp.st.Flush(); err != nil {
				return nil, err
			}
			rp.flushNs += float64(time.Since(start))
			rp.flushes++
			if f, err := os.Open(csvPath); err == nil {
				dropFileCache(f, 0)
				f.Close()
			}
		}
	}
	sch.Stop()
	out["bench.trace_overhead_pct"] = 100 * (ratio(median(tracedMs), median(plainMs)) - 1)

	rp.tr.on = true
	cuts, err := rp.queries()
	if err != nil {
		return nil, err
	}
	for k, v := range cuts {
		out[k] = v
	}

	ns, calls := rp.tr.stageTotals()
	per := func(name string) float64 { return ratio(ns[name], calls[name]) }
	out["metric.write_ns_per_sample"] = per("metric.write")
	out["metric.delta_encode_ns_per_sample"] = per("metric.delta_encode")
	out["metric.delta_bytes_per_sample"] = ratio(rp.deltaBytes, rp.encodes)
	out["metric.delta_fallback_ratio"] = ratio(rp.fallbacks, rp.encodes)
	out["metric.delta_apply_ns_per_sample"] = ratio(ns["metric.delta_apply"], calls["transport.pull"])
	out["metric.load_data_ns_per_sample"] = per("metric.load_data")
	out["metric.snapshot_ns_per_sample"] = per("metric.snapshot")
	out["transport.pull_ns_per_sample"] = per("transport.pull")
	out["transport.frame_io_ns_per_sample"] = per("transport.pull") - per("metric.delta_encode") - out["metric.delta_apply_ns_per_sample"]
	out["tier.fold_ns_per_member"] = ratio(ns["tier.observe"]+ns["tier.fold"], calls["tier.fold"])
	out["tier.published_per_pass"] = ratio(rp.published, float64(rp.passes))
	out["obs.hops_ns_per_sample"] = per("obs.hops")
	out["query.observe_ns_per_sample"] = per("query.observe")
	ws := rp.win.Stats()
	out["query.window_bytes_per_point"] = ratio(float64(ws.Bytes), float64(ws.Series*httpPoints))
	out["store.csv_ns_per_row"] = per("store.batch")
	out["store.csv_bytes_per_row"] = ratio(float64(rp.st.BytesWritten()), rp.rowsStored)
	out["store.flush_ms"] = ratio(rp.flushNs/1e6, rp.flushes)
	out["sampler.sample_us_per_call"] = per("sampler.sample") / 1e3
	lateMu.Lock()
	out["sched.timer_late_us_p50"] = percentile(lateUs, 0.50)
	out["sched.timer_late_us_p99"] = percentile(lateUs, 0.99)
	lateMu.Unlock()
	// What one sample costs the aggregator side of the replay: everything
	// but the generator's write, the sampler and the serve-side encode.
	out["replay.agg_ns_per_sample"] = per("transport.pull") - per("metric.delta_encode") +
		per("metric.load_data") + per("obs.hops") + per("query.observe") + per("metric.snapshot") +
		per("store.batch") + ratio(ns["tier.observe"]+ns["tier.fold"], calls["transport.pull"])

	return out, rp.dump(o)
}

// pass moves one sample of every set from the generator to the store.
func (rp *replay) pass(ctx context.Context) error {
	tr := &rp.tr
	rp.seq++
	rp.clock = time.Unix(0, rp.seq*int64(interval))
	root := tr.begin("pass", -1)

	// Leaf side: the sampler plugins a real leaf runs, then the synthetic sets.
	if len(rp.plug) > 0 {
		sp := tr.begin("sampler.sample", root)
		for _, p := range rp.plug {
			if err := p.Sample(rp.clock); err != nil {
				return fmt.Errorf("sampler %s: %w", p.Name(), err)
			}
		}
		tr.end(sp, len(rp.plug))
	}
	for lo := 0; lo < len(rp.gen.sets); lo += pullBatch {
		batch := rp.gen.sets[lo:min(lo+pullBatch, len(rp.gen.sets))]
		sp := tr.begin("metric.write", root)
		rp.gen.writeSets(batch, rp.seq, false)
		tr.end(sp, len(batch))
	}

	rp.rows = rp.rows[:0]
	for gi := range rp.sets {
		sets := rp.sets[gi]
		for lo := 0; lo < len(sets); lo += pullBatch {
			batch := sets[lo:min(lo+pullBatch, len(sets))]
			if err := rp.pullBatch(ctx, gi, batch, root); err != nil {
				return err
			}
		}
	}

	if rp.red != nil {
		sp := tr.begin("tier.fold", root)
		folded := rp.red.Fold()
		tr.end(sp, rp.red.Members())
		if tr.on {
			rp.published += float64(len(folded))
		}
	}

	// The store drains after the pull, in the storage policy's batches.
	for lo := 0; lo < len(rp.rows); lo += storeBatch {
		batch := rp.rows[lo:min(lo+storeBatch, len(rp.rows))]
		sp := tr.begin("store.batch", root)
		if err := store.Batch(rp.st, batch); err != nil {
			return err
		}
		tr.end(sp, len(batch))
		rp.rowsStored += float64(len(batch))
	}
	tr.end(root, 1)
	return nil
}

// pullBatch is one pipelined batch of an update pass, in the order
// Updater.pullProducer and finishUpdate run it.
func (rp *replay) pullBatch(ctx context.Context, gi int, batch []*mirrorState, root int) error {
	tr := &rp.tr
	w := &rp.w
	n := len(batch)

	// What the serving side does per request, called directly so it can be
	// timed apart from the wire: encode the delta against the acknowledged
	// DGN, or copy the full chunk when a delta would not be smaller.
	var deltas [][]byte
	if batch[0].bufValid {
		sp := tr.begin("metric.delta_encode", root)
		rp.delta = rp.delta[:0]
		for _, ms := range batch {
			at := len(rp.delta)
			var ok bool
			if rp.delta, ok = ms.src.set.AppendDelta(rp.delta, ms.bufDGN); ok {
				deltas = append(deltas, rp.delta[at:])
				rp.deltaBytes += float64(len(rp.delta) - at)
			} else {
				deltas = append(deltas, nil)
				ms.src.set.CopyDataInto(ms.shadow)
				rp.deltaBytes += float64(len(ms.shadow))
				rp.fallbacks++
			}
		}
		rp.encodes += float64(n)
		tr.end(sp, n)
	}

	rp.ops = rp.ops[:0]
	for _, ms := range batch {
		rp.ops = append(rp.ops, transport.UpdateOp{Set: ms.remote, Dst: ms.buf,
			AckDGN: ms.bufDGN, HaveAck: ms.bufValid, Trace: ms.trace[:0]})
	}
	sp := tr.begin("transport.pull", root)
	transport.UpdateAll(ctx, rp.conns[gi], rp.ops)
	tr.end(sp, n)
	for i, ms := range batch {
		if err := rp.ops[i].Err; err != nil {
			return fmt.Errorf("pull %s: %w", ms.regName, err)
		}
		ms.trace = rp.ops[i].Trace
	}

	// The client half of a delta pull, again directly: patch the entries
	// into a copy of the acknowledged chunk.
	if deltas != nil {
		sp = tr.begin("metric.delta_apply", root)
		applied := 0
		for i, ms := range batch {
			if deltas[i] == nil {
				continue
			}
			if err := ms.remote.Meta().ApplyDelta(ms.shadow, deltas[i]); err != nil {
				return fmt.Errorf("apply %s: %w", ms.regName, err)
			}
			applied++
		}
		tr.end(sp, applied)
	}

	sp = tr.begin("metric.load_data", root)
	for i, ms := range batch {
		if err := ms.mirror.LoadData(ms.buf[:rp.ops[i].N]); err != nil {
			return fmt.Errorf("load %s: %w", ms.regName, err)
		}
		ms.bufDGN, ms.bufValid = ms.mirror.DGN(), true
	}
	tr.end(sp, n)
	if deltas == nil {
		for _, ms := range batch {
			copy(ms.shadow, ms.buf) // prime the direct-apply base
		}
	}

	// Hop tracing, as the trace plane does per fresh sample: the chain a
	// leaf serves and the two-hop chain a mid tier re-exports, encoded,
	// decoded and every stamp recorded.
	sp = tr.begin("obs.hops", root)
	now := rp.clock.UnixNano()
	chains := [2][]obs.HopRecord{
		{{Daemon: "leaf", Role: obs.RoleLeaf, Pull: now}},
		{{Daemon: "leaf", Role: obs.RoleLeaf, Pull: now}, {Daemon: "mid", Role: obs.RoleMid, Pull: now + 1, Window: now + 2}},
	}
	for range batch {
		for _, chain := range chains {
			rp.blk = obs.AppendHops(rp.blk[:0], chain)
			hops, err := rp.dec.Decode(rp.blk, rp.hops[:0])
			if err != nil {
				return err
			}
			rp.hops = hops
			for h := range hops {
				hops[h].Stages(func(st obs.Stage, at int64) {
					rp.rec.Record(hops[h].Daemon, hops[h].Role, st, time.Duration(at-now+1))
				})
			}
		}
	}
	tr.end(sp, n)

	if rp.red != nil {
		sp = tr.begin("tier.observe", root)
		for _, ms := range batch {
			rp.red.Observe(ms.regName)
		}
		tr.end(sp, n)
	}

	sp = tr.begin("query.observe", root)
	for _, ms := range batch {
		rp.win.Observe(ms.mirror)
	}
	tr.end(sp, n)

	// The storage policy's enqueue: one locked copy of the values per row.
	sp = tr.begin("metric.snapshot", root)
	for _, ms := range batch {
		ts, _, _, _ := ms.mirror.ReadValues(ms.vals)
		rp.rows = append(rp.rows, metric.Row{Time: ts, Instance: ms.regName, Schema: w.schema,
			CompID: ms.src.id, Names: rp.names, Values: ms.vals})
	}
	tr.end(sp, n)
	return nil
}

// queries times the read side over the window the passes filled: the three
// cuts called directly, then the same three through the gateway's handler;
// the difference is what JSON and HTTP add.
func (rp *replay) queries() (map[string]float64, error) {
	tr := &rp.tr
	tr.pass = -1
	gw := &query.Gateway{DaemonName: "replay", Sets: rp.reg, Window: rp.win,
		Now: func() time.Time { return rp.clock }}
	handler := gw.Handler()
	since := rp.clock.Add(-queryWindow)
	all := append(append([]*mirrorState(nil), rp.sets[0]...), rp.sets[1]...)
	kinds := []string{"series", "aggregate", "latest"}
	root := tr.begin("queries", -1)
	for i := 0; i < cutCalls; i++ {
		ms := all[int(splitmix(rp.gen.seed, 0x52, 0, uint64(i))%uint64(len(all)))]
		name := rp.names[i%len(rp.names)]
		for _, kind := range kinds {
			var url string
			sp := tr.begin("query.cut."+kind, root)
			switch kind {
			case "series":
				if got := rp.win.Query(name, ms.src.id, since); len(got) != 1 {
					return nil, fmt.Errorf("replay: series cut for comp %d returned %d series", ms.src.id, len(got))
				}
				url = fmt.Sprintf("/api/v1/series?metric=%s&comp=%d&window=%s", name, ms.src.id, queryWindow)
			case "aggregate":
				if _, err := rp.win.Aggregate(name, 0, since, time.Second, "avg", 0); err != nil {
					return nil, err
				}
				url = fmt.Sprintf("/api/v1/aggregate?metric=%s&func=avg&window=%s&step=1s", name, queryWindow)
			case "latest":
				if got := rp.win.Latest(name, 0); len(got) != len(all) {
					return nil, fmt.Errorf("replay: latest cut returned %d of %d series", len(got), len(all))
				}
				url = "/api/v1/metrics?metric=" + name
			}
			tr.end(sp, 1)
			sp = tr.begin("query.http."+kind, root)
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			tr.end(sp, 1)
			if rec.Code != 200 {
				return nil, fmt.Errorf("replay: %s: HTTP %d", url, rec.Code)
			}
		}
	}
	tr.end(root, 1)
	// Medians: one slow call among forty should not decide a per-call cost.
	out := map[string]float64{}
	var extra float64
	for _, kind := range kinds {
		cut := tr.medianUs("query.cut." + kind)
		out["query.cut_us_per_call."+kind] = cut
		extra += tr.medianUs("query.http."+kind) - cut
	}
	out["query.http_us_per_call"] = extra / float64(len(kinds))
	return out, nil
}

// dump writes the spans to <out>/<workload>.trace.json (bench/out by default).
func (rp *replay) dump(o *options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(o.out, rp.w.name+".trace.json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": rp.w.name, "seed": o.seed, "passes": rp.passes, "spans": rp.tr.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
