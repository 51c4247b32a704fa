package ldmsd

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/store"
	"goldms/internal/transport"
)

// drainRig is a real-clock aggregator on the mem transport pulling producers
// of two-metric "bench" sets (benchRegistry) through updater "u", which is
// never started: tests drive passes by hand with u.run. A recording
// store_testpipe policy stores the schema; gate acts on a producer's update
// batches mid-pass.
type drainRig struct {
	t    *testing.T
	d    *Daemon
	u    *Updater
	sp   *StoragePolicy
	path string
	lns  map[string]transport.Listener
	srcs []*metric.Set
	gate batchGate
	tick int64
}

// batchGate runs an action inside one producer's update batch, after the
// transport's Delay point and before the batch completes: armed with skip k,
// the (k+1)th "update_batch" from addr runs act once. rtt, when set, is
// slept by every lookup and update batch, as a network round trip.
type batchGate struct {
	mu   sync.Mutex
	addr string
	skip int
	act  func()
	rtt  time.Duration
}

func (g *batchGate) arm(addr string, skip int, act func()) {
	g.mu.Lock()
	g.addr, g.skip, g.act = addr, skip, act
	g.mu.Unlock()
}

func (g *batchGate) delay(addr, op string) {
	g.mu.Lock()
	rtt := g.rtt
	var act func()
	if g.act != nil && addr == g.addr && op == "update_batch" {
		if g.skip == 0 {
			act, g.act = g.act, nil
		}
		g.skip--
	}
	g.mu.Unlock()
	if rtt > 0 && (op == "update_batch" || op == "lookup_batch") {
		time.Sleep(rtt)
	}
	if act != nil {
		act()
	}
}

// stallAct blocks the pull that runs it until release, closing hit when it
// starts to. release is idempotent and also runs at cleanup, before the
// daemon stops.
func stallAct(t *testing.T) (act func(), hit chan struct{}, release func()) {
	hit, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return func() { close(hit); <-gate }, hit, release
}

func newDrainRig(t *testing.T, storeWorkers, perPrdcr int, opts map[string]string, prdcrs ...string) *drainRig {
	t.Helper()
	r := &drainRig{t: t, lns: map[string]transport.Listener{}, path: filepath.Join(t.TempDir(), "rows")}
	fac := transport.MemFactory{Net: transport.NewNetwork(), Delay: r.gate.delay}
	for _, name := range prdcrs {
		reg := benchRegistry(t, name, perPrdcr)
		reg.Each(func(s *metric.Set) { r.srcs = append(r.srcs, s) })
		ln, err := fac.Listen(name, transport.NewServer(reg))
		if err != nil {
			t.Fatal(err)
		}
		r.lns[name] = ln
	}
	d, err := New(Options{Name: "agg", Memory: 64 << 20, StoreWorkers: storeWorkers, Transports: []transport.Factory{fac}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	r.d = d
	if r.u, err = d.AddUpdater("u", time.Minute, 0, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range prdcrs {
		p, err := d.AddProducer(name, "mem", name, 10*time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		r.u.AddProducer(name)
	}
	waitUntil(t, 10*time.Second, func() bool {
		for _, name := range prdcrs {
			if d.Producer(name).State() != ProducerConnected {
				return false
			}
		}
		return true
	}, "producers to connect")
	if r.sp, err = d.AddStoragePolicy("s", "store_testpipe", "bench", r.path, opts); err != nil {
		t.Fatal(err)
	}
	return r
}

// bump writes a fresh sample into every source set, so the next pass's
// pulls of them are fresh and reach the store.
func (r *drainRig) bump() {
	r.tick++
	for _, s := range r.srcs {
		s.BeginTransaction()
		s.SetU64(0, uint64(r.tick))
		s.EndTransaction(time.Unix(2000+r.tick, 0))
	}
}

// stored counts the rows the plugin has received.
func (r *drainRig) stored() int {
	v, ok := pipeStores.Load(r.path)
	if !ok {
		return 0
	}
	return len(v.(*pipeStore).stored())
}

// warm runs the lookup pass and one steady pass, and waits until the
// lookup pass's rows are stored.
func (r *drainRig) warm() int {
	r.u.run(time.Now())
	r.u.run(time.Now())
	want := len(r.srcs)
	waitUntil(r.t, 10*time.Second, func() bool { return r.stored() == want }, "lookup pass rows")
	return want
}

// runAsync starts a pass and returns a channel closed when it ends.
func (r *drainRig) runAsync() chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.u.run(time.Now())
	}()
	return done
}

// TestStoreDrainWaitsForSteadyPass: while a steady pull is in flight its rows
// queue and the plugin sees no call; when the pull ends every row arrives.
// At the parent the pass's first enqueue kicked the drain.
func TestStoreDrainWaitsForSteadyPass(t *testing.T) {
	r := newDrainRig(t, 2, 4, map[string]string{"flush_interval": "0"}, "p")
	r.u.SetBatch(2)
	base := r.warm()

	r.bump()
	act, hit, release := stallAct(t)
	r.gate.arm("p", 1, act)
	done := r.runAsync()
	<-hit
	// The first batch's two rows are queued; the second batch is stalled.
	if c := r.sp.Counters(); c.Enqueued != int64(base+2) || c.QueueDepth != 2 {
		t.Fatalf("mid-pass: enqueued=%d depth=%d, want %d and 2", c.Enqueued, c.QueueDepth, base+2)
	}
	if got := r.d.storeHolds.Load(); got != 1 {
		t.Fatalf("storeHolds = %d mid steady pass, want 1", got)
	}
	time.Sleep(30 * time.Millisecond) // room for a drain that should not run
	if got := r.stored(); got != base {
		t.Fatalf("plugin got %d rows while the steady pull was in flight, want %d", got-base, 0)
	}
	release()
	<-done
	waitUntil(t, 5*time.Second, func() bool { return r.stored() == base+4 }, "held rows after the pass")
	if c := r.sp.Counters(); c.QueuePeak < 4 {
		t.Errorf("queue_peak = %d, want >= 4 (a whole held pass)", c.QueuePeak)
	}
}

// TestStoreDrainDuringLookupPass: a pull with sets to look up is bound by
// the network, so it holds nothing and its rows reach the plugin before the
// pass ends.
func TestStoreDrainDuringLookupPass(t *testing.T) {
	r := newDrainRig(t, 2, 4, map[string]string{"flush_interval": "0"}, "p")
	r.u.SetBatch(2)
	act, hit, release := stallAct(t)
	r.gate.arm("p", 1, act)
	done := r.runAsync()
	<-hit
	waitUntil(t, 5*time.Second, func() bool { return r.stored() >= 2 }, "lookup pass rows before the pass ends")
	if got := r.d.storeHolds.Load(); got != 0 {
		t.Errorf("storeHolds = %d in a lookup pass, want 0", got)
	}
	release()
	<-done
	waitUntil(t, 5*time.Second, func() bool { return r.stored() == 4 }, "all lookup pass rows")
}

// TestStoreDrainHighWater: a held steady pass of 2,048 sets through the
// default queue=1024 kicks the drain at half the ring and loses nothing;
// with overflow=block queue=2 the same pass completes. Batches pay a 1 ms
// round trip: over a transport that never blocks, one core has no gap for
// the drain in any pass, held or not.
func TestStoreDrainHighWater(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts map[string]string
	}{
		{"default", map[string]string{"flush_interval": "0"}},
		{"block-queue2", map[string]string{"flush_interval": "0", "overflow": "block", "queue": "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDrainRig(t, 2, 1024, tc.opts, "p0", "p1")
			r.gate.mu.Lock()
			r.gate.rtt = time.Millisecond
			r.gate.mu.Unlock()
			base := r.warm()
			r.bump()
			select {
			case <-r.runAsync():
			case <-time.After(30 * time.Second):
				r.sp.Close() // wakes a blocked enqueue, so the daemon can stop
				t.Fatal("steady pass did not complete")
			}
			if err := r.sp.Flush(); err != nil {
				t.Fatal(err)
			}
			c := r.sp.Counters()
			if c.Dropped != 0 || c.Rows != c.Enqueued || c.Rows != int64(2*base) {
				t.Errorf("rows=%d enqueued=%d dropped=%d, want %d, %d, 0", c.Rows, c.Enqueued, c.Dropped, 2*base, 2*base)
			}
			if c.QueuePeak > c.QueueCap {
				t.Errorf("queue_peak %d > queue cap %d", c.QueuePeak, c.QueueCap)
			}
			if got := r.d.storeHolds.Load(); got != 0 {
				t.Errorf("storeHolds = %d after the pass", got)
			}
		})
	}
}

// TestStoreDrainHoldReleased: every early return of pullProducer lets go of
// the hold. b is pulled first and fails in one of the ways it can, then a's
// steady pull holds its own fresh rows. With no flush ticker they reach the
// plugin only if b's hold was released, so a's release is the last.
func TestStoreDrainHoldReleased(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(r *drainRig) // before the pass
	}{
		{"not-connected", func(r *drainRig) { r.d.Producer("b").Stop() }},
		{"refreshDir", func(r *drainRig) { r.lns["b"].Close() }},
		{"connection-failure", func(r *drainRig) { r.gate.arm("b", 0, func() { r.lns["b"].Close() }) }},
		{"stop-mid-pass", func(r *drainRig) { r.gate.arm("b", 0, func() { r.d.Producer("b").Stop() }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDrainRig(t, 2, 2, map[string]string{"flush_interval": "0"}, "b", "a")
			r.u.SetConcurrency(1) // b, then a
			base := r.warm()
			errs := r.u.errors.Load()
			r.bump()
			tc.setup(r)
			r.u.run(time.Now())
			if got := r.d.storeHolds.Load(); got != 0 {
				t.Fatalf("storeHolds = %d after the pass", got)
			}
			waitUntil(t, 5*time.Second, func() bool { return r.stored() == base+2 }, "a's held rows")
			if st := r.d.Producer("b").State(); st == ProducerConnected && r.u.errors.Load() == errs {
				t.Errorf("b's pull did not fail (state %s)", st)
			}
		})
	}
}

// TestStoreDrainFlushBoundsHeldWait: with one store worker and two updaters
// whose passes overlap, the hold never reaches zero; the flush tick kicks
// the drain (and only submits it), so a row reaches the plugin within one
// flush interval and nothing deadlocks.
func TestStoreDrainFlushBoundsHeldWait(t *testing.T) {
	const flush = 100 * time.Millisecond
	r := newDrainRig(t, 1, 2, map[string]string{"flush_interval": flush.String()}, "a", "b")
	r.u.RemoveProducer("b")
	ub, err := r.d.AddUpdater("ub", time.Minute, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ub.AddProducer("b")
	for i := 0; i < 2; i++ {
		r.u.run(time.Now())
		ub.run(time.Now())
	}
	base := len(r.srcs)
	waitUntil(t, 5*time.Second, func() bool { return r.stored() == base }, "lookup pass rows")

	r.bump()
	act, hit, release := stallAct(t)
	r.gate.arm("b", 0, act)
	done := make(chan struct{})
	go func() { defer close(done); ub.run(time.Now()) }()
	<-hit // ub's steady pull now holds the drain for as long as the test likes
	r.u.run(time.Now())
	start := time.Now()
	waitUntil(t, 5*time.Second, func() bool { return r.stored() == base+2 }, "u's rows behind ub's hold")
	if waited := time.Since(start); waited > flush+50*time.Millisecond {
		t.Errorf("held rows waited %v, want at most one flush interval (%v)", waited, flush)
	}
	select {
	case <-done:
		t.Fatal("ub's pass ended early: the passes did not overlap")
	default:
	}
	release()
	<-done
	waitUntil(t, 5*time.Second, func() bool { return r.stored() == base+4 }, "ub's rows")
}

// allTypesSet builds one set with a metric of each of the ten value types.
func allTypesSet(t *testing.T) *metric.Set {
	t.Helper()
	sch := metric.NewSchema("alltypes")
	for typ := metric.TypeU8; typ <= metric.TypeD64; typ++ {
		sch.MustAddMetric(typ.String(), typ)
	}
	set, err := metric.New("n1/alltypes", sch, metric.WithCompID(7))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestStoreDrainRawChunkEquivalence puts every value type — signed minima,
// NaN, −0, infinities, f32 — through the raw-chunk ring and through the
// parent's path (ReadValues into a []Value at enqueue, the row stored as
// read) and requires equal rows and byte-identical store_csv output, for a
// policy with and without a SelectMetrics filter. The rows are held in the
// ring while the set is rewritten for the next sample, as the next pull
// rewrites a mirror: each must still store the sample it was enqueued as.
func TestStoreDrainRawChunkEquivalence(t *testing.T) {
	f32 := func(f float32) metric.Value {
		return metric.Value{Type: metric.TypeF32, Bits: uint64(math.Float32bits(f))}
	}
	d64 := func(f float64) metric.Value { return metric.Value{Type: metric.TypeD64, Bits: math.Float64bits(f)} }
	negZero32, negZero64 := float32(math.Copysign(0, -1)), math.Copysign(0, -1)
	samples := [][]metric.Value{
		{metric.U64Value(0), metric.S64Value(math.MinInt8), metric.U64Value(0), metric.S64Value(math.MinInt16), metric.U64Value(0),
			metric.S64Value(math.MinInt32), metric.U64Value(0), metric.S64Value(math.MinInt64), f32(float32(math.NaN())), d64(math.NaN())},
		{metric.U64Value(math.MaxUint8), metric.S64Value(math.MaxInt8), metric.U64Value(math.MaxUint16), metric.S64Value(math.MaxInt16), metric.U64Value(math.MaxUint32),
			metric.S64Value(math.MaxInt32), metric.U64Value(math.MaxUint64), metric.S64Value(math.MaxInt64), f32(negZero32), d64(negZero64)},
		{metric.U64Value(1), metric.S64Value(-1), metric.U64Value(2), metric.S64Value(-2), metric.U64Value(3),
			metric.S64Value(-3), metric.U64Value(4), metric.S64Value(-4), f32(float32(math.Inf(1))), d64(math.Inf(-1))},
		{metric.U64Value(7), metric.S64Value(0), metric.U64Value(7), metric.S64Value(0), metric.U64Value(7),
			metric.S64Value(0), metric.U64Value(1 << 63), metric.S64Value(0), f32(1.5e-45), d64(math.SmallestNonzeroFloat64)},
		{metric.U64Value(9), metric.S64Value(9), metric.U64Value(9), metric.S64Value(9), metric.U64Value(9),
			metric.S64Value(9), metric.U64Value(9), metric.S64Value(9), f32(3.14159), d64(math.Pi)},
	}
	sel := []string{"s8", "u64", "f32", "d64"}

	d := realDaemon(t, 1)
	dir := t.TempDir()
	policy := func(name, plugin string, filter []string) *StoragePolicy {
		sp, err := d.AddStoragePolicy(name, plugin, "alltypes", filepath.Join(dir, name), map[string]string{"flush_interval": "0"})
		if err != nil {
			t.Fatal(err)
		}
		if filter != nil {
			sp.SelectMetrics(filter)
		}
		return sp
	}
	csvAll, rowsAll := policy("csv_all", "store_csv", nil), policy("rows_all", "store_testpipe", nil)
	csvSel, rowsSel := policy("csv_sel", "store_csv", sel), policy("rows_sel", "store_testpipe", sel)

	set := allTypesSet(t)
	var names []string
	var types []metric.Type
	var selIdx []int
	for i := 0; i < set.Card(); i++ {
		names, types = append(names, set.MetricName(i)), append(types, set.MetricType(i))
		for _, s := range sel {
			if s == set.MetricName(i) {
				selIdx = append(selIdx, i)
			}
		}
	}
	var wantAll, wantSel []metric.Row
	if !d.holdStores() {
		t.Fatal("a real-clock daemon took no hold")
	}
	for k, vals := range samples {
		set.BeginTransaction()
		for i, v := range vals {
			set.SetValue(i, v)
		}
		set.EndTransaction(time.Unix(1_700_000_000+int64(k), int64(k)*1000))
		d.storeSet(set, true)
		// The parent's path: ReadValues into a []Value at enqueue.
		read := make([]metric.Value, set.Card())
		ts, _, _, _ := set.ReadValues(read)
		row := metric.Row{Time: ts, Instance: set.Name(), Schema: "alltypes", CompID: set.CompID(0), Names: names, Values: read}
		wantAll = append(wantAll, row)
		row.Names, row.Values = sel, nil
		for _, i := range selIdx {
			row.Values = append(row.Values, read[i])
		}
		wantSel = append(wantSel, row)
	}
	if got := rowsAll.Counters().QueueDepth; got != len(samples) {
		t.Fatalf("%d rows queued under the hold, want %d", got, len(samples))
	}
	held := true
	d.releaseStores(&held)

	for _, tc := range []struct {
		name      string
		csv, rows *StoragePolicy
		want      []metric.Row
		names     []string
		types     []metric.Type
	}{
		{"all", csvAll, rowsAll, wantAll, names, types},
		{"filtered", csvSel, rowsSel, wantSel, sel, []metric.Type{metric.TypeS8, metric.TypeU64, metric.TypeF32, metric.TypeD64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.rows.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := getPipeStore(t, filepath.Join(dir, tc.rows.Name())).stored(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("rows differ from the ReadValues path:\n got %v\nwant %v", got, tc.want)
			}
			if err := tc.csv.Close(); err != nil {
				t.Fatal(err)
			}
			ref := filepath.Join(dir, tc.name+".ref")
			st, err := store.New("store_csv", store.Config{Path: ref, Schema: "alltypes", Names: tc.names, Types: tc.types})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Batch(st, tc.want); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, tc.csv.Name()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("store_csv output differs from the ReadValues path:\n got %q\nwant %q", got, want)
			}
			if bytes.Count(got, []byte("\n")) != len(samples)+1 {
				t.Errorf("CSV has %d lines, want a header and %d rows", bytes.Count(got, []byte("\n")), len(samples))
			}
		})
	}
}
