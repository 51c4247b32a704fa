package ldmsd

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
	"goldms/internal/sched"
	"goldms/internal/store"
)

// StoragePolicy routes fresh consistent samples of one schema to a store
// plugin through an asynchronous bounded queue, so storage latency never
// back-pressures the pull path (the paper runs store plugins on
// aggregators with a dedicated flush pool for exactly this reason).
//
// The pull path's storeSet call is a cheap enqueue: a copy of the set's
// data chunk into a free-listed buffer, pushed onto a per-policy ring. A
// drain job on the daemon's store worker pool takes rows off the ring in
// batches, decodes them through the policy's schema and hands them to the
// plugin's StoreBatch (one lock acquisition and one buffered write per
// batch). A flush ticker per policy amortizes fsync cost across batches.
//
// The pull goes first: a steady updater pull holds the drain (holdStores),
// so a store that computes does not take the pass's core while it pulls.
// The hold gives way at half a ring and at each flush tick.
//
// Overflow is explicit: with overflow=drop-oldest (the default) a full
// ring drops its oldest row and the enqueue never blocks; with
// overflow=block the enqueue waits for the drain worker, trading pull
// latency for losslessness.
//
// Under a virtual clock (simulated experiments) there is no store pool
// and the queue drains inline on enqueue, keeping experiments synchronous
// and deterministic.
//
// The store instance is created lazily on the first matching sample, when
// the column set is known. Storage may be specified at {producer, metric
// name} granularity in LDMS; here the typical use case — per metric set
// schema — is implemented, with an optional metric filter.
type StoragePolicy struct {
	d       *Daemon
	name    string
	plugin  string
	schema  string
	path    string
	options map[string]string

	queueCap   int
	batchMax   int
	flushEvery time.Duration
	dropOldest bool

	mu           sync.Mutex
	notFull      sync.Cond // overflow=block enqueuers wait here
	idle         sync.Cond // broadcast when a drain run finishes
	ring         []*queuedRow
	head, n      int
	peak         int // most rows the ring has held at once
	draining     bool
	st           store.Store
	fail         error
	closed       bool
	flushTask    *sched.Task
	metricSel    map[string]bool // nil = all metrics
	dropWarned   bool            // first overflow drop has been journaled
	layoutWarned bool            // first row of another metric list has been journaled

	// Column layout, fixed at the first matching sample. layout is the
	// Schema last found to carry it (mirrors of one layout share theirs, so
	// the check per row is a pointer compare); names is shared by every
	// queued Row; selIdx maps row columns to set indices when a metric
	// filter is active (nil = identity).
	layout *metric.Schema
	names  []string
	types  []metric.Type
	selIdx []int

	// Queued rows and their chunk buffers cycle enqueue → drain → free
	// (guarded by mu); the ring holds pointers, so a queue sized for a burst
	// costs 8 bytes a slot. taken, batchBuf and vals are the scratch of the
	// one drain run in flight: the rows it took off the ring, and the plugin
	// rows and values it decoded them into.
	free     []*queuedRow
	taken    []*queuedRow
	batchBuf []metric.Row
	vals     []metric.Value

	rows       atomic.Int64 // rows the plugin accepted
	enqueued   atomic.Int64 // rows pushed onto the queue
	dropped    atomic.Int64 // rows lost to overflow or a failed policy
	batches    atomic.Int64 // StoreBatch/Batch calls issued
	storeNanos atomic.Int64 // cumulative time inside store writes
	flushes    atomic.Int64
	flushNanos atomic.Int64 // cumulative time inside store.Flush
}

// queuedRow is a sample waiting in the ring. chunk is a copy of the set's
// data chunk taken at enqueue, because the next pull rewrites the mirror in
// place: the drain decodes this copy and never reads the live set.
type queuedRow struct {
	chunk    []byte
	instance string
	compID   uint64
}

// Storage pipeline defaults; override per policy with
// strgp_add queue= batch= flush_interval= overflow=.
const (
	defaultStoreQueue = 1024
	defaultStoreBatch = 256
	defaultStoreFlush = time.Second
)

// StorageCounters is a snapshot of a policy's write activity for the
// query gateway's self-metrics and strgp_status.
type StorageCounters struct {
	Rows       int64 // rows the plugin accepted
	Enqueued   int64 // rows pushed onto the queue
	Dropped    int64 // rows lost to overflow or a failed policy
	Batches    int64 // batched plugin calls
	QueueDepth int   // rows waiting in the ring right now
	QueuePeak  int   // most rows the ring has held at once
	QueueCap   int
	StoreNanos int64
	Flushes    int64
	FlushNanos int64
	Failed     bool // sticky error disabled the policy
}

// Counters snapshots the policy's write counters.
func (sp *StoragePolicy) Counters() StorageCounters {
	sp.mu.Lock()
	depth, peak := sp.n, sp.peak
	failed := sp.fail != nil
	sp.mu.Unlock()
	return StorageCounters{
		Rows:       sp.rows.Load(),
		Enqueued:   sp.enqueued.Load(),
		Dropped:    sp.dropped.Load(),
		Batches:    sp.batches.Load(),
		QueueDepth: depth,
		QueuePeak:  peak,
		QueueCap:   sp.queueCap,
		StoreNanos: sp.storeNanos.Load(),
		Flushes:    sp.flushes.Load(),
		FlushNanos: sp.flushNanos.Load(),
		Failed:     failed,
	}
}

// Name returns the policy name.
func (sp *StoragePolicy) Name() string { return sp.name }

// Schema returns the schema this policy stores.
func (sp *StoragePolicy) Schema() string { return sp.schema }

// Plugin returns the store plugin name.
func (sp *StoragePolicy) Plugin() string { return sp.plugin }

// AddStoragePolicy registers a storage policy: samples of the given schema
// are written with the named store plugin at path. The pipeline knobs are
// read from options (and not passed on to the plugin):
//
//	queue=<n>           ring capacity in rows (default 1024)
//	batch=<n>           max rows per plugin call (default 256)
//	flush_interval=<d>  periodic flush cadence; 0 disables (default 1s)
//	overflow=<policy>   drop-oldest (default) or block
func (d *Daemon) AddStoragePolicy(name, plugin, schema, path string, options map[string]string) (*StoragePolicy, error) {
	if schema == "" {
		return nil, fmt.Errorf("ldmsd %s: storage policy %q needs a schema", d.name, name)
	}
	sp := &StoragePolicy{
		d: d, name: name, plugin: plugin, schema: schema, path: path,
		options:    options,
		queueCap:   defaultStoreQueue,
		batchMax:   defaultStoreBatch,
		flushEvery: defaultStoreFlush,
		dropOldest: true,
	}
	if v, ok := popOption(options, "queue"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("ldmsd %s: storage policy %q: bad queue %q", d.name, name, v)
		}
		sp.queueCap = n
	}
	if v, ok := popOption(options, "batch"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("ldmsd %s: storage policy %q: bad batch %q", d.name, name, v)
		}
		sp.batchMax = n
	}
	if v, ok := popOption(options, "flush_interval"); ok {
		iv, err := parseInterval(v)
		if err != nil || iv < 0 {
			return nil, fmt.Errorf("ldmsd %s: storage policy %q: bad flush_interval %q", d.name, name, v)
		}
		sp.flushEvery = iv
	}
	if v, ok := popOption(options, "overflow"); ok {
		switch v {
		case "drop-oldest":
			sp.dropOldest = true
		case "block":
			sp.dropOldest = false
		default:
			return nil, fmt.Errorf("ldmsd %s: storage policy %q: bad overflow %q (want drop-oldest or block)", d.name, name, v)
		}
	}
	sp.notFull.L = &sp.mu
	sp.idle.L = &sp.mu
	sp.ring = make([]*queuedRow, sp.queueCap)

	d.mu.Lock()
	if _, dup := d.strgps[name]; dup {
		d.mu.Unlock()
		return nil, fmt.Errorf("ldmsd %s: storage policy %q already exists", d.name, name)
	}
	d.strgps[name] = sp
	d.publishStrgpsLocked()
	d.mu.Unlock()

	// The flush ticker amortizes fsync across batches (real clock only:
	// virtual-time runs store synchronously and flush on close, so
	// simulated days don't pay a real fsync per simulated second).
	if sp.flushEvery > 0 && d.storePool() != nil {
		sp.flushTask = d.sch.Every(sp.flushEvery, 0, false, func(time.Time) { sp.flushTick() })
	}
	return sp, nil
}

// popOption removes and returns a pipeline option so it is not passed to
// the store plugin.
func popOption(options map[string]string, key string) (string, bool) {
	v, ok := options[key]
	if ok {
		delete(options, key)
	}
	return v, ok
}

// StoragePolicy returns the named policy, or nil.
func (d *Daemon) StoragePolicy(name string) *StoragePolicy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.strgps[name]
}

// SelectMetrics restricts the stored columns to the named metrics. It has
// no effect once the first sample has fixed the column layout.
func (sp *StoragePolicy) SelectMetrics(names []string) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.metricSel = make(map[string]bool, len(names))
	for _, n := range names {
		sp.metricSel[n] = true
	}
}

// Store returns the underlying store plugin (nil until the first sample).
func (sp *StoragePolicy) Store() store.Store {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.st
}

// storeSet fans a fresh consistent sample out to the gateway's recent
// window (when one is running) and to every matching storage policy. Both
// taps are cheap on the pull path: one atomic load each, and the policy
// side is an enqueue, not a store write. held says the caller is a steady
// pull holding the drain (holdStores).
func (d *Daemon) storeSet(set *metric.Set, held bool) {
	windowed := false
	if w := d.window.Load(); w != nil {
		w.Observe(set)
		windowed = true
	}
	enqueued := false
	if policies := d.strgpList.Load(); policies != nil {
		for _, sp := range *policies {
			if sp.schema == set.SchemaName() {
				sp.enqueue(set, held)
				enqueued = true
			}
		}
	}
	// Stamp the window/store stages on the sample's hop chain. Samples that
	// reach neither tap pay nothing here.
	if windowed || enqueued {
		d.trace.stored(set, windowed, enqueued)
	}
}

// publishStrgpsLocked refreshes the lock-free policy list the pull path
// reads. Caller holds d.mu.
func (d *Daemon) publishStrgpsLocked() {
	list := mapValues(d.strgps)
	d.strgpList.Store(&list)
}

// holdStores marks a steady pull in flight: until its releaseStores, rows
// enqueued with held start no drain. Under a virtual clock the queue drains
// inline and nothing is held; it reports whether it took the hold.
func (d *Daemon) holdStores() bool {
	if d.storePool() == nil {
		return false
	}
	d.storeHolds.Add(1)
	return true
}

// releaseStores ends the hold *held took, if it still has it. The last hold
// let go kicks every policy with rows queued.
func (d *Daemon) releaseStores(held *bool) {
	if !*held {
		return
	}
	*held = false
	if d.storeHolds.Add(-1) > 0 {
		return
	}
	if policies := d.strgpList.Load(); policies != nil {
		for _, sp := range *policies {
			sp.kick()
		}
	}
}

// enqueue snapshots one sample onto the policy's ring, its data chunk
// copied into a free-listed buffer; the drain decodes it. held says the
// caller holds the drain. Called concurrently by updater pull goroutines.
func (sp *StoragePolicy) enqueue(set *metric.Set, held bool) {
	sp.mu.Lock()
	if sp.closed || sp.fail != nil {
		sp.dropped.Add(1)
		sp.mu.Unlock()
		return
	}
	if set.Schema() != sp.layout && !sp.initColumnsLocked(set) {
		sp.dropped.Add(1)
		sp.mu.Unlock()
		return
	}
	var row *queuedRow
	if k := len(sp.free); k > 0 {
		row, sp.free = sp.free[k-1], sp.free[:k-1]
	} else {
		row = &queuedRow{chunk: make([]byte, sp.layout.DataSize())}
	}
	set.CopyDataInto(row.chunk)
	row.instance, row.compID = set.Name(), set.CompID(0)
	for sp.n == sp.queueCap {
		if sp.dropOldest {
			sp.free = append(sp.free, sp.ring[sp.head])
			sp.ring[sp.head] = nil
			sp.head = (sp.head + 1) % sp.queueCap
			sp.n--
			sp.dropped.Add(1)
			if !sp.dropWarned {
				// Journal the first overflow only; a persistently slow
				// backend would otherwise flood the ring. The dropped
				// counter carries the running total.
				sp.dropWarned = true
				sp.d.journal.Append(obs.SevWarn, obs.CompStore, sp.name, 0,
					"store queue overflow: dropping oldest rows")
			}
		} else {
			sp.notFull.Wait()
			if sp.closed || sp.fail != nil {
				sp.free = append(sp.free, row)
				sp.dropped.Add(1)
				sp.mu.Unlock()
				return
			}
		}
	}
	sp.ring[(sp.head+sp.n)%sp.queueCap] = row
	sp.n++
	sp.peak = max(sp.peak, sp.n)
	sp.enqueued.Add(1)
	// A held row waits for the end of the pass unless the ring is half full:
	// the drain then starts with half the ring still free, and a full ring
	// always has a drain in flight.
	kick := !held || 2*sp.n >= sp.queueCap
	sp.mu.Unlock()
	if kick {
		sp.kick()
	}
}

// kick starts a drain of the rows queued unless one runs already. It only
// submits the drain, never waits for one: with one store worker, a flush
// job waiting on a drain queued behind it would never finish.
func (sp *StoragePolicy) kick() {
	sp.mu.Lock()
	start := sp.n > 0 && !sp.draining && sp.fail == nil
	if start {
		sp.draining = true
	}
	sp.mu.Unlock()
	if start {
		sp.submitDrain()
	}
}

// initColumnsLocked fixes the policy's column layout from the first
// matching sample, applying the metric filter, and admits a later set that
// brings a Schema object of its own when the layout is equal. It reports
// false for a set of the schema's name under another metric list, whose
// values would land in the wrong columns. Caller holds sp.mu.
func (sp *StoragePolicy) initColumnsLocked(set *metric.Set) bool {
	if sp.layout != nil {
		if !sp.layout.Equal(set.Schema()) {
			if !sp.layoutWarned {
				sp.layoutWarned = true
				sp.d.journal.Appendf(obs.SevWarn, obs.CompStore, sp.name, 0,
					"set %s has another metric list than the policy's columns: its rows are dropped", set.Name())
			}
			return false
		}
		sp.layout = set.Schema()
		return true
	}
	sp.layout = set.Schema()
	card := set.Card()
	names := make([]string, 0, card)
	types := make([]metric.Type, 0, card)
	var sel []int
	for i := 0; i < card; i++ {
		n := set.MetricName(i)
		if sp.metricSel != nil && !sp.metricSel[n] {
			continue
		}
		names = append(names, n)
		types = append(types, set.MetricType(i))
		sel = append(sel, i)
	}
	sp.names = names
	sp.types = types
	if len(sel) != card {
		sp.selIdx = sel
	}
	return true
}

// submitDrain schedules a drain run on the daemon's store pool, or runs
// it inline when there is none (virtual clock) or the pool is stopping.
func (sp *StoragePolicy) submitDrain() {
	if pool := sp.d.storePool(); pool != nil && pool.Submit(sp.drain) {
		return
	}
	sp.drain()
}

// drain empties the ring in batches of at most batchMax rows, decoding
// each batch and handing it to the plugin outside the policy lock.
// Exactly one drain runs at a time (the draining flag).
func (sp *StoragePolicy) drain() {
	sp.mu.Lock()
	for sp.n > 0 && sp.fail == nil {
		if sp.st == nil {
			if err := sp.openStoreLocked(); err != nil {
				sp.failLocked(err)
				break
			}
		}
		k := min(sp.n, sp.batchMax)
		taken := sp.taken[:0]
		for i := 0; i < k; i++ {
			j := (sp.head + i) % sp.queueCap
			taken = append(taken, sp.ring[j])
			sp.ring[j] = nil
		}
		sp.taken = taken
		sp.head = (sp.head + k) % sp.queueCap
		sp.n -= k
		sp.notFull.Broadcast()
		st, layout, sel, names := sp.st, sp.layout, sp.selIdx, sp.names
		sp.mu.Unlock()

		if need := k * len(names); len(sp.vals) < need {
			sp.vals = make([]metric.Value, min(sp.batchMax, sp.queueCap)*len(names))
		}
		batch := sp.batchBuf[:0]
		for i, q := range taken {
			lo, hi := i*len(names), (i+1)*len(names)
			vals := sp.vals[lo:hi:hi]
			batch = append(batch, metric.Row{
				Time:     layout.DecodeChunk(q.chunk, sel, vals),
				Instance: q.instance, Schema: sp.schema, CompID: q.compID,
				Names: names, Values: vals,
			})
		}
		sp.batchBuf = batch

		start := sp.d.sch.Now()
		err := store.Batch(st, batch)
		sp.storeNanos.Add(sp.d.sch.Now().Sub(start).Nanoseconds())

		if err == nil {
			// Store-hop latency: sample age when its row reached the
			// plugin. One scheduler read per batch, one atomic increment
			// per row.
			now := sp.d.sch.Now()
			for i := range batch {
				if !batch[i].Time.IsZero() {
					sp.d.lat.Store.Record(now.Sub(batch[i].Time))
				}
			}
		}

		sp.mu.Lock()
		sp.free = append(sp.free, taken...)
		clear(taken)
		if err != nil {
			sp.dropped.Add(int64(len(batch)))
			sp.failLocked(err)
			break
		}
		sp.rows.Add(int64(len(batch)))
		sp.batches.Add(1)
	}
	sp.draining = false
	sp.idle.Broadcast()
	sp.mu.Unlock()
}

// openStoreLocked instantiates the plugin on the first drained sample.
// Caller holds sp.mu.
func (sp *StoragePolicy) openStoreLocked() error {
	st, err := store.New(sp.plugin, store.Config{
		Path:    sp.path,
		Schema:  sp.schema,
		Names:   sp.names,
		Types:   sp.types,
		Options: sp.options,
	})
	if err != nil {
		return err
	}
	sp.st = st
	return nil
}

// failLocked records a sticky plugin error and discards the queue: a
// failed policy drops rows (counted) instead of blocking collection.
// Caller holds sp.mu.
func (sp *StoragePolicy) failLocked(err error) {
	sp.fail = err
	sp.d.journal.Appendf(obs.SevError, obs.CompStore, sp.name, 0,
		"store plugin %s failed, policy disabled: %v", sp.plugin, err)
	sp.dropped.Add(int64(sp.n))
	clear(sp.ring)
	sp.free = nil
	sp.head, sp.n = 0, 0
	sp.notFull.Broadcast()
}

// flushTick is the periodic flush: it kicks a drain of rows held by passes
// that overlap back to back, then flushes plugin buffers and fsyncs,
// skipped while the store pool has no free worker so a slow backend cannot
// pile up flush jobs.
func (sp *StoragePolicy) flushTick() {
	pool := sp.d.storePool()
	if pool == nil {
		return
	}
	sp.kick()
	pool.TrySubmit(func() {
		sp.mu.Lock()
		st := sp.st
		sp.mu.Unlock()
		if st == nil {
			return
		}
		start := sp.d.sch.Now()
		if err := st.Flush(); err == nil {
			sp.flushes.Add(1)
			sp.flushNanos.Add(sp.d.sch.Now().Sub(start).Nanoseconds())
		}
	})
}

// Err returns the sticky error that disabled the policy, if any.
func (sp *StoragePolicy) Err() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.fail
}

// Rows returns the number of samples written.
func (sp *StoragePolicy) Rows() int64 { return sp.rows.Load() }

// Dropped returns the number of samples lost to overflow or failure.
func (sp *StoragePolicy) Dropped() int64 { return sp.dropped.Load() }

// settleLocked waits until the queue is empty and no drain is running,
// draining inline if no worker picks the queue up. Caller holds sp.mu;
// returns with sp.mu held.
func (sp *StoragePolicy) settleLocked() {
	for {
		if sp.draining {
			sp.idle.Wait()
			continue
		}
		if sp.n > 0 && sp.fail == nil {
			sp.draining = true
			sp.mu.Unlock()
			sp.drain()
			sp.mu.Lock()
			continue
		}
		return
	}
}

// Flush drains everything enqueued so far and forces it to stable
// storage, so "Flush then read the container" keeps its synchronous
// meaning for tests and analysis tooling.
func (sp *StoragePolicy) Flush() error {
	sp.mu.Lock()
	//ldms:lockorder settleLocked releases sp.mu before draining and re-acquires it to return, so sp.mu is never held across the drain
	sp.settleLocked()
	st := sp.st
	sp.mu.Unlock()
	if st == nil {
		return nil
	}
	start := sp.d.sch.Now()
	err := st.Flush()
	sp.flushes.Add(1)
	sp.flushNanos.Add(sp.d.sch.Now().Sub(start).Nanoseconds())
	return err
}

// Close drains the queue, then flushes and closes the store plugin.
func (sp *StoragePolicy) Close() error {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return nil
	}
	sp.closed = true
	sp.notFull.Broadcast() // wake blocked enqueuers to bail out
	sp.settleLocked()
	ft := sp.flushTask
	sp.flushTask = nil
	st := sp.st
	sp.st = nil
	sp.mu.Unlock()
	if ft != nil {
		ft.Cancel()
	}
	if st == nil {
		return nil
	}
	return st.Close()
}
