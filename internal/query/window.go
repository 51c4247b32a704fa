// Package query is the aggregator's consumer-facing serving layer: an
// HTTP/JSON gateway over the freshest copy of every metric set the daemon
// holds in memory, a fixed-size in-memory "recent window" that answers
// short-horizon series queries without touching SOS/CSV storage, and a
// Prometheus-style text exposition of the daemon's own internals.
//
// The paper's aggregators already hold the most recent sample of every
// mirrored set; this package turns that passive mirror into a query
// surface. Reads are torn-read-safe: set snapshots go through a single
// lock acquisition (metric.Set.ReadValues) and carry the DGN and
// consistent flag, so a reader racing an update pass sees either the old
// chunk or the new one, never a mix (§III-A reader protocol).
//
// The window is built for heavy concurrent read traffic: the set index
// is sharded with striped locks (shard.go), per-series history can be
// held Gorilla-compressed (compress.go) to grow in-RAM retention ~10×
// at the same footprint, and dashboards can ask the server to
// downsample (`step=`) or fold series across producers (aggregate.go)
// so a 64-producer view is one request, not 64.
package query

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
)

// DefaultPoints is the per-series ring capacity when none is configured:
// at the paper's typical 1 s collection interval it holds a little over
// ten minutes of history.
const DefaultPoints = 1024

// DefaultRetention is the default maximum age served from the window.
const DefaultRetention = 10 * time.Minute

// WindowOptions configures a recent-window cache. Zero values select
// the defaults.
type WindowOptions struct {
	// Points is the per-series retained sample budget (default
	// DefaultPoints), the same with and without compression.
	Points int
	// Retention is the maximum history age served (default
	// DefaultRetention).
	Retention time.Duration
	// Shards is the set-index lock-stripe count, rounded up to a power
	// of two (default DefaultShards).
	Shards int
	// Compress stores sealed history Gorilla-compressed
	// (delta-of-delta timestamps + XOR values) behind a blockPoints-deep
	// uncompressed set block, cutting RAM per retained point ≥5×.
	Compress bool
}

// Window is the recent-window cache. One Observe call per fresh consistent
// sample writes the set's values as one row of its set block — one
// timestamp ring and one value matrix per set instance, as the set itself
// carries one transaction timestamp for all its metrics; Query, Latest and
// Aggregate answer entirely from RAM.
//
// Concurrency: the set index is hash-sharded with one RWMutex per shard
// (taken only to look up or create a set's block), so updater inserts and
// HTTP queries on different sets never contend on a single structure;
// each set block has its own mutex, held only for the duration of a row
// write or a column copy.
type Window struct {
	points    int
	retention time.Duration
	compress  bool

	shards []windowShard

	observed   atomic.Int64 // samples recorded
	skipped    atomic.Int64 // samples dropped (inconsistent or DGN-stale)
	queries    atomic.Int64 // Query + Latest calls answered
	aggregates atomic.Int64 // Aggregate calls answered

	// Latency tap: when set, every recorded sample's age (sample timestamp
	// vs latNow) lands in latHist — the "window" hop of the end-to-end
	// pipeline. latNow is the owning daemon's scheduler clock so virtual
	// runs stay deterministic.
	latHist *obs.Hist
	latNow  func() time.Time

	// now supplies the retention floor in Query. The owning daemon wires
	// it to the scheduler clock via SetClock so virtual-time runs prune
	// against simulated time; standalone windows fall back to wall time.
	now func() time.Time
}

// NewWindow creates a window holding up to points samples per series and
// serving at most retention of history, with default sharding and no
// compression. Zero values select the defaults.
func NewWindow(points int, retention time.Duration) *Window {
	return NewWindowOpts(WindowOptions{Points: points, Retention: retention})
}

// NewWindowOpts creates a window from the full option set.
func NewWindowOpts(o WindowOptions) *Window {
	if o.Points <= 0 {
		o.Points = DefaultPoints
	}
	if o.Retention <= 0 {
		o.Retention = DefaultRetention
	}
	w := &Window{
		points:    o.Points,
		retention: o.Retention,
		compress:  o.Compress,
		shards:    make([]windowShard, roundPow2(o.Shards)),
		//ldms:wallclock default clock for standalone windows; daemons override via SetClock
		now: time.Now,
	}
	for i := range w.shards {
		w.shards[i].sets = make(map[string]*setSeries)
	}
	return w
}

// SetClock routes the window's notion of "now" — the Query retention
// floor — through the given clock. The owning daemon passes its
// scheduler clock so virtual-time runs are deterministic. Call before
// the window starts serving; a nil clock is ignored.
func (w *Window) SetClock(now func() time.Time) {
	if now != nil {
		w.now = now
	}
}

// SetLatencyTap wires the window-insert hop of the latency pipeline: each
// sample recorded by Observe adds its age (now() minus the sample's
// transaction timestamp) to h. Call before the window starts observing.
func (w *Window) SetLatencyTap(h *obs.Hist, now func() time.Time) {
	w.latHist = h
	w.latNow = now
}

// Retention returns the maximum history age the window serves.
func (w *Window) Retention() time.Duration { return w.retention }

// Points returns the per-series retained sample budget.
func (w *Window) Points() int { return w.points }

// Compressed reports whether sealed history is Gorilla-compressed.
func (w *Window) Compressed() bool { return w.compress }

// Shards returns the set-index lock-stripe count.
func (w *Window) Shards() int { return len(w.shards) }

// setSeries is one set instance's recent history: the set block (every
// retained sample of every metric) plus, in compressed mode, the sealed
// blocks behind it.
type setSeries struct {
	instance string
	comp     uint64
	// schema is the block's directory: metric names, types and the name
	// index. Mirrors of one layout share it (metric.ParseMeta), so a fleet
	// of 1,000 instances of one sampler holds one.
	schema *metric.Schema
	layout *metric.Schema // the Schema last found equal to schema; guarded by the shard lock

	mu      sync.Mutex
	head    block
	sealed  *sealedRing // compressed mode only; head then holds blockPoints
	lastDGN uint64
	haveDGN bool
}

// block is a fixed-capacity ring of whole samples, the way the paper's set
// carries them: ONE transaction timestamp per sample in ts, and the
// sample's card raw 64-bit values as one contiguous row of vals
// (slot-major: slot k's row is vals[k*card:(k+1)*card]; each metric's
// metric.Type decodes its column). next is the slot the next commit
// publishes; n is the live count (saturates at capacity). unsorted counts
// the commits left until the last backwards step of a producer's clock has
// been overwritten; at 0 the stamps ascend in age order.
//
// Slot-major because ingest runs two orders of magnitude more often than
// reads: an Observe is one contiguous row write straight out of the set's
// data chunk, where a metric-major matrix would dirty card cache lines per
// sample; the price is that a series cut strides the matrix.
type block struct {
	card int
	ts   []int64
	vals []uint64
	next int
	n    int

	unsorted int
}

func newBlock(points, card int) block {
	return block{card: card, ts: make([]int64, points), vals: make([]uint64, points*card)}
}

// row is the slot the next commit publishes: the oldest sample's row once
// the ring is full, so a caller must not scribble on it unless it commits.
//
//ldms:hotpath per-sample window append; TestObserveAllocs guards 0 allocs
func (b *block) row() []uint64 {
	return b.vals[b.next*b.card : (b.next+1)*b.card]
}

// commit publishes row() as the newest sample, stamped ts, overwriting
// the oldest once full.
//
//ldms:hotpath per-sample window append; TestObserveAllocs guards 0 allocs
func (b *block) commit(ts int64) {
	if b.n > 0 && ts < b.ts[b.slot(b.n-1, b.n)] {
		b.unsorted = len(b.ts)
	} else if b.unsorted > 0 {
		b.unsorted--
	}
	b.ts[b.next] = ts
	b.next++
	if b.next == len(b.ts) {
		b.next = 0
	}
	if b.n < len(b.ts) {
		b.n++
	}
}

// slot maps age order onto the ring: the i-th oldest of the newest last
// samples (0 <= i < last <= n) lives in slot(i, last).
func (b *block) slot(i, last int) int {
	k := b.next - last + i
	if k < 0 {
		k += len(b.ts)
	}
	return k
}

// newestSince narrows the newest last samples to those that can be
// stamped at or after since: a binary search while the stamps ascend, no
// narrowing at all while a backwards step is still in the ring (the
// per-sample filter in appendSince then does the work, so the answer is
// exactly the samples at or after the bound either way).
func (b *block) newestSince(since int64, last int) int {
	if b.unsorted > 0 {
		return last
	}
	return last - sort.Search(last, func(i int) bool { return b.ts[b.slot(i, last)] >= since })
}

// appendSince appends column col of the newest last samples stamped at or
// after since, oldest first: the ring's older span, then the span that
// wrapped to its start. Caller holds the series lock.
func (b *block) appendSince(out []Point, col int, since int64, t metric.Type, last int) []Point {
	lo := b.slot(0, last)
	hi := min(lo+last, len(b.ts))
	for _, span := range [2][2]int{{lo, hi}, {0, last - (hi - lo)}} {
		for k := span[0]; k < span[1]; k++ {
			if ts := b.ts[k]; ts >= since {
				out = append(out, makePoint(ts, b.vals[k*b.card+col], t))
			}
		}
	}
	return out
}

// makePoint rebuilds a served Point from its stored representation.
func makePoint(ts int64, bits uint64, t metric.Type) Point {
	return Point{Time: time.Unix(0, ts), Value: metric.Value{Type: t, Bits: bits}}
}

// Observe records the set's current sample into the window. Inconsistent
// chunks and chunks whose DGN has not advanced since the last observation
// are dropped, mirroring the updater's own storage filter; a fresh one is
// read under the set's lock straight into the block's next row. It is
// safe to call concurrently with Query/Latest/Aggregate and with Observes
// of other sets.
func (w *Window) Observe(set *metric.Set) {
	ss := w.seriesFor(set)
	ss.mu.Lock()
	ts, dgn, fresh := set.ReadBits(ss.head.row(), ss.lastDGN, ss.haveDGN)
	if !fresh {
		ss.mu.Unlock()
		w.skipped.Add(1)
		return
	}
	ss.lastDGN, ss.haveDGN = dgn, true
	ss.head.commit(ts.UnixNano())
	if ss.sealed != nil {
		ss.sealed.committed(&ss.head)
	}
	ss.mu.Unlock()
	w.observed.Add(1)
	if w.latHist != nil && !ts.IsZero() {
		w.latHist.Record(w.latNow().Sub(ts))
	}
}

// seriesFor returns the set's series block, creating it if needed. The
// block is the set's while their schemas are the same pointer, which mirrors
// of one layout share however often they are rebuilt. A set that arrives
// under the name with another Schema object (a re-created local set)
// continues the series if the layout is equal; under another layout it is a
// new set and starts a new block, so a row never mixes two layouts.
func (w *Window) seriesFor(set *metric.Set) *setSeries {
	name, schema := set.Name(), set.Schema()
	sh := w.shardFor(name)
	sh.mu.RLock()
	ss := sh.sets[name]
	known := ss != nil && ss.layout == schema
	sh.mu.RUnlock()
	if known {
		return ss
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ss = sh.sets[name]; ss != nil && ss.schema.Equal(schema) {
		ss.layout = schema
		return ss
	}
	ss = &setSeries{instance: name, comp: set.CompID(0), schema: schema, layout: schema}
	if w.compress {
		ss.head = newBlock(blockPoints, set.Card())
		ss.sealed = newSealedRing(w.points, set.Card())
	} else {
		ss.head = newBlock(w.points, set.Card())
	}
	sh.sets[name] = ss
	return ss
}

// Forget drops the named set's series (the set left the directory). Queries
// issued concurrently finish against the old block.
func (w *Window) Forget(instance string) {
	sh := w.shardFor(instance)
	sh.mu.Lock()
	delete(sh.sets, instance)
	sh.mu.Unlock()
}

// Point is one sample of a series as served to consumers.
type Point struct {
	Time  time.Time
	Value metric.Value
}

// Series is one (instance, metric) series over the queried window, points
// in ascending time order.
type Series struct {
	Instance string
	Schema   string
	Metric   string
	CompID   uint64
	Type     metric.Type
	Points   []Point
}

// Query returns every series for the named metric — across all producers,
// or only component comp when comp != 0 — restricted to points at or after
// since (and never older than the window's retention). The result is
// sorted by instance name and built entirely from the in-memory storage;
// compressed blocks decode on the fly, skipping blocks wholly outside
// the bound.
func (w *Window) Query(metricName string, comp uint64, since time.Time) []Series {
	w.queries.Add(1)
	floor := w.now().Add(-w.retention)
	if since.Before(floor) {
		since = floor
	}
	sinceNanos := since.UnixNano()

	var out []Series
	for _, ss := range w.blocks() {
		col, ok := ss.schema.Lookup(metricName)
		if !ok || (comp != 0 && ss.comp != comp) {
			continue
		}
		ss.mu.Lock()
		pts := ss.cut(col, sinceNanos, w.points)
		ss.mu.Unlock()
		if len(pts) > 0 {
			out = append(out, ss.series(col, pts))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Instance < out[b].Instance })
	return out
}

// series labels one metric's served points with the block's identity.
func (ss *setSeries) series(col int, pts []Point) Series {
	return Series{
		Instance: ss.instance,
		Schema:   ss.schema.Name(),
		Metric:   ss.schema.Def(col).Name,
		CompID:   ss.comp,
		Type:     ss.schema.Def(col).Type,
		Points:   pts,
	}
}

// cut extracts column col's points stamped at or after since, oldest
// first, or nil when there are none. Both storages serve the newest
// points samples and no more. Caller holds the series lock.
func (ss *setSeries) cut(col int, since int64, points int) []Point {
	t := ss.schema.Def(col).Type
	if ss.sealed == nil {
		last := ss.head.newestSince(since, ss.head.n)
		if last == 0 {
			return nil
		}
		return ss.head.appendSince(make([]Point, 0, last), col, since, t, last)
	}
	// Sealed capacity rounds up to whole blocks: skip what it holds beyond
	// the budget so Points means the same thing with and without Compress.
	pending := ss.sealed.pending
	out := ss.sealed.appendSince(nil, col, since, t, ss.sealed.n*blockPoints+pending-points)
	return ss.head.appendSince(out, col, since, t, ss.head.newestSince(since, min(pending, points)))
}

// Latest returns the newest recorded point of the named metric for every
// matching series (comp == 0 matches all components), sorted by instance.
// It is O(1) per series in both storages: the newest sample is always in
// the set block, never behind a block decode.
func (w *Window) Latest(metricName string, comp uint64) []Series {
	w.queries.Add(1)
	var out []Series
	for _, ss := range w.blocks() {
		col, ok := ss.schema.Lookup(metricName)
		if !ok || (comp != 0 && ss.comp != comp) {
			continue
		}
		ss.mu.Lock()
		// Sealing never empties the head, so the newest sample is its
		// newest row in both storages.
		pts := ss.head.appendSince(nil, col, math.MinInt64, ss.schema.Def(col).Type, min(ss.head.n, 1))
		ss.mu.Unlock()
		if len(pts) > 0 {
			out = append(out, ss.series(col, pts))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Instance < out[b].Instance })
	return out
}

// MetricNames lists every metric name present in the window, sorted.
func (w *Window) MetricNames() []string {
	seen := make(map[string]bool)
	walked := make(map[*metric.Schema]bool) // a fleet's blocks share a few schemas
	for _, ss := range w.blocks() {
		if walked[ss.schema] {
			continue
		}
		walked[ss.schema] = true
		for i := 0; i < ss.schema.Card(); i++ {
			seen[ss.schema.Def(i).Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// blocks snapshots the series-block list across every shard.
func (w *Window) blocks() []*setSeries {
	var out []*setSeries
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.RLock()
		for _, ss := range sh.sets {
			out = append(out, ss)
		}
		sh.mu.RUnlock()
	}
	return out
}

// WindowStats is a snapshot of the window's own counters, for /metrics.
type WindowStats struct {
	SeriesSets int   // set instances tracked
	Series     int   // individual metric series
	Points     int64 // samples currently retained across all series
	Bytes      int64 // storage footprint: timestamp columns, matrices, sealed blocks
	Observed   int64 // samples recorded
	Skipped    int64 // samples dropped (inconsistent / stale DGN)
	Queries    int64 // Query/Latest calls served
	Aggregates int64 // Aggregate calls served
}

// Stats returns the window's counters. Points and Bytes take each set
// block's mutex briefly; Bytes counts every timestamp column, value
// matrix and sealed buffer (names and types are the sets' schemas').
func (w *Window) Stats() WindowStats {
	st := WindowStats{
		Observed:   w.observed.Load(),
		Skipped:    w.skipped.Load(),
		Queries:    w.queries.Load(),
		Aggregates: w.aggregates.Load(),
	}
	for _, ss := range w.blocks() {
		st.SeriesSets++
		st.Series += ss.head.card
		ss.mu.Lock()
		retained := ss.head.n
		st.Bytes += int64(8 * (len(ss.head.ts) + len(ss.head.vals)))
		if ss.sealed != nil {
			retained = ss.sealed.n*blockPoints + ss.sealed.pending
			st.Bytes += int64(ss.sealed.bytes())
		}
		ss.mu.Unlock()
		st.Points += int64(retained * ss.head.card)
	}
	return st
}
