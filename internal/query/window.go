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
// is sharded with striped locks (shard.go), each set keeps only the
// values that changed from one sample to the next, and dashboards can
// ask the server to downsample (`step=`) or fold series across producers
// (aggregate.go) so a 64-producer view is one request, not 64.
package query

import (
	"math/bits"
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
	// DefaultPoints).
	Points int
	// Retention is the maximum history age served (default
	// DefaultRetention).
	Retention time.Duration
	// Shards is the set-index lock-stripe count, rounded up to a power
	// of two (default DefaultShards).
	Shards int
}

// Window is the recent-window cache. One Observe call per fresh consistent
// sample appends it to the set's change log — one timestamp per sample, as
// the set itself carries one transaction timestamp for all its metrics,
// and only the values that changed since the set's previous sample;
// Query, Latest and Aggregate answer entirely from RAM.
//
// Concurrency: the set index is hash-sharded with one RWMutex per shard
// (taken only to look up or create a set's log), so updater inserts and
// HTTP queries on different sets never contend on a single structure;
// each set's log has its own mutex, held only for the duration of a row
// write or a column cut.
type Window struct {
	points    int
	retention time.Duration

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
// serving at most retention of history, with default sharding. Zero
// values select the defaults.
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

// Shards returns the set-index lock-stripe count.
func (w *Window) Shards() int { return len(w.shards) }

// setSeries is one set instance's recent history: its change log.
type setSeries struct {
	instance string
	comp     uint64
	// schema is the log's directory: metric names, types and the name
	// index. Mirrors of one layout share it (metric.ParseMeta), so a fleet
	// of 1,000 instances of one sampler holds one.
	schema *metric.Schema
	layout *metric.Schema // the Schema last found equal to schema; guarded by the shard lock

	mu      sync.Mutex
	rows    changeLog
	lastDGN uint64
	haveDGN bool
}

// fullRow marks a changeLog row stored whole; the rest of at's entry is
// the row's offset in vals.
const fullRow = 1 << 31

// changeLog is one set's retained samples, each stored as the metrics that
// changed since the set's previous sample.
//
// ts is a fixed ring of transaction stamps, ONE per sample: next is the
// slot the next commit publishes, n the live count (saturates at
// capacity), and unsorted counts the commits left until the last
// backwards step of a producer's clock has been overwritten; at 0 the
// stamps ascend in age order.
//
// vals is a circular log of rows, and at[k] is the offset of ring slot k's
// row in it. A row is a change mask of words 64-bit words (bit c set when
// metric c's raw bits changed) followed by the changed values in column
// order, or — when that would be no smaller, and for a set's first sample —
// all card values, flagged fullRow in at. A row never wraps around the
// log's end. last is the newest sample whole, so Latest and the next
// Observe's diff read it directly; base is the sample before the oldest
// retained row, so a column's value at a row is its last change at or
// before that row, or base's.
type changeLog struct {
	card, words int

	ts       []int64
	at       []uint32
	next     int
	n        int
	unsorted int

	vals []uint64
	head int // offset just past the newest row in vals

	last []uint64
	base []uint64
	mask []uint64 // the change mask of the row being committed
}

func newChangeLog(points, card int) changeLog {
	words := (card + 63) / 64
	return changeLog{
		card: card, words: words,
		ts: make([]int64, points), at: make([]uint32, points),
		last: make([]uint64, card), base: make([]uint64, card), mask: make([]uint64, words),
	}
}

// row returns ring slot k's row offset and whether it is stored whole.
func (l *changeLog) row(k int) (off int, full bool) {
	return int(l.at[k] &^ fullRow), l.at[k]&fullRow != 0
}

// rowLen returns the number of vals slots ring slot k's row takes.
func (l *changeLog) rowLen(k int) int {
	off, full := l.row(k)
	if full {
		return l.card
	}
	n := l.words
	for _, m := range l.vals[off : off+l.words] {
		n += bits.OnesCount64(m)
	}
	return n
}

// reserve returns the offset of card free contiguous slots in vals for the
// next sample to be read into, growing the log when there are none. Once
// the ring is full the oldest row counts as free: the commit that fills
// the slots evicts it, and swapOldest folds it into base first.
//
//ldms:hotpath per-sample window append; TestObserveAllocs guards 0 allocs
func (l *changeLog) reserve() int {
	kept, first := l.n, 0
	if l.n == len(l.ts) {
		kept, first = l.n-1, 1
	}
	if kept == 0 {
		if len(l.vals) >= l.card {
			return 0
		}
	} else if t, _ := l.row(l.slot(first, l.n)); t < l.head {
		// The kept rows lie in [t, head): free are [head, end) and [0, t).
		if len(l.vals)-l.head >= l.card {
			return l.head
		}
		if t >= l.card {
			return 0
		}
	} else if t-l.head >= l.card {
		// The kept rows wrap around the end: free is [head, t).
		return l.head
	}
	l.grow()
	return l.head
}

// grow moves every row, the oldest included, to the front of a larger log,
// with room for them and a sample. From the second row on it sizes the log
// for the steady state at once, so the peak a fleet's logs reach while
// they fill is no higher than their final size: points-1 rows of the mean
// length seen (the oldest left out, as a set's first row is always whole),
// a sample, and a row's worth for the end of the log a row cannot wrap
// into — or, when the rows are whole, exactly points of them, which fit
// with no end left over.
func (l *changeLog) grow() {
	used := 0
	for i := 0; i < l.n; i++ {
		used += l.rowLen(l.slot(i, l.n))
	}
	size := used + l.card
	if l.n > 1 {
		rest := used - l.rowLen(l.slot(0, l.n))
		mean := (rest + l.n - 2) / (l.n - 1)
		size = max(size, min(len(l.ts)*l.card, (len(l.ts)-1)*mean+2*l.card))
	}
	if size <= len(l.vals) {
		size = len(l.vals) + l.card // the old log was big enough, only cut up
	}
	vals := make([]uint64, size)
	pos := 0
	for i := 0; i < l.n; i++ {
		k := l.slot(i, l.n)
		off, _ := l.row(k)
		n := l.rowLen(k)
		copy(vals[pos:], l.vals[off:off+n])
		l.at[k] = uint32(pos) | l.at[k]&fullRow
		pos += n
	}
	l.vals, l.head = vals, pos
}

// swapOldest exchanges the oldest row's values with base's: it folds the
// row into base, and a second call undoes the fold.
//
//ldms:hotpath per-sample window eviction; TestObserveAllocs guards 0 allocs
func (l *changeLog) swapOldest() {
	off, full := l.row(l.slot(0, l.n))
	if full {
		row := l.vals[off : off+l.card]
		for c := range row {
			l.base[c], row[c] = row[c], l.base[c]
		}
		return
	}
	v := off + l.words
	for w, m := range l.vals[off : off+l.words] {
		for ; m != 0; m &= m - 1 {
			c := w<<6 | bits.TrailingZeros64(m)
			l.base[c], l.vals[v] = l.vals[v], l.base[c]
			v++
		}
	}
}

// commit turns the sample read into vals[q:q+card] into the newest row,
// stamped ts: in place, it keeps the values whose raw bits differ from
// last's, then puts their mask in front. Once the ring is full the row
// replaces the oldest, which swapOldest has folded into base.
//
//ldms:hotpath per-sample window append; TestObserveAllocs guards 0 allocs
func (l *changeLog) commit(ts int64, q int) {
	sample := l.vals[q : q+l.card]
	clear(l.mask)
	j := 0
	for c, v := range sample {
		if v != l.last[c] {
			l.mask[c>>6] |= 1 << (c & 63)
			l.last[c] = v
			sample[j] = v
			j++
		}
	}
	at := uint32(q)
	if l.n == 0 || j+l.words >= l.card {
		copy(sample, l.last)
		at |= fullRow
		l.head = q + l.card
	} else {
		copy(l.vals[q+l.words:], sample[:j])
		copy(l.vals[q:], l.mask)
		l.head = q + l.words + j
	}
	l.at[l.next] = at

	if l.n > 0 && ts < l.ts[l.slot(l.n-1, l.n)] {
		l.unsorted = len(l.ts)
	} else if l.unsorted > 0 {
		l.unsorted--
	}
	l.ts[l.next] = ts
	l.next++
	if l.next == len(l.ts) {
		l.next = 0
	}
	if l.n < len(l.ts) {
		l.n++
	}
}

// slot maps age order onto the ring: the i-th oldest of the newest last
// samples (0 <= i < last <= n) lives in slot(i, last).
func (l *changeLog) slot(i, last int) int {
	k := l.next - last + i
	if k < 0 {
		k += len(l.ts)
	}
	return k
}

// newestSince narrows the n samples to the newest that can be stamped at
// or after since: a binary search while the stamps ascend, no narrowing at
// all while a backwards step is still in the ring (the per-sample filter
// in appendSince then does the work, so the answer is exactly the samples
// at or after the bound either way).
func (l *changeLog) newestSince(since int64) int {
	if l.unsorted > 0 {
		return l.n
	}
	return l.n - sort.Search(l.n, func(i int) bool { return l.ts[l.slot(i, l.n)] >= since })
}

// value returns column col's value at ring slot k's row, given its value
// v at the row before.
func (l *changeLog) value(k, col int, v uint64) uint64 {
	off, full := l.row(k)
	if full {
		return l.vals[off+col]
	}
	w, bit := col>>6, uint64(1)<<(col&63)
	m := l.vals[off+w]
	if m&bit == 0 {
		return v
	}
	rank := bits.OnesCount64(m & (bit - 1))
	for _, x := range l.vals[off : off+w] {
		rank += bits.OnesCount64(x)
	}
	return l.vals[off+l.words+rank]
}

// appendSince appends column col of the newest last samples stamped at or
// after since, oldest first. It walks every retained row from base, as a
// column's value at a row is its last change at or before it. Caller
// holds the series lock.
func (l *changeLog) appendSince(out []Point, col int, since int64, t metric.Type, last int) []Point {
	v := l.base[col]
	for i := 0; i < l.n; i++ {
		k := l.slot(i, l.n)
		v = l.value(k, col, v)
		if i >= l.n-last && l.ts[k] >= since {
			out = append(out, makePoint(l.ts[k], v, t))
		}
	}
	return out
}

// bytes is the log's footprint, by capacity: stamps, row offsets, values,
// and the three card-wide rows and mask.
func (l *changeLog) bytes() int {
	return 8*(cap(l.ts)+cap(l.vals)+cap(l.last)+cap(l.base)+cap(l.mask)) + 4*cap(l.at)
}

// makePoint rebuilds a served Point from its stored representation.
func makePoint(ts int64, bits uint64, t metric.Type) Point {
	return Point{Time: time.Unix(0, ts), Value: metric.Value{Type: t, Bits: bits}}
}

// Observe records the set's current sample into the window. Inconsistent
// chunks and chunks whose DGN has not advanced since the last observation
// are dropped, mirroring the updater's own storage filter; a fresh one is
// read under the set's lock straight into free slots of the set's log and
// compacted there to what changed. It is safe to call concurrently with
// Query/Latest/Aggregate and with Observes of other sets.
func (w *Window) Observe(set *metric.Set) {
	ss := w.seriesFor(set)
	ss.mu.Lock()
	l := &ss.rows
	q := l.reserve()
	evict := l.n == len(l.ts)
	if evict {
		l.swapOldest()
	}
	// ReadBits writes the slots only for a fresh sample, so a skipped one
	// leaves the oldest row whole for the fold to be undone.
	ts, dgn, fresh := set.ReadBits(l.vals[q:q+l.card], ss.lastDGN, ss.haveDGN)
	if !fresh {
		if evict {
			l.swapOldest()
		}
		ss.mu.Unlock()
		w.skipped.Add(1)
		return
	}
	ss.lastDGN, ss.haveDGN = dgn, true
	l.commit(ts.UnixNano(), q)
	ss.mu.Unlock()
	w.observed.Add(1)
	if w.latHist != nil && !ts.IsZero() {
		w.latHist.Record(w.latNow().Sub(ts))
	}
}

// seriesFor returns the set's series, creating it if needed. The series is
// the set's while their schemas are the same pointer, which mirrors of one
// layout share however often they are rebuilt. A set that arrives under
// the name with another Schema object (a re-created local set) continues
// the series if the layout is equal; under another layout it is a new set
// and starts a new log, so a row never mixes two layouts.
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
	ss = &setSeries{instance: name, comp: set.CompID(0), schema: schema, layout: schema,
		rows: newChangeLog(w.points, set.Card())}
	sh.sets[name] = ss
	return ss
}

// Forget drops the named set's series (the set left the directory). Queries
// issued concurrently finish against the old log.
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
// sorted by instance name and built entirely from the in-memory logs.
func (w *Window) Query(metricName string, comp uint64, since time.Time) []Series {
	w.queries.Add(1)
	floor := w.now().Add(-w.retention)
	if since.Before(floor) {
		since = floor
	}
	sinceNanos := since.UnixNano()

	var out []Series
	for _, ss := range w.sets() {
		col, ok := ss.schema.Lookup(metricName)
		if !ok || (comp != 0 && ss.comp != comp) {
			continue
		}
		ss.mu.Lock()
		var pts []Point
		if last := ss.rows.newestSince(sinceNanos); last > 0 {
			pts = ss.rows.appendSince(make([]Point, 0, last), col, sinceNanos, ss.schema.Def(col).Type, last)
		}
		ss.mu.Unlock()
		if len(pts) > 0 {
			out = append(out, ss.series(col, pts))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Instance < out[b].Instance })
	return out
}

// series labels one metric's served points with the set's identity.
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

// Latest returns the newest recorded point of the named metric for every
// matching series (comp == 0 matches all components), sorted by instance.
// It is O(1) per series: the newest sample is the log's last row, kept
// whole.
func (w *Window) Latest(metricName string, comp uint64) []Series {
	w.queries.Add(1)
	var out []Series
	for _, ss := range w.sets() {
		col, ok := ss.schema.Lookup(metricName)
		if !ok || (comp != 0 && ss.comp != comp) {
			continue
		}
		ss.mu.Lock()
		l := &ss.rows
		var pts []Point
		if l.n > 0 {
			pts = []Point{makePoint(l.ts[l.slot(l.n-1, l.n)], l.last[col], ss.schema.Def(col).Type)}
		}
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
	walked := make(map[*metric.Schema]bool) // a fleet's logs share a few schemas
	for _, ss := range w.sets() {
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

// sets snapshots the series list across every shard.
func (w *Window) sets() []*setSeries {
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
	Bytes      int64 // storage footprint of the sets' change logs, by capacity
	Observed   int64 // samples recorded
	Skipped    int64 // samples dropped (inconsistent / stale DGN)
	Queries    int64 // Query/Latest calls served
	Aggregates int64 // Aggregate calls served
}

// Stats returns the window's counters. Points and Bytes take each set's
// mutex briefly; Bytes counts the capacity of every stamp ring, row
// index, value log and whole row (names and types are the sets' schemas').
func (w *Window) Stats() WindowStats {
	st := WindowStats{
		Observed:   w.observed.Load(),
		Skipped:    w.skipped.Load(),
		Queries:    w.queries.Load(),
		Aggregates: w.aggregates.Load(),
	}
	for _, ss := range w.sets() {
		st.SeriesSets++
		st.Series += ss.rows.card
		ss.mu.Lock()
		st.Points += int64(ss.rows.n * ss.rows.card)
		st.Bytes += int64(ss.rows.bytes())
		ss.mu.Unlock()
	}
	return st
}
