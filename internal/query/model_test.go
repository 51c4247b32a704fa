package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldms/internal/metric"
)

// Differential test of the change log: seeded random interleavings of
// Observe (fresh, DGN-stale, inconsistent), Query, Latest and Forget run
// against a window and against refWindow, a slice-of-samples model that
// knows nothing about rings, masks or value logs. Both must serve the same
// Series. The seeded runs write random values into every metric; the shape
// runs change chosen metrics of one set per sample, the way samplers do.

// refSample is one accepted sample as the model keeps it.
type refSample struct {
	ts   time.Time
	vals []metric.Value
}

// refSet is one instance in the model: every sample ever accepted since
// the instance was last forgotten, plus the reader protocol's DGN memory.
type refSet struct {
	set     *metric.Set
	samples []refSample
	lastDGN uint64
	haveDGN bool
}

type refWindow struct {
	points    int
	retention time.Duration
	sets      map[string]*refSet
}

// observe applies the window's acceptance rule through the set's
// long-standing ReadValues reader.
func (r *refWindow) observe(set *metric.Set) {
	rs := r.sets[set.Name()]
	if rs == nil {
		rs = &refSet{set: set}
		r.sets[set.Name()] = rs
	}
	vals := make([]metric.Value, set.Card())
	ts, dgn, consistent, _ := set.ReadValues(vals)
	if !consistent || (rs.haveDGN && dgn == rs.lastDGN) {
		return
	}
	rs.lastDGN, rs.haveDGN = dgn, true
	rs.samples = append(rs.samples, refSample{ts, vals})
}

// retained is what a window of r.points may still hold of rs.
func (r *refWindow) retained(rs *refSet) []refSample {
	if len(rs.samples) > r.points {
		return rs.samples[len(rs.samples)-r.points:]
	}
	return rs.samples
}

func (r *refWindow) series(rs *refSet, col int, keep []refSample) Series {
	s := Series{
		Instance: rs.set.Name(),
		Schema:   rs.set.SchemaName(),
		Metric:   rs.set.MetricName(col),
		CompID:   rs.set.CompID(0),
		Type:     rs.set.MetricType(col),
	}
	for _, sm := range keep {
		s.Points = append(s.Points, Point{Time: sm.ts, Value: sm.vals[col]})
	}
	return s
}

// each visits the matching instances in name order.
func (r *refWindow) each(metricName string, comp uint64, visit func(rs *refSet, col int)) {
	names := make([]string, 0, len(r.sets))
	for name := range r.sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := r.sets[name]
		col, ok := rs.set.MetricIndex(metricName)
		if ok && (comp == 0 || rs.set.CompID(0) == comp) {
			visit(rs, col)
		}
	}
}

func (r *refWindow) query(metricName string, comp uint64, since, now time.Time) []Series {
	if floor := now.Add(-r.retention); since.Before(floor) {
		since = floor
	}
	var out []Series
	r.each(metricName, comp, func(rs *refSet, col int) {
		var keep []refSample
		for _, sm := range r.retained(rs) {
			if !sm.ts.Before(since) {
				keep = append(keep, sm)
			}
		}
		if len(keep) > 0 {
			out = append(out, r.series(rs, col, keep))
		}
	})
	return out
}

func (r *refWindow) latest(metricName string, comp uint64) []Series {
	var out []Series
	r.each(metricName, comp, func(rs *refSet, col int) {
		if n := len(rs.samples); n > 0 {
			out = append(out, r.series(rs, col, rs.samples[n-1:]))
		}
	})
	return out
}

// sameSeries compares served series bit for bit (NaN payloads included).
func sameSeries(a, b []Series) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d series vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Instance != y.Instance || x.Schema != y.Schema || x.Metric != y.Metric || x.CompID != y.CompID || x.Type != y.Type {
			return fmt.Errorf("series %d: identity %+v vs %+v", i, x, y)
		}
		if len(x.Points) != len(y.Points) {
			return fmt.Errorf("series %s: %d points vs %d", x.Instance, len(x.Points), len(y.Points))
		}
		for j := range x.Points {
			p, q := x.Points[j], y.Points[j]
			if !p.Time.Equal(q.Time) || p.Value != q.Value {
				return fmt.Errorf("series %s point %d: %v/%#x vs %v/%#x", x.Instance, j, p.Time, p.Value.Bits, q.Time, q.Value.Bits)
			}
		}
	}
	return nil
}

// modelSets: two instances share the layout "wide" (a Schema object each),
// "narrow" stands alone and has the metric name "v" in common with it.
func modelSets(t *testing.T) []*metric.Set {
	wide := func() *metric.Schema {
		sch := metric.NewSchema("wide")
		sch.MustAddMetric("ctr", metric.TypeU64)
		sch.MustAddMetric("v", metric.TypeD64)
		sch.MustAddMetric("small", metric.TypeS32)
		sch.MustAddMetric("f", metric.TypeF32)
		return sch
	}
	narrow := metric.NewSchema("narrow")
	narrow.MustAddMetric("v", metric.TypeD64)
	var sets []*metric.Set
	for i, sch := range []*metric.Schema{wide(), wide(), narrow} {
		set, err := metric.New(fmt.Sprintf("n%d/%s", i, sch.Name()), sch, metric.WithCompID(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	return sets
}

// awkward are the values a sampler can legitimately publish that a
// storage layer is most likely to mangle.
var awkward = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}

// writeSample writes one transaction of random values stamped ts.
func writeSample(rng *rand.Rand, set *metric.Set, ctr *uint64, ts time.Time) {
	set.BeginTransaction()
	fillSample(rng, set, ctr)
	set.EndTransaction(ts)
}

func fillSample(rng *rand.Rand, set *metric.Set, ctr *uint64) {
	if rng.Intn(20) == 0 {
		*ctr = 0 // counter reset
	} else {
		*ctr += uint64(rng.Intn(1000))
	}
	v := rng.NormFloat64() * 1e6
	if rng.Intn(4) == 0 {
		v = awkward[rng.Intn(len(awkward))]
	}
	set.SetValues(func(b *metric.Batch) {
		for i := 0; i < set.Card(); i++ {
			switch set.MetricType(i) {
			case metric.TypeU64:
				b.SetU64(i, *ctr)
			case metric.TypeS32:
				b.SetS64(i, int64(int32(rng.Uint32())))
			default:
				b.SetF64(i, v)
			}
		}
	})
}

func TestWindowModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		points := []int{3, 8, 128, 130, 300, 40}[seed-1]
		t.Run(fmt.Sprintf("seed=%d/points=%d", seed, points), func(t *testing.T) {
			runWindowModel(t, seed, points)
		})
	}
	// Cards around the mask's 64-bit word boundary and one of many words.
	for _, shape := range changeShapes {
		for _, card := range []int{1, 63, 64, 65, 512} {
			for _, points := range []int{3, 8, 64, 300} {
				t.Run(fmt.Sprintf("shape=%s/card=%d/points=%d", shape.name, card, points), func(t *testing.T) {
					runShapeModel(t, shape, card, points)
				})
			}
		}
	}
}

func runWindowModel(t *testing.T, seed int64, points int) {
	rng := rand.New(rand.NewSource(seed))
	const retention = 2000 * time.Second
	base := time.Unix(1_700_000_000, 0)
	var clock atomic.Int64 // unix nanos; the driver advances it, readers read it
	clock.Store(base.UnixNano())
	now := func() time.Time { return time.Unix(0, clock.Load()) }

	wins := map[string]*Window{
		"change-log": NewWindowOpts(WindowOptions{Points: points, Retention: retention, Shards: 2}),
	}
	for _, w := range wins {
		w.SetClock(now)
	}
	ref := &refWindow{points: points, retention: retention, sets: map[string]*refSet{}}
	sets := modelSets(t)
	ctrs := make([]uint64, len(sets))
	stamps := make([]time.Time, len(sets)) // each instance's last written stamp
	for i := range stamps {
		stamps[i] = base
	}
	observe := func(set *metric.Set) {
		ref.observe(set)
		for _, w := range wins {
			w.Observe(set)
		}
	}

	// Concurrent readers: their answers race the driver and cannot be
	// compared with the model, but the race detector watches them and no
	// series may ever exceed the budget.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, w := range wins {
		readers.Add(1)
		go func(w *Window) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range w.Query("v", 0, time.Unix(0, 0)) {
					if len(s.Points) > points {
						t.Errorf("series %s served %d points, budget %d", s.Instance, len(s.Points), points)
						return
					}
				}
				w.Latest("ctr", uint64(i%4))
				w.Aggregate("v", 0, time.Unix(0, 0), 10*time.Second, "max", 0)
				w.Stats()
				w.MetricNames()
				time.Sleep(100 * time.Microsecond) // leave the driver a core
			}
		}(w)
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	metrics := []string{"ctr", "v", "small", "f", "absent"}
	check := func(step int, what string, want []Series, got func(w *Window) []Series) {
		t.Helper()
		for name, w := range wins {
			if err := sameSeries(want, got(w)); err != nil {
				t.Fatalf("step %d: %s on %s window vs model: %v", step, what, name, err)
			}
		}
	}
	for step := 0; step < 6000; step++ {
		i := rng.Intn(len(sets))
		set := sets[i]
		switch op := rng.Intn(1000); {
		case op < 600: // fresh sample, clock mostly forwards
			switch rng.Intn(12) {
			case 0:
				stamps[i] = stamps[i].Add(-time.Duration(1+rng.Intn(20)) * time.Second) // producer clock stepped back
			case 1: // same stamp again, new data
			default:
				stamps[i] = stamps[i].Add(time.Duration(1+rng.Intn(3000)) * time.Millisecond)
			}
			writeSample(rng, set, &ctrs[i], stamps[i])
			observe(set)
		case op < 660: // DGN-stale: nothing changed since the last look
			observe(set)
		case op < 730: // observed mid-transaction, then completed
			set.BeginTransaction()
			fillSample(rng, set, &ctrs[i])
			observe(set)
			stamps[i] = stamps[i].Add(time.Second)
			set.EndTransaction(stamps[i])
			observe(set)
		case op < 733: // rare: a set has to live through several ring wraps
			delete(ref.sets, set.Name())
			for _, w := range wins {
				w.Forget(set.Name())
			}
		case op < 800:
			m, comp := metrics[rng.Intn(len(metrics))], uint64(rng.Intn(len(sets)+1))
			check(step, "Latest", ref.latest(m, comp), func(w *Window) []Series { return w.Latest(m, comp) })
		default:
			// A bound before the ring, on or beside a retained stamp,
			// or after everything.
			since := base.Add(-time.Hour)
			if rs := ref.sets[set.Name()]; rs != nil && len(rs.samples) > 0 && rng.Intn(8) > 0 {
				since = rs.samples[rng.Intn(len(rs.samples))].ts.Add(time.Duration(rng.Intn(3)-1) * time.Microsecond)
			} else if rng.Intn(2) == 0 {
				since = stamps[i].Add(time.Hour)
			}
			m, comp := metrics[rng.Intn(len(metrics))], uint64(rng.Intn(len(sets)+1))
			check(step, fmt.Sprintf("Query(%s, %d, %v)", m, comp, since), ref.query(m, comp, since, now()),
				func(w *Window) []Series { return w.Query(m, comp, since) })
		}
		// The daemon's clock follows the newest stamp written, so old
		// samples also age out through the retention floor.
		if ns := stamps[i].UnixNano(); ns > clock.Load() {
			clock.Store(ns)
		}
	}
	for name, w := range wins {
		st := w.Stats()
		if st.SeriesSets != len(ref.sets) {
			t.Errorf("%s window tracks %d sets, model %d", name, st.SeriesSets, len(ref.sets))
		}
	}
}

// changeShape is which metrics of a set change from one sample to the
// next: change rewrites vals, the set's raw bits, for sample i.
type changeShape struct {
	name   string
	floats bool // a D64 set, so the bits are the awkward floats'
	change func(rng *rand.Rand, i int, vals []uint64)
}

// awkwardBits are float bit patterns a float compare would call equal
// (+0 and -0, two NaN payloads) or never equal (NaN to itself).
var awkwardBits = []uint64{
	math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(math.NaN()), math.Float64bits(math.NaN()) | 1,
	math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	math.Float64bits(1.5),
}

var changeShapes = []changeShape{
	{name: "none", change: func(*rand.Rand, int, []uint64) {}},
	{name: "rotating8", change: func(_ *rand.Rand, i int, vals []uint64) {
		// The bench's rule: groups of 8 metrics, group i mod groups on
		// sample i.
		groups := (len(vals) + 7) / 8
		g := i % groups
		for m := 8 * g; m < min(8*g+8, len(vals)); m++ {
			vals[m] = uint64(i*len(vals) + m + 1)
		}
	}},
	{name: "all", change: func(_ *rand.Rand, i int, vals []uint64) {
		for m := range vals {
			vals[m] = uint64(i*len(vals) + m + 1)
		}
	}},
	{name: "random", change: func(rng *rand.Rand, _ int, vals []uint64) {
		p := []float64{0.02, 0.3, 0.9}[rng.Intn(3)]
		for m := range vals {
			if rng.Float64() < p {
				vals[m] = rng.Uint64()
			}
		}
	}},
	{name: "nonfinite", floats: true, change: func(rng *rand.Rand, _ int, vals []uint64) {
		for m := range vals {
			if rng.Intn(3) == 0 {
				vals[m] = awkwardBits[rng.Intn(len(awkwardBits))]
			}
		}
	}},
}

// runShapeModel drives one set through two ring wraps of shape's
// samples, with DGN-stale and torn observes among them, and checks every
// few samples that Query and Latest serve what refWindow does.
func runShapeModel(t *testing.T, shape changeShape, card, points int) {
	rng := rand.New(rand.NewSource(int64(card*1000 + points)))
	typ := metric.TypeU64
	if shape.floats {
		typ = metric.TypeD64
	}
	sch := metric.NewSchema("shape")
	for m := 0; m < card; m++ {
		sch.MustAddMetric(fmt.Sprintf("m%03d", m), typ)
	}
	set, err := metric.New("n1/shape", sch, metric.WithCompID(1))
	if err != nil {
		t.Fatal(err)
	}
	const retention = 1000 * time.Hour
	stamp := time.Unix(1_700_000_000, 0)
	w := NewWindowOpts(WindowOptions{Points: points, Retention: retention})
	w.SetClock(func() time.Time { return stamp })
	ref := &refWindow{points: points, retention: retention, sets: map[string]*refSet{}}
	observe := func() {
		ref.observe(set)
		w.Observe(set)
	}
	vals := make([]uint64, card)
	write := func() {
		set.SetValues(func(b *metric.Batch) {
			for m, v := range vals {
				b.SetValue(m, metric.Value{Type: typ, Bits: v})
			}
		})
	}
	for i := 0; i < 2*points+40; i++ {
		shape.change(rng, i, vals)
		if rng.Intn(10) > 0 {
			stamp = stamp.Add(time.Second)
		}
		set.BeginTransaction()
		write()
		if rng.Intn(8) == 0 {
			observe() // torn: dropped
		}
		set.EndTransaction(stamp)
		observe()
		if rng.Intn(8) == 0 {
			observe() // DGN-stale: dropped
		}
		if i%max(3, points/20) != 0 {
			continue
		}
		for _, col := range []int{0, card / 2, card - 1, rng.Intn(card)} {
			m := fmt.Sprintf("m%03d", col)
			since := stamp.Add(-time.Duration(rng.Intn(points+2)) * time.Second)
			if err := sameSeries(ref.query(m, 0, since, stamp), w.Query(m, 0, since)); err != nil {
				t.Fatalf("sample %d: Query(%s, %v): %v", i, m, since, err)
			}
			if err := sameSeries(ref.latest(m, 0), w.Latest(m, 0)); err != nil {
				t.Fatalf("sample %d: Latest(%s): %v", i, m, err)
			}
		}
	}
}
