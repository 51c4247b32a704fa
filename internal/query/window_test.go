package query

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"goldms/internal/metric"
)

// testSet builds a consistent two-metric set.
func testSet(t testing.TB, instance string, comp uint64) *metric.Set {
	t.Helper()
	sch := metric.NewSchema("win")
	sch.MustAddMetric("a", metric.TypeU64)
	sch.MustAddMetric("b", metric.TypeD64)
	set, err := metric.New(instance, sch, metric.WithCompID(comp))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// sample writes one consistent sample (a=v, b=v/2) at time ts.
func sample(set *metric.Set, v uint64, ts time.Time) {
	set.BeginTransaction()
	set.SetU64(0, v)
	set.SetF64(1, float64(v)/2)
	set.EndTransaction(ts)
}

func TestWindowObserveAndQuery(t *testing.T) {
	w := NewWindow(16, time.Hour)
	s1 := testSet(t, "n1/win", 1)
	s2 := testSet(t, "n2/win", 2)
	base := time.Now()
	for i := 0; i < 5; i++ {
		sample(s1, uint64(i), base.Add(time.Duration(i)*time.Second))
		w.Observe(s1)
		sample(s2, uint64(100+i), base.Add(time.Duration(i)*time.Second))
		w.Observe(s2)
	}

	series := w.Query("a", 0, base.Add(-time.Minute))
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	if series[0].Instance != "n1/win" || series[1].Instance != "n2/win" {
		t.Fatalf("series order: %q, %q", series[0].Instance, series[1].Instance)
	}
	if got := len(series[0].Points); got != 5 {
		t.Fatalf("points = %d, want 5", got)
	}
	for i, p := range series[0].Points {
		if p.Value.U64() != uint64(i) {
			t.Errorf("point %d = %d, want %d", i, p.Value.U64(), i)
		}
	}

	// Component filter.
	series = w.Query("a", 2, base.Add(-time.Minute))
	if len(series) != 1 || series[0].CompID != 2 {
		t.Fatalf("comp filter: got %d series", len(series))
	}
	if series[0].Points[4].Value.U64() != 104 {
		t.Errorf("comp-2 last point = %d, want 104", series[0].Points[4].Value.U64())
	}

	// Float metric keeps its type.
	series = w.Query("b", 1, base.Add(-time.Minute))
	if len(series) != 1 || series[0].Type != metric.TypeD64 {
		t.Fatalf("float series missing")
	}
	if got := series[0].Points[4].Value.F64(); got != 2 {
		t.Errorf("b last = %g, want 2", got)
	}
}

func TestWindowSkipsInconsistentAndStale(t *testing.T) {
	w := NewWindow(8, time.Hour)
	s := testSet(t, "n1/win", 1)

	// Never sampled: inconsistent, dropped.
	w.Observe(s)
	if st := w.Stats(); st.Observed != 0 || st.Skipped != 1 {
		t.Fatalf("inconsistent not dropped: %+v", st)
	}

	sample(s, 7, time.Now())
	w.Observe(s)
	// Same DGN again: stale, dropped.
	w.Observe(s)
	st := w.Stats()
	if st.Observed != 1 || st.Skipped != 2 {
		t.Fatalf("stale not dropped: %+v", st)
	}

	// Mid-transaction observation is dropped too.
	s.BeginTransaction()
	s.SetU64(0, 8)
	w.Observe(s)
	if st := w.Stats(); st.Observed != 1 || st.Skipped != 3 {
		t.Fatalf("torn sample not dropped: %+v", st)
	}
	s.EndTransaction(time.Now())
	w.Observe(s)
	if st := w.Stats(); st.Observed != 2 {
		t.Fatalf("fresh sample after transaction not recorded: %+v", st)
	}
}

func TestWindowRingWrapsAndTrims(t *testing.T) {
	w := NewWindow(4, time.Hour)
	s := testSet(t, "n1/win", 1)
	// Whole-second base: set timestamps round to microseconds, so a
	// nanosecond-precision bound would straddle the stored values.
	base := time.Now().Truncate(time.Second)
	for i := 0; i < 10; i++ {
		sample(s, uint64(i), base.Add(time.Duration(i)*time.Second))
		w.Observe(s)
	}
	series := w.Query("a", 0, base.Add(-time.Minute))
	if len(series) != 1 {
		t.Fatal("missing series")
	}
	pts := series[0].Points
	if len(pts) != 4 {
		t.Fatalf("ring kept %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := uint64(6 + i); p.Value.U64() != want {
			t.Errorf("point %d = %d, want %d", i, p.Value.U64(), want)
		}
	}

	// A since-bound inside the ring trims older points.
	series = w.Query("a", 0, base.Add(8*time.Second))
	if got := len(series[0].Points); got != 2 {
		t.Fatalf("since filter kept %d points, want 2", got)
	}
}

func TestWindowLatest(t *testing.T) {
	w := NewWindow(8, time.Hour)
	s1 := testSet(t, "n1/win", 1)
	s2 := testSet(t, "n2/win", 2)
	sample(s1, 41, time.Now())
	sample(s2, 42, time.Now())
	w.Observe(s1)
	w.Observe(s2)
	latest := w.Latest("a", 0)
	if len(latest) != 2 {
		t.Fatalf("latest series = %d, want 2", len(latest))
	}
	if latest[0].Points[0].Value.U64() != 41 || latest[1].Points[0].Value.U64() != 42 {
		t.Errorf("latest values wrong: %v %v", latest[0].Points, latest[1].Points)
	}
	if names := w.MetricNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("MetricNames = %v", names)
	}
}

func TestWindowForget(t *testing.T) {
	w := NewWindow(8, time.Hour)
	s := testSet(t, "n1/win", 1)
	sample(s, 1, time.Now())
	w.Observe(s)
	w.Forget("n1/win")
	if got := w.Query("a", 0, time.Now().Add(-time.Minute)); len(got) != 0 {
		t.Fatalf("forgotten series still served: %d", len(got))
	}
}

// TestWindowConcurrentObserveAndQuery races writers (update passes) against
// readers (gateway queries); run under -race.
func TestWindowConcurrentObserveAndQuery(t *testing.T) {
	w := NewWindow(64, time.Hour)
	const sets = 8
	all := make([]*metric.Set, sets)
	for i := range all {
		all[i] = testSet(t, fmt.Sprintf("n%d/win", i), uint64(i+1))
		sample(all[i], 0, time.Now())
		w.Observe(all[i])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range all {
		wg.Add(1)
		go func(s *metric.Set) {
			defer wg.Done()
			v := uint64(1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				sample(s, v, time.Now())
				w.Observe(s)
				v++
			}
		}(all[i])
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w.Query("a", 0, time.Now().Add(-time.Minute))
				w.Latest("b", 0)
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if st := w.Stats(); st.Observed == 0 || st.Queries == 0 {
		t.Fatalf("no concurrent progress: %+v", st)
	}
}

// TestWindowQueryClockRetentionFloor pins the retention floor to the
// window's injected clock. Before SetClock existed, Query pruned against
// time.Now(): a virtual-time daemon whose samples carry simulated
// timestamps (e.g. 1970s epochs) would find every point "older than
// retention" and serve nothing.
func TestWindowQueryClockRetentionFloor(t *testing.T) {
	w := NewWindow(16, time.Minute)
	base := time.Unix(90000, 0) // simulated epoch, decades outside wall-clock retention
	clock := base
	w.SetClock(func() time.Time { return clock })

	s := testSet(t, "n1/win", 1)
	for i := 0; i < 5; i++ {
		sample(s, uint64(i), base.Add(time.Duration(i)*time.Second))
		w.Observe(s)
	}
	clock = base.Add(5 * time.Second)

	got := w.Query("a", 0, time.Unix(0, 0))
	if len(got) != 1 || len(got[0].Points) != 5 {
		t.Fatalf("query on the virtual clock = %+v, want one series with all 5 points", got)
	}

	// Advancing the virtual clock past retention ages the points out.
	clock = base.Add(time.Minute + 10*time.Second)
	if got := w.Query("a", 0, time.Unix(0, 0)); len(got) != 0 {
		t.Fatalf("points older than retention on the virtual clock still served: %+v", got)
	}
}

// TestWindowEmptyQuery pins the empty-window sort.Search cut: a series
// that exists but has recorded nothing must serve nil, and a bound
// past the newest point must serve nothing rather than everything.
func TestWindowEmptyQuery(t *testing.T) {
	w := NewWindow(8, time.Hour)
	if got := w.Query("a", 0, time.Now().Add(-time.Minute)); got != nil {
		t.Fatalf("empty window served %v", got)
	}
	if got := w.Latest("a", 0); got != nil {
		t.Fatalf("empty window Latest served %v", got)
	}
	s := testSet(t, "n1/win", 1)
	ts := time.Now().Truncate(time.Second)
	sample(s, 9, ts)
	w.Observe(s)
	// Bound strictly after the only point: no series at all.
	if got := w.Query("a", 0, ts.Add(time.Second)); len(got) != 0 {
		t.Fatalf("future bound served %v", got)
	}
}

// TestWindowWrapAtExactCapacity pins the wraparound boundary: exactly
// `points` pushes must serve all points, one more must evict exactly one.
func TestWindowWrapAtExactCapacity(t *testing.T) {
	const capN = 8
	w := NewWindow(capN, time.Hour)
	s := testSet(t, "n1/win", 1)
	base := time.Now().Truncate(time.Second)
	for i := 0; i < capN; i++ {
		sample(s, uint64(i), base.Add(time.Duration(i)*time.Second))
		w.Observe(s)
	}
	got := w.Query("a", 0, base.Add(-time.Minute))
	if len(got) != 1 || len(got[0].Points) != capN {
		t.Fatalf("at capacity: served %d series / %d points, want 1/%d", len(got), len(got[0].Points), capN)
	}
	if got[0].Points[0].Value.U64() != 0 || got[0].Points[capN-1].Value.U64() != capN-1 {
		t.Fatalf("at capacity: endpoints %d..%d", got[0].Points[0].Value.U64(), got[0].Points[capN-1].Value.U64())
	}
	// One more push wraps: oldest point evicted, newest present.
	sample(s, capN, base.Add(capN*time.Second))
	w.Observe(s)
	got = w.Query("a", 0, base.Add(-time.Minute))
	pts := got[0].Points
	if len(pts) != capN {
		t.Fatalf("after wrap: %d points, want %d", len(pts), capN)
	}
	if pts[0].Value.U64() != 1 || pts[capN-1].Value.U64() != capN {
		t.Fatalf("after wrap: endpoints %d..%d, want 1..%d", pts[0].Value.U64(), pts[capN-1].Value.U64(), capN)
	}
}

// TestWindowStaleAtFullRing pins the skip path once the ring is full.
// Observe folds the oldest row into base before it reads the sample into
// the slots that row may hold, so a DGN-stale or torn sample must undo the
// fold and leave every retained point as it was.
func TestWindowStaleAtFullRing(t *testing.T) {
	const points = 4
	for _, card := range []int{2, 64, 130} {
		w := NewWindow(points, time.Hour)
		w.SetClock(func() time.Time { return time.Unix(1_700_000_100, 0) })
		s := wideSet(t, "n1/wide", card)
		for i := 1; i <= 6; i++ {
			wideSample(s, i)
			w.Observe(s)
		}
		want := w.Query("m001", 0, time.Unix(0, 0))
		for i := 0; i < 10; i++ {
			w.Observe(s) // same DGN: all dropped
		}
		s.BeginTransaction()
		s.SetU64(1, 12345)
		w.Observe(s) // torn: dropped
		st := w.Stats()
		if st.Observed != 6 || st.Skipped != 11 {
			t.Fatalf("card %d: stale filter: %+v", card, st)
		}
		if err := sameSeries(want, w.Query("m001", 0, time.Unix(0, 0))); err != nil || len(want) != 1 || len(want[0].Points) != points {
			t.Fatalf("card %d: skipped observes changed history (%v): %+v", card, err, want)
		}
		for j, p := range want[0].Points {
			if got, exp := p.Value.U64(), uint64((3+j)%97*2); got != exp {
				t.Fatalf("card %d: point %d = %d, want %d", card, j, got, exp)
			}
		}
		s.EndTransaction(time.Unix(1_700_000_007, 0))
		w.Observe(s)
		got := w.Query("m001", 0, time.Unix(0, 0))
		if len(got) != 1 || len(got[0].Points) != points || got[0].Points[points-1].Value.U64() != 12345 || got[0].Points[0].Value.U64() != 4%97*2 {
			t.Fatalf("card %d: after the transaction: %+v", card, got)
		}
	}
}

// TestWindowShardOptions pins shard-count rounding and distribution.
func TestWindowShardOptions(t *testing.T) {
	if got := NewWindowOpts(WindowOptions{}).Shards(); got != DefaultShards {
		t.Fatalf("default shards = %d, want %d", got, DefaultShards)
	}
	for _, tc := range []struct{ in, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {16, 16}, {17, 32}} {
		if got := NewWindowOpts(WindowOptions{Shards: tc.in}).Shards(); got != tc.want {
			t.Fatalf("shards %d rounded to %d, want %d", tc.in, got, tc.want)
		}
	}
	// Sets spread across shards and stats still see all of them.
	w := NewWindowOpts(WindowOptions{Shards: 4})
	for i := 0; i < 32; i++ {
		s := testSet(t, fmt.Sprintf("node%02d/win", i), uint64(i+1))
		sample(s, uint64(i), time.Now())
		w.Observe(s)
	}
	used := 0
	for i := range w.shards {
		w.shards[i].mu.RLock()
		if len(w.shards[i].sets) > 0 {
			used++
		}
		w.shards[i].mu.RUnlock()
	}
	if used < 2 {
		t.Fatalf("32 sets landed in %d of 4 shards", used)
	}
	if st := w.Stats(); st.SeriesSets != 32 {
		t.Fatalf("stats sets = %d, want 32", st.SeriesSets)
	}
}

// TestWindowConcurrentAggregate races writers against Query, Latest and
// Aggregate; run under -race.
func TestWindowConcurrentAggregate(t *testing.T) {
	t.Run("rings", func(t *testing.T) {
		w := NewWindow(256, time.Hour)
		const sets = 8
		all := make([]*metric.Set, sets)
		for i := range all {
			all[i] = testSet(t, fmt.Sprintf("n%d/win", i), uint64(i+1))
			sample(all[i], 0, time.Now())
			w.Observe(all[i])
		}
		// Fixed iteration counts on both sides: unbounded spinning
		// writers starve the readers on low-core machines, and the
		// race detector sees the same interleavings either way.
		var wg sync.WaitGroup
		for i := range all {
			wg.Add(1)
			go func(s *metric.Set) {
				defer wg.Done()
				for v := uint64(1); v <= 400; v++ {
					sample(s, v, time.Now())
					w.Observe(s)
				}
			}(all[i])
		}
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 50; n++ {
					w.Query("a", 0, time.Now().Add(-time.Minute))
					w.Latest("b", 0)
					if _, err := w.Aggregate("a", 0, time.Now().Add(-time.Minute), time.Second, "avg", 0); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		st := w.Stats()
		if st.Observed == 0 || st.Queries == 0 || st.Aggregates == 0 {
			t.Fatalf("no concurrent progress: %+v", st)
		}
	})
}

// wideSet builds a consistent set of card u64 metrics m000..; every set
// gets a Schema object of its own, as every mirror does.
func wideSet(t testing.TB, instance string, card int) *metric.Set {
	t.Helper()
	sch := metric.NewSchema("wide")
	for m := 0; m < card; m++ {
		sch.MustAddMetric(fmt.Sprintf("m%03d", m), metric.TypeU64)
	}
	set, err := metric.New(instance, sch, metric.WithCompID(1))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// wideSample writes sample i of a steady 1 s cadence into every metric.
func wideSample(set *metric.Set, i int) {
	set.BeginTransaction()
	for m := 0; m < set.Card(); m++ {
		set.SetU64(m, uint64(i%97*(m+1))) // not SetValues: its closure would be the test's only allocation
	}
	set.EndTransaction(time.Unix(1_700_000_000+int64(i), 0))
}

// rotSample writes sample i of a steady 1 s cadence the way the bench's
// generator does: the metrics change in rotating groups of 8, group
// i mod card/8 on sample i, to values no sample repeats.
func rotSample(set *metric.Set, i int) {
	set.BeginTransaction()
	g := i % (set.Card() / 8)
	for m := 8 * g; m < 8*g+8; m++ {
		set.SetU64(m, uint64(i*set.Card()+m+1))
	}
	set.EndTransaction(time.Unix(1_700_000_000+int64(i), 0))
}

// TestObserveAllocs is the append gate: once a set's log has grown to its
// steady size an Observe allocates nothing, whether 8 of 64 metrics change
// per sample or all of them; a run covers a ring's worth of evictions.
func TestObserveAllocs(t *testing.T) {
	const points = 256
	for name, write := range map[string]func(*metric.Set, int){"rotating": rotSample, "all": wideSample} {
		w := NewWindowOpts(WindowOptions{Points: points})
		set := wideSet(t, "n1/wide", 64)
		i := 0
		for ; i < 4*points; i++ {
			write(set, i)
			w.Observe(set)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for k := 0; k < points; k++ {
				write(set, i)
				w.Observe(set)
				i++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per %d observed samples, want 0", name, allocs, points)
		}
		if st := w.Stats(); st.Observed != int64(i) {
			t.Errorf("%s: observed %d of %d samples", name, st.Observed, i)
		}
	}
}

// TestWindowStatsBytes pins what the change log is for. A full-row matrix
// costs 8 + 8/card bytes a point (8.13 at 64 metrics). A set whose samples
// change 8 of 64 metrics, as the bench's sets do, must cost at most 2.25 B
// a point; a set whose every metric changes at most the matrix plus two
// whole rows (last and base) and 8 B a sample. Names, types and the name
// index are the sets' schemas', not the window's. The logs must also get
// there without piling up outgrown copies: what the fill allocates stays
// within 1.5× of what the window ends up holding, so a fleet's peak RSS is
// its steady window.
func TestWindowStatsBytes(t *testing.T) {
	const fleet, points = 8, 64
	for _, tc := range []struct {
		name  string
		card  int
		write func(*metric.Set, int)
		limit func(series int) float64
	}{
		{"8 of 64 change", 64, rotSample, func(series int) float64 { return 2.25 * float64(series*points) }},
		{"all 512 change", 512, wideSample, func(int) float64 {
			return fleet * float64(8*points*(512+1)+16*512+8*points)
		}},
	} {
		w := NewWindowOpts(WindowOptions{Points: points})
		sets := make([]*metric.Set, fleet)
		for p := range sets {
			sets[p] = wideSet(t, fmt.Sprintf("n%02d/wide", p), tc.card)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 1; i <= 5*points; i++ {
			for _, set := range sets {
				tc.write(set, i)
				w.Observe(set)
			}
		}
		runtime.ReadMemStats(&after)
		st := w.Stats()
		if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.5*float64(st.Bytes) {
			t.Errorf("%s: filling the window allocated %d B for %d B kept", tc.name, alloc, st.Bytes)
		}
		if st.SeriesSets != fleet || st.Series != fleet*tc.card || st.Points != int64(fleet*tc.card*points) {
			t.Fatalf("%s: stats %+v", tc.name, st)
		}
		perPoint := float64(st.Bytes) / float64(st.Series*points)
		if limit := tc.limit(st.Series); float64(st.Bytes) > limit {
			t.Errorf("%s: fleet of %d reports %d B (%.3f B/point), limit %.0f", tc.name, fleet, st.Bytes, perPoint, limit)
		}
		t.Logf("%s: %.3f B/point", tc.name, perPoint)
	}
}

// mirrorOf mirrors src the way an aggregator does, through its metadata
// chunk, and loads its current sample.
func mirrorOf(t testing.TB, src *metric.Set) *metric.Set {
	t.Helper()
	m, err := metric.ParseMeta(src.MetaBytes())
	if err != nil {
		t.Fatal(err)
	}
	mir, err := m.NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	if err := mir.LoadData(src.DataSnapshot()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mir.Delete)
	return mir
}

// TestWindowSharedDirectory pins what a series' directory is: its set's
// schema. Mirrors of one layout share one, whatever Schema objects their
// sources had; a different list under the same schema name has its own; and
// the window keeps nothing of a layout once its last set is forgotten.
func TestWindowSharedDirectory(t *testing.T) {
	w := NewWindow(8, time.Hour)
	schemas := func() int {
		distinct := make(map[*metric.Schema]bool)
		for _, ss := range w.sets() {
			distinct[ss.schema] = true
		}
		return len(distinct)
	}
	for i, card := range []int{4, 4, 4, 5} {
		src := wideSet(t, fmt.Sprintf("n%d/wide", i), card)
		wideSample(src, 0)
		w.Observe(mirrorOf(t, src))
	}
	if got := schemas(); got != 2 {
		t.Fatalf("%d schemas for two metric lists", got)
	}
	if got := w.Latest("m003", 0); len(got) != 4 {
		t.Fatalf("m003 served by %d of 4 sets", len(got))
	}
	if got := w.Latest("m004", 0); len(got) != 1 || got[0].Instance != "n3/wide" {
		t.Fatalf("m004 = %+v, want only the 5-metric set", got)
	}
	w.Forget("n3/wide")
	w.Forget("n3/wide")
	w.Forget("n0/wide")
	if got := schemas(); got != 1 {
		t.Fatalf("%d schemas after the 5-metric set left", got)
	}
	if names := w.MetricNames(); len(names) != 4 {
		t.Fatalf("MetricNames = %v after the 5-metric set left", names)
	}
	w.Forget("n1/wide")
	w.Forget("n2/wide")
	if st := w.Stats(); st.SeriesSets != 0 || st.Bytes != 0 || len(w.MetricNames()) != 0 {
		t.Fatalf("an empty window reports %+v, names %v", st, w.MetricNames())
	}
}

// TestWindowLayoutChange pins what happens when a name comes back with a
// Schema object of its own (a rebuilt mirror): the same metric list
// continues the series, another list starts over — values are never
// served under a name they were not sampled for.
func TestWindowLayoutChange(t *testing.T) {
	w := NewWindow(8, time.Hour)
	w.SetClock(func() time.Time { return time.Unix(1_700_000_100, 0) })
	first := wideSet(t, "n1/wide", 4)
	wideSample(first, 1)
	w.Observe(first)
	rebuilt := wideSet(t, "n1/wide", 4)
	wideSample(rebuilt, 0) // so its DGN is not the one the window saw last
	wideSample(rebuilt, 2)
	w.Observe(rebuilt)
	got := w.Query("m003", 0, time.Unix(0, 0))
	if len(got) != 1 || len(got[0].Points) != 2 {
		t.Fatalf("rebuilt mirror with the same list: %+v, want one series of 2 points", got)
	}
	wider := wideSet(t, "n1/wide", 6)
	wideSample(wider, 3)
	w.Observe(wider)
	got = w.Query("m003", 0, time.Unix(0, 0))
	if len(got) != 1 || len(got[0].Points) != 1 || got[0].Points[0].Value.U64() != 3*4 {
		t.Fatalf("after a layout change m003 = %+v, want only the new set's sample", got)
	}
	if got := w.Latest("m005", 0); len(got) != 1 || got[0].Points[0].Value.U64() != 3*6 {
		t.Fatalf("new metric m005 = %+v", got)
	}
	if st := w.Stats(); st.SeriesSets != 1 || st.Series != 6 {
		t.Fatalf("stats %+v, want one 6-metric set", st)
	}
}
