package query

import (
	"fmt"
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

// TestWindowCompressedMatchesRings runs every mode-sensitive path in
// both storage modes and asserts identical served results.
func TestWindowCompressedMatchesRings(t *testing.T) {
	base := time.Now().Truncate(time.Second)
	build := func(compress bool) *Window {
		w := NewWindowOpts(WindowOptions{Points: 300, Retention: time.Hour, Compress: compress})
		for p := 1; p <= 3; p++ {
			s := testSet(t, fmt.Sprintf("n%d/win", p), uint64(p))
			for i := 0; i < 250; i++ {
				sample(s, uint64(p*1000+i), base.Add(time.Duration(i)*time.Second))
				w.Observe(s)
			}
		}
		return w
	}
	plain, comp := build(false), build(true)
	if !comp.Compressed() || plain.Compressed() {
		t.Fatal("Compressed() flag wrong")
	}
	for _, since := range []time.Time{
		base.Add(-time.Minute),
		base.Add(100 * time.Second),
		base.Add(249 * time.Second),
		base.Add(10 * time.Minute),
	} {
		a := plain.Query("a", 0, since)
		b := comp.Query("a", 0, since)
		if len(a) != len(b) {
			t.Fatalf("since %v: %d vs %d series", since, len(a), len(b))
		}
		for i := range a {
			if len(a[i].Points) != len(b[i].Points) {
				t.Fatalf("since %v series %d: %d vs %d points", since, i, len(a[i].Points), len(b[i].Points))
			}
			for j := range a[i].Points {
				pa, pb := a[i].Points[j], b[i].Points[j]
				if !pa.Time.Equal(pb.Time) || pa.Value.Bits != pb.Value.Bits {
					t.Fatalf("since %v series %d point %d: %v/%#x vs %v/%#x",
						since, i, j, pa.Time, pa.Value.Bits, pb.Time, pb.Value.Bits)
				}
			}
		}
	}
	la, lb := plain.Latest("b", 0), comp.Latest("b", 0)
	if len(la) != 3 || len(lb) != 3 {
		t.Fatalf("latest: %d vs %d series", len(la), len(lb))
	}
	for i := range la {
		if la[i].Points[0].Value.Bits != lb[i].Points[0].Value.Bits {
			t.Fatalf("latest series %d differs", i)
		}
	}
}

// TestWindowEmptyQuery pins the empty-window sort.Search cut: a series
// block that exists but has recorded nothing must serve nil, and a bound
// past the newest point must serve nothing rather than everything.
func TestWindowEmptyQuery(t *testing.T) {
	for _, compress := range []bool{false, true} {
		w := NewWindowOpts(WindowOptions{Points: 8, Retention: time.Hour, Compress: compress})
		if got := w.Query("a", 0, time.Now().Add(-time.Minute)); got != nil {
			t.Fatalf("compress=%v: empty window served %v", compress, got)
		}
		if got := w.Latest("a", 0); got != nil {
			t.Fatalf("compress=%v: empty window Latest served %v", compress, got)
		}
		s := testSet(t, "n1/win", 1)
		ts := time.Now().Truncate(time.Second)
		sample(s, 9, ts)
		w.Observe(s)
		// Bound strictly after the only point: no series at all.
		if got := w.Query("a", 0, ts.Add(time.Second)); len(got) != 0 {
			t.Fatalf("compress=%v: future bound served %v", compress, got)
		}
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

// TestWindowStaleDGNCompressed pins the DGN-stale filter in compressed
// mode: re-observing an unchanged set must not grow compressed history.
func TestWindowStaleDGNCompressed(t *testing.T) {
	w := NewWindowOpts(WindowOptions{Points: 256, Retention: time.Hour, Compress: true})
	s := testSet(t, "n1/win", 1)
	sample(s, 7, time.Now())
	w.Observe(s)
	for i := 0; i < 10; i++ {
		w.Observe(s) // same DGN: all dropped
	}
	st := w.Stats()
	if st.Observed != 1 || st.Skipped != 10 {
		t.Fatalf("stale filter: %+v", st)
	}
	got := w.Query("a", 0, time.Now().Add(-time.Minute))
	if len(got) != 1 || len(got[0].Points) != 1 {
		t.Fatalf("stale observes leaked into history: %+v", got)
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
// Aggregate in both storage modes; run under -race.
func TestWindowConcurrentAggregate(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "rings"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			w := NewWindowOpts(WindowOptions{Points: 256, Retention: time.Hour, Compress: compress})
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

// TestObserveAllocs is the append gate: once a set's block exists (and, in
// compressed mode, every sealed buffer has been through one generation) an
// Observe allocates nothing — not per sample and not per seal, which is
// why a run is a whole block's worth of samples.
func TestObserveAllocs(t *testing.T) {
	for _, compress := range []bool{false, true} {
		w := NewWindowOpts(WindowOptions{Points: 256, Compress: compress})
		set := wideSet(t, "n1/wide", 16)
		i := 0
		for ; i < 4*256; i++ {
			wideSample(set, i)
			w.Observe(set)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for k := 0; k < blockPoints; k++ {
				wideSample(set, i)
				w.Observe(set)
				i++
			}
		})
		if allocs != 0 {
			t.Errorf("compress=%v: %v allocs per %d observed samples, want 0", compress, allocs, blockPoints)
		}
		if st := w.Stats(); st.Observed != int64(i) {
			t.Errorf("compress=%v: observed %d of %d samples", compress, st.Observed, i)
		}
	}
}

// TestWindowStatsBytes pins the footprint the set block is for: 8 bytes of
// matrix per point and one timestamp per sample shared by the whole set —
// 8 + 8/card by arithmetic, against 16 bytes a point when every metric kept
// (timestamp, value) pairs of its own. Names, types and the name index are
// the sets' schemas', not the window's.
func TestWindowStatsBytes(t *testing.T) {
	const fleet = 32
	for _, tc := range []struct{ card, points int }{
		{16, 64}, {18, 64}, {64, 64}, {512, 64}, {18, 1024}, {64, 1024},
	} {
		w := NewWindowOpts(WindowOptions{Points: tc.points})
		for p := 0; p < fleet; p++ {
			set := wideSet(t, fmt.Sprintf("n%02d/wide", p), tc.card)
			wideSample(set, 0)
			w.Observe(set)
		}
		st := w.Stats()
		if st.SeriesSets != fleet || st.Series != fleet*tc.card {
			t.Fatalf("card %d: stats %+v", tc.card, st)
		}
		if want := int64(fleet * 8 * tc.points * (tc.card + 1)); st.Bytes != want {
			t.Errorf("card %d, %d points: fleet of %d reports %d B, want %d (%.3f B/point)",
				tc.card, tc.points, fleet, st.Bytes, want, float64(want)/float64(st.Series*tc.points))
		}
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

// TestWindowSharedDirectory pins what a block's directory is: its set's
// schema. Mirrors of one layout share one, whatever Schema objects their
// sources had; a different list under the same schema name has its own; and
// the window keeps nothing of a layout once its last set is forgotten.
func TestWindowSharedDirectory(t *testing.T) {
	w := NewWindow(8, time.Hour)
	schemas := func() int {
		distinct := make(map[*metric.Schema]bool)
		for _, ss := range w.blocks() {
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
	for _, compress := range []bool{false, true} {
		w := NewWindowOpts(WindowOptions{Points: 8, Retention: time.Hour, Compress: compress})
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
			t.Fatalf("compress=%v: rebuilt mirror with the same list: %+v, want one series of 2 points", compress, got)
		}
		wider := wideSet(t, "n1/wide", 6)
		wideSample(wider, 3)
		w.Observe(wider)
		got = w.Query("m003", 0, time.Unix(0, 0))
		if len(got) != 1 || len(got[0].Points) != 1 || got[0].Points[0].Value.U64() != 3*4 {
			t.Fatalf("compress=%v: after a layout change m003 = %+v, want only the new set's sample", compress, got)
		}
		if got := w.Latest("m005", 0); len(got) != 1 || got[0].Points[0].Value.U64() != 3*6 {
			t.Fatalf("compress=%v: new metric m005 = %+v", compress, got)
		}
		if st := w.Stats(); st.SeriesSets != 1 || st.Series != 6 {
			t.Fatalf("compress=%v: stats %+v, want one 6-metric set", compress, st)
		}
	}
}
