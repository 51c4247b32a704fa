package query

import (
	"testing"
	"time"

	"goldms/internal/metric"
)

// fillAggWindow loads 4 producers × 6 samples at a 1 s cadence; producer
// p's sample i has a = p*100 + i.
func fillAggWindow(t *testing.T) (*Window, time.Time) {
	t.Helper()
	w := NewWindowOpts(WindowOptions{Points: 256, Retention: time.Hour})
	// Align to the widest step the tests use so buckets don't straddle.
	base := time.Now().Truncate(2 * time.Second)
	for p := 1; p <= 4; p++ {
		s := testSet(t, "n"+string(rune('0'+p))+"/win", uint64(p))
		for i := 0; i < 6; i++ {
			sample(s, uint64(p*100+i), base.Add(time.Duration(i)*time.Second))
			w.Observe(s)
		}
	}
	return w, base
}

func TestAggregateWholeWindow(t *testing.T) {
	// The window keeps every series in a fixed ring of samples.
	t.Run("rings", func(t *testing.T) {
		w, base := fillAggWindow(t)
		res, err := w.Aggregate("a", 0, base.Add(-time.Minute), 0, "sum", 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.SeriesCount != 4 || len(res.Points) != 1 {
			t.Fatalf("sum result = %+v", res)
		}
		// sum over p=1..4, i=0..5 of p*100+i = 100*(1+2+3+4)*6 + 4*(0+..+5)
		want := float64(100*10*6 + 4*15)
		if res.Points[0].Value != want {
			t.Fatalf("sum = %g, want %g", res.Points[0].Value, want)
		}
		if res.Points[0].Count != 24 {
			t.Fatalf("count = %d, want 24", res.Points[0].Count)
		}
		// Whole-window bucket is stamped at the newest folded sample.
		if got := res.Points[0].Time; !got.Equal(base.Add(5 * time.Second)) {
			t.Fatalf("bucket time = %v, want %v", got, base.Add(5*time.Second))
		}

		mx, err := w.Aggregate("a", 0, base.Add(-time.Minute), 0, "max", 0)
		if err != nil {
			t.Fatal(err)
		}
		if mx.Points[0].Value != 405 {
			t.Fatalf("max = %g, want 405", mx.Points[0].Value)
		}
		mn, _ := w.Aggregate("a", 0, base.Add(-time.Minute), 0, "min", 0)
		if mn.Points[0].Value != 100 {
			t.Fatalf("min = %g, want 100", mn.Points[0].Value)
		}
		avg, _ := w.Aggregate("a", 0, base.Add(-time.Minute), 0, "avg", 0)
		if avg.Points[0].Value != want/24 {
			t.Fatalf("avg = %g, want %g", avg.Points[0].Value, want/24)
		}
	})
}

func TestAggregateStepBuckets(t *testing.T) {
	w, base := fillAggWindow(t)
	res, err := w.Aggregate("a", 0, base.Add(-time.Minute), 2*time.Second, "count", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("buckets = %d, want 3", len(res.Points))
	}
	for i, p := range res.Points {
		// 4 producers × 2 samples per 2 s bucket.
		if p.Value != 8 || p.Count != 8 {
			t.Fatalf("bucket %d = %+v, want value 8", i, p)
		}
		if i > 0 && !res.Points[i-1].Time.Before(p.Time) {
			t.Fatalf("buckets out of order: %v then %v", res.Points[i-1].Time, p.Time)
		}
	}
}

func TestAggregateQuantileAndComp(t *testing.T) {
	w, base := fillAggWindow(t)
	med, err := w.Aggregate("a", 0, base.Add(-time.Minute), 0, "quantile", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 24 values; nearest-rank median of p*100+i.
	if v := med.Points[0].Value; v < 200 || v > 305 {
		t.Fatalf("median = %g, not between the middle producers", v)
	}
	p0, _ := w.Aggregate("a", 0, base.Add(-time.Minute), 0, "quantile", 0)
	if p0.Points[0].Value != 100 {
		t.Fatalf("q0 = %g, want 100", p0.Points[0].Value)
	}
	p1, _ := w.Aggregate("a", 0, base.Add(-time.Minute), 0, "quantile", 1)
	if p1.Points[0].Value != 405 {
		t.Fatalf("q1 = %g, want 405", p1.Points[0].Value)
	}

	// Component filter folds one producer only.
	one, err := w.Aggregate("a", 3, base.Add(-time.Minute), 0, "max", 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.SeriesCount != 1 || one.Points[0].Value != 305 {
		t.Fatalf("comp=3 max = %+v", one)
	}
}

func TestAggregateErrors(t *testing.T) {
	w, base := fillAggWindow(t)
	if _, err := w.Aggregate("a", 0, base, 0, "median", 0); err == nil {
		t.Fatal("unknown func accepted")
	}
	if _, err := w.Aggregate("a", 0, base, 0, "quantile", 1.5); err == nil {
		t.Fatal("out-of-range quantile accepted")
	}
	res, err := w.Aggregate("nope", 0, base, 0, "sum", 0)
	if err != nil || res.SeriesCount != 0 || len(res.Points) != 0 {
		t.Fatalf("missing metric: res=%+v err=%v", res, err)
	}
	if st := w.Stats(); st.Aggregates == 0 {
		t.Fatal("aggregate counter not advancing")
	}
}

func TestDownsample(t *testing.T) {
	base := time.Unix(1700000000, 0)
	s := Series{Metric: "a", Type: metric.TypeU64}
	for i := 0; i < 10; i++ {
		s.Points = append(s.Points, Point{
			Time:  base.Add(time.Duration(i) * time.Second),
			Value: metric.Value{Type: metric.TypeU64, Bits: uint64(i)},
		})
	}

	// step <= 0 and empty series pass through unchanged.
	if got := Downsample(s, 0, "avg", 0); len(got.Points) != 10 || got.Type != metric.TypeU64 {
		t.Fatalf("step=0 modified the series: %+v", got)
	}
	if got := Downsample(Series{}, time.Second, "avg", 0); len(got.Points) != 0 {
		t.Fatalf("empty series grew points: %+v", got)
	}

	// avg folds to float points at bucket starts.
	ds := Downsample(s, 5*time.Second, "avg", 0)
	if ds.Type != metric.TypeD64 || len(ds.Points) != 2 {
		t.Fatalf("avg downsample = %+v", ds)
	}
	if ds.Points[0].Value.F64() != 2 || ds.Points[1].Value.F64() != 7 {
		t.Fatalf("avg buckets = %g, %g; want 2, 7", ds.Points[0].Value.F64(), ds.Points[1].Value.F64())
	}
	for _, p := range ds.Points {
		if p.Time.UnixNano()%int64(5*time.Second) != 0 {
			t.Fatalf("bucket not on the step grid: %v", p.Time)
		}
	}

	// "last" keeps the newest raw point (and the original type).
	last := Downsample(s, 5*time.Second, "last", 0)
	if last.Type != metric.TypeU64 || len(last.Points) != 2 {
		t.Fatalf("last downsample = %+v", last)
	}
	if last.Points[0].Value.U64() != 4 || last.Points[1].Value.U64() != 9 {
		t.Fatalf("last buckets = %d, %d; want 4, 9", last.Points[0].Value.U64(), last.Points[1].Value.U64())
	}
}

func TestBucketKeyNegative(t *testing.T) {
	step := time.Duration(10) // 10 ns grid
	if k := bucketKey(-5, step); k != -10 {
		t.Fatalf("bucketKey(-5) = %d, want -10", k)
	}
	if k := bucketKey(25, step); k != 20 {
		t.Fatalf("bucketKey(25) = %d, want 20", k)
	}
	if k := bucketKey(123, 0); k != 0 {
		t.Fatalf("bucketKey step=0 = %d, want 0", k)
	}
}
