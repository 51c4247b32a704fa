package query

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
)

// BenchmarkQueryWindow measures serving a 10-minute series query entirely
// from the in-memory ring: 64 producers' sets with 16 metrics each, rings
// full (600 points — one per second over the window). This is the gateway
// hot path for dashboards polling /api/v1/series; the acceptance bar is
// that it never touches SOS/CSV, so the cost is pure ring copying.
func BenchmarkQueryWindow(b *testing.B) {
	const (
		producers = 64
		nmetrics  = 16
		points    = 600
	)
	w := NewWindow(points, 10*time.Minute)
	sch := metric.NewSchema("bench")
	for m := 0; m < nmetrics; m++ {
		sch.MustAddMetric(fmt.Sprintf("m%02d", m), metric.TypeU64)
	}
	base := time.Now().Add(-9 * time.Minute)
	for p := 0; p < producers; p++ {
		set, err := metric.New(fmt.Sprintf("n%03d/bench", p), sch, metric.WithCompID(uint64(p+1)))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < points; i++ {
			set.BeginTransaction()
			set.SetValues(func(bt *metric.Batch) {
				for m := 0; m < nmetrics; m++ {
					bt.SetU64(m, uint64(i*m))
				}
			})
			set.EndTransaction(base.Add(time.Duration(i) * time.Second))
			w.Observe(set)
		}
	}
	since := time.Now().Add(-10 * time.Minute)

	b.Run("one-metric/all-producers", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			series := w.Query("m07", 0, since)
			if len(series) != producers {
				b.Fatalf("series = %d, want %d", len(series), producers)
			}
		}
	})
	b.Run("one-metric/one-producer", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			series := w.Query("m07", 7, since)
			if len(series) != 1 {
				b.Fatalf("series = %d, want 1", len(series))
			}
		}
	})
	b.Run("latest/all-producers", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if got := w.Latest("m07", 0); len(got) != producers {
				b.Fatalf("latest = %d, want %d", len(got), producers)
			}
		}
	})
}

// BenchmarkWindowObserve measures the tap cost an update pass pays per
// fresh sample when the gateway is enabled.
func BenchmarkWindowObserve(b *testing.B) {
	const nmetrics = 16
	w := NewWindow(DefaultPoints, DefaultRetention)
	sch := metric.NewSchema("bench")
	for m := 0; m < nmetrics; m++ {
		sch.MustAddMetric(fmt.Sprintf("m%02d", m), metric.TypeU64)
	}
	set, err := metric.New("n000/bench", sch)
	if err != nil {
		b.Fatal(err)
	}
	ts := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		set.BeginTransaction()
		set.SetU64(0, uint64(n))
		set.EndTransaction(ts)
		w.Observe(set)
	}
}

// BenchmarkQueryConcurrent is the read-path scale-out guard: parallel
// dashboard readers against a LIVE 64-producer × 16-metric window while
// a writer runs an update pass over every set each 3 ms (the paper's
// aggregator cadence). Each op is one single-producer series query over
// the last 30 s plus, every 16th op, a cross-producer aggregate. CI
// asserts the custom metrics: qps ≥ 5000 and p99-ms < 5.
func BenchmarkQueryConcurrent(b *testing.B) {
	const (
		producers = 64
		nmetrics  = 16
		points    = 600
	)
	w := NewWindowOpts(WindowOptions{Points: points, Retention: time.Hour})
	sch := metric.NewSchema("bench")
	for m := 0; m < nmetrics; m++ {
		sch.MustAddMetric(fmt.Sprintf("m%02d", m), metric.TypeU64)
	}
	sets := make([]*metric.Set, producers)
	base := time.Now().Add(-points * time.Second)
	for p := range sets {
		set, err := metric.New(fmt.Sprintf("n%03d/bench", p), sch, metric.WithCompID(uint64(p+1)))
		if err != nil {
			b.Fatal(err)
		}
		sets[p] = set
		for i := 0; i < points; i++ {
			set.BeginTransaction()
			set.SetValues(func(bt *metric.Batch) {
				for m := 0; m < nmetrics; m++ {
					bt.SetU64(m, uint64(i*m))
				}
			})
			set.EndTransaction(base.Add(time.Duration(i) * time.Second))
			w.Observe(set)
		}
	}

	// Live writer: one full update pass (all 64 sets) every 3 ms.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v := uint64(points)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ts := time.Now()
			for _, set := range sets {
				set.BeginTransaction()
				set.SetU64(0, v)
				set.EndTransaction(ts)
				w.Observe(set)
			}
			v++
			time.Sleep(3 * time.Millisecond)
		}
	}()

	var hist obs.Hist
	var ops atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for pb.Next() {
			n++
			comp := uint64(n%producers) + 1
			m := fmt.Sprintf("m%02d", n%nmetrics)
			t0 := time.Now()
			if n%16 == 0 {
				if _, err := w.Aggregate(m, 0, time.Now().Add(-30*time.Second), 5*time.Second, "avg", 0); err != nil {
					b.Error(err)
					return
				}
			} else {
				w.Query(m, comp, time.Now().Add(-30*time.Second))
			}
			hist.Record(time.Since(t0))
			ops.Add(1)
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	<-done
	if elapsed > 0 {
		b.ReportMetric(float64(ops.Load())/elapsed.Seconds(), "qps")
	}
	p99 := hist.Snapshot().Quantile(0.99)
	b.ReportMetric(float64(p99)/float64(time.Millisecond), "p99-ms")
}
