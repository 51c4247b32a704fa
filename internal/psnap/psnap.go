// Package psnap implements a real (measured, not simulated) PSNAP-style
// OS-noise profiler: "an OS and network noise profiling tool which
// performs multiple iterations of a loop calibrated to run for a given
// amount of time. On an unloaded system, variation from the ideal amount
// of time can be attributed to system noise" (paper §V-A1).
//
// The impact experiments F5/F8 run this profiler on the actual host with a
// real ldmsd sampling the real /proc alongside, so the measured histogram
// tail is a genuine interference measurement rather than a model output.
package psnap

import (
	"sort"
	"sync/atomic"
	"time"
)

// spinUnit is the calibrated work quantum. The accumulator defeats
// dead-code elimination; atomic because RunParallel spins on several
// goroutines.
var sink atomic.Uint64

// spin performs n units of busy work.
func spin(n int) {
	acc := sink.Load()
	for i := 0; i < n; i++ {
		acc = acc*2862933555777941757 + 3037000493
	}
	sink.Store(acc)
}

// Calibrate determines how many spin units take approximately target on
// this machine: double until the measured time exceeds the target, then
// refine the linear estimate with min-of-several measurements so a single
// preemption during calibration cannot skew the loop time.
func Calibrate(target time.Duration) int {
	n := 1024
	var d time.Duration
	for {
		start := time.Now()
		spin(n)
		d = time.Since(start)
		if d >= target || n > 1<<30 {
			break
		}
		n *= 2
	}
	scaled := int(float64(n) * float64(target) / float64(d))
	if scaled < 1 {
		scaled = 1
	}
	for round := 0; round < 3; round++ {
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			spin(scaled)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if best <= 0 {
			break
		}
		next := int(float64(scaled) * float64(target) / float64(best))
		if next < 1 {
			next = 1
		}
		// Converged within 2%: done.
		if diff := next - scaled; diff < scaled/50 && diff > -scaled/50 {
			return next
		}
		scaled = next
	}
	return scaled
}

// Result is a PSNAP run's loop-duration histogram in microsecond buckets.
type Result struct {
	Target time.Duration
	Loops  int
	Hist   map[int]int64
}

// Run executes loops iterations of the calibrated loop and returns the
// duration histogram. units comes from Calibrate.
func Run(loops, units int, target time.Duration) Result {
	hist := make(map[int]int64, 64)
	for i := 0; i < loops; i++ {
		start := time.Now()
		spin(units)
		us := int((time.Since(start) + 500*time.Nanosecond) / time.Microsecond)
		hist[us]++
	}
	return Result{Target: target, Loops: loops, Hist: hist}
}

// RunParallel executes the calibrated loop on workers goroutines
// concurrently (loops split among them) and merges the histograms. Running
// one worker per core reproduces the paper's fully-packed nodes (32 tasks
// per node), where a sampler firing must steal cycles from some task
// rather than run on an idle core.
func RunParallel(workers, loops, units int, target time.Duration) Result {
	if workers < 1 {
		workers = 1
	}
	results := make(chan Result, workers)
	per := loops / workers
	for w := 0; w < workers; w++ {
		go func() {
			results <- Run(per, units, target)
		}()
	}
	merged := Result{Target: target, Loops: per * workers, Hist: make(map[int]int64)}
	for w := 0; w < workers; w++ {
		r := <-results
		for b, c := range r.Hist {
			merged.Hist[b] += c
		}
	}
	return merged
}

// Total returns the loop count recorded in the histogram.
func (r Result) Total() int64 {
	var n int64
	for _, c := range r.Hist {
		n += c
	}
	return n
}

// TailBeyond counts loops at or beyond us microseconds.
func (r Result) TailBeyond(us int) int64 {
	var n int64
	for b, c := range r.Hist {
		if b >= us {
			n += c
		}
	}
	return n
}

// Quantile returns the duration bucket at quantile q (0..1).
func (r Result) Quantile(q float64) int {
	type bc struct {
		b int
		c int64
	}
	var buckets []bc
	var total int64
	for b, c := range r.Hist {
		buckets = append(buckets, bc{b, c})
		total += c
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].b < buckets[j].b })
	want := int64(q * float64(total))
	var cum int64
	for _, x := range buckets {
		cum += x.c
		if cum >= want {
			return x.b
		}
	}
	if len(buckets) == 0 {
		return 0
	}
	return buckets[len(buckets)-1].b
}
