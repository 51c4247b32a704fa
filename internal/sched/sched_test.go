package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsWork(t *testing.T) {
	p := NewPool(4, 16)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		p.Submit(func() {
			n.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	p.Stop()
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestPoolTrySubmit(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	p.Submit(func() { <-block })
	// Fill the queue.
	for !p.TrySubmit(func() {}) {
		time.Sleep(time.Millisecond)
	}
	// Queue now has one item and the worker is blocked; next must fail.
	ok := p.TrySubmit(func() {})
	if ok {
		t.Error("TrySubmit succeeded on a full queue")
	}
	close(block)
	p.Stop()
}

func TestPoolStopIdempotent(t *testing.T) {
	p := NewPool(2, 4)
	p.Stop()
	p.Stop()
}

func TestPoolSubmitAfterStop(t *testing.T) {
	p := NewPool(2, 4)
	p.Stop()
	if p.Submit(func() {}) {
		t.Error("Submit accepted work on a stopped pool")
	}
	if p.TrySubmit(func() {}) {
		t.Error("TrySubmit accepted work on a stopped pool")
	}
}

// TestPoolStopSubmitRace hammers Submit from several goroutines while Stop
// runs concurrently: accepted work must all execute, rejected work must
// not, and nothing may panic on the closed queue.
func TestPoolStopSubmitRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		p := NewPool(2, 1)
		var executed, accepted atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if p.Submit(func() { executed.Add(1) }) {
						accepted.Add(1)
					}
				}
			}()
		}
		p.Stop()
		wg.Wait()
		if executed.Load() != accepted.Load() {
			t.Fatalf("executed %d of %d accepted submissions", executed.Load(), accepted.Load())
		}
	}
}

func TestVirtualAdvanceFiresInOrder(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewVirtual(start)
	var order []int64
	s.Every(10*time.Second, 0, false, func(now time.Time) {
		order = append(order, now.Unix())
	})
	s.Every(15*time.Second, 0, false, func(now time.Time) {
		order = append(order, -now.Unix())
	})
	s.AdvanceTo(start.Add(30 * time.Second))
	// Expect: 10, -15, 20, 30, -30 (at t=30 the 10s task has lower seq).
	want := []int64{10, -15, 20, 30, -30}
	if len(order) != len(want) {
		t.Fatalf("order = %v want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v want %v", order, want)
		}
	}
	if got := s.Now(); !got.Equal(start.Add(30 * time.Second)) {
		t.Errorf("Now = %v", got)
	}
}

func TestVirtualSynchronousAlignment(t *testing.T) {
	// Start at an unaligned time; synchronous task with 60 s interval and
	// 2 s offset must first fire at the next minute boundary + 2 s.
	start := time.Unix(1000000007, 500)
	s := NewVirtual(start)
	var fired []int64
	s.Every(60*time.Second, 2*time.Second, true, func(now time.Time) {
		fired = append(fired, now.Unix())
	})
	s.AdvanceBy(3 * time.Minute)
	if len(fired) < 2 {
		t.Fatalf("fired = %v", fired)
	}
	for _, f := range fired {
		if (f-2)%60 != 0 {
			t.Errorf("fire time %d not aligned to minute+2s", f)
		}
	}
	if fired[0] != 1000000022 { // next multiple of 60 after 1000000007 is ...020, +2
		t.Errorf("first fire at %d want 1000000022", fired[0])
	}
}

// TestVirtualSynchronousPhase: a synchronous task's first firing is the
// smallest k*interval + offset strictly after its creation, wherever in the
// interval it was created, and the firings after it keep the interval.
func TestVirtualSynchronousPhase(t *testing.T) {
	const ms = time.Millisecond
	base := time.Unix(1000000000, 0) // a multiple of every interval below
	for _, tc := range []struct {
		name                    string
		start, interval, offset time.Duration
		first                   time.Duration // after base
	}{
		{"phase below offset", 801 * ms, 100 * ms, 60 * ms, 860 * ms},
		{"phase just below offset", 860*ms - 1, 100 * ms, 60 * ms, 860 * ms},
		{"phase on offset", 860 * ms, 100 * ms, 60 * ms, 960 * ms},
		{"phase above offset", 861 * ms, 100 * ms, 60 * ms, 960 * ms},
		{"on boundary, offset ahead", 800 * ms, 100 * ms, 60 * ms, 860 * ms},
		{"no offset, off boundary", 801 * ms, 100 * ms, 0, 900 * ms},
		{"no offset, on boundary", 800 * ms, 100 * ms, 0, 900 * ms},
		{"offset of a whole interval and more", 801 * ms, 100 * ms, 160 * ms, 860 * ms},
		{"negative offset", 801 * ms, 100 * ms, -40 * ms, 860 * ms},
		{"negative offset, phase past it", 870 * ms, 100 * ms, -40 * ms, 960 * ms},
	} {
		s := NewVirtual(base.Add(tc.start))
		var fired []time.Duration
		s.Every(tc.interval, tc.offset, true, func(now time.Time) {
			fired = append(fired, now.Sub(base))
		})
		s.AdvanceBy(3 * tc.interval)
		if len(fired) < 2 || fired[0] != tc.first || fired[1] != tc.first+tc.interval {
			t.Errorf("%s: fired at %v, want %v then every %v", tc.name, fired, tc.first, tc.interval)
		}
	}
	// A virtual clock at the epoch itself: the phase is "before" the offset
	// tick of interval zero, which must be taken.
	s := NewVirtual(time.Unix(0, 0))
	var first time.Time
	s.Every(time.Minute, 2*time.Second, true, func(now time.Time) {
		if first.IsZero() {
			first = now
		}
	})
	s.AdvanceBy(2 * time.Minute)
	if !first.Equal(time.Unix(2, 0)) {
		t.Errorf("from the epoch: first firing %v, want 2 s", first.Sub(time.Unix(0, 0)))
	}
	if got := nextFire(time.Unix(-1, 0), time.Minute, 2*time.Second, true); !got.Equal(time.Unix(2, 0)) {
		t.Errorf("before the epoch: nextFire = %v", got.Unix())
	}
}

func TestVirtualOneShot(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewVirtual(start)
	var n int
	s.After(5*time.Second, func(time.Time) { n++ })
	s.AdvanceBy(time.Minute)
	s.AdvanceBy(time.Minute)
	if n != 1 {
		t.Errorf("one-shot fired %d times", n)
	}
}

func TestVirtualCancel(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewVirtual(start)
	var n int
	task := s.Every(time.Second, 0, false, func(time.Time) { n++ })
	s.AdvanceBy(3 * time.Second)
	task.Cancel()
	s.AdvanceBy(10 * time.Second)
	if n != 3 {
		t.Errorf("fired %d times after cancel, want 3", n)
	}
}

func TestVirtualCancelFromCallback(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewVirtual(start)
	var n int
	var task *Task
	task = s.Every(time.Second, 0, false, func(time.Time) {
		n++
		if n == 2 {
			task.Cancel()
		}
	})
	s.AdvanceBy(10 * time.Second)
	if n != 2 {
		t.Errorf("fired %d times, want 2", n)
	}
}

func TestVirtualTaskAddedDuringAdvance(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewVirtual(start)
	var fired []string
	s.After(time.Second, func(time.Time) {
		fired = append(fired, "a")
		s.After(time.Second, func(time.Time) {
			fired = append(fired, "b")
		})
	})
	s.AdvanceBy(5 * time.Second)
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Errorf("fired = %v", fired)
	}
}

func TestRealSchedulerFires(t *testing.T) {
	s := NewReal(2)
	defer s.Stop()
	var n atomic.Int64
	done := make(chan struct{})
	s.Every(5*time.Millisecond, 0, false, func(time.Time) {
		if n.Add(1) == 3 {
			select {
			case done <- struct{}{}:
			default:
			}
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("periodic task did not fire 3 times within 5s")
	}
}

func TestRealOneShotAndCancel(t *testing.T) {
	s := NewReal(2)
	defer s.Stop()
	var fired atomic.Bool
	task := s.After(50*time.Millisecond, func(time.Time) { fired.Store(true) })
	task.Cancel()
	ch := make(chan struct{})
	s.After(100*time.Millisecond, func(time.Time) { close(ch) })
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("one-shot never fired")
	}
	if fired.Load() {
		t.Error("cancelled one-shot fired")
	}
}

func TestStopPreventsFurtherFiring(t *testing.T) {
	s := NewReal(2)
	var n atomic.Int64
	s.Every(time.Millisecond, 0, false, func(time.Time) { n.Add(1) })
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	v := n.Load()
	time.Sleep(20 * time.Millisecond)
	if n.Load() != v {
		t.Error("tasks fired after Stop")
	}
}

func TestNextFire(t *testing.T) {
	now := time.Unix(100, 0)
	if got := nextFire(now, 10*time.Second, 0, false); !got.Equal(time.Unix(110, 0)) {
		t.Errorf("async nextFire = %v", got)
	}
	if got := nextFire(now, 60*time.Second, 0, true); !got.Equal(time.Unix(120, 0)) {
		t.Errorf("sync nextFire = %v", got)
	}
	// Already on a boundary: next boundary, not now.
	if got := nextFire(time.Unix(120, 0), 60*time.Second, 0, true); !got.Equal(time.Unix(180, 0)) {
		t.Errorf("sync on-boundary nextFire = %v", got)
	}
}

func TestPendingCount(t *testing.T) {
	s := NewVirtual(time.Unix(0, 0))
	s.Every(time.Second, 0, false, func(time.Time) {})
	s.After(time.Second, func(time.Time) {})
	if got := s.Pending(); got != 2 {
		t.Errorf("Pending = %d want 2", got)
	}
	s.AdvanceBy(2 * time.Second)
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending after advance = %d want 1 (one-shot gone)", got)
	}
}
