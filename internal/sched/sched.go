package sched

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Task is a scheduled callback. Periodic tasks re-arm themselves until
// cancelled; one-shot tasks fire once.
type Task struct {
	fn        func(now time.Time)
	interval  time.Duration
	offset    time.Duration
	sync      bool
	oneShot   bool
	next      time.Time
	heapIndex int
	cancelled atomic.Bool
	seq       uint64 // tie-break for deterministic ordering at equal times
}

// Cancel prevents any further firings of the task. Safe to call from any
// goroutine, including from within the task callback.
func (t *Task) Cancel() { t.cancelled.Store(true) }

// taskHeap orders tasks by next fire time, then by creation sequence.
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if !h[i].next.Equal(h[j].next) {
		return h[i].next.Before(h[j].next)
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}
func (h *taskHeap) Push(x any) {
	t := x.(*Task)
	t.heapIndex = len(*h)
	*h = append(*h, t)
}
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Scheduler dispatches timed tasks. Construct with NewReal (wall clock,
// worker pool) or NewVirtual (explicit time, inline execution).
type Scheduler struct {
	mu      sync.Mutex
	tasks   taskHeap
	seq     uint64
	virtual bool
	now     time.Time // virtual clock position
	pool    *Pool
	wake    chan struct{}
	done    chan struct{}
	stopped bool
}

// NewReal returns a wall-clock scheduler dispatching callbacks onto a pool
// of workers sized like ldmsd's worker thread pool ("typically no larger
// than the number of CPU cores").
func NewReal(workers int) *Scheduler {
	s := &Scheduler{
		pool: NewPool(workers, 4*workers+16),
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go s.loop()
	return s
}

// NewVirtual returns a scheduler whose clock starts at start and only moves
// when AdvanceTo/AdvanceBy are called. Callbacks run inline, in exact
// timestamp order, on the advancing goroutine.
func NewVirtual(start time.Time) *Scheduler {
	return &Scheduler{virtual: true, now: start}
}

// Virtual reports whether this scheduler runs on an explicit virtual clock
// (callbacks inline, deterministic order) rather than wall time. Callers
// that fan work out onto goroutines consult this to stay deterministic in
// virtual-time experiments.
func (s *Scheduler) Virtual() bool { return s.virtual }

// Now returns the scheduler's current time (wall time for real schedulers).
func (s *Scheduler) Now() time.Time {
	if !s.virtual {
		return time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Every schedules fn to run each interval. If synchronous is true the
// firings align to wall-clock multiples of the interval plus offset
// (paper §IV-C: "synchronous operation refers to an attempt to collect (or
// sample) relative to particular times as opposed to relative to an
// arbitrary start time"); otherwise the first firing is one interval from
// now.
func (s *Scheduler) Every(interval, offset time.Duration, synchronous bool, fn func(time.Time)) *Task {
	if interval <= 0 {
		interval = time.Second
	}
	t := &Task{fn: fn, interval: interval, offset: offset, sync: synchronous}
	s.mu.Lock()
	t.seq = s.seq
	s.seq++
	t.next = nextFire(s.lockedNow(), interval, offset, synchronous)
	heap.Push(&s.tasks, t)
	s.mu.Unlock()
	s.kick()
	return t
}

// After schedules fn to run once, d from now.
func (s *Scheduler) After(d time.Duration, fn func(time.Time)) *Task {
	if d < 0 {
		d = 0
	}
	t := &Task{fn: fn, oneShot: true}
	s.mu.Lock()
	t.seq = s.seq
	s.seq++
	t.next = s.lockedNow().Add(d)
	heap.Push(&s.tasks, t)
	s.mu.Unlock()
	s.kick()
	return t
}

// lockedNow returns the current time; caller holds s.mu for virtual mode.
func (s *Scheduler) lockedNow() time.Time {
	if s.virtual {
		return s.now
	}
	return time.Now()
}

// nextFire computes the first firing time for a task created (or found to
// have fallen behind) at now.
func nextFire(now time.Time, interval, offset time.Duration, synchronous bool) time.Time {
	if !synchronous {
		return now.Add(interval)
	}
	// The smallest k*interval + offset, counted from the unix epoch, strictly
	// after now: a tick whose offset is still ahead in now's own interval is
	// taken, not skipped.
	iv := interval.Nanoseconds()
	ns := now.UnixNano() - offset.Nanoseconds()
	k := ns / iv
	if ns%iv < 0 {
		k-- // floor, for a phase before the epoch (virtual clocks start at 0)
	}
	return time.Unix(0, (k+1)*iv).Add(offset)
}

// kick wakes the real-mode dispatch loop after heap changes.
func (s *Scheduler) kick() {
	if s.virtual {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the real-mode dispatcher.
func (s *Scheduler) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			return
		}
		var wait time.Duration
		if len(s.tasks) == 0 {
			wait = time.Hour
		} else {
			wait = time.Until(s.tasks[0].next)
		}
		if wait <= 0 {
			t := heap.Pop(&s.tasks).(*Task)
			if t.cancelled.Load() {
				s.mu.Unlock()
				continue
			}
			fireAt := t.next
			if !t.oneShot {
				t.next = t.next.Add(t.interval)
				// If we fell behind, skip missed firings rather than
				// bursting (interval-driven, not catch-up).
				if now := time.Now(); t.next.Before(now) {
					t.next = nextFire(now, t.interval, t.offset, t.sync)
				}
				heap.Push(&s.tasks, t)
			}
			s.mu.Unlock()
			s.pool.Submit(func() {
				if !t.cancelled.Load() {
					t.fn(fireAt)
				}
			})
			continue
		}
		s.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-s.wake:
		case <-s.done:
			return
		}
	}
}

// AdvanceTo moves a virtual scheduler's clock to target, firing every due
// task inline in timestamp order. It panics on a real-clock scheduler.
func (s *Scheduler) AdvanceTo(target time.Time) {
	if !s.virtual {
		panic("sched: AdvanceTo on a real-clock scheduler")
	}
	for {
		s.mu.Lock()
		if len(s.tasks) == 0 || s.tasks[0].next.After(target) {
			if target.After(s.now) {
				s.now = target
			}
			s.mu.Unlock()
			return
		}
		t := heap.Pop(&s.tasks).(*Task)
		if t.cancelled.Load() {
			s.mu.Unlock()
			continue
		}
		fireAt := t.next
		if fireAt.After(s.now) {
			s.now = fireAt
		}
		if !t.oneShot {
			t.next = t.next.Add(t.interval)
			heap.Push(&s.tasks, t)
		}
		s.mu.Unlock()
		t.fn(fireAt)
	}
}

// AdvanceBy moves a virtual scheduler's clock forward by d.
func (s *Scheduler) AdvanceBy(d time.Duration) {
	s.AdvanceTo(s.Now().Add(d))
}

// Pending returns the number of tasks currently armed.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tasks)
}

// Stop halts dispatching. Real-mode worker pools are drained. Tasks still
// queued never fire.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	if !s.virtual {
		close(s.done)
		s.pool.Stop()
	}
}
