package main

import (
	"bufio"
	"context"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// How far a 1 ms sleep may overrun before the bench calls it a host stall
// rather than scheduling noise. On the aggregator CPUs the watcher shares
// one core with the daemons' own threads, and the kernel holds it off for
// up to a pass's length (20-30 ms seen on wide_churn), so only longer
// overruns count there.
const (
	stallThreshold    = 15 * time.Millisecond
	aggStallThreshold = 40 * time.Millisecond
)

// stall is one stretch during which the bench process did not run.
type stall struct{ from, to time.Time }

// stallWatch notices when the bench process stops running — a paused vCPU, a
// VM-wide I/O stall. A 2-core shared box does this now and then for 50-100
// ms, which is longer than the slack between a sample and its pull; samples
// that overlap a stall are the host's loss, not the system's, and are left
// out of the loss count (and reported in gen.excluded_seqs). A sleep that
// overran while the process was burning CPU is the bench's own load, not a
// stall: the process CPU clock tells the two apart.
type stallWatch struct {
	stop   chan struct{}
	once   sync.Once
	done   sync.WaitGroup
	mu     sync.Mutex
	stalls []stall
}

// startStallWatch watches both halves of the machine: one loop with the rest
// of the bench on the leaf CPUs, one on a thread of its own pinned to the
// aggregator CPUs, where a stall freezes the daemons and nothing of the
// bench would otherwise notice.
func startStallWatch() *stallWatch {
	s := &stallWatch{stop: make(chan struct{})}
	s.done.Add(1)
	go s.loop(nil)
	if agg := aggCPUs(); len(agg) > 0 {
		s.done.Add(1)
		go s.loop(agg)
	}
	return s
}

// loop sleeps a millisecond at a time and records every sleep that overran
// its threshold. Pinned to cpus it runs on a thread of its own; unpinned it
// shares the bench's CPUs and discounts overruns during which the bench was
// burning CPU itself.
func (s *stallWatch) loop(cpus []int) {
	defer s.done.Done()
	if cpus != nil {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if setAffinity(0, maskOf(cpus)) != nil {
			return
		}
		defer setAffinity(0, maskOf(leafCPUs()))
	}
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		t, c := time.Now(), processCPU()
		time.Sleep(time.Millisecond)
		now := time.Now()
		gap := now.Sub(t)
		if cpus != nil && gap > aggStallThreshold || cpus == nil && gap > stallThreshold && processCPU()-c < gap/2 {
			s.mu.Lock()
			s.stalls = append(s.stalls, stall{t, now})
			s.mu.Unlock()
		}
	}
}

func (s *stallWatch) close() []stall {
	s.once.Do(func() { close(s.stop) })
	s.done.Wait()
	return s.stalls
}

// processCPU reads CLOCK_PROCESS_CPUTIME_ID: CPU consumed by every thread of
// the bench, to the nanosecond.
func processCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// overlaps reports whether any stall intersects [from, to].
func overlaps(stalls []stall, from, to time.Time) bool {
	for _, s := range stalls {
		if s.from.Before(to) && s.to.After(from) {
			return true
		}
	}
	return false
}

// The host says how long it kept this VM's CPUs from running: the steal
// column of /proc/stat. On this box it stands still for minutes (0-2 ms a
// second) and then runs at 50-700 ms a second for a minute or two while a
// neighbour is busy; those are the minutes in which vCPUs freeze, producer
// connections break and CPU per sample reads up to twice its usual value.
const (
	calmLookback = 2 * time.Second       // the host is calm once it has stolen
	calmSteal    = 20 * time.Millisecond // no more than this in the last calmLookback
	calmPoll     = 500 * time.Millisecond
)

// hostSteal is the time the host has stolen from all CPUs since boot, in
// USER_HZ ticks of 10 ms; 0 where /proc/stat does not say.
func hostSteal() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) > 8 && fields[0] == "cpu" {
			ticks, _ := strconv.ParseInt(fields[8], 10, 64)
			return time.Duration(ticks) * 10 * time.Millisecond
		}
	}
	return 0
}

// awaitCalm watches the host for at least calmLookback and returns once it
// has been calm for that long, or after limit, and says how long that took.
func awaitCalm(ctx context.Context, limit time.Duration) (time.Duration, error) {
	start := time.Now()
	back := int(calmLookback / calmPoll)
	var seen []time.Duration
	for {
		seen = append(seen, hostSteal())
		if n := len(seen) - 1; n >= back && (seen[n]-seen[n-back] <= calmSteal || time.Since(start) >= limit) {
			return time.Since(start), nil
		}
		if err := sleepUntil(ctx, time.Now().Add(calmPoll)); err != nil {
			return 0, err
		}
	}
}
