package main

import (
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// On the VM this benchmark was built on, the first touch of a guest page is
// paid for on the host: write(2) into fresh page cache costs ~15x what it
// costs into recycled pages, and the switch comes once a run has written a
// few hundred MB — in the middle of the window, at a different second every
// run (agg_cpu_us_per_sample read 15 us before it and 24 us after). A CSV
// the daemon has fsynced is clean page cache nobody will read until the
// check at the end, so the bench drops it as it goes; the daemon's next
// writes then land in the pages just freed and its cost stays flat. Nothing
// about the daemon changes: it writes and fsyncs exactly as it would.

const fadvDontNeed = 4 // POSIX_FADV_DONTNEED

// dropFileCache asks the kernel to forget the clean cached pages of f's
// first n bytes (all of it when n is 0).
func dropFileCache(f *os.File, n int64) {
	syscall.Syscall6(syscall.SYS_FADVISE64, f.Fd(), 0, uintptr(n), fadvDontNeed, 0, 0)
}

// cacheTrimmer drops the cache of every CSV under dir once a second, the
// daemons' flush interval.
type cacheTrimmer struct {
	stop chan struct{}
	done sync.WaitGroup
}

func startCacheTrimmer(dir string) *cacheTrimmer {
	t := &cacheTrimmer{stop: make(chan struct{})}
	t.done.Add(1)
	go func() {
		defer t.done.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			paths, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
			for _, p := range paths {
				if f, err := os.Open(p); err == nil {
					dropFileCache(f, 0)
					f.Close()
				}
			}
		}
	}()
	return t
}

func (t *cacheTrimmer) close() {
	close(t.stop)
	t.done.Wait()
}
