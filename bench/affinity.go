package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The paper's collectors and aggregators live on different hosts: samplers
// on compute nodes, aggregators on service nodes. On one box the bench
// keeps them apart with CPU affinity — the leaf side (the generator, the
// real leaf ldmsd, the probers) on CPU 0, every aggregator on the rest — so
// an aggregator's pass is not timed by how the kernel happened to interleave
// it with the load that feeds it. Affinity is set from outside, at spawn: a
// child inherits the mask of the thread that forked it.

type cpuMask [16]uint64 // 1024 CPUs

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// leafCPUs and aggCPUs split the machine; with one CPU nothing is pinned.
func leafCPUs() []int {
	if runtime.NumCPU() < 2 {
		return nil
	}
	return []int{0}
}

func aggCPUs() []int {
	var cpus []int
	for c := 1; c < runtime.NumCPU(); c++ {
		cpus = append(cpus, c)
	}
	return cpus
}

func allCPUs() []int { return append([]int{0}, aggCPUs()...) }

// pinSelf moves every thread of the bench process onto cpus; threads
// created later inherit the mask.
func pinSelf(cpus []int) {
	if len(cpus) == 0 {
		return
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			setAffinity(tid, maskOf(cpus))
		}
	}
}

// startPinned starts the command with its affinity set to cpus: the calling
// thread takes the mask for the duration of the fork and then gets back
// the one it had.
func startPinned(start func() error, cpus, back []int) error {
	if len(cpus) == 0 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, maskOf(cpus)); err != nil {
		return start() // not permitted here: run unpinned
	}
	defer setAffinity(0, maskOf(back))
	return start()
}
