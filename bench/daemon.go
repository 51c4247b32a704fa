package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"goldms/internal/ldmsd"
)

// daemon is one real ldmsd child process, observed only from outside: its
// stdout (bound addresses), its control socket, its gateway and /proc.
type daemon struct {
	name  string
	cmd   *exec.Cmd
	pid   int
	ctl   *ldmsd.ControlClient
	ctlMu sync.Mutex // the poller and the window edges share the one control connection

	mu    sync.Mutex
	lines []string // stdout so far
	eof   chan struct{}
	ended bool // stop or kill already reaped the process
}

// startDaemon spawns ldmsd in dir, on cpus, with its control socket at
// <name>.sock and returns once the socket answers. Addresses bind to port 0; the bound ones
// are read back from stdout.
func startDaemon(ctx context.Context, bin, dir, name string, cpus []int, args ...string) (*daemon, error) {
	sock := filepath.Join(dir, name+".sock")
	args = append([]string{"-n", name, "-S", sock, "-m", strconv.Itoa(daemonMemory)}, args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	// The child dies with the bench even if the bench is SIGKILLed, and a
	// cancelled context asks politely before WaitDelay kills.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := startPinned(cmd.Start, cpus, leafCPUs()); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, pid: cmd.Process.Pid, eof: make(chan struct{})}
	go func() {
		defer close(d.eof)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
		}
	}()
	if _, err := d.await(ctx, "control socket "); err != nil {
		d.kill()
		return nil, err
	}
	if d.ctl, err = ldmsd.DialControl(sock); err != nil {
		d.kill()
		return nil, fmt.Errorf("%s: control socket: %w", name, err)
	}
	return d, nil
}

// await returns the remainder of the first stdout line containing marker.
func (d *daemon) await(ctx context.Context, marker string) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		for _, l := range d.lines {
			if i := strings.Index(l, marker); i >= 0 {
				d.mu.Unlock()
				return strings.TrimSpace(l[i+len(marker):]), nil
			}
		}
		d.mu.Unlock()
		select {
		case <-d.eof:
			return "", fmt.Errorf("%s exited before printing %q (see %s.log)", d.name, marker, d.name)
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s: no %q on stdout after 10s", d.name, marker)
		}
	}
}

// xprtAddr is the bound address of the daemon's -x sock listener.
func (d *daemon) xprtAddr(ctx context.Context) (string, error) {
	return d.await(ctx, "listening on sock:")
}

// httpAddr is the bound address of the daemon's gateway.
func (d *daemon) httpAddr(ctx context.Context) (string, error) {
	return d.await(ctx, "http gateway on ")
}

// exec runs one command over the control socket.
func (d *daemon) exec(cmd string) (string, error) {
	d.ctlMu.Lock()
	defer d.ctlMu.Unlock()
	out, err := d.ctl.Exec(cmd)
	if err != nil {
		return "", fmt.Errorf("%s: %q: %w", d.name, cmd, err)
	}
	return out, nil
}

// configure runs config commands over the control socket.
func (d *daemon) configure(lines ...string) error {
	for _, l := range lines {
		if _, err := d.exec(l); err != nil {
			return err
		}
	}
	return nil
}

// status runs a *_status/stats command and parses each output line's
// key=value tokens.
func (d *daemon) status(cmd string) ([]map[string]string, error) {
	out, err := d.exec(cmd)
	if err != nil {
		return nil, err
	}
	var rows []map[string]string
	for _, line := range strings.Split(out, "\n") {
		kv := make(map[string]string)
		for _, tok := range strings.Fields(line) {
			if k, v, ok := strings.Cut(tok, "="); ok {
				if _, dup := kv[k]; !dup { // quoted free text later in the line never shadows a counter
					kv[k] = v
				}
			}
		}
		if len(kv) > 0 {
			rows = append(rows, kv)
		}
	}
	return rows, nil
}

// dirCount is the number of sets in the daemon's directory.
func (d *daemon) dirCount() (int, error) {
	out, err := d.exec("dir")
	if err != nil {
		return 0, err
	}
	return len(strings.Fields(out)), nil
}

func num(kv map[string]string, key string) int64 {
	n, _ := strconv.ParseInt(kv[key], 10, 64)
	return n
}

// cpuNanos is the process's on-CPU time: nanoseconds summed over
// /proc/<pid>/task/*/schedstat, or utime+stime ticks where schedstat is
// missing.
func (d *daemon) cpuNanos() (int64, error) {
	pid := d.pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total int64
	ok := false
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				total += n
				ok = true
			}
		}
	}
	if ok {
		return total, nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised comm; utime and stime are 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("pid %d: short /proc stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return (ut + st) * int64(time.Second/100), nil
}

// hwmMB is the process's peak resident set (VmHWM) in MB.
func (d *daemon) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM", d.pid)
}

// stop ends the daemon and waits for it. SIGTERM lets ldmsd drain and close
// its stores, so every enqueued row reaches the CSV before the files are
// read; a daemon that ignores it is killed.
func (d *daemon) stop() {
	if d.ended {
		return
	}
	d.ended = true
	if d.ctl != nil {
		d.ctl.Close()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.eof:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
	}
	d.cmd.Wait()
}

// kill ends a daemon whose output nobody will read.
func (d *daemon) kill() {
	if d.ended {
		return
	}
	d.ended = true
	if d.ctl != nil {
		d.ctl.Close()
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
}
