package ldmsd

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goldms/internal/sched"
	"goldms/internal/transport"
)

func TestExecSamplerLifecycle(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()

	script := `
# sampler configuration, ldmsd_controller style
load name=meminfo
config name=meminfo instance=n1/meminfo component_id=42
start name=meminfo interval=1000000
`
	if _, err := d.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(5 * time.Second)
	if got := d.Stats().Samples; got != 5 {
		t.Errorf("samples = %d want 5", got)
	}
	set := d.Registry().Get("n1/meminfo")
	if set == nil {
		t.Fatal("set missing")
	}
	if set.CompID(0) != 42 {
		t.Errorf("comp id = %d want 42", set.CompID(0))
	}

	out, err := d.Exec("dir")
	if err != nil || !strings.Contains(out, "n1/meminfo") {
		t.Errorf("dir = %q err=%v", out, err)
	}
	out, err = d.Exec("ls name=n1/meminfo")
	if err != nil || !strings.Contains(out, "MemTotal") || !strings.Contains(out, "consistent") {
		t.Errorf("ls = %q err=%v", out, err)
	}
	out, err = d.Exec("usage")
	if err != nil || !strings.Contains(out, "used=") {
		t.Errorf("usage = %q err=%v", out, err)
	}
	if _, err := d.Exec("stop name=meminfo"); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(5 * time.Second)
	if got := d.Stats().Samples; got != 5 {
		t.Errorf("samples after stop = %d want 5", got)
	}
}

func TestExecAggregatorConfig(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork()
	smp := virtualSampler(t, "n1", sch, net, 3)
	defer smp.Stop()
	if _, err := smp.ExecScript("load name=meminfo\nstart name=meminfo interval=1s"); err != nil {
		t.Fatal(err)
	}

	agg, err := New(Options{
		Name:       "agg",
		Scheduler:  sch,
		Transports: []transport.Factory{transport.MemFactory{Net: net}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	csv := filepath.Join(t.TempDir(), "out.csv")
	script := `
prdcr_add name=n1 xprt=mem host=n1 interval=1s
prdcr_start name=n1
updtr_add name=u1 interval=1s
updtr_prdcr_add name=u1 prdcr=n1
updtr_start name=u1
strgp_add name=s1 plugin=store_csv schema=meminfo container=` + csv + `
strgp_start name=s1
`
	if _, err := agg.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(10 * time.Second)
	st := agg.Stats()
	if st.UpdatesFresh < 5 {
		t.Errorf("fresh = %d", st.UpdatesFresh)
	}
	out, err := agg.Exec("stats")
	if err != nil || !strings.Contains(out, "stored_rows=") {
		t.Errorf("stats = %q err=%v", out, err)
	}
}

func TestExecErrors(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	cases := []string{
		"bogus_command",
		"load",                           // missing name
		"start name=meminfo interval=1s", // not loaded
		"config name=meminfo",            // not loaded
		"start name=x",                   // no interval
		"prdcr_add name=p",               // missing xprt/host
		"prdcr_start name=ghost",
		"updtr_add name=u",
		"updtr_prdcr_add name=ghost prdcr=x",
		"strgp_add name=s",
		"ls name=ghost",
		"load name=meminfo extra", // malformed arg
	}
	for _, c := range cases {
		if _, err := d.Exec(c); err == nil {
			t.Errorf("command %q should fail", c)
		}
	}
	// Comments and empty lines are fine.
	if _, err := d.Exec(""); err != nil {
		t.Error(err)
	}
}

// TestXprtOptRejectsUnknownKeys: a misspelled key, or the retired legacy=1,
// is an error naming the accepted keys, and leaves the sock factory exactly
// as the last good xprt_opt set it.
func TestXprtOptRejectsUnknownKeys(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	sock := func() transport.SockFactory {
		d.mu.Lock()
		defer d.mu.Unlock()
		sf, _ := d.transports["sock"].(transport.SockFactory)
		return sf
	}
	if _, err := d.Exec("xprt_opt xprt=sock delta=0 compress=0 rbuf=8192"); err != nil {
		t.Fatal(err)
	}
	want := transport.SockFactory{NoDelta: true, NoCompress: true, ReadBuf: 8192}
	if got := sock(); got != want {
		t.Fatalf("factory = %+v, want %+v", got, want)
	}
	for _, cmd := range []string{
		"xprt_opt xprt=sock dleta=0",
		"xprt_opt xprt=sock legacy=1",
		"xprt_opt xprt=sock dict=0 legacy=1",
	} {
		_, err := d.Exec(cmd)
		if err == nil || !strings.Contains(err.Error(), "accepted: xprt, delta, dict, compress, rbuf, wbuf") {
			t.Errorf("%s: err = %v, want unknown key naming the accepted keys", cmd, err)
		}
		if got := sock(); got != want {
			t.Errorf("%s changed the factory to %+v", cmd, got)
		}
	}
}

// TestHTTPListenRejectsUnknownKeys: the retired compress=1, or a misspelled
// key, is an error naming the accepted keys, and starts no gateway, so the
// same command without the bad key then succeeds.
func TestHTTPListenRejectsUnknownKeys(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	for _, cmd := range []string{
		"http_listen addr=127.0.0.1:0 compress=1",
		"http_listen addr=127.0.0.1:0 point=64",
	} {
		_, err := d.Exec(cmd)
		if err == nil || !strings.Contains(err.Error(), "accepted: addr, window, points, shards, pprof") {
			t.Errorf("%s: err = %v, want unknown key naming the accepted keys", cmd, err)
		}
		d.mu.Lock()
		gw := d.gw
		d.mu.Unlock()
		if gw != nil || d.Window() != nil {
			t.Fatalf("%s started a gateway", cmd)
		}
	}
	if _, err := d.Exec("http_listen addr=127.0.0.1:0 points=64"); err != nil {
		t.Fatal(err)
	}
	if w := d.Window(); w == nil || w.Points() != 64 {
		t.Fatalf("window after a good http_listen: %v", w)
	}
}

func TestExecSynchronousStart(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(1000000007, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	script := `
load name=meminfo
start name=meminfo interval=60000000 offset=2000000 synchronous=1
`
	if _, err := d.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(3 * time.Minute)
	set := d.Registry().Get("n1/meminfo")
	ts := set.Timestamp().Unix()
	if (ts-2)%60 != 0 {
		t.Errorf("synchronous sample at %d not aligned to minute+2s", ts)
	}
}

func TestExecScriptStopsAtError(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	_, err := d.ExecScript("load name=meminfo\nbroken cmd=\nload name=vmstat")
	if err == nil {
		t.Fatal("script error not propagated")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks line info: %v", err)
	}
}

func TestControlSocket(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()

	sock := filepath.Join(t.TempDir(), "ldmsd.sock")
	cs, err := d.ServeControl(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	c, err := DialControl(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec("load name=meminfo"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("start name=meminfo interval=1s"); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(3 * time.Second)
	out, err := c.Exec("ls name=n1/meminfo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "MemTotal") {
		t.Errorf("ls over socket = %q", out)
	}
	// Errors round-trip.
	if _, err := c.Exec("ls name=ghost"); err == nil {
		t.Error("remote error not propagated")
	}
	// Connection still usable after an error reply.
	if _, err := c.Exec("usage"); err != nil {
		t.Errorf("post-error command failed: %v", err)
	}
}

func TestOneshotCommand(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(50, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	d.Exec("load name=meminfo")
	d.Exec("start name=meminfo interval=1h") // won't fire during test
	if _, err := d.Exec("oneshot name=meminfo"); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Samples; got != 1 {
		t.Errorf("samples = %d want 1", got)
	}
}

// failoverExample reproduces the Blue Waters redundant-connection pattern:
// two aggregators hold connections to the same sampler; only the primary
// pulls until the watchdog activates the standby.
func TestFailoverViaCommands(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork()
	smp := virtualSampler(t, "n7", sch, net, 7)
	defer smp.Stop()
	smp.ExecScript("load name=meminfo\nstart name=meminfo interval=1s")

	mk := func(name string, standby string) *Daemon {
		agg, err := New(Options{Name: name, Scheduler: sch,
			Transports: []transport.Factory{transport.MemFactory{Net: net}}})
		if err != nil {
			t.Fatal(err)
		}
		script := `
prdcr_add name=n7 xprt=mem host=n7 interval=1s standby=` + standby + `
prdcr_start name=n7
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=n7
updtr_start name=u
`
		if _, err := agg.ExecScript(script); err != nil {
			t.Fatal(err)
		}
		return agg
	}
	primary := mk("agg-primary", "0")
	defer primary.Stop()
	backup := mk("agg-backup", "1")
	defer backup.Stop()

	sch.AdvanceBy(10 * time.Second)
	if primary.Stats().UpdatesFresh == 0 {
		t.Error("primary pulled nothing")
	}
	if backup.Stats().Updates != 0 {
		t.Error("standby pulled before activation")
	}

	// Primary "dies"; watchdog activates the standby.
	primary.Stop()
	if _, err := backup.Exec("prdcr_activate name=n7"); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(10 * time.Second)
	if backup.Stats().UpdatesFresh == 0 {
		t.Error("standby pulled nothing after activation")
	}
}

func TestExecMiscCommands(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	net := transport.NewNetwork()
	smp := virtualSampler(t, "n1", sch, net, 0)
	defer smp.Stop()
	smp.ExecScript("load name=meminfo\nstart name=meminfo interval=1s")

	agg, _ := New(Options{Name: "agg", Scheduler: sch,
		Transports: []transport.Factory{transport.MemFactory{Net: net}}})
	defer agg.Stop()
	script := `
prdcr_add name=n1 xprt=mem host=n1 interval=1s
prdcr_start name=n1
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=n1
updtr_start name=u
strgp_add name=s plugin=store_csv schema=meminfo container=` + filepath.Join(t.TempDir(), "x.csv") + `
strgp_metric_add name=s metric=MemFree,Active
`
	if _, err := agg.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(5 * time.Second)

	// Stop / start / deactivate paths.
	for _, cmd := range []string{
		"updtr_stop name=u",
		"prdcr_stop name=n1",
		"prdcr_start name=n1",
		"prdcr_deactivate name=n1", // non-standby: no-op
		"prdcr_activate name=n1",
	} {
		if _, err := agg.Exec(cmd); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
	// strgp_start validates existence.
	if _, err := agg.Exec("strgp_start name=s"); err != nil {
		t.Error(err)
	}
	if _, err := agg.Exec("strgp_start name=ghost"); err == nil {
		t.Error("unknown strgp accepted")
	}
	if _, err := agg.Exec("strgp_metric_add name=s"); err == nil {
		t.Error("strgp_metric_add without metric accepted")
	}
	if _, err := agg.Exec("updtr_match_add name=u"); err == nil {
		t.Error("updtr_match_add without match accepted")
	}
	// Passive producer via command, and malformed variants.
	if _, err := agg.Exec("prdcr_add name=pp type=passive"); err != nil {
		t.Error(err)
	}
	if _, err := agg.Exec("prdcr_add name=pp2"); err == nil {
		t.Error("prdcr_add without host/xprt accepted")
	}
	if _, err := agg.Exec("advertise xprt=mem"); err == nil {
		t.Error("advertise without host accepted")
	}
	// ls on an inconsistent (never sampled) mirror-free daemon is an error
	// only for unknown names; a real set renders.
	out, err := agg.Exec("ls")
	if err != nil || !strings.Contains(out, "n1/meminfo") {
		t.Errorf("ls = %q err=%v", out, err)
	}
}

func TestControlServerBadSocketPath(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	if _, err := d.ServeControl("/does/not/exist/ctl.sock"); err == nil {
		t.Error("bad socket path accepted")
	}
	if _, err := DialControl("/does/not/exist/ctl.sock"); err == nil {
		t.Error("dial to missing socket succeeded")
	}
}

func TestExecScriptCollectsOutput(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(0, 0))
	d := virtualSampler(t, "n1", sch, transport.NewNetwork(), 0)
	defer d.Stop()
	d.ExecScript("load name=meminfo\nstart name=meminfo interval=1s")
	sch.AdvanceBy(2 * time.Second)
	out, err := d.ExecScript("dir\nusage")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "n1/meminfo") || !strings.Contains(out, "used=") {
		t.Errorf("script output = %q", out)
	}
}
