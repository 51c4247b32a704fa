package ldmsd

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// benchRegistry builds a registry of n small consistent sets, each with
// one sampled value, served raw (no sampler daemon) for pull tests.
func benchRegistry(tb testing.TB, prefix string, n int) *metric.Registry {
	tb.Helper()
	reg := metric.NewRegistry()
	for i := 0; i < n; i++ {
		sch := metric.NewSchema("bench")
		sch.MustAddMetric("a", metric.TypeU64)
		sch.MustAddMetric("b", metric.TypeU64)
		set, err := metric.New(fmt.Sprintf("%s/set%04d", prefix, i), sch)
		if err != nil {
			tb.Fatal(err)
		}
		set.BeginTransaction()
		set.SetU64(0, uint64(i))
		set.SetU64(1, uint64(2*i))
		set.EndTransaction(time.Unix(int64(1000+i), 0))
		if err := reg.Add(set); err != nil {
			tb.Fatal(err)
		}
	}
	return reg
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(tb testing.TB, d time.Duration, cond func() bool, what string) {
	tb.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// TestStalledProducerDoesNotBlockOthers stalls one producer's data pulls
// at the transport and checks that, within the same pass, the healthy
// producer's update still completes on time. The pass itself stays open
// (later firings are skipped busy) until the stall lifts.
func TestStalledProducerDoesNotBlockOthers(t *testing.T) {
	net := transport.NewNetwork()
	stall := make(chan struct{})
	var stalled atomic.Bool
	fac := transport.MemFactory{Net: net, Delay: func(addr, op string) {
		if addr == "slow" && op == "update_batch" {
			if stalled.CompareAndSwap(false, true) {
				<-stall
			}
		}
	}}
	for _, name := range []string{"fast", "slow"} {
		if _, err := fac.Listen(name, transport.NewServer(benchRegistry(t, name, 2))); err != nil {
			t.Fatal(err)
		}
	}

	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(stall) }) }

	agg, err := New(Options{Name: "agg", Transports: []transport.Factory{fac}})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	defer release() // unblock the transport before Stop waits on the pass
	for _, name := range []string{"fast", "slow"} {
		p, err := agg.AddProducer(name, "mem", name, 10*time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
	}
	waitUntil(t, 5*time.Second, func() bool {
		return agg.Producer("fast").State() == ProducerConnected &&
			agg.Producer("slow").State() == ProducerConnected
	}, "producers to connect")

	u, err := agg.AddUpdater("u", 20*time.Millisecond, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	u.AddProducer("fast")
	u.AddProducer("slow")
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}

	// Pass 1 performs the lookups and goes straight on to the data pulls,
	// where the slow producer hangs. The fast producer's pulls must land
	// while the pass is still open.
	waitUntil(t, 5*time.Second, func() bool { return stalled.Load() }, "slow producer to stall")
	passesAtStall := u.passes.Load()
	waitUntil(t, 5*time.Second, func() bool { return u.updates.Load() >= 2 }, "fast producer updates during the stall")
	if got := u.passes.Load(); got != passesAtStall {
		t.Fatalf("pass completed during stall (passes %d -> %d)", passesAtStall, got)
	}
	if got := u.inflight.Load(); got < 1 {
		t.Errorf("inflight = %d during stall, want >= 1", got)
	}
	// Later firings must skip, not pile up behind the stalled pass.
	waitUntil(t, 5*time.Second, func() bool { return u.skippedBusy.Load() >= 1 }, "busy pass to be skipped")

	release()
	waitUntil(t, 5*time.Second, func() bool { return u.passes.Load() > passesAtStall }, "stalled pass to finish")
}

// TestUpdaterPrunesRemovedProducer drops a producer from the pull group
// and checks the next pass releases its mirrors: registry entries gone,
// arena memory returned, state entry deleted.
func TestUpdaterPrunesRemovedProducer(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(30000, 0))
	net := transport.NewNetwork()
	smp1 := virtualSampler(t, "n1", sch, net, 1)
	smp2 := virtualSampler(t, "n2", sch, net, 2)
	defer smp1.Stop()
	defer smp2.Stop()
	for _, smp := range []*Daemon{smp1, smp2} {
		sp, err := smp.LoadSampler("meminfo", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		sp.Start(time.Second, 0, false)
	}

	agg, err := New(Options{Name: "agg", Scheduler: sch, Transports: []transport.Factory{transport.MemFactory{Net: net}}})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	for _, name := range []string{"n1", "n2"} {
		p, err := agg.AddProducer(name, "mem", name, time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
	}
	u, err := agg.AddUpdater("u", time.Second, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	u.AddProducer("n1")
	u.AddProducer("n2")
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}

	sch.AdvanceBy(5 * time.Second)
	if got := len(agg.Registry().Dir()); got != 2 {
		t.Fatalf("mirrors = %d want 2 (%v)", got, agg.Registry().Dir())
	}
	inUseBoth := agg.Arena().InUse()
	if inUseBoth == 0 {
		t.Fatal("arena reports no memory in use with two mirrors")
	}

	u.RemoveProducer("n2")
	sch.AdvanceBy(2 * time.Second)

	dir := agg.Registry().Dir()
	if len(dir) != 1 {
		t.Fatalf("mirrors after prune = %v, want only n1's", dir)
	}
	u.smu.Lock()
	_, still := u.state["n2"]
	u.smu.Unlock()
	if still {
		t.Error("updater still holds pull state for removed producer n2")
	}
	if got := agg.Arena().InUse(); got >= inUseBoth {
		t.Errorf("arena in use %d after prune, want < %d", got, inUseBoth)
	}
}

// TestUpdaterStatusCommand smoke-tests the control-interface counters.
func TestUpdaterStatusCommand(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(40000, 0))
	net := transport.NewNetwork()
	smp, agg, _ := buildPipeline(t, sch, net, time.Second, time.Second)
	defer smp.Stop()
	defer agg.Stop()
	sch.AdvanceBy(5 * time.Second)

	out, err := agg.Exec("updtr_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"name=u1", "state=running", "producers=1", "passes=", "skipped_busy="} {
		if !strings.Contains(out, want) {
			t.Errorf("updtr_status output missing %q:\n%s", want, out)
		}
	}
	stats, err := agg.Exec("stats")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "skipped_busy=") {
		t.Errorf("stats output missing skipped_busy: %s", stats)
	}

	if _, err := agg.Exec("updtr_prdcr_del name=u1 prdcr=n1"); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(2 * time.Second)
	if got := len(agg.Registry().Dir()); got != 0 {
		t.Errorf("mirrors after updtr_prdcr_del = %v, want none", agg.Registry().Dir())
	}
}
