package ldmsd

import (
	"strings"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// bumpSets writes a fresh sample into every set so the next pull sees a new
// DGN.
func bumpSets(reg *metric.Registry, at time.Time, v uint64) {
	for _, name := range reg.Dir() {
		set := reg.Get(name)
		set.BeginTransaction()
		set.SetU64(0, v)
		set.EndTransaction(at)
	}
}

// TestStandbyProducerFailoverCycle walks a standby producer through the
// paper's manual-failover protocol (§IV-B) across a reconnect cycle: idle
// while passive, pulled after Activate, reconnected after the target
// bounces, idle again after Deactivate — with the lifecycle counters
// tracking every transition.
func TestStandbyProducerFailoverCycle(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(50000, 0))
	net := transport.NewNetwork()
	fac := transport.MemFactory{Net: net}
	reg := benchRegistry(t, "n1", 2)
	srv := transport.NewServer(reg)
	ln, err := fac.Listen("n1", srv)
	if err != nil {
		t.Fatal(err)
	}

	agg, err := New(Options{Name: "agg", Scheduler: sch, Transports: []transport.Factory{fac}})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	p, err := agg.AddProducer("n1", "mem", "n1", time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Standby() || p.Active() {
		t.Fatal("standby producer born active")
	}
	p.Start()
	u, err := agg.AddUpdater("u", time.Second, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.AddProducer("n1"); err != nil {
		t.Fatal(err)
	}
	if err := u.Start(); err != nil {
		t.Fatal(err)
	}

	// Passive phase: the producer connects but is never pulled.
	sch.AdvanceBy(3 * time.Second)
	if p.State() != ProducerConnected {
		t.Fatalf("standby state = %v, want CONNECTED", p.State())
	}
	if got := len(agg.Registry().Dir()); got != 0 {
		t.Fatalf("standby was pulled while passive: mirrors %v", agg.Registry().Dir())
	}
	if c := p.Counters(); c.Connects != 1 || c.Disconnects != 0 {
		t.Fatalf("counters after connect = %+v", c)
	}

	// Failover: activate and verify pulls start (the first pass after the
	// activation looks up and pulls).
	p.Activate()
	sch.AdvanceBy(3 * time.Second)
	if got := len(agg.Registry().Dir()); got != 2 {
		t.Fatalf("mirrors after activate = %v, want 2", agg.Registry().Dir())
	}
	freshAfterActivate := u.fresh.Load()
	if freshAfterActivate == 0 {
		t.Fatal("no fresh updates after activate")
	}

	// Bounce the target: pulls fail, the producer disconnects and retries
	// until the listener returns.
	ln.Close()
	sch.AdvanceBy(3 * time.Second)
	if p.State() == ProducerConnected {
		t.Fatal("producer still CONNECTED after target went down")
	}
	c := p.Counters()
	if c.Disconnects != 1 {
		t.Fatalf("disconnects = %d, want 1", c.Disconnects)
	}
	if c.ConnectFails == 0 {
		t.Fatal("no failed connection attempts recorded while target down")
	}
	if out, err := agg.Exec("updtr_status"); err != nil || !strings.Contains(out, "consec_errors=") {
		t.Fatalf("updtr_status during outage: %v\n%s", err, out)
	}

	if _, err := fac.Listen("n1", srv); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(3 * time.Second)
	if p.State() != ProducerConnected {
		t.Fatalf("state after target returned = %v, want CONNECTED", p.State())
	}
	if c := p.Counters(); c.Connects != 2 {
		t.Fatalf("connects after reconnect = %d, want 2", c.Connects)
	}
	// The reconnect voided the old lookup handles; fresh data must flow
	// again over the new epoch.
	bumpSets(reg, sch.Now(), 99)
	sch.AdvanceBy(3 * time.Second)
	freshAfterReconnect := u.fresh.Load()
	if freshAfterReconnect <= freshAfterActivate {
		t.Fatalf("fresh updates did not resume after reconnect: %d -> %d",
			freshAfterActivate, freshAfterReconnect)
	}

	// Primary recovered: deactivate and verify pulls stop while the
	// connection stays up for the next failover.
	p.Deactivate()
	sch.AdvanceBy(time.Second) // let any in-flight pass drain
	quiesced := u.updates.Load()
	bumpSets(reg, sch.Now(), 100)
	sch.AdvanceBy(3 * time.Second)
	if got := u.updates.Load(); got != quiesced {
		t.Fatalf("deactivated standby still pulled: updates %d -> %d", quiesced, got)
	}
	if p.State() != ProducerConnected {
		t.Fatalf("deactivated standby state = %v, want CONNECTED", p.State())
	}

	out, err := agg.Exec("prdcr_status")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"standby=true", "active=false", "connects=2", "disconnects=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("prdcr_status missing %q:\n%s", want, out)
		}
	}
}
