package ldmsd

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"goldms/internal/obs"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// TestArenaExhaustionIsNamed: a set memory budget (-m) too small for the
// matched fleet used to leave a silent partial fleet — errors ticking, a
// lookup per unmirrored set per pass, /healthz 200. Now it has a reason
// counter, a journal event, a degraded /healthz and a retry back-off that a
// directory change resets.
func TestArenaExhaustionIsNamed(t *testing.T) {
	const sets = 24
	sch := sched.NewVirtual(time.Unix(81000, 0))
	fac := transport.MemFactory{Net: transport.NewNetwork()}
	leaf := leafRegistry(t, sets, 100, sch.Now())
	srv := transport.NewServer(leaf)
	if _, err := fac.Listen("n1", srv); err != nil {
		t.Fatal(err)
	}
	// A two-metric mirror takes a 128 B and a 64 B chunk: ten fit in 2 KiB.
	agg, err := New(Options{Name: "agg", Scheduler: sch, Transports: []transport.Factory{fac}, Memory: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()
	if _, err := agg.ExecScript(`
prdcr_add name=n1 xprt=mem host=n1 interval=1s
prdcr_start name=n1
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=n1
updtr_start name=u
`); err != nil {
		t.Fatal(err)
	}
	addr, err := agg.Exec("http_listen addr=127.0.0.1:0 window=1m")
	if err != nil {
		t.Fatal(err)
	}
	u := agg.Updater("u")
	unmirrored := func() int {
		for _, ph := range u.PullHealth() {
			if ph.Producer == "n1" {
				return ph.Unmirrored
			}
		}
		return -1
	}

	sch.AdvanceBy(time.Second)
	mirrored := u.MirroredSets("n1")
	short := sets - mirrored
	if mirrored == 0 || short == 0 {
		t.Fatalf("%d of %d sets mirrored: the budget does not split the fleet", mirrored, sets)
	}
	if got := u.mirrorNomem.Load(); got != int64(short) || u.mirrorBadmeta.Load() != 0 {
		t.Fatalf("mirror_nomem=%d mirror_badmeta=%d after the first pass, want %d and 0", got, u.mirrorBadmeta.Load(), short)
	}
	if got := unmirrored(); got != short {
		t.Fatalf("pull health reports %d unmirrored sets, want %d", got, short)
	}
	code, body := httpGet(t, "http://"+addr+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"unmirrored":["n1"]`) {
		t.Fatalf("healthz with a partial fleet: status %d: %s", code, body)
	}
	if out, _ := agg.Exec("updtr_status"); !strings.Contains(out, fmt.Sprintf("mirror_nomem=%d", short)) ||
		!strings.Contains(out, fmt.Sprintf("unmirrored=%d", short)) {
		t.Errorf("updtr_status does not name the loss:\n%s", out)
	}
	if _, body := httpGet(t, "http://"+addr+"/metrics"); !strings.Contains(string(body), "ldmsd_updater_mirror_nomem_total") ||
		!strings.Contains(string(body), "ldmsd_interned_schemas") {
		t.Error("/metrics lacks the mirror_nomem counter or the interned-schema gauge")
	}
	events := func() (n int, last string) {
		for _, ev := range agg.Journal().Query(0, obs.SevWarn, obs.CompUpdater, "n1") {
			if strings.Contains(ev.Message, "matched sets unmirrored") {
				n, last = n+1, ev.Message
			}
		}
		return n, last
	}
	if n, msg := events(); n != 1 || !strings.Contains(msg, fmt.Sprintf("%d matched sets unmirrored", short)) ||
		!strings.Contains(msg, "arena exhausted") {
		t.Errorf("%d journal events after the first pass, last %q", n, msg)
	}

	// The retries back off: 1, 2, 4 … passes apart, not every pass.
	before := srv.Stats().Lookups
	sch.AdvanceBy(62 * time.Second)
	retries := (srv.Stats().Lookups - before) / int64(short)
	if retries < 4 || retries > 6 {
		t.Errorf("%d retry rounds in 62 passes, want the 5 of a doubling back-off", retries)
	}
	if n, _ := events(); n > 7 {
		t.Errorf("%d journal events in 63 passes: one per failed retry round, not one per pass", n)
	}
	if got := unmirrored(); got != short {
		t.Errorf("%d unmirrored while sitting out the back-off, want %d", got, short)
	}

	// Sets leave (every mirrored one and enough of the others that the rest
	// fits): the directory generation moves, memory comes back, and the
	// waiting sets are looked up in that very pass, not 32 passes later.
	for _, name := range leaf.Dir() {
		if agg.Registry().Get("n1/"+name) != nil || leaf.Len() > mirrored {
			leaf.Remove(name).Delete()
		}
	}
	before = srv.Stats().Lookups
	sch.AdvanceBy(time.Second)
	if got := srv.Stats().Lookups - before; got != int64(leaf.Len()) {
		t.Errorf("%d lookups in the pass after the directory changed, want %d", got, leaf.Len())
	}
	if got, left := u.MirroredSets("n1"), leaf.Len(); got != left || unmirrored() != 0 {
		t.Fatalf("%d of %d sets mirrored, %d unmirrored after memory came back", got, left, unmirrored())
	}
	if code, body := httpGet(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz with the whole fleet mirrored: status %d: %s", code, body)
	}
}

// TestBadMetadataCostsTheSet: one set of 32 serves metadata that decodes but
// describes no valid layout. Over either transport that is the set's loss —
// booked as mirror_badmeta, /healthz degraded — while the connection stays
// up and the other 31 are pulled in the pass that looked them up.
func TestBadMetadataCostsTheSet(t *testing.T) {
	const sets = 32
	for _, xprt := range []string{"mem", "sock"} {
		t.Run(xprt, func(t *testing.T) {
			leaf := benchRegistry(t, "leaf", sets)
			// The last entry's value offset, pointed into the chunk header.
			meta := leaf.Get("leaf/set0007").MetaBytes()
			binary.LittleEndian.PutUint32(meta[len(meta)-4:], 0)
			var fac transport.Factory = transport.SockFactory{}
			host := "127.0.0.1:0"
			if xprt == "mem" {
				fac, host = transport.MemFactory{Net: transport.NewNetwork()}, "leaf"
			}
			ln, err := fac.Listen(host, transport.NewServer(leaf))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			agg, err := New(Options{Name: "agg", Transports: []transport.Factory{fac}})
			if err != nil {
				t.Fatal(err)
			}
			defer agg.Stop()
			p, err := agg.AddProducer("leaf", xprt, ln.Addr(), 10*time.Millisecond, false)
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			waitUntil(t, 5*time.Second, func() bool { return p.State() == ProducerConnected }, "producer to connect")
			u, err := agg.AddUpdater("u", 20*time.Millisecond, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			u.AddProducer("leaf")
			if err := u.Start(); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 5*time.Second, func() bool { return u.passes.Load() >= 1 }, "the first pass")
			if got := u.fresh.Load(); got < sets-1 {
				t.Fatalf("%d sets pulled by the end of the first pass, want the %d with sound metadata", got, sets-1)
			}
			waitUntil(t, 5*time.Second, func() bool { return u.passes.Load() >= 4 }, "a few more passes")
			if c := p.Counters(); c.Disconnects != 0 || p.State() != ProducerConnected {
				t.Errorf("the bad set cost the connection: %d disconnects, state %v", c.Disconnects, p.State())
			}
			if got := u.mirrorBadmeta.Load(); got < 1 || u.mirrorNomem.Load() != 0 {
				t.Errorf("mirror_badmeta=%d mirror_nomem=%d, want the bad set booked as bad metadata", got, u.mirrorNomem.Load())
			}
			if got := u.MirroredSets("leaf"); got != sets-1 {
				t.Errorf("%d sets mirrored, want %d", got, sets-1)
			}
			if ph := u.PullHealth(); len(ph) != 1 || ph[0].Unmirrored != 1 {
				t.Errorf("pull health %+v, want one unmirrored set", ph)
			}
		})
	}
}
