package ldmsd

import (
	"testing"
	"time"

	"goldms/internal/query"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// windowOf starts d's gateway and returns its recent window.
func windowOf(t *testing.T, d *Daemon) *query.Window {
	t.Helper()
	if _, err := d.ServeHTTP(GatewayConfig{Addr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	return d.Window()
}

// windowPoints returns how many points of cnt the window serves for one
// instance, 0 when the instance has no series.
func windowPoints(w *query.Window, instance string) int {
	for _, s := range w.Query("cnt", 0, time.Unix(0, 0)) {
		if s.Instance == instance {
			return len(s.Points)
		}
	}
	return 0
}

func latestHas(w *query.Window, instance string) bool {
	for _, s := range w.Latest("cnt", 0) {
		if s.Instance == instance {
			return true
		}
	}
	return false
}

// TestWindowForgetsDepartedSets: a set that leaves a producer's directory
// takes its window block with it — and so does a reduced set whose last
// member left. Before the updater forgot them, the block of every set that
// ever existed stayed resident and /api/v1/metrics kept serving its last
// point for the life of the daemon.
func TestWindowForgetsDepartedSets(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(74000, 0))
	fac := transport.MemFactory{Net: transport.NewNetwork()}
	leaf := leafRegistry(t, 2, 100, sch.Now())
	if _, err := fac.Listen("n1", transport.NewServer(leaf)); err != nil {
		t.Fatal(err)
	}
	agg := tierAgg(t, "agg", sch, fac, []string{"n1"}, `
updtr_add name=u interval=1s reduce=max
updtr_prdcr_add name=u prdcr=n1
updtr_start name=u
`)
	defer agg.Stop()
	w := windowOf(t, agg)

	tick := uint64(100)
	advance := func(secs int) {
		for i := 0; i < secs; i++ {
			tick += 10
			bumpRegistry(leaf, tick, sch.Now())
			sch.AdvanceBy(time.Second)
		}
	}
	advance(5)
	if st := w.Stats(); st.SeriesSets != 3 {
		t.Fatalf("window tracks %d sets, want the two mirrors and the fold", st.SeriesSets)
	}
	for _, name := range []string{"n1/node00", "n1/node01", "agg/tiernode_max"} {
		if !latestHas(w, name) {
			t.Fatalf("%s not served before the leave", name)
		}
	}

	if leaf.Remove("node01") == nil {
		t.Fatal("leaf remove failed")
	}
	advance(3)
	if st := w.Stats(); st.SeriesSets != 2 {
		t.Errorf("window tracks %d sets after node01 left, want 2", st.SeriesSets)
	}
	if latestHas(w, "n1/node01") {
		t.Error("Latest still serves the set that left")
	}
	if windowPoints(w, "n1/node00") < 5 {
		t.Error("the surviving set lost history")
	}

	// The last member leaves: its mirror and the fold it fed both go.
	if leaf.Remove("node00") == nil {
		t.Fatal("leaf remove failed")
	}
	advance(3)
	if st := w.Stats(); st.SeriesSets != 0 || st.Bytes != 0 {
		t.Errorf("empty fleet, window still holds %+v", st)
	}
}

// TestWindowSeriesOutlivesStandbyMirror: both halves of a failover pair
// re-export the same qualified names, so while a takeover overlaps two
// mirrors feed one window block. Releasing the standby's must leave the
// active half's series — history and all — in place; only the last mirror
// out takes the block with it.
func TestWindowSeriesOutlivesStandbyMirror(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(75000, 0))
	fac := transport.MemFactory{Net: transport.NewNetwork()}
	leaf := leafRegistry(t, 2, 1000, sch.Now())
	if _, err := fac.Listen("n1", transport.NewServer(leaf)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mid-a", "mid-b"} {
		mid := tierAgg(t, name, sch, fac, []string{"n1"}, `
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=n1
updtr_start name=u
`)
		defer mid.Stop()
		if _, err := mid.Listen("mem", name); err != nil {
			t.Fatal(err)
		}
	}
	top, err := New(Options{Name: "top", Scheduler: sch, Transports: []transport.Factory{fac}})
	if err != nil {
		t.Fatal(err)
	}
	defer top.Stop()
	if _, err := top.ExecScript(`
prdcr_add name=mid-a xprt=mem host=mid-a interval=1s
prdcr_start name=mid-a
prdcr_add name=mid-b xprt=mem host=mid-b interval=1s standby=1
prdcr_start name=mid-b
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=mid-a
updtr_prdcr_add name=u prdcr=mid-b
updtr_start name=u
`); err != nil {
		t.Fatal(err)
	}
	w := windowOf(t, top)

	tick := uint64(1000)
	advance := func(secs int) {
		for i := 0; i < secs; i++ {
			tick += 10
			bumpRegistry(leaf, tick, sch.Now())
			sch.AdvanceBy(time.Second)
		}
	}
	advance(5)
	top.Producer("mid-b").Activate()
	advance(4) // overlap: both halves hold a mirror of n1/node00
	u := top.Updater("u")
	if a, b := u.MirroredSets("mid-a"), u.MirroredSets("mid-b"); a != 2 || b != 2 {
		t.Fatalf("mirrors during the overlap: mid-a %d, mid-b %d, want 2 and 2", a, b)
	}
	before := windowPoints(w, "n1/node00")
	if before < 5 {
		t.Fatalf("n1/node00 has %d points before the standby steps back", before)
	}

	// The standby steps back; the prune releases its mirrors.
	u.RemoveProducer("mid-b")
	advance(3)
	if got := u.MirroredSets("mid-b"); got != 0 {
		t.Fatalf("standby still holds %d mirrors", got)
	}
	if st := w.Stats(); st.SeriesSets != 2 {
		t.Fatalf("window tracks %d sets after the standby left, want 2", st.SeriesSets)
	}
	if after := windowPoints(w, "n1/node00"); after <= before {
		t.Errorf("n1/node00 serves %d points after the standby left, %d before: the active half's series was dropped", after, before)
	}
	if len(top.Chains()) == 0 {
		t.Error("the active half's hop chains were dropped with the standby's mirrors")
	}

	// Now the active half goes too: nothing mirrors the names any more.
	u.RemoveProducer("mid-a")
	advance(2)
	if st := w.Stats(); st.SeriesSets != 0 {
		t.Errorf("window tracks %d sets with no mirror left", st.SeriesSets)
	}
}

// TestWindowHistorySurvivesProducerRestart: a producer that restarts serves
// the same names under new MGNs, and every mirror of it is rebuilt; the
// series under those names continue, they do not start over.
func TestWindowHistorySurvivesProducerRestart(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(76000, 0))
	fac := transport.MemFactory{Net: transport.NewNetwork()}
	leaf := leafRegistry(t, 1, 100, sch.Now())
	ln, err := fac.Listen("n1", transport.NewServer(leaf))
	if err != nil {
		t.Fatal(err)
	}
	agg := tierAgg(t, "agg", sch, fac, []string{"n1"}, `
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=n1
updtr_start name=u
`)
	defer agg.Stop()
	w := windowOf(t, agg)

	tick := uint64(100)
	advance := func(secs int) {
		for i := 0; i < secs; i++ {
			tick += 10
			bumpRegistry(leaf, tick, sch.Now())
			sch.AdvanceBy(time.Second)
		}
	}
	advance(5)
	before := windowPoints(w, "n1/node00")
	if before < 4 {
		t.Fatalf("%d points before the restart", before)
	}
	oldMGN := agg.Registry().Get("n1/node00").MGN()

	ln.Close()
	leaf = leafRegistry(t, 1, tick, sch.Now())
	if _, err := fac.Listen("n1", transport.NewServer(leaf)); err != nil {
		t.Fatal(err)
	}
	advance(6)
	mir := agg.Registry().Get("n1/node00")
	if mir == nil || mir.MGN() == oldMGN {
		t.Fatal("mirror was not rebuilt on the restarted producer's MGN")
	}
	if after := windowPoints(w, "n1/node00"); after <= before {
		t.Errorf("n1/node00 serves %d points after the restart, %d before: the series started over", after, before)
	}
}
