package ldmsd

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/obs"
	"goldms/internal/sched"
	"goldms/internal/transport"
)

// TestFirstSampleInLookupPass pins the cold path's timing under a virtual
// clock: the first updater firing that sees a set looks it up AND pulls it,
// so its row is in the store and its point in the window when that firing
// returns — at a reducing mid tier the first fold is published in the same
// pass, and the tier above it, firing at the same instant, carries all of it
// one hop further. Before, a lookup ended the set's share of the pass and
// every hop delivered its first sample one interval later.
func TestFirstSampleInLookupPass(t *testing.T) {
	sch := sched.NewVirtual(time.Unix(76000, 0))
	fac := transport.MemFactory{Net: transport.NewNetwork()}
	leaf := leafRegistry(t, 2, 100, sch.Now()) // cnt 100, 101
	if _, err := fac.Listen("n1", transport.NewServer(leaf)); err != nil {
		t.Fatal(err)
	}
	store := func(name, schema string) string {
		return fmt.Sprintf("strgp_add name=%s plugin=store_csv schema=%s container=%s\nstrgp_start name=%s\n",
			name, schema, filepath.Join(t.TempDir(), name+".csv"), name)
	}
	mid := tierAgg(t, "mid", sch, fac, []string{"n1"}, `
updtr_add name=u interval=1s reduce=avg,max
updtr_prdcr_add name=u prdcr=n1
updtr_start name=u
`+store("raw", "tiernode")+store("max", "tiernode_max"))
	defer mid.Stop()
	if _, err := mid.Listen("mem", "mid"); err != nil {
		t.Fatal(err)
	}
	top := tierAgg(t, "top", sch, fac, []string{"mid"}, `
updtr_add name=u interval=1s
updtr_prdcr_add name=u prdcr=mid
updtr_start name=u
`+store("raw", "tiernode")+store("avg", "tiernode_avg"))
	defer top.Stop()
	wMid, wTop := windowOf(t, mid), windowOf(t, top)

	rows := func(d *Daemon, policy string) int64 { return d.StoragePolicy(policy).rows.Load() }
	firstSamples := func(d *Daemon, prdcr, want string) {
		t.Helper()
		for _, ev := range d.Journal().Query(0, obs.SevInfo, obs.CompUpdater, prdcr) {
			if strings.HasSuffix(ev.Message, want) {
				return
			}
		}
		t.Errorf("%s: no journal event for %s ending %q", d.Name(), prdcr, want)
	}

	// One interval: the first firing of both updaters, mid before top.
	sch.AdvanceBy(time.Second)
	if got := mid.Updater("u").passes.Load(); got != 1 {
		t.Fatalf("mid ran %d passes in one interval", got)
	}
	if st := mid.Stats(); st.Lookups != 2 || st.UpdatesFresh != 2 {
		t.Fatalf("mid after its first pass: lookups=%d fresh=%d, want 2 and 2", st.Lookups, st.UpdatesFresh)
	}
	if got := rows(mid, "raw"); got != 2 {
		t.Errorf("mid stored %d raw rows in its first pass, want 2", got)
	}
	if got := rows(mid, "max"); got != 1 {
		t.Errorf("mid stored %d rows of its first fold, want 1", got)
	}
	for _, name := range []string{"n1/node00", "n1/node01", "mid/tiernode_avg", "mid/tiernode_max"} {
		if got := windowPoints(wMid, name); got != 1 {
			t.Errorf("mid window holds %d points of %s after the first pass, want 1", got, name)
		}
	}
	if s := mid.Registry().Get("mid/tiernode_max"); s == nil {
		t.Error("first fold not published in the lookup's pass")
	} else if i, _ := s.MetricIndex("cnt"); s.U64(i) != 101 {
		t.Errorf("first fold max(cnt) = %d, want 101", s.U64(i))
	}
	firstSamples(mid, "n1", "looked up 2 sets in 0s, 2 first samples in the same pass, 1 layouts, 1 shared")

	// The top fired after the mid at the same instant: four sets (two raw,
	// two folds) crossed the second hop in the pass that looked them up.
	if st := top.Stats(); st.Lookups != 4 || st.UpdatesFresh != 4 {
		t.Fatalf("top after its first pass: lookups=%d fresh=%d, want 4 and 4", st.Lookups, st.UpdatesFresh)
	}
	if raw, avg := rows(top, "raw"), rows(top, "avg"); raw != 2 || avg != 1 {
		t.Errorf("top stored raw=%d avg=%d rows in its first pass, want 2 and 1", raw, avg)
	}
	for _, name := range []string{"n1/node00", "mid/tiernode_avg"} {
		if got := windowPoints(wTop, name); got != 1 {
			t.Errorf("top window holds %d points of %s after the first pass, want 1", got, name)
		}
	}
	firstSamples(top, "mid", "looked up 4 sets in 0s, 4 first samples in the same pass, 3 layouts, 1 shared")

	// A join is the same path: the pass that first sees the set stores it.
	sc := metric.NewSchema("tiernode")
	sc.MustAddMetric("cnt", metric.TypeU64)
	sc.MustAddMetric("load", metric.TypeD64)
	joined, err := metric.New("node99", sc)
	if err != nil {
		t.Fatal(err)
	}
	joined.BeginTransaction()
	joined.SetU64(0, 9000)
	joined.EndTransaction(sch.Now())
	if err := leaf.Add(joined); err != nil {
		t.Fatal(err)
	}
	sch.AdvanceBy(time.Second)
	if got := rows(mid, "raw"); got != 3 {
		t.Errorf("mid stored %d raw rows one firing after the join, want 3", got)
	}
	if got := windowPoints(wTop, "n1/node99"); got != 1 {
		t.Errorf("top window holds %d points of the joined set one firing after the join, want 1", got)
	}
	if s := top.Registry().Get("mid/tiernode_max"); s == nil {
		t.Fatal("fold missing at top")
	} else if i, _ := s.MetricIndex("cnt"); s.U64(i) != 9000 {
		t.Errorf("max(cnt) at top one firing after the join = %d, want 9000", s.U64(i))
	}
}
