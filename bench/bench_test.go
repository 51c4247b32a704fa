package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload shrunk to a handful of sets with a 2 s
// window, in the per-layer mode (which measures the end-to-end metrics
// too), and holds the bench to BENCHMARK.json: every declared metric is
// emitted and nothing undeclared is, the correctness gate passes, and the
// spans are written. steady_fanin alone under -short.
func TestSmoke(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir("bench") })
	decl, err := loadDecl(".")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	tmp := t.TempDir()
	bin, err := buildLdmsd(ctx, tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%s declares %d workloads, the bench has %d", benchmarkFile, len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Fatalf("%s workload %d is %q, the bench has %q", benchmarkFile, i, decl.Workloads[i].Name, w.name)
		}
		if testing.Short() && w.name != "steady_fanin" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			o := &options{ldmsd: bin, work: tmp, out: filepath.Join(tmp, "out"), seed: 7,
				window: 2 * time.Second, warmup: time.Second, setups: 1, trace: true, scale: 1.0 / 16}
			if w.reader {
				o.warmup = queryWindow + 500*time.Millisecond // the reader checks point counts over a full query window
			}
			res, err := measure(ctx, w, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Problems {
				t.Errorf("failed check: %s", p)
			}
			if !res.Correct {
				t.Errorf("correct=false")
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, trace := range []bool{false, true} {
				if _, err := resultLine(decl, res, trace); err != nil {
					t.Error(err)
				}
			}
			for _, d := range decl.EndToEnd {
				if res.EndToEnd[d.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, res.EndToEnd[d.Name])
				}
			}
			if v := res.PerLayer["agg_cpu_us_per_sample"]; v <= 0 {
				t.Errorf("agg_cpu_us_per_sample = %v, want > 0", v)
			}
			if fi, err := os.Stat(filepath.Join(o.out, w.name+".trace.json")); err != nil || fi.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}
}

// TestCompareBoundsLayerRows: -compare must fail on the workload-specific
// rows that BENCHMARK.json cannot give a bound, where they apply.
func TestCompareBoundsLayerRows(t *testing.T) {
	decl := &benchDecl{PerLayer: []metricDecl{
		{Name: "query_ms_p50", Better: "lower"}, {Name: "loss_ratio", Better: "lower"}, {Name: "gen.late_ms_p99", Better: "lower"}}}
	decl.Workloads = append(decl.Workloads, struct {
		Name string `json:"name"`
	}{"query_mix"})
	write := func(name string, p50, loss float64) string {
		path := filepath.Join(t.TempDir(), name)
		l := runLog{"query_mix": {"query_ms_p50": {p50, p50, p50}, "loss_ratio": {loss, loss, loss}, "gen.late_ms_p99": {p50, p50, p50}}}
		b, _ := json.Marshal(l)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", 1.0, 0)
	for _, c := range []struct {
		p50, loss float64
		want      int
	}{{1.1, 0, 0}, {1.3, 0, 1}, {1.0, 0.0005, 0}, {1.0, 0.002, 1}, {0.5, 0, 0}} {
		if got := compareFiles(decl, base, write("new.json", c.p50, c.loss)); got != c.want {
			t.Errorf("query_ms_p50 1.0 -> %v, loss_ratio 0 -> %v: exit %d, want %d", c.p50, c.loss, got, c.want)
		}
	}
	// Not applicable on this workload (reads 0): a relative bound has nothing to hold.
	if got := compareFiles(decl, write("zero-old.json", 0, 0), write("zero-new.json", 0, 0)); got != 0 {
		t.Errorf("all-zero rows: exit %d, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
