package goldms_test

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// wraps the corresponding experiment runner from internal/experiments at
// reduced scale; run `ldms-bench -all` for the full-scale reports), plus
// micro-benchmarks of the primitives behind the paper's headline numbers
// (per-metric sampling cost, data-chunk pulls, store throughput, torus
// stepping).

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"goldms/internal/experiments"
	"goldms/internal/ganglia"
	"goldms/internal/gemini"
	"goldms/internal/metric"
	"goldms/internal/sampler"
	"goldms/internal/simcluster"
	"goldms/internal/sos"
	"goldms/internal/store"
	"goldms/internal/transport"
)

// benchExperiment runs one experiment per iteration and fails the bench if
// any check regresses.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, experiments.Config{Short: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			for _, c := range rep.Check {
				if !c.Pass {
					b.Fatalf("%s check %q failed: %s", id, c.Name, c.Measured)
				}
			}
		}
	}
}

// One benchmark per evaluation artifact (see DESIGN.md §4).

func BenchmarkT1Footprint(b *testing.B)     { benchExperiment(b, "footprint") }
func BenchmarkT2GangliaVsLDMS(b *testing.B) { benchExperiment(b, "ganglia") }
func BenchmarkT3FanIn(b *testing.B)         { benchExperiment(b, "fanin") }
func BenchmarkT4DatasetScale(b *testing.B)  { benchExperiment(b, "dataset-scale") }
func BenchmarkF5Psnap(b *testing.B)         { benchExperiment(b, "psnap-bw") }
func BenchmarkF6BlueWaters(b *testing.B)    { benchExperiment(b, "bw-bench") }
func BenchmarkF7Chama(b *testing.B)         { benchExperiment(b, "chama-apps") }
func BenchmarkF8PsnapChama(b *testing.B)    { benchExperiment(b, "psnap-chama") }
func BenchmarkF9Stalls(b *testing.B)        { benchExperiment(b, "hsn-stalls") }
func BenchmarkF10Bandwidth(b *testing.B)    { benchExperiment(b, "hsn-bw") }
func BenchmarkF11LustreOpens(b *testing.B)  { benchExperiment(b, "lustre-opens") }
func BenchmarkF12JobProfile(b *testing.B)   { benchExperiment(b, "job-profile") }

// --- Micro-benchmarks ---

// simNodeFS builds one simulated Chama node.
func simNodeFS(b *testing.B) *simcluster.Cluster {
	b.Helper()
	c, err := simcluster.New(simcluster.Options{
		Profile: simcluster.ProfileChama, Nodes: 1, Seed: 1, Start: time.Unix(0, 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSamplerSweep measures one full meminfo sample: file render,
// parse, and in-place binary set update — the LDMS side of the paper's
// 1.3 µs/metric comparison.
func BenchmarkSamplerSweep(b *testing.B) {
	c := simNodeFS(b)
	p, err := sampler.New("meminfo", sampler.Config{FS: c.Node(0).FS, Instance: "b/meminfo"})
	if err != nil {
		b.Fatal(err)
	}
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Sample(now); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.Set().Card()), "ns/metric")
}

// BenchmarkGangliaSweep measures one gmond collect+encode+gmetad ingest
// sweep — the Ganglia side of the same comparison.
func BenchmarkGangliaSweep(b *testing.B) {
	c := simNodeFS(b)
	g := ganglia.NewGmond("bench", c.Node(0).FS)
	g.DefaultMetrics(0)
	md := ganglia.NewGmetad(time.Second, 360)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := md.Poll(g, time.Unix(int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.NumMetrics()), "ns/metric")
}

// BenchmarkSetWrite measures the in-place metric write path.
func BenchmarkSetWrite(b *testing.B) {
	sch := metric.NewSchema("bench")
	for i := 0; i < 64; i++ {
		sch.MustAddMetric(fmt.Sprintf("m%02d", i), metric.TypeU64)
	}
	set, err := metric.New("bench/set", sch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.SetU64(i%64, uint64(i))
	}
}

// BenchmarkDataPullMem measures a data-chunk pull over the in-process
// transport (the per-update cost an aggregator pays).
func BenchmarkDataPullMem(b *testing.B) {
	benchDataPull(b, transport.MemFactory{Net: transport.NewNetwork()}, "bench-addr")
}

// BenchmarkDataPullSock measures the same pull over real TCP.
func BenchmarkDataPullSock(b *testing.B) {
	benchDataPull(b, transport.SockFactory{}, "127.0.0.1:0")
}

func benchDataPull(b *testing.B, f transport.Factory, addr string) {
	b.Helper()
	sch := metric.NewSchema("bench")
	for i := 0; i < 64; i++ {
		sch.MustAddMetric(fmt.Sprintf("metric_name_%02d", i), metric.TypeU64)
	}
	set, err := metric.New("bench/set", sch)
	if err != nil {
		b.Fatal(err)
	}
	reg := metric.NewRegistry()
	reg.Add(set)
	ln, err := f.Listen(addr, transport.NewServer(reg))
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	conn, err := f.Dial(ln.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	rs, err := conn.Lookup(ctx, "bench/set")
	if err != nil {
		b.Fatal(err)
	}
	op := []transport.UpdateOp{{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}}
	b.SetBytes(int64(len(op[0].Dst)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if transport.UpdateAll(ctx, conn, op); op[0].Err != nil {
			b.Fatal(op[0].Err)
		}
	}
}

// BenchmarkCSVStore measures store_csv row throughput.
func BenchmarkCSVStore(b *testing.B) {
	dir := b.TempDir()
	names := make([]string, 32)
	types := make([]metric.Type, 32)
	values := make([]metric.Value, 32)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
		types[i] = metric.TypeU64
		values[i] = metric.U64Value(uint64(i))
	}
	st, err := store.New("store_csv", store.Config{
		Path: filepath.Join(dir, "bench.csv"), Schema: "bench", Names: names, Types: types,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rows := []metric.Row{{Time: time.Unix(1, 0), CompID: 1, Names: names, Values: values}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.StoreBatch(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSOSAppend measures store_sos record throughput.
func BenchmarkSOSAppend(b *testing.B) {
	dir := b.TempDir()
	names := []string{"a", "b", "c", "d"}
	types := []metric.Type{metric.TypeU64, metric.TypeU64, metric.TypeD64, metric.TypeU64}
	c, err := sos.Create(filepath.Join(dir, "c"), "bench", names, types, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	vals := []metric.Value{metric.U64Value(1), metric.U64Value(2), metric.F64Value(3), metric.U64Value(4)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Append(time.Unix(int64(i), 0), 1, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTorusStep measures one simulation step of an 8x8x8 torus under
// a ring workload — the substrate cost per simulated minute.
func BenchmarkTorusStep(b *testing.B) {
	tor, err := gemini.New(8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < tor.NumRouters(); r += 4 {
			tor.Inject(r, (r+5)%tor.NumRouters(), 1<<20)
		}
		tor.Step(time.Minute)
	}
}

// BenchmarkClusterMinute measures one whole-cluster simulated minute on a
// 128-node Blue Waters profile.
func BenchmarkClusterMinute(b *testing.B) {
	c, err := simcluster.New(simcluster.Options{
		Profile: simcluster.ProfileBlueWaters, TorusX: 4, TorusY: 4, TorusZ: 4,
		Seed: 1, Start: time.Unix(0, 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	nodes := []int{0, 2, 4, 6}
	if _, err := c.StartJob(1, nodes, 1<<40, simcluster.CommHeavy{
		BytesPerNodePerSec: 1e9, Pattern: simcluster.PatternRing}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step(time.Minute)
	}
}
