package experiments

import (
	"context"
	"fmt"
	"time"

	"goldms/internal/appsim"
	"goldms/internal/metric"
	"goldms/internal/transport"
)

// runAblations quantifies the design choices the paper's architecture
// rests on, by switching each off:
//
//  1. Data-only pulls ("After connection setup, only the data portion of
//     a metric set is pulled ... to minimize network bandwidth", §IV-B):
//     compare bytes moved per collection against re-fetching metadata
//     every time.
//  2. Consistency filtering (DGN + consistent flag): count the torn and
//     stale samples that would reach storage without them.
//  3. Synchronized sampling (§V-A1: coordinating sampling in time bounds
//     the number of application iterations affected): compare modeled
//     application impact under synchronous vs unsynchronized sampling.
//  4. One-sided (RDMA) pulls: sampler-host CPU consumed serving updates
//     vs the two-sided socket path.
func runAblations(cfg Config) (*Report, error) {
	rep := &Report{}
	ctx := context.Background()
	// fetch is one full-chunk pull of r over c into b.
	fetch := func(c transport.Conn, r transport.RemoteSet, b []byte) error {
		op := []transport.UpdateOp{{Set: r, Dst: b}}
		transport.UpdateAll(ctx, c, op)
		return op[0].Err
	}

	// A realistic set: long metric names as in the Lustre example.
	sch := metric.NewSchema("lustre")
	for i := 0; i < 60; i++ {
		sch.MustAddMetric(fmt.Sprintf("dirty_pages_hits#stats.snx11024.%02d", i), metric.TypeU64)
	}
	set, err := metric.New("nid00001/lustre", sch)
	if err != nil {
		return nil, err
	}
	set.BeginTransaction()
	set.SetU64(0, 1) //ldms:rawset single-writer seed inside an explicit transaction
	set.EndTransaction(time.Unix(0, 0))

	// --- 1. data-only pulls vs metadata-every-time ---
	reg := metric.NewRegistry()
	reg.Add(set)
	srv := transport.NewServer(reg)
	net := transport.NewNetwork()
	f := transport.MemFactory{Net: net}
	ln, err := f.Listen("abl", srv)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	conn, err := f.Dial("abl")
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	pulls := 100
	rs, err := conn.Lookup(ctx, set.Name())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, rs.Meta().DataSize)
	before := srv.Stats().BytesOut
	for i := 0; i < pulls; i++ {
		if err := fetch(conn, rs, buf); err != nil {
			return nil, err
		}
	}
	dataOnly := srv.Stats().BytesOut - before

	before = srv.Stats().BytesOut
	for i := 0; i < pulls; i++ {
		rs2, err := conn.Lookup(ctx, set.Name()) // metadata re-fetched each pull
		if err != nil {
			return nil, err
		}
		if err := fetch(conn, rs2, buf); err != nil {
			return nil, err
		}
	}
	withMeta := srv.Stats().BytesOut - before
	ratio := float64(withMeta) / float64(dataOnly)
	rep.Addf("ablation 1: %d pulls move %d B data-only vs %d B with metadata each time (%.1fx)",
		pulls, dataOnly, withMeta, ratio)
	rep.AddCheck("data-only pulls minimize bandwidth",
		"the data portion is roughly 10% of the total set size",
		fmt.Sprintf("re-sending metadata would cost %.1fx the bytes", ratio),
		ratio > 3)

	// --- 2. consistency filtering ---
	// Deterministic interleave of sampling and pulling: each round pulls
	// once mid-transaction (torn), once after the sample (fresh), and once
	// more with no new sample (stale). The filters must catch exactly the
	// torn and stale pulls.
	mirror, err := rs.Meta().NewMirror()
	if err != nil {
		return nil, err
	}
	classify := func() (string, error) {
		if err := fetch(conn, rs, buf); err != nil {
			return "", err
		}
		if err := mirror.LoadData(buf); err != nil {
			return "", err
		}
		if !mirror.Consistent() {
			return "torn", nil
		}
		return "ok", nil
	}
	var torn, stale, fresh, total int
	var lastDGN uint64
	rounds := 1000
	for i := 0; i < rounds; i++ {
		set.BeginTransaction()
		for m := 0; m < 5; m++ {
			// This ablation writes metrics one at a time on purpose, to
			// demonstrate the torn reads the batched API prevents.
			set.SetU64(m, uint64(i)) //ldms:rawset deliberately unbatched to exhibit tearing
		}
		for _, phase := range []string{"mid", "after", "again"} {
			if phase == "after" {
				set.EndTransaction(time.Unix(int64(i), 0))
			}
			kind, err := classify()
			if err != nil {
				return nil, err
			}
			total++
			switch {
			case kind == "torn":
				torn++
			case mirror.DGN() == lastDGN:
				stale++
			default:
				fresh++
				lastDGN = mirror.DGN()
			}
		}
	}
	rep.Addf("ablation 2: of %d interleaved pulls, %d torn + %d stale would reach storage without the DGN/consistent filters (%d fresh stored)",
		total, torn, stale, fresh)
	rep.AddCheck("consistency filters earn their keep",
		"old or partially modified metric sets are not written to storage",
		fmt.Sprintf("%d of %d pulls filtered (%d torn, %d stale)", torn+stale, total, torn, stale),
		torn == rounds && stale == rounds && fresh == rounds)

	// --- 3. synchronous vs unsynchronized sampling ---
	spec := appsim.AppSpec{
		Name: "barrier-app", Nodes: 1024, Iterations: 150,
		ComputePerIter:   100 * time.Millisecond,
		NoiseSensitivity: 1.0,
	}
	if cfg.Short {
		spec.Nodes = 256
	}
	monAsync := appsim.Monitor(time.Second, false)
	monSync := monAsync
	monSync.Synchronous = true
	un := appsim.Run(spec, appsim.NoMonitor, cfg.Seed)
	async := appsim.Run(spec, monAsync, cfg.Seed)
	syncd := appsim.Run(spec, monSync, cfg.Seed)
	asyncSlow := async.WallTime.Seconds()/un.WallTime.Seconds() - 1
	syncSlow := syncd.WallTime.Seconds()/un.WallTime.Seconds() - 1
	rep.Addf("ablation 3: fully-packed barrier app, 1 s sampling: unsynchronized +%.2f%%, synchronized +%.2f%%",
		100*asyncSlow, 100*syncSlow)
	rep.AddCheck("synchronized sampling bounds affected iterations",
		"sampling across nodes coordinated in time bounds the number of application iterations affected",
		fmt.Sprintf("sync +%.2f%% vs async +%.2f%%", 100*syncSlow, 100*asyncSlow),
		syncSlow <= asyncSlow)

	// --- 4. one-sided vs two-sided serving cost ---
	twoSided := transport.NewServer(reg)
	oneSided := transport.NewServer(reg)
	oneSided.OneSided = true
	lnA, err := transport.MemFactory{Net: net}.Listen("abl-two", twoSided)
	if err != nil {
		return nil, err
	}
	defer lnA.Close()
	lnB, err := transport.MemFactory{Net: net, Kind: "rdma"}.Listen("abl-one", oneSided)
	if err != nil {
		return nil, err
	}
	defer lnB.Close()
	pull := func(addr string) error {
		c, err := transport.MemFactory{Net: net}.Dial(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		r, err := c.Lookup(ctx, set.Name())
		if err != nil {
			return err
		}
		b := make([]byte, r.Meta().DataSize)
		for i := 0; i < 2000; i++ {
			if err := fetch(c, r, b); err != nil {
				return err
			}
		}
		return nil
	}
	if err := pull("abl-two"); err != nil {
		return nil, err
	}
	if err := pull("abl-one"); err != nil {
		return nil, err
	}
	two := twoSided.Stats()
	one := oneSided.Stats()
	rep.Addf("ablation 4: 2000 pulls cost the sampler host %v (two-sided) vs %v host + %v NIC (one-sided)",
		two.HostCPU, one.HostCPU, one.NICCPU)
	rep.AddCheck("RDMA pulls cost the sampler host no CPU",
		"if the transport is RDMA, the data fetching will not consume CPU cycles (Fig. 2)",
		fmt.Sprintf("host CPU: %v vs %v", two.HostCPU, one.HostCPU),
		one.HostCPU < two.HostCPU/10)
	return rep, nil
}

func init() {
	register("ablations", "Ablations: data-only pulls, consistency filters, synchronous sampling, one-sided reads", runAblations)
}
