package ldmsd

import (
	"fmt"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/tier"
	"goldms/internal/transport"
)

// benchLeaves stands up producers raw registry servers holding nsets
// total bench sets on fac, returning the flat source-set slice.
func benchLeaves(b *testing.B, fac transport.MemFactory, producers, nsets int) []*metric.Set {
	b.Helper()
	var srcSets []*metric.Set
	for i := 0; i < producers; i++ {
		name := fmt.Sprintf("p%d", i)
		reg := benchRegistry(b, name, nsets/producers)
		reg.Each(func(s *metric.Set) { srcSets = append(srcSets, s) })
		if _, err := fac.Listen(name, transport.NewServer(reg)); err != nil {
			b.Fatal(err)
		}
	}
	return srcSets
}

// benchAgg builds an aggregator on fac pulling the named producers, with
// an un-Started updater the benchmark drives directly via u.run.
func benchAgg(b *testing.B, fac transport.MemFactory, name string, producers []string, reduce bool) (*Daemon, *Updater) {
	b.Helper()
	d, err := New(Options{
		Name:          name,
		Workers:       len(producers),
		UpdateWorkers: len(producers),
		Memory:        64 << 20,
		Transports:    []transport.Factory{fac},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, pn := range producers {
		p, err := d.AddProducer(pn, "mem", pn, 10*time.Millisecond, false)
		if err != nil {
			b.Fatal(err)
		}
		p.Start()
	}
	u, err := d.AddUpdater("u", time.Minute, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, pn := range producers {
		u.AddProducer(pn)
	}
	if reduce {
		ops, _ := tier.ParseOps("min,max,avg,sum")
		if err := u.SetReduce(ops, false); err != nil {
			b.Fatal(err)
		}
	}
	waitUntil(b, 10*time.Second, func() bool {
		for _, pn := range producers {
			if d.Producer(pn).State() != ProducerConnected {
				return false
			}
		}
		return true
	}, "producers to connect")
	return d, u
}

// BenchmarkTierFanIn records fan-in ratio vs full pass latency at a
// reducing tier: N leaf sets (spread over 8 producers, one simulated RTT
// per batched op) fold into 4 synthetic sets per pass. "raw" pulls the
// same fan-in without reduction, isolating the fold cost; "reduce"
// publishes only the folds. The "3tier" cases chain a second hop — a top
// aggregator pulling the reduced sets — and time the cascaded pass; the
// 1024-set case is the CI gate (see .github/workflows/ci.yml).
//
// EXPERIMENTS.md §PERF7 records the measured curve at 64:1, 256:1 and
// 1024:1.
func BenchmarkTierFanIn(b *testing.B) {
	const (
		producers = 8
		rtt       = 200 * time.Microsecond
	)
	bump := func(srcSets []*metric.Set, tick *int64) {
		*tick++
		for _, s := range srcSets {
			s.BeginTransaction()
			s.SetU64(0, uint64(*tick))
			s.SetU64(1, uint64(*tick)*2)
			s.EndTransaction(time.Unix(*tick, 0))
		}
	}
	pnames := make([]string, producers)
	for i := range pnames {
		pnames[i] = fmt.Sprintf("p%d", i)
	}

	for _, nsets := range []int{64, 256, 1024} {
		for _, mode := range []string{"raw", "reduce"} {
			b.Run(fmt.Sprintf("ratio=%d:1/%s", nsets, mode), func(b *testing.B) {
				net := transport.NewNetwork()
				fac := transport.MemFactory{Net: net, Delay: func(addr, op string) { time.Sleep(rtt) }}
				srcSets := benchLeaves(b, fac, producers, nsets)
				mid, u := benchAgg(b, fac, "mid", pnames, mode == "reduce")
				defer mid.Stop()

				tick := int64(2000)
				u.run(time.Now()) // lookups and first (full-chunk) pulls
				u.run(time.Now()) // first acknowledged pulls
				if got := int(u.updates.Load()); got != 2*nsets {
					b.Fatalf("warmup made %d pulls, want %d", got, 2*nsets)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					bump(srcSets, &tick)
					u.run(time.Now())
				}
				b.StopTimer()
				if mode == "reduce" {
					if _, _, st, ok := u.ReduceStatus(); !ok || st.Folds == 0 {
						b.Fatal("reduction never folded")
					}
				}
			})
		}
	}

	// Full 3-tier chain: leaves -> reducing mid -> top. Each iteration
	// runs one pass at the mid then one at the top, so ns/op is the
	// end-to-end latency a sample-age histogram would see per hop pair.
	for _, nsets := range []int{1024} {
		b.Run(fmt.Sprintf("3tier/sets=%d", nsets), func(b *testing.B) {
			net := transport.NewNetwork()
			fac := transport.MemFactory{Net: net, Delay: func(addr, op string) { time.Sleep(rtt) }}
			srcSets := benchLeaves(b, fac, producers, nsets)
			mid, umid := benchAgg(b, fac, "mid", pnames, true)
			defer mid.Stop()
			if _, err := mid.Listen("mem", "mid"); err != nil {
				b.Fatal(err)
			}
			top, utop := benchAgg(b, fac, "top", []string{"mid"}, false)
			defer top.Stop()

			tick := int64(2000)
			umid.run(time.Now()) // mid lookups, first pulls, first fold
			umid.run(time.Now()) // mid first acknowledged pulls
			utop.run(time.Now()) // top lookups (reduced sets now exist) and first pulls
			utop.run(time.Now()) // top first acknowledged pulls
			if got := top.Registry().Dir(); len(got) != 4 {
				b.Fatalf("top sees %d reduced sets, want 4: %v", len(got), got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bump(srcSets, &tick)
				umid.run(time.Now())
				utop.run(time.Now())
			}
			b.StopTimer()
		})
	}
}
