package ldmsd

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"goldms/internal/metric"
	"goldms/internal/store"
	"goldms/internal/transport"
)

// cpuStore is a store plugin that computes instead of waiting: it burns
// about 3 µs of CPU per row and keeps nothing.
type cpuStore struct{}

func init() {
	store.Register("store_testcpu", func(store.Config) (store.Store, error) { return cpuStore{}, nil })
}

func (cpuStore) Name() string { return "store_testcpu" }

func (cpuStore) StoreBatch(rows []metric.Row) error {
	for range rows {
		for start := time.Now(); time.Since(start) < 3*time.Microsecond; {
		}
	}
	return nil
}

func (cpuStore) Flush() error        { return nil }
func (cpuStore) Close() error        { return nil }
func (cpuStore) BytesWritten() int64 { return 0 }

// BenchmarkUpdaterFanIn measures one full update pass pulling N sets
// spread over 8 producers, with the mem transport charging a simulated
// round-trip latency per operation (one RTT per op sequentially, one per
// pipelined batch). "sequential" is the pre-pipelining pull path: one
// producer at a time, one blocking round trip per set. "pipelined" fans
// producers onto the update pool and batches each producer's pulls.
//
// The "pipelined+slowstore" mode attaches a storage policy backed by a
// fake 5 ms/row store plugin and dirties every source set before each
// pass, so all pulls are fresh and reach storeSet. It exists to show the
// async store queue keeps the pull pass at pipelined speed even when the
// store is three orders of magnitude slower than the enqueue (the
// drop-oldest default sheds the excess instead of stalling collection).
//
// "pipelined+cpustore" is the store that computes: its plugin burns ~3 µs
// of CPU per row, and the mode runs at GOMAXPROCS=1, as the bench's
// aggregator does. A store that waits leaves the pass alone whenever it
// runs; one that computes takes the pass's core unless the drain is held
// until the pass has pulled. The queue is sized for a whole pass, and each
// timed pass starts with the drain of the one before it finished (untimed).
//
// Run with -benchmem to see the pooled-buffer effect on allocs/op.
func BenchmarkUpdaterFanIn(b *testing.B) {
	const (
		producers = 8
		rtt       = 200 * time.Microsecond
	)
	for _, nsets := range []int{64, 256, 1024} {
		for _, mode := range []string{"sequential", "pipelined", "pipelined+slowstore", "pipelined+cpustore"} {
			b.Run(fmt.Sprintf("sets=%d/%s", nsets, mode), func(b *testing.B) {
				cpuStore := mode == "pipelined+cpustore"
				if cpuStore {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				}
				net := transport.NewNetwork()
				fac := transport.MemFactory{Net: net, Delay: func(addr, op string) {
					time.Sleep(rtt)
				}}
				perProducer := nsets / producers
				var srcSets []*metric.Set
				for i := 0; i < producers; i++ {
					name := fmt.Sprintf("p%d", i)
					reg := benchRegistry(b, name, perProducer)
					reg.Each(func(s *metric.Set) { srcSets = append(srcSets, s) })
					if _, err := fac.Listen(name, transport.NewServer(reg)); err != nil {
						b.Fatal(err)
					}
				}

				agg, err := New(Options{
					Name:          "agg",
					Workers:       producers,
					UpdateWorkers: producers,
					Memory:        64 << 20,
					Transports:    []transport.Factory{fac},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer agg.Stop()
				for i := 0; i < producers; i++ {
					name := fmt.Sprintf("p%d", i)
					p, err := agg.AddProducer(name, "mem", name, 10*time.Millisecond, false)
					if err != nil {
						b.Fatal(err)
					}
					p.Start()
				}
				// The updater is never Started: the benchmark drives passes
				// directly. A long interval keeps the per-op timeout generous.
				u, err := agg.AddUpdater("u", time.Minute, 0, false)
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < producers; i++ {
					u.AddProducer(fmt.Sprintf("p%d", i))
				}
				if mode == "sequential" {
					u.SetConcurrency(1)
					u.SetBatch(1)
				}
				slowStore := mode == "pipelined+slowstore"
				if slowStore {
					_, err := agg.AddStoragePolicy("slow", "store_testpipe", "bench",
						filepath.Join(b.TempDir(), "slow"),
						map[string]string{"delay": "5ms", "queue": "64", "flush_interval": "0"})
					if err != nil {
						b.Fatal(err)
					}
				}
				var cpu *StoragePolicy
				if cpuStore {
					if cpu, err = agg.AddStoragePolicy("cpu", "store_testcpu", "bench", "",
						map[string]string{"queue": "4096", "flush_interval": "0"}); err != nil {
						b.Fatal(err)
					}
				}
				// bump dirties every source set so the next pass's pulls
				// are fresh (stale pulls never reach storage).
				tick := int64(2000)
				bump := func() {
					tick++
					for _, s := range srcSets {
						s.BeginTransaction()
						s.SetU64(0, uint64(tick))
						s.EndTransaction(time.Unix(tick, 0))
					}
				}
				waitUntil(b, 10*time.Second, func() bool {
					for i := 0; i < producers; i++ {
						if agg.Producer(fmt.Sprintf("p%d", i)).State() != ProducerConnected {
							return false
						}
					}
					return true
				}, "producers to connect")

				// Warm up: pass 1 looks every set up and pulls its full chunk,
				// pass 2 is the first to pull against an acknowledged DGN.
				u.run(time.Now())
				u.run(time.Now())
				if got := int(u.updates.Load()); got != 2*nsets {
					b.Fatalf("warmup made %d pulls, want %d", got, 2*nsets)
				}

				if slowStore || cpuStore {
					bump()
					u.run(time.Now()) // first fresh pass warms the policy's column layout and pools
				}

				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if cpuStore {
						b.StopTimer()
						cpu.Flush()
						bump()
						b.StartTimer()
					} else if slowStore {
						bump()
					}
					u.run(time.Now())
				}
				b.StopTimer()
			})
		}
	}
}
