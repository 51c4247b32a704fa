package main

import (
	"fmt"
	"sync"
	"time"

	"goldms/internal/metric"
	"goldms/internal/transport"
)

// splitmix is the value every synthetic metric carries: a pure function of
// (seed, set, metric, seq), so stored rows can be recomputed and checked,
// and incompressible, so deflate cannot hide wire cost.
func splitmix(seed, set, m, seq uint64) uint64 {
	x := seed + set*0x9E3779B97F4A7C15 + m*0xD1B54A32D192ED03 + seq*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// expected is the value metric m of set id holds after sample seq. Metrics
// change in rotating groups of w.change: group g is rewritten on every seq
// with seq mod groups == g, so the value is the one written at the last
// such seq. seq is the absolute grid index (unix time / interval), which
// makes the function stateless.
func (w *workload) expected(seed, id uint64, m int, seq int64) uint64 {
	groups := int64(w.card / w.change)
	g := int64(m / w.change)
	back := (seq - g) % groups
	return splitmix(seed, id, uint64(m), uint64(seq-back))
}

// genSet is one synthetic leaf set. Probes are the tiny sets the freshness
// prober watches; everything else carries the workload's schema.
type genSet struct {
	set   *metric.Set
	id    uint64 // component id: 1 + index in generator.sets, the CSV row key
	gen   int
	name  string // bare instance name in the generator's directory
	probe bool
}

// sampleLog is what the writer records about one sample, read after it stops.
type sampleLog struct {
	seq   int64
	start time.Time // when the writer began the sample (due = seq*interval)
	end   time.Time // when the last set's transaction closed
}

// generator is the bench's synthetic leaf tier: metric.Sets in
// metric.Registrys served by transport.NewServer on sock listeners — the
// serve path a sampler ldmsd runs — written by one open-loop goroutine on
// wall-clock multiples of interval.
type generator struct {
	w    workload
	seed uint64
	sets []*genSet // gen 0's directory order, then gen 1's
	regs [numGens]*metric.Registry
	lns  [numGens]transport.Listener

	stop chan struct{}
	done sync.WaitGroup
	log  []sampleLog // owned by the writer until done
}

// newGenerator builds the leaf tier and starts serving it. With live set the
// open-loop writer runs; without it the caller drives writeSets itself (the
// traced replay, which has no use for wall-clock pacing).
func newGenerator(w workload, seed uint64, live bool) (*generator, error) {
	g := &generator{w: w, seed: seed, stop: make(chan struct{})}
	schema := metric.NewSchema(w.schema)
	for m := 0; m < w.card; m++ {
		schema.MustAddMetric(fmt.Sprintf("m%03d", m), metric.TypeU64)
	}
	probe := metric.NewSchema("probe")
	probe.MustAddMetric("seq", metric.TypeU64)
	probe.MustAddMetric("created_ns", metric.TypeU64)

	// Probes sit evenly through each directory: "s0127p" sorts straight
	// after "s0127", and a producer's sets are pulled in directory order.
	stride := w.setsPerGen / probesPerGen
	for gi := 0; gi < numGens; gi++ {
		g.regs[gi] = metric.NewRegistry()
		for i := 0; i < w.setsPerGen; i++ {
			name := fmt.Sprintf("s%04d", i)
			if err := g.add(gi, name, schema, false); err != nil {
				return nil, err
			}
			if i%stride == stride/2 && i/stride < probesPerGen {
				if err := g.add(gi, name+"p", probe, true); err != nil {
					return nil, err
				}
			}
		}
	}
	// Every set holds one complete sample before anything can pull it.
	seq := time.Now().UnixNano() / int64(interval)
	g.writeSets(g.sets, seq, true)

	for gi := range g.regs {
		ln, err := transport.SockFactory{}.Listen("127.0.0.1:0", transport.NewServer(g.regs[gi]))
		if err != nil {
			g.close()
			return nil, err
		}
		g.lns[gi] = ln
	}
	if live {
		g.done.Add(1)
		go g.run(seq)
	}
	return g, nil
}

func (g *generator) add(gi int, name string, schema *metric.Schema, probe bool) error {
	id := uint64(len(g.sets) + 1)
	set, err := metric.New(name, schema, metric.WithCompID(id))
	if err != nil {
		return err
	}
	if err := g.regs[gi].Add(set); err != nil {
		return err
	}
	g.sets = append(g.sets, &genSet{set: set, id: id, gen: gi, name: name, probe: probe})
	return nil
}

// writeSets stores sample seq into sets. full rewrites every metric (first
// sample, or the writer skipped a seq); otherwise only the group due to
// change is touched, which is what makes most of a steady set idle.
func (g *generator) writeSets(sets []*genSet, seq int64, full bool) {
	w := &g.w
	due := time.Unix(0, seq*int64(interval))
	groups := int64(w.card / w.change)
	lo := int(seq%groups) * w.change
	for _, s := range sets {
		s.set.BeginTransaction()
		switch {
		case s.probe:
			s.set.SetValues(func(b *metric.Batch) {
				b.SetU64(0, uint64(seq))
				b.SetU64(1, uint64(time.Now().UnixNano()))
			})
		case full:
			s.set.SetValues(func(b *metric.Batch) {
				for m := 0; m < w.card; m++ {
					b.SetU64(m, w.expected(g.seed, s.id, m, seq))
				}
			})
		default:
			s.set.SetValues(func(b *metric.Batch) {
				for m := lo; m < lo+w.change; m++ {
					b.SetU64(m, splitmix(g.seed, s.id, uint64(m), uint64(seq)))
				}
			})
		}
		s.set.EndTransaction(due)
	}
}

// run is the open-loop writer: it samples at each grid point whether or not
// anything pulled the previous sample, and records how late it ran.
func (g *generator) run(last int64) {
	defer g.done.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		seq := time.Now().UnixNano()/int64(interval) + 1
		timer.Reset(time.Until(time.Unix(0, seq*int64(interval))))
		select {
		case <-g.stop:
			return
		case <-timer.C:
		}
		start := time.Now()
		g.writeSets(g.sets, seq, seq != last+1)
		g.log = append(g.log, sampleLog{seq: seq, start: start, end: time.Now()})
		last = seq
	}
}

func (g *generator) addr(gi int) string { return g.lns[gi].Addr() }

// dirCount is the number of sets generator gi offers.
func (g *generator) dirCount(gi int) int { return g.regs[gi].Len() }

// close stops the writer and the listeners; the sample log is safe to read
// afterwards.
func (g *generator) close() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.done.Wait()
	for _, ln := range g.lns {
		if ln != nil {
			ln.Close()
		}
	}
}
