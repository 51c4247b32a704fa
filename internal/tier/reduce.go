// Package tier implements in-flight reduction for tiered aggregation
// topologies (ROADMAP: "upper tiers carry aggregates instead of raw sets",
// after SYMBIOMON's collector→aggregator→reducer split).
//
// A Reducer folds the mirrored sets of one updater's producer group into
// synthetic reduced sets, one per (schema, op): min/max/avg/sum/rate/last
// across the group's members, recomputed once per pull pass over each
// member's latest consistent sample. Reduced sets are ordinary local
// metric.Sets — they register in the daemon's directory, flow through the
// storage policies and query window, and re-export upstream exactly like any
// other set, so a top-tier aggregator over N mid-tiers carries N reduced
// sets per schema instead of N×fan-in raw mirrors.
//
// Determinism: groups fold in sorted schema order and members accumulate in
// sorted source-name order, so floating-point reductions are bit-identical
// across replays of the same virtual-clock run.
package tier

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"goldms/internal/metric"
)

// Op is one reduction operator.
type Op uint8

// Reduction operators over a producer group's member sets.
const (
	OpMin  Op = iota // per-metric minimum across members
	OpMax            // per-metric maximum across members
	OpAvg            // per-metric mean across members (output d64)
	OpSum            // per-metric sum across members (64-bit widened)
	OpRate           // summed per-member Δvalue/Δt between samples (output d64)
	OpLast           // the most recently sampled member's values
	nOps
)

// String returns the operator's config-file name.
func (o Op) String() string {
	switch o {
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpAvg:
		return "avg"
	case OpSum:
		return "sum"
	case OpRate:
		return "rate"
	case OpLast:
		return "last"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// ParseOp converts a config-file operator name.
func ParseOp(s string) (Op, error) {
	for o := Op(0); o < nOps; o++ {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("tier: unknown reduce op %q", s)
}

// ParseOps parses a comma-separated operator list ("min,max,avg"),
// rejecting duplicates and empty elements.
func ParseOps(s string) ([]Op, error) {
	var ops []Op
	var seen [nOps]bool
	for _, part := range strings.Split(s, ",") {
		o, err := ParseOp(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if seen[o] {
			return nil, fmt.Errorf("tier: duplicate reduce op %q", o)
		}
		seen[o] = true
		ops = append(ops, o)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("tier: empty reduce op list")
	}
	return ops, nil
}

// OpsString renders ops as a comma-separated config-style list.
func OpsString(ops []Op) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, ",")
}

// countMetric is the trailing metric appended to every reduced set: the
// number of members whose samples contributed to the fold.
const countMetric = "reduce_count"

// widen64 maps a source type to the 64-bit type of its class, so sums
// cannot overflow a narrow source width.
func widen64(t metric.Type) metric.Type {
	switch t {
	case metric.TypeF32, metric.TypeD64:
		return metric.TypeD64
	case metric.TypeS8, metric.TypeS16, metric.TypeS32, metric.TypeS64:
		return metric.TypeS64
	default:
		return metric.TypeU64
	}
}

// outputType is the reduced metric's declared type for one operator.
func outputType(op Op, src metric.Type) metric.Type {
	switch op {
	case OpAvg, OpRate:
		return metric.TypeD64
	case OpSum:
		return widen64(src)
	default:
		return src
	}
}

// less orders two values of source type t by numeric class.
func less(t metric.Type, a, b metric.Value) bool {
	switch t {
	case metric.TypeF32, metric.TypeD64:
		return a.F64() < b.F64()
	case metric.TypeS8, metric.TypeS16, metric.TypeS32, metric.TypeS64:
		return a.S64() < b.S64()
	default:
		return a.U64() < b.U64()
	}
}

// member is one source set (a producer's mirror) inside a group.
type member struct {
	name  string
	set   *metric.Set
	fresh bool

	// Rate state: the previous sample's values/timestamp, and the per-metric
	// rate computed between the two most recent distinct samples. A member
	// with fewer than two samples contributes rate 0.
	prevTS  time.Time
	hasPrev bool
	prev    []float64
	rate    []float64
}

// output is one reduced set: the fold of a group under one operator.
type output struct {
	op       Op
	set      *metric.Set
	countIdx int // index of the reduce_count metric, -1 if the schema claims the name
}

// group is every member sharing one schema name, plus the reduced sets
// produced from them.
type group struct {
	schema  string
	layout  *metric.Schema // the first member's; mirrors of one layout share it
	types   []metric.Type
	members map[string]*member
	order   []*member // sorted by member name
	outputs []*output
	fresh   int // members observed fresh since the last fold

	// Fold scratch, reused every pass.
	vals    []metric.Value
	accMin  []metric.Value
	accMax  []metric.Value
	accSum  []metric.Value
	accF    []float64 // avg accumulation
	accR    []float64 // rate accumulation
	accLast []metric.Value
}

// Config configures a Reducer.
type Config struct {
	// Daemon is the local daemon name; reduced sets are published as
	// <Daemon>/<schema>_<op> so upper tiers see their origin, mirroring the
	// <producer>/<set> re-export convention.
	Daemon string
	// Ops are the reductions to compute, in output order.
	Ops []Op
	// SetOpts are applied to every reduced set created (typically
	// metric.WithArena so reduced sets draw from the daemon's budget).
	SetOpts []metric.Option
}

// Folded reports one reduced set updated by a Fold.
type Folded struct {
	Set *metric.Set
	// Time is the newest contributing member sample timestamp — the reduced
	// set's own sample time, so age-based staleness survives the hop.
	Time time.Time
	// Newest is the member (source name) that supplied Time. Sample
	// tracing inherits the reduced set's upstream hop chain from it, so a
	// reduced set's age attribution follows its newest contributor.
	// Deterministic: members fold in sorted name order and ties keep the
	// first.
	Newest string
	// Members is the number of members whose samples contributed.
	Members int
}

// Stats is a Reducer counter snapshot.
type Stats struct {
	Groups    int
	Members   int
	Outputs   int
	Folds     uint64
	Published uint64 // reduced-set updates across all folds
}

// Reducer folds member sets into reduced sets. All methods are safe for
// concurrent use; Observe is cheap enough for the update hot path.
type Reducer struct {
	mu        sync.Mutex
	cfg       Config
	groups    map[string]*group
	order     []*group // sorted by schema name
	byName    map[string]*member
	memGroup  map[string]*group
	folds     uint64
	published uint64
}

// New returns an empty Reducer.
func New(cfg Config) *Reducer {
	return &Reducer{
		cfg:      cfg,
		groups:   make(map[string]*group),
		byName:   make(map[string]*member),
		memGroup: make(map[string]*group),
	}
}

// Ops returns the configured operator list.
func (r *Reducer) Ops() []Op { return r.cfg.Ops }

// AddMember registers source (a mirror's local instance name) with its set.
// The first member of a schema creates that schema's reduced sets, returned
// for directory registration. Re-adding a known source (a reconnect epoch's
// fresh mirror) replaces the set and resets rate state. Members whose
// schema layout disagrees with the group's are rejected.
func (r *Reducer) AddMember(source string, set *metric.Set) ([]*metric.Set, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	if m := r.byName[source]; m != nil {
		g := r.memGroup[source]
		if set.SchemaName() != g.schema {
			return nil, fmt.Errorf("tier: member %q changed schema %q → %q", source, g.schema, set.SchemaName())
		}
		if err := g.congruent(set); err != nil {
			return nil, err
		}
		m.set = set
		m.hasPrev = false
		m.prevTS = time.Time{}
		for i := range m.rate {
			m.rate[i] = 0
		}
		return nil, nil
	}

	schema := set.SchemaName()
	g := r.groups[schema]
	var created []*metric.Set
	if g == nil {
		var err error
		if g, created, err = r.newGroup(set); err != nil {
			return nil, err
		}
		r.groups[schema] = g
		r.order = append(r.order, g)
		sort.Slice(r.order, func(i, j int) bool { return r.order[i].schema < r.order[j].schema })
	} else if err := g.congruent(set); err != nil {
		return nil, err
	}

	card := len(g.types)
	m := &member{
		name: source,
		set:  set,
		prev: make([]float64, card),
		rate: make([]float64, card),
	}
	g.members[source] = m
	g.order = append(g.order, m)
	sort.Slice(g.order, func(i, j int) bool { return g.order[i].name < g.order[j].name })
	r.byName[source] = m
	r.memGroup[source] = g
	return created, nil
}

// RemoveMember drops a source. When the last member of a schema leaves, the
// schema's reduced sets are retired and returned so the caller can
// deregister and release them.
func (r *Reducer) RemoveMember(source string) []*metric.Set {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byName[source]
	if m == nil {
		return nil
	}
	g := r.memGroup[source]
	delete(r.byName, source)
	delete(r.memGroup, source)
	delete(g.members, source)
	if m.fresh {
		g.fresh--
	}
	for i, gm := range g.order {
		if gm == m {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	if len(g.members) > 0 {
		return nil
	}
	delete(r.groups, g.schema)
	for i, og := range r.order {
		if og == g {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	retired := make([]*metric.Set, len(g.outputs))
	for i, o := range g.outputs {
		retired[i] = o.set
	}
	return retired
}

// Observe marks a member fresh: its mirror received new consistent data
// this pass, so its group must re-fold. One map lookup and a flag — cheap
// enough for the updater's per-set completion path.
func (r *Reducer) Observe(source string) {
	r.mu.Lock()
	if m := r.byName[source]; m != nil && !m.fresh {
		m.fresh = true
		r.memGroup[source].fresh++
	}
	r.mu.Unlock()
}

// Fold recomputes the reduced sets of every group with at least one fresh
// member, returning the updated sets with their contributing-member counts
// and newest sample times. Groups with no fresh members are skipped
// entirely, so their reduced sets' DGNs hold still and upstream tiers skip
// them as stale — exactly as an idle sampler's raw set would behave.
func (r *Reducer) Fold() []Folded {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Folded
	for _, g := range r.order {
		if g.fresh == 0 {
			continue
		}
		out = g.fold(out)
		for _, m := range g.order {
			m.fresh = false
		}
		g.fresh = 0
	}
	r.folds++
	r.published += uint64(len(out))
	return out
}

// Sets returns every reduced set, in deterministic (schema, op) order.
func (r *Reducer) Sets() []*metric.Set {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sets []*metric.Set
	for _, g := range r.order {
		for _, o := range g.outputs {
			sets = append(sets, o.set)
		}
	}
	return sets
}

// Members returns the number of registered member sets.
func (r *Reducer) Members() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byName)
}

// Stats snapshots the reducer's counters.
func (r *Reducer) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var outputs int
	for _, g := range r.order {
		outputs += len(g.outputs)
	}
	return Stats{
		Groups:    len(r.order),
		Members:   len(r.byName),
		Outputs:   outputs,
		Folds:     r.folds,
		Published: r.published,
	}
}

// newGroup builds a group and its reduced sets from the first member's
// schema. Caller holds r.mu.
func (r *Reducer) newGroup(src *metric.Set) (*group, []*metric.Set, error) {
	card := src.Card()
	g := &group{
		schema:  src.SchemaName(),
		layout:  src.Schema(),
		types:   make([]metric.Type, card),
		members: make(map[string]*member),
		vals:    make([]metric.Value, card),
		accMin:  make([]metric.Value, card),
		accMax:  make([]metric.Value, card),
		accSum:  make([]metric.Value, card),
		accF:    make([]float64, card),
		accR:    make([]float64, card),
		accLast: make([]metric.Value, card),
	}
	for i := range g.types {
		g.types[i] = src.MetricType(i)
	}

	var created []*metric.Set
	for _, op := range r.cfg.Ops {
		sch := metric.NewSchema(g.schema + "_" + op.String())
		for i, t := range g.types {
			sch.MustAddMetric(src.MetricName(i), outputType(op, t))
		}
		countIdx := -1
		if _, taken := sch.Lookup(countMetric); !taken {
			countIdx = sch.MustAddMetric(countMetric, metric.TypeU64)
		}
		name := r.cfg.Daemon + "/" + g.schema + "_" + op.String()
		set, err := metric.New(name, sch, r.cfg.SetOpts...)
		if err != nil {
			for _, s := range created {
				s.Delete()
			}
			return nil, nil, fmt.Errorf("tier: reduced set %q: %w", name, err)
		}
		g.outputs = append(g.outputs, &output{op: op, set: set, countIdx: countIdx})
		created = append(created, set)
	}
	return g, created, nil
}

// congruent verifies a candidate member set matches the group's layout: by
// pointer for mirrors, which share their layout's one Schema, and metric by
// metric for a set that brings a Schema object of its own.
func (g *group) congruent(set *metric.Set) error {
	if set.Schema() == g.layout {
		return nil
	}
	if set.Card() != len(g.types) {
		return fmt.Errorf("tier: schema %q: member has %d metrics, group has %d",
			g.schema, set.Card(), len(g.types))
	}
	for i := range g.types {
		if d := g.layout.Def(i); set.MetricName(i) != d.Name || set.MetricType(i) != d.Type {
			return fmt.Errorf("tier: schema %q: metric %d is %s %s, group has %s %s",
				g.schema, i, set.MetricType(i), set.MetricName(i), d.Type, d.Name)
		}
	}
	return nil
}

// fold recomputes one group's reduced sets, appending results to out.
func (g *group) fold(out []Folded) []Folded {
	card := len(g.types)
	contrib := 0
	var maxTS, lastTS time.Time
	var newest string

	for i := 0; i < card; i++ {
		g.accSum[i] = metric.Value{Type: g.types[i]}
		g.accF[i] = 0
		g.accR[i] = 0
	}

	for _, m := range g.order {
		ts, _, consistent, n := m.set.ReadValues(g.vals)
		if !consistent || n < card {
			continue
		}

		// Rate state advances whenever the member's sample time moved,
		// regardless of which op is configured: the bookkeeping is cheap and
		// keeps a later updtr reconfiguration from seeing a bogus first delta.
		if ts != m.prevTS {
			if m.hasPrev {
				dt := ts.Sub(m.prevTS).Seconds()
				for i := 0; i < card; i++ {
					m.rate[i] = rateOf(g.types[i], g.vals[i].F64(), m.prev[i], dt)
				}
			}
			for i := 0; i < card; i++ {
				m.prev[i] = g.vals[i].F64()
			}
			m.prevTS = ts
			m.hasPrev = true
		}

		if contrib == 0 {
			copy(g.accMin, g.vals[:card])
			copy(g.accMax, g.vals[:card])
		}
		for i := 0; i < card; i++ {
			v := g.vals[i]
			if contrib > 0 {
				if less(g.types[i], v, g.accMin[i]) {
					g.accMin[i] = v
				}
				if less(g.types[i], g.accMax[i], v) {
					g.accMax[i] = v
				}
			}
			g.accSum[i] = addValue(g.types[i], g.accSum[i], v)
			g.accF[i] += v.F64()
			g.accR[i] += m.rate[i]
		}
		if ts.After(maxTS) {
			maxTS = ts
			newest = m.name
		}
		if contrib == 0 || ts.After(lastTS) {
			copy(g.accLast, g.vals[:card])
			lastTS = ts
		}
		contrib++
	}
	if contrib == 0 {
		return out
	}

	for _, o := range g.outputs {
		o.set.BeginTransaction()
		o.set.SetValues(func(b *metric.Batch) {
			for i := 0; i < card; i++ {
				switch o.op {
				case OpMin:
					b.SetValue(i, g.accMin[i])
				case OpMax:
					b.SetValue(i, g.accMax[i])
				case OpAvg:
					b.SetF64(i, g.accF[i]/float64(contrib))
				case OpSum:
					b.SetValue(i, g.accSum[i])
				case OpRate:
					b.SetF64(i, g.accR[i])
				case OpLast:
					b.SetValue(i, g.accLast[i])
				}
			}
			if o.countIdx >= 0 {
				b.SetU64(o.countIdx, uint64(contrib))
			}
		})
		o.set.EndTransaction(maxTS)
		out = append(out, Folded{Set: o.set, Time: maxTS, Newest: newest, Members: contrib})
	}
	return out
}

// rateOf computes one member metric's Δvalue/Δt. Unsigned counters that
// moved backwards (a counter reset) and non-advancing clocks contribute 0.
func rateOf(t metric.Type, cur, prev, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	d := cur - prev
	if d < 0 {
		switch t {
		case metric.TypeU8, metric.TypeU16, metric.TypeU32, metric.TypeU64:
			return 0
		}
	}
	return d / dt
}

// addValue accumulates v into acc within the source type's numeric class.
// Unsigned sums wrap modulo 2^64; signed and float sums use their native
// 64-bit arithmetic.
func addValue(t metric.Type, acc, v metric.Value) metric.Value {
	switch t {
	case metric.TypeF32, metric.TypeD64:
		return metric.F64Value(acc.F64() + v.F64())
	case metric.TypeS8, metric.TypeS16, metric.TypeS32, metric.TypeS64:
		return metric.S64Value(acc.S64() + v.S64())
	default:
		return metric.U64Value(acc.U64() + v.U64())
	}
}
