package metric

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/mmgr"
)

// Data chunk header layout (all little-endian):
//
//	[0:8)   MGN   metadata generation number (copy; lets a consumer detect
//	              that its cached metadata is stale)
//	[8:16)  DGN   data generation number, incremented per element update
//	[16:24) flags bit 0 = consistent
//	[24:32) timestamp seconds (unix)
//	[32:40) timestamp microseconds
const (
	offMGN         = 0
	offDGN         = 8
	offFlags       = 16
	offSec         = 24
	offUsec        = 32
	dataHeaderSize = 40

	flagConsistent = 1 << 0
)

// le is the byte order used throughout the set format.
var le = binary.LittleEndian

// Set is an LDMS metric set instance: a named, typed, fixed-layout block of
// sampled values. Writers (sampling plugins) bracket updates between
// BeginTransaction and EndTransaction; readers that observe the consistent
// flag cleared know the data does not all come from one sampling event.
type Set struct {
	mu       sync.RWMutex
	name     string
	schema   *Schema
	meta     []byte   // serialized metadata chunk
	data     []byte   // data chunk (header + values)
	entryOff []uint32 // offset of each metric's entry in the metadata chunk
	changed  []uint64 // per-metric DGN at which the stored bits last changed
	arena    *mmgr.Arena
	local    bool // true if this daemon samples into the set
	loaded   bool // true once LoadData has filled the chunk at least once
}

// Option configures set creation.
type Option func(*setConfig)

type setConfig struct {
	arena  *mmgr.Arena
	compID uint64
}

// WithArena allocates the set's chunks from the given arena instead of the
// Go heap, enforcing the daemon's configured metric-set memory budget.
func WithArena(a *mmgr.Arena) Option {
	return func(c *setConfig) { c.arena = a }
}

// WithCompID assigns the user-defined component ID recorded in the metadata
// entry of every metric in the set.
func WithCompID(id uint64) Option {
	return func(c *setConfig) { c.compID = id }
}

// New instantiates a set named instance from the schema. The schema is
// frozen by this call.
func New(instance string, schema *Schema, opts ...Option) (*Set, error) {
	if instance == "" {
		return nil, fmt.Errorf("metric: empty set instance name")
	}
	if schema == nil || schema.Card() == 0 {
		return nil, fmt.Errorf("metric: set %q: schema is nil or empty", instance)
	}
	var cfg setConfig
	for _, o := range opts {
		o(&cfg)
	}
	schema.freeze()

	// The change journal is daemon bookkeeping, not part of the set's wire
	// or memory format, so it lives on the Go heap even for arena sets.
	s := &Set{
		name:    instance,
		schema:  schema,
		changed: make([]uint64, schema.Card()),
		arena:   cfg.arena,
		local:   true,
	}

	metaSize := schema.MetaSize(instance)
	dataSize := schema.DataSize()
	var err error
	if cfg.arena != nil {
		if s.meta, err = cfg.arena.Alloc(metaSize); err != nil {
			return nil, fmt.Errorf("metric: set %q metadata: %w", instance, err)
		}
		if s.data, err = cfg.arena.Alloc(dataSize); err != nil {
			cfg.arena.Free(s.meta)
			return nil, fmt.Errorf("metric: set %q data: %w", instance, err)
		}
	} else {
		s.meta = make([]byte, metaSize)
		s.data = make([]byte, dataSize)
	}

	mgn := newMGN()
	s.writeMeta(mgn, cfg.compID)
	le.PutUint64(s.data[offMGN:], mgn)
	return s, nil
}

// mgnCounter provides unique initial metadata generation numbers.
var mgnCounter atomic.Uint64

func newMGN() uint64 {
	return mgnCounter.Add(1)
}

// Delete releases the set's chunks back to its arena, if any, and a mirror's
// reference on its shared schema. The set must not be used afterwards.
func (s *Set) Delete() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.local && s.meta != nil {
		interned.release(s.schema)
	}
	if s.arena != nil {
		s.arena.Free(s.meta)
		s.arena.Free(s.data)
	}
	s.meta, s.data = nil, nil
}

// Name returns the set instance name.
func (s *Set) Name() string { return s.name }

// SchemaName returns the name of the schema the set was created from.
func (s *Set) SchemaName() string { return s.schema.Name() }

// Schema returns the set's schema.
func (s *Set) Schema() *Schema { return s.schema }

// Card returns the number of metrics in the set.
func (s *Set) Card() int { return s.schema.Card() }

// Local reports whether this set is sampled by the local daemon (as opposed
// to being a mirror of a remote set).
func (s *Set) Local() bool { return s.local }

// MetricName returns the name of metric i.
func (s *Set) MetricName(i int) string { return s.schema.Def(i).Name }

// MetricType returns the type of metric i.
func (s *Set) MetricType(i int) Type { return s.schema.Def(i).Type }

// MetricIndex returns the index of the named metric.
func (s *Set) MetricIndex(name string) (int, bool) { return s.schema.Lookup(name) }

// MetaBytes returns the serialized metadata chunk. The returned slice
// aliases the set's metadata; callers must treat it as read-only.
func (s *Set) MetaBytes() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.meta
}

// MetaSize returns the metadata chunk size in bytes.
func (s *Set) MetaSize() int { return len(s.meta) }

// DataSize returns the data chunk size in bytes. Only this many bytes move
// per aggregation pull after the initial lookup. It is the schema's size, so
// a transport still holding a handle to a set that was just deleted may ask
// without racing Delete; the copy that follows then moves nothing.
func (s *Set) DataSize() int { return s.schema.DataSize() }

// MGN returns the metadata generation number.
func (s *Set) MGN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return le.Uint64(s.data[offMGN:])
}

// DGN returns the data generation number. A consumer seeing an unchanged
// DGN knows the set has not been re-sampled since its last pull.
func (s *Set) DGN() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return le.Uint64(s.data[offDGN:])
}

// Consistent reports whether the data chunk contents all come from the same
// completed sampling event.
func (s *Set) Consistent() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return le.Uint64(s.data[offFlags:])&flagConsistent != 0
}

// Timestamp returns the time recorded by the last EndTransaction.
func (s *Set) Timestamp() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sec := int64(le.Uint64(s.data[offSec:]))
	usec := int64(le.Uint64(s.data[offUsec:]))
	return time.Unix(sec, usec*1000)
}

// DataTimestamp reads the sample timestamp out of a raw data chunk (a
// pull buffer) without any lock: the buffer is single-owner, so callers
// on the pull hot path can take a sample's age with one plain header
// read. Returns the zero time for a buffer too short to carry a header.
func DataTimestamp(data []byte) time.Time {
	if len(data) < dataHeaderSize {
		return time.Time{}
	}
	sec := int64(le.Uint64(data[offSec:]))
	usec := int64(le.Uint64(data[offUsec:]))
	return time.Unix(sec, usec*1000)
}

// BeginTransaction marks the set inconsistent before a sampling pass. An
// aggregator pull that lands mid-transaction observes consistent == false
// and skips the data.
func (s *Set) BeginTransaction() {
	s.mu.Lock()
	flags := le.Uint64(s.data[offFlags:])
	le.PutUint64(s.data[offFlags:], flags&^flagConsistent)
	s.mu.Unlock()
}

// EndTransaction records the sample timestamp and marks the set consistent.
func (s *Set) EndTransaction(t time.Time) {
	s.mu.Lock()
	le.PutUint64(s.data[offSec:], uint64(t.Unix()))
	le.PutUint64(s.data[offUsec:], uint64(t.Nanosecond()/1000))
	flags := le.Uint64(s.data[offFlags:])
	le.PutUint64(s.data[offFlags:], flags|flagConsistent)
	s.mu.Unlock()
}

// SetValue stores v into metric i, converting to the metric's declared type,
// and increments the DGN.
func (s *Set) SetValue(i int, v Value) {
	off := s.schema.offsets[i]
	t := s.schema.defs[i].Type
	s.mu.Lock()
	dgn := le.Uint64(s.data[offDGN:]) + 1
	if s.putDiff(off, t, convertBits(v, t)) {
		s.changed[i] = dgn
	}
	le.PutUint64(s.data[offDGN:], dgn)
	s.mu.Unlock()
}

// Batch is a write handle over a set whose lock is already held, created by
// SetValues. It lets a sampling pass store every metric of the pass under a
// single lock acquisition instead of one per metric.
type Batch struct {
	s    *Set
	base uint64 // DGN when the batch began
	dgn  uint64
}

// SetValue stores v into metric i, converting to the metric's declared
// type. The DGN still advances once per element, applied when the batch
// ends.
func (b *Batch) SetValue(i int, v Value) {
	off := b.s.schema.offsets[i]
	t := b.s.schema.defs[i].Type
	b.dgn++
	if b.s.putDiff(off, t, convertBits(v, t)) {
		b.s.changed[i] = b.base + b.dgn
	}
}

// SetU64 stores an unsigned integer into metric i.
func (b *Batch) SetU64(i int, v uint64) { b.SetValue(i, Value{TypeU64, v}) }

// SetS64 stores a signed integer into metric i.
func (b *Batch) SetS64(i int, v int64) { b.SetValue(i, S64Value(v)) }

// SetF64 stores a float into metric i.
func (b *Batch) SetF64(i int, v float64) { b.SetValue(i, F64Value(v)) }

// SetValues runs fn with a write batch, taking the set lock exactly once
// for the whole pass. Sampling plugins that store many metrics per sample
// use this instead of per-metric SetValue calls, which each lock.
func (s *Set) SetValues(fn func(*Batch)) {
	s.mu.Lock()
	b := Batch{s: s, base: le.Uint64(s.data[offDGN:])}
	fn(&b)
	if b.dgn > 0 {
		le.PutUint64(s.data[offDGN:], le.Uint64(s.data[offDGN:])+b.dgn)
	}
	s.mu.Unlock()
}

// SetU64 stores an unsigned integer into metric i.
func (s *Set) SetU64(i int, v uint64) { s.SetValue(i, Value{TypeU64, v}) }

// SetS64 stores a signed integer into metric i.
func (s *Set) SetS64(i int, v int64) { s.SetValue(i, S64Value(v)) }

// SetF64 stores a float into metric i.
func (s *Set) SetF64(i int, v float64) { s.SetValue(i, F64Value(v)) }

// Value returns the current value of metric i.
func (s *Set) Value(i int) Value {
	off := s.schema.offsets[i]
	t := s.schema.defs[i].Type
	s.mu.RLock()
	bits := s.get(off, t)
	s.mu.RUnlock()
	return Value{t, bits}
}

// U64 returns metric i as an unsigned integer.
func (s *Set) U64(i int) uint64 { return s.Value(i).U64() }

// S64 returns metric i as a signed integer.
func (s *Set) S64(i int) int64 { return s.Value(i).S64() }

// F64 returns metric i as a float64.
func (s *Set) F64(i int) float64 { return s.Value(i).F64() }

// ReadValues copies every metric's current value into vals, which must hold
// at least Card() entries, under a single lock acquisition. It returns the
// sample timestamp, the DGN, and the consistent flag as observed atomically
// with the values: unlike per-metric Value calls, the caller cannot see a
// chunk torn across a concurrent LoadData or SetValues (the paper's §III-A
// consistent-flag/DGN reader protocol, applied in-process). It reports the
// number of values read.
func (s *Set) ReadValues(vals []Value) (ts time.Time, dgn uint64, consistent bool, n int) {
	n = s.schema.Card()
	if n > len(vals) {
		n = len(vals)
	}
	s.mu.RLock()
	ts = s.schema.DecodeChunk(s.data, nil, vals[:n])
	dgn = le.Uint64(s.data[offDGN:])
	consistent = le.Uint64(s.data[offFlags:])&flagConsistent != 0
	s.mu.RUnlock()
	return ts, dgn, consistent, n
}

// DecodeChunk reads values out of a data chunk of this schema's layout — a
// CopyDataInto snapshot, say — into vals: metric sel[j] into vals[j], or
// metric j when sel is nil. It returns the chunk's sample timestamp. The
// chunk belongs to the caller; nothing is locked.
//
//ldms:hotpath per-row decode in the store drain
func (s *Schema) DecodeChunk(chunk []byte, sel []int, vals []Value) time.Time {
	for j := range vals {
		i := j
		if sel != nil {
			i = sel[j]
		}
		t := s.defs[i].Type
		vals[j] = Value{t, getBits(chunk, s.offsets[i], t)}
	}
	return DataTimestamp(chunk)
}

// ReadBits is the §III-A reader protocol for a consumer that keeps the raw
// 64-bit representations itself (the query window's value matrix): under a
// single read-lock acquisition it reports the chunk fresh when it is
// consistent and, if haveSeen, its DGN differs from seen — and only then
// copies every metric's bits into dst (at most len(dst) of them). A torn or
// already-seen chunk leaves dst untouched, so the caller may hand in live
// storage it would otherwise have to stage through a scratch copy.
//
//ldms:hotpath per-sample window read; the window's AllocsPerRun test guards it
func (s *Set) ReadBits(dst []uint64, seen uint64, haveSeen bool) (ts time.Time, dgn uint64, fresh bool) {
	defs, offs := s.schema.defs, s.schema.offsets
	if len(dst) > len(defs) {
		dst = dst[:len(defs)]
	}
	s.mu.RLock()
	dgn = le.Uint64(s.data[offDGN:])
	if le.Uint64(s.data[offFlags:])&flagConsistent == 0 || (haveSeen && dgn == seen) {
		s.mu.RUnlock()
		return time.Time{}, dgn, false
	}
	for i := range dst {
		dst[i] = getBits(s.data, offs[i], defs[i].Type)
	}
	sec := int64(le.Uint64(s.data[offSec:]))
	usec := int64(le.Uint64(s.data[offUsec:]))
	s.mu.RUnlock()
	return time.Unix(sec, usec*1000), dgn, true
}

// put writes raw bits of type t at data offset off. Caller holds the lock.
func (s *Set) put(off uint32, t Type, bits uint64) {
	switch t.Size() {
	case 1:
		s.data[off] = byte(bits)
	case 2:
		le.PutUint16(s.data[off:], uint16(bits))
	case 4:
		le.PutUint32(s.data[off:], uint32(bits))
	case 8:
		le.PutUint64(s.data[off:], bits)
	}
}

// putDiff writes raw bits of type t at data offset off and reports whether
// the stored representation actually changed — the predicate feeding the
// per-metric change journal. Comparison happens at the metric's natural
// width (store then re-read), so value bits outside the stored width never
// register as perpetual change. Caller holds the lock.
//
//ldms:hotpath
func (s *Set) putDiff(off uint32, t Type, bits uint64) bool {
	old := getBits(s.data, off, t)
	s.put(off, t, bits)
	return getBits(s.data, off, t) != old
}

// get reads raw bits of type t at data offset off, widening to 64 bits.
// Caller holds the lock.
func (s *Set) get(off uint32, t Type) uint64 {
	return getBits(s.data, off, t)
}

// getBits reads raw bits of type t at offset off in a data chunk, widening
// to 64 bits.
//
//ldms:hotpath
func getBits(data []byte, off uint32, t Type) uint64 {
	switch t {
	case TypeU8:
		return uint64(data[off])
	case TypeS8:
		return uint64(int64(int8(data[off])))
	case TypeU16:
		return uint64(le.Uint16(data[off:]))
	case TypeS16:
		return uint64(int64(int16(le.Uint16(data[off:]))))
	case TypeU32, TypeF32:
		return uint64(le.Uint32(data[off:]))
	case TypeS32:
		return uint64(int64(int32(le.Uint32(data[off:]))))
	default:
		return le.Uint64(data[off:])
	}
}

// convertBits coerces v's raw bits into the representation required by the
// destination type t.
func convertBits(v Value, t Type) uint64 {
	if v.Type == t {
		return v.Bits
	}
	switch t {
	case TypeF32:
		return uint64(math.Float32bits(float32(v.F64())))
	case TypeD64:
		return F64Value(v.F64()).Bits
	case TypeS8, TypeS16, TypeS32, TypeS64:
		return uint64(v.S64())
	default:
		return v.U64()
	}
}

// CopyDataInto snapshots the data chunk into dst, which must be at least
// DataSize bytes. It returns the number of bytes copied. This is the
// operation an aggregator's update performs over a transport.
func (s *Set) CopyDataInto(dst []byte) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return copy(dst, s.data)
}

// DataSnapshot returns a fresh copy of the data chunk.
func (s *Set) DataSnapshot() []byte {
	dst := make([]byte, len(s.data))
	s.CopyDataInto(dst)
	return dst
}

// ErrMGNMismatch is returned by LoadData when the pulled data chunk carries
// a different MGN than the set's metadata, indicating the consumer's cached
// metadata is stale and a new lookup is required.
type ErrMGNMismatch struct {
	Want, Got uint64
}

// Error implements the error interface.
func (e *ErrMGNMismatch) Error() string {
	return fmt.Sprintf("metric: metadata generation mismatch: have %d, data carries %d", e.Want, e.Got)
}

// LoadData replaces the set's data chunk with src, as an aggregator does
// when an update completes. It validates the length and the MGN. While
// copying it diffs each metric against the incoming chunk and journals the
// ones whose bits changed, so mirrors can themselves serve delta updates
// when re-exported by a mid-tier aggregator.
func (s *Set) LoadData(src []byte) error {
	if len(src) != len(s.data) {
		return fmt.Errorf("metric: set %q: data length %d, want %d", s.name, len(src), len(s.data))
	}
	want := le.Uint64(s.meta[metaOffMGN:])
	got := le.Uint64(src[offMGN:])
	if got != want {
		return &ErrMGNMismatch{Want: want, Got: got}
	}
	s.mu.Lock()
	dgn := le.Uint64(src[offDGN:])
	if !s.loaded {
		// First load into a fresh mirror: the zeroed chunk says nothing
		// about what a downstream consumer may already hold (a rebuilt
		// mirror keeps the remote's MGN and DGN sequence), so journal every
		// metric rather than trusting a diff against zeros.
		for i := range s.changed {
			s.changed[i] = dgn
		}
		s.loaded = true
	} else {
		for i, off := range s.schema.offsets {
			t := s.schema.defs[i].Type
			if getBits(src, off, t) != getBits(s.data, off, t) {
				s.changed[i] = dgn
			}
		}
	}
	copy(s.data, src)
	s.mu.Unlock()
	return nil
}
