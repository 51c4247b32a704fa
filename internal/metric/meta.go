package metric

import (
	"errors"
	"fmt"
	"hash/maphash"
	"time"
)

// Metadata chunk layout (all little-endian):
//
//	[0:4)   magic "GLMS"
//	[4:6)   format version
//	[6:14)  MGN
//	[14:18) metric count (cardinality)
//	[18:22) data chunk size
//	[22:..) instance name (u16 length prefix)
//	[..:..) schema name (u16 length prefix)
//	then one entry per metric:
//	        name (u16 length prefix), component ID (u64), type (u8),
//	        offset of the value in the data chunk (u32)
const (
	metaMagic   = 0x474C4D53 // "GLMS"
	metaVersion = 1

	metaOffMGN  = 6
	metaOffCard = 14
	metaOffDSz  = 18
	metaOffStr  = 22

	metaHeaderFixed = 26 // magic+ver+mgn+card+dsize + two u16 length prefixes
	metaEntryFixed  = 15 // u16 name len + u64 comp id + u8 type + u32 offset

	// Within an entry, after the variable-length name:
	entryCompOff = 0 // comp id relative to end of name
	entryTypeOff = 8
	entryValOff  = 9
)

// writeMeta serializes the set's metadata into s.meta and records each
// entry's position for later component-ID access.
func (s *Set) writeMeta(mgn, compID uint64) {
	b := s.meta
	le.PutUint32(b[0:], metaMagic)
	le.PutUint16(b[4:], metaVersion)
	le.PutUint64(b[metaOffMGN:], mgn)
	le.PutUint32(b[metaOffCard:], uint32(s.schema.Card()))
	le.PutUint32(b[metaOffDSz:], uint32(s.schema.DataSize()))

	pos := metaOffStr
	pos += putString(b, pos, s.name)
	pos += putString(b, pos, s.schema.name)

	s.entryOff = make([]uint32, s.schema.Card())
	for i, d := range s.schema.defs {
		pos += putString(b, pos, d.Name)
		s.entryOff[i] = uint32(pos)
		le.PutUint64(b[pos+entryCompOff:], compID)
		b[pos+entryTypeOff] = byte(d.Type)
		le.PutUint32(b[pos+entryValOff:], s.schema.offsets[i])
		pos += metaEntryFixed - 2 // the name length prefix was already written
	}
}

// putString writes a u16 length prefix followed by the string bytes at
// position pos, returning the number of bytes written.
func putString(b []byte, pos int, s string) int {
	le.PutUint16(b[pos:], uint16(len(s)))
	copy(b[pos+2:], s)
	return 2 + len(s)
}

// CompID returns the user-defined component ID recorded for metric i.
func (s *Set) CompID(i int) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return le.Uint64(s.meta[s.entryOff[i]+entryCompOff:])
}

// SetCompID rewrites the component ID of every metric in the set and bumps
// the metadata generation number, as any metadata modification must.
func (s *Set) SetCompID(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, off := range s.entryOff {
		le.PutUint64(s.meta[off+entryCompOff:], id)
	}
	mgn := newMGN()
	le.PutUint64(s.meta[metaOffMGN:], mgn)
	le.PutUint64(s.data[offMGN:], mgn)
}

// ErrBadLayout marks a metadata chunk that decodes but describes a layout no
// set can have (a duplicate or empty metric name, an invalid type, offsets or
// a data size that do not follow from the types). It condemns the one set,
// where a chunk that does not decode at all condemns the connection.
var ErrBadLayout = errors.New("metric: bad set layout")

// Meta is a parsed metadata chunk, the result of an aggregator's lookup:
// what the instance owns (name, MGN, component IDs) plus the canonical
// Schema its layout resolved to, shared with every other set of that layout.
type Meta struct {
	MGN      uint64
	Instance string
	Schema   *Schema
	DataSize int
	// CompIDs holds the metrics' component IDs: one element when they are
	// all the same (one per node is the rule), else one per metric.
	CompIDs []uint64
}

// metaEntry is one decoded metadata entry; name aliases the chunk.
type metaEntry struct {
	name   []byte
	compID uint64
	typ    Type
	off    uint32
}

// getBytes reads a u16-length-prefixed string at pos without copying it.
func getBytes(b []byte, pos int) ([]byte, int, error) {
	if pos+2 > len(b) {
		return nil, 0, fmt.Errorf("metric: truncated metadata string length at %d", pos)
	}
	end := pos + 2 + int(le.Uint16(b[pos:]))
	if end > len(b) {
		return nil, 0, fmt.Errorf("metric: truncated metadata string at %d", pos)
	}
	return b[pos+2 : end], end, nil
}

// nextEntry decodes the metadata entry at pos and returns the position of
// the one after it.
func nextEntry(b []byte, pos int) (e metaEntry, next int, err error) {
	if e.name, pos, err = getBytes(b, pos); err != nil {
		return e, 0, err
	}
	if next = pos + metaEntryFixed - 2; next > len(b) {
		return e, 0, fmt.Errorf("metric: truncated metadata entry at %d", pos)
	}
	e.compID = le.Uint64(b[pos+entryCompOff:])
	e.typ = Type(b[pos+entryTypeOff])
	e.off = le.Uint32(b[pos+entryValOff:])
	return e, next, nil
}

// ParseMeta decodes a serialized metadata chunk. The layout it describes —
// schema name, every metric's name, type and offset, the data size — is
// resolved through the intern table: a chunk whose layout the process
// already holds costs a hash and a compare and shares that Schema; only a
// new layout is built, under the checks a set's own construction makes,
// whose failures wrap ErrBadLayout.
func ParseMeta(b []byte) (*Meta, error) {
	if len(b) < metaHeaderFixed {
		return nil, fmt.Errorf("metric: metadata too short (%d bytes)", len(b))
	}
	if le.Uint32(b[0:]) != metaMagic {
		return nil, fmt.Errorf("metric: bad metadata magic %#x", le.Uint32(b[0:]))
	}
	if v := le.Uint16(b[4:]); v != metaVersion {
		return nil, fmt.Errorf("metric: unsupported metadata version %d", v)
	}
	m := &Meta{
		MGN:      le.Uint64(b[metaOffMGN:]),
		DataSize: int(le.Uint32(b[metaOffDSz:])),
	}
	card := int(le.Uint32(b[metaOffCard:]))
	// Every entry costs at least metaEntryFixed bytes; a larger count is a
	// corrupt chunk and must not drive allocation.
	if card > len(b)/metaEntryFixed+1 {
		return nil, fmt.Errorf("metric: metadata claims %d entries in %d bytes", card, len(b))
	}
	instance, schemaPos, err := getBytes(b, metaOffStr)
	if err != nil {
		return nil, err
	}
	m.Instance = string(instance)
	name, entries, err := getBytes(b, schemaPos)
	if err != nil {
		return nil, err
	}

	// One pass proves the chunk's structure, hashes exactly the bytes that
	// make the layout (length prefixes keep the framing unambiguous) and
	// collects the component IDs, which belong to the instance.
	var h maphash.Hash
	h.SetSeed(interned.seed)
	h.Write(b[metaOffCard:metaOffStr])
	h.Write(b[schemaPos:entries])
	for i, pos := 0, entries; i < card; i++ {
		e, next, err := nextEntry(b, pos)
		if err != nil {
			return nil, fmt.Errorf("metric: entry %d: %w", i, err)
		}
		h.Write(b[pos : pos+2+len(e.name)])
		h.Write(b[next-5 : next]) // type and offset
		if i == 0 {
			m.CompIDs = []uint64{e.compID}
		} else if len(m.CompIDs) > 1 || e.compID != m.CompIDs[0] {
			for len(m.CompIDs) < i {
				m.CompIDs = append(m.CompIDs, m.CompIDs[0])
			}
			m.CompIDs = append(m.CompIDs, e.compID)
		}
		pos = next
	}
	sum := h.Sum64()
	describes := func(s *Schema) bool { return s.describes(b, name, entries, card, m.DataSize) }
	if m.Schema = interned.resolve(sum, describes, nil, false); m.Schema == nil {
		s, err := buildSchema(b, name, entries, card, m.DataSize)
		if err != nil {
			return nil, fmt.Errorf("metric: set %q: %w: %v", m.Instance, ErrBadLayout, err)
		}
		s.hash = sum
		m.Schema = interned.resolve(sum, s.Equal, s, false)
	}
	return m, nil
}

// describes reports whether the card entries at pos of a chunk ParseMeta
// has walked spell out exactly this schema.
func (s *Schema) describes(b, name []byte, pos, card, dataSize int) bool {
	if string(name) != s.name || card != len(s.defs) || dataSize != s.dataSize {
		return false
	}
	for i, d := range s.defs {
		e, next, _ := nextEntry(b, pos)
		if string(e.name) != d.Name || e.typ != d.Type || e.off != s.offsets[i] {
			return false
		}
		pos = next
	}
	return true
}

// buildSchema builds the frozen schema the entries at pos of a chunk
// ParseMeta has walked spell out, refusing what AddMetric refuses and
// offsets or a data size other than the ones the types imply.
func buildSchema(b, name []byte, pos, card, dataSize int) (*Schema, error) {
	if card == 0 {
		return nil, errors.New("no metrics")
	}
	s := &Schema{
		name: string(name), dataSize: dataHeaderSize, index: make(map[string]int, card),
		defs: make([]MetricDef, 0, card), offsets: make([]uint32, 0, card),
	}
	for i := 0; i < card; i++ {
		e, next, _ := nextEntry(b, pos)
		if _, err := s.AddMetric(string(e.name), e.typ); err != nil {
			return nil, err
		}
		if s.offsets[i] != e.off {
			return nil, fmt.Errorf("offset mismatch for %q: computed %d, remote %d", e.name, s.offsets[i], e.off)
		}
		pos = next
	}
	if s.dataSize != dataSize {
		return nil, fmt.Errorf("data size mismatch: computed %d, remote %d", s.dataSize, dataSize)
	}
	s.frozen = true
	return s, nil
}

// NewMirror builds a local mirror Set from parsed remote metadata, as the
// aggregator does after a successful lookup (flow {c} in Fig. 2 of the
// paper). The mirror's data chunk starts zeroed and inconsistent; the first
// completed update fills it.
func (m *Meta) NewMirror(opts ...Option) (*Set, error) {
	return m.NewMirrorNamed(m.Instance, opts...)
}

// NewMirrorNamed is NewMirror with an explicit local instance name. Tiered
// aggregators use it to re-export mirrors under the paper's <producer>/<set>
// convention: the mirror's directory entry, query series, and storage rows
// all carry the qualified name while the remote MGN/DGN generations still
// propagate verbatim.
//
// The mirror owns its two chunks and its change journal and shares the
// canonical Schema, holding a reference on it until Delete.
func (m *Meta) NewMirrorNamed(instance string, opts ...Option) (*Set, error) {
	s, err := New(instance, m.Schema, opts...)
	if err != nil {
		return nil, err
	}
	s.schema = interned.resolve(m.Schema.hash, m.Schema.Equal, m.Schema, true)
	s.local = false
	// Stamp the remote MGN into the mirror's metadata and per-metric comp
	// IDs so CompID and LoadData validation reflect the remote set.
	le.PutUint64(s.meta[metaOffMGN:], m.MGN)
	le.PutUint64(s.data[offMGN:], m.MGN)
	for i, off := range s.entryOff {
		le.PutUint64(s.meta[off+entryCompOff:], m.CompIDs[min(i, len(m.CompIDs)-1)])
	}
	// A fresh mirror holds no valid data yet.
	le.PutUint64(s.data[offFlags:], 0)
	return s, nil
}

// Row is a flattened view of a consistent set sample, as handed to storage
// plugins.
type Row struct {
	Time     time.Time
	Instance string
	Schema   string
	CompID   uint64
	Names    []string
	Values   []Value
}

// Snapshot extracts a storage Row from the set's current contents. The
// CompID is taken from the first metric (the common case is a single
// per-node component ID).
func (s *Set) Snapshot() Row {
	n := s.Card()
	r := Row{
		Time:     s.Timestamp(),
		Instance: s.name,
		Schema:   s.schema.Name(),
		CompID:   s.CompID(0),
		Names:    make([]string, n),
		Values:   make([]Value, n),
	}
	for i := 0; i < n; i++ {
		r.Names[i] = s.MetricName(i)
		r.Values[i] = s.Value(i)
	}
	return r
}
