package metric

import "errors"

// Delta update payload (all little-endian), the wire form of "ship only
// the metrics whose values changed since the DGN the consumer already
// acknowledges". Produced by Set.AppendDelta on the serving side and
// applied to a consumer's pull buffer by Meta.ApplyDelta:
//
//	[0:40)  the full 40-byte data chunk header (MGN, DGN, flags,
//	        timestamp seconds, timestamp microseconds) as of the snapshot
//	[40:44) u32 count of changed-metric entries
//	then per entry:
//	        u16 metric index (schema order) | value bytes at the metric's
//	        natural width
//
// The header always travels, so a delta with zero entries is still a
// complete sample observation: the consumer sees the advanced DGN, the
// consistent flag, and the fresh timestamp for the cost of 44 bytes.
//
// Correctness rests on the per-metric change journal: every mutation of a
// set's data chunk — SetValue, a SetValues batch, or LoadData replacing a
// mirror's chunk — records the DGN at which each metric's stored bits last
// changed. A delta encoded against ANY base DGN the consumer truthfully
// holds is therefore exact; there is no tracking window to fall out of and
// no "DGN gap" to resynchronize. Fallback to a full chunk remains for
// unknown bases (sinceDGN ahead of the set — a restarted peer), for sets
// too wide for u16 indexing, and whenever the delta would not beat the
// full chunk on the wire.
const (
	deltaHeaderSize = dataHeaderSize + 4
	deltaCountOff   = dataHeaderSize

	// deltaMaxCard bounds encodable schemas: entry indexes are u16.
	deltaMaxCard = 1 << 16
)

// Delta decode errors. Static so the apply path stays allocation-free on
// hostile input (it runs per pull on the update hot path and is fuzzed).
var (
	ErrDeltaTruncated = errors.New("metric: truncated delta update")
	ErrDeltaBadIndex  = errors.New("metric: delta entry index out of range")
	ErrDeltaTrailing  = errors.New("metric: trailing bytes after delta entries")
	ErrDeltaBufSize   = errors.New("metric: delta apply buffer has wrong size")
	ErrDeltaWrongMGN  = errors.New("metric: delta header MGN does not match metadata")
)

// AppendDelta appends a delta update payload — the changes since sinceDGN —
// to dst and reports whether a delta was encoded. ok is false when the set
// cannot honor the base (sinceDGN is ahead of the set's DGN: the consumer's
// state belongs to a previous incarnation), when the schema is too wide for
// u16 entry indexes, or when the encoded delta would be at least as large
// as the full data chunk; callers then fall back to a full-chunk copy. On
// ok, dst grew by less than DataSize bytes.
//
//ldms:hotpath
func (s *Set) AppendDelta(dst []byte, sinceDGN uint64) (out []byte, ok bool) {
	card := s.schema.Card()
	if card >= deltaMaxCard {
		return dst, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	full := len(s.data)
	if full == 0 {
		// Deleted under a peer that still holds a handle: no base to diff.
		return dst, false
	}
	if sinceDGN > le.Uint64(s.data[offDGN:]) {
		return dst, false
	}
	base := len(dst)
	dst = append(dst, s.data[:dataHeaderSize]...)
	dst = le.AppendUint32(dst, 0) // count, patched below
	size, count := deltaHeaderSize, 0
	for i := 0; i < card; i++ {
		if s.changed[i] <= sinceDGN {
			continue
		}
		t := s.schema.defs[i].Type
		size += 2 + t.Size()
		if size >= full {
			return dst[:base], false
		}
		dst = le.AppendUint16(dst, uint16(i))
		dst = appendBits(dst, t, getBits(s.data, s.schema.offsets[i], t))
		count++
	}
	le.PutUint32(dst[base+deltaCountOff:], uint32(count))
	return dst, true
}

// appendBits appends a value's raw stored representation at its natural
// width.
//
//ldms:hotpath
func appendBits(dst []byte, t Type, bits uint64) []byte {
	switch t.Size() {
	case 1:
		return append(dst, byte(bits))
	case 2:
		return le.AppendUint16(dst, uint16(bits))
	case 4:
		return le.AppendUint32(dst, uint32(bits))
	default:
		return le.AppendUint64(dst, bits)
	}
}

// ApplyDelta patches a pull buffer, which must hold the data chunk the
// delta was encoded against (the consumer's acknowledged base state), into
// the sender's current chunk: each entry's value bytes land at the metric's
// offset, then the carried header replaces the buffer's. Types and offsets
// come from the schema, whose construction proved every value inside a chunk
// of its data size, so a buffer of exactly that size bounds every write; the
// payload itself is validated entry by entry, and hostile or truncated ones
// error without panicking or writing out of range.
//
//ldms:hotpath
func (m *Meta) ApplyDelta(buf, delta []byte) error {
	defs, offs := m.Schema.defs, m.Schema.offsets
	if len(buf) != m.Schema.dataSize {
		return ErrDeltaBufSize
	}
	if len(delta) < deltaHeaderSize {
		return ErrDeltaTruncated
	}
	// A delta is only meaningful against the metadata it was encoded under:
	// a different MGN in the carried header means the payload describes some
	// other layout (a cross-wired response or a hostile frame), and applying
	// it would silently corrupt the chunk.
	if le.Uint64(delta[offMGN:]) != m.MGN {
		return ErrDeltaWrongMGN
	}
	count := int(le.Uint32(delta[deltaCountOff:]))
	// Each entry costs at least 3 bytes (u16 index + 1 value byte); a count
	// beyond that is corrupt and must not drive the loop.
	if count > (len(delta)-deltaHeaderSize)/3 {
		return ErrDeltaTruncated
	}
	pos := deltaHeaderSize
	for k := 0; k < count; k++ {
		if pos+2 > len(delta) {
			return ErrDeltaTruncated
		}
		i := int(le.Uint16(delta[pos:]))
		pos += 2
		if i >= len(defs) {
			return ErrDeltaBadIndex
		}
		sz, off := defs[i].Type.Size(), int(offs[i])
		if pos+sz > len(delta) {
			return ErrDeltaTruncated
		}
		copy(buf[off:off+sz], delta[pos:pos+sz])
		pos += sz
	}
	if pos != len(delta) {
		return ErrDeltaTrailing
	}
	copy(buf[:dataHeaderSize], delta[:dataHeaderSize])
	return nil
}
