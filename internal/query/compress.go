package query

// Gorilla-style window-point compression (Facebook's in-memory TSDB,
// VLDB'15): delta-of-delta timestamp encoding plus XOR float/value
// encoding, bit-packed. A compressed window keeps each set's newest
// blockPoints samples in the same uncompressed set block the plain window
// uses — so the latest sample stays O(1) readable and the per-sample
// append is a plain row write — plus a ring of sealed blocks behind it.
// Every blockPoints samples the set block is re-encoded, one column per
// metric, into the oldest sealed slot, reusing its byte buffers, so the
// steady-state append path performs zero allocations.
//
// The encoding is lossless on the raw 64-bit value representation
// (metric.Value.Bits), so integer counters and float gauges round-trip
// bit-exactly and virtual-clock runs stay byte-identical with
// compression enabled.

import (
	"math/bits"

	"goldms/internal/metric"
)

// blockPoints is how many samples a sealed block holds (and the set
// block's capacity in compressed mode). 128 points amortizes the
// per-column fixed cost (one raw 128-bit first point) to ~1 bit/point.
const blockPoints = 128

// sealedBlock is one immutable compressed run of exactly blockPoints
// samples: one encoded (timestamp, value) stream per metric. The buffers
// are reused across seals once the ring wraps.
type sealedBlock struct {
	maxTS int64 // latest stamp inside; a cut past it skips the decode
	cols  [][]byte
}

// sealedRing is a set's compressed history: a fixed ring of sealed
// blocks, oldest overwritten, fed from the set block in front of it.
type sealedRing struct {
	blocks  []sealedBlock
	next    int // slot the next seal writes
	n       int // sealed blocks live (saturates at len(blocks))
	pending int // newest set-block samples not sealed yet (< blockPoints)
}

// newSealedRing sizes the ring so sealed blocks alone cover points
// samples of card metrics.
func newSealedRing(points, card int) *sealedRing {
	r := &sealedRing{blocks: make([]sealedBlock, (points+blockPoints-1)/blockPoints)}
	for i := range r.blocks {
		r.blocks[i].cols = make([][]byte, card)
	}
	return r
}

// committed accounts for one sample committed to the set block b and,
// every blockPoints-th time, seals b's contents. b is left as it is (its
// newest row keeps serving Latest); pending says how much of it is not
// behind a seal yet.
//
//ldms:hotpath per-sample window append; TestObserveAllocs guards 0 allocs
func (r *sealedRing) committed(b *block) {
	if r.pending++; r.pending == blockPoints {
		r.seal(b)
		r.pending = 0
	}
}

// seal compresses the full set block into the next slot, column by
// column. The slot's buffers are truncated and reused, so once the ring
// has wrapped no allocation happens here either.
//
//ldms:hotpath amortized per-block encode on the window append path
func (r *sealedRing) seal(b *block) {
	blk := &r.blocks[r.next]
	blk.maxTS = b.ts[0]
	for _, ts := range b.ts {
		blk.maxTS = max(blk.maxTS, ts)
	}
	for col := range blk.cols {
		w := bitWriter{buf: blk.cols[col][:0]}
		var e genc
		for i := 0; i < blockPoints; i++ {
			k := b.slot(i, blockPoints)
			e.encode(&w, b.ts[k], b.vals[k*b.card+col])
		}
		w.flush()
		blk.cols[col] = w.buf
	}
	r.next++
	if r.next == len(r.blocks) {
		r.next = 0
	}
	if r.n < len(r.blocks) {
		r.n++
	}
}

// bytes returns the sealed footprint: compressed column bytes plus the
// per-column slice headers.
func (r *sealedRing) bytes() int {
	total := 0
	for i := range r.blocks {
		total += 24 * len(r.blocks[i].cols)
		for _, buf := range r.blocks[i].cols {
			total += cap(buf)
		}
	}
	return total
}

// appendSince decodes column col's points stamped at or after since,
// oldest first, into out, leaving out the skip oldest sealed samples.
// Blocks wholly older than the bound are skipped without decoding.
func (r *sealedRing) appendSince(out []Point, col int, since int64, t metric.Type, skip int) []Point {
	for i := 0; i < r.n; i++ {
		k := r.next - r.n + i
		if k < 0 {
			k += len(r.blocks)
		}
		if skip >= blockPoints {
			skip -= blockPoints
			continue
		}
		if blk := &r.blocks[k]; blk.maxTS >= since {
			out = decodeColumn(out, blk.cols[col], skip, since, t)
		}
		skip = 0
	}
	return out
}

// decodeColumn appends one sealed column's points at or after since to
// out, leaving out its first skip.
func decodeColumn(out []Point, buf []byte, skip int, since int64, t metric.Type) []Point {
	r := bitReader{buf: buf}
	var d gdec
	for i := 0; i < blockPoints; i++ {
		ts, bitsv := d.decode(&r)
		if i >= skip && ts >= since {
			out = append(out, makePoint(ts, bitsv, t))
		}
	}
	return out
}

// ---- bit-level writer/reader -------------------------------------------

// bitWriter packs bits MSB-first into a byte slice.
type bitWriter struct {
	buf []byte
	acc uint64 // pending bits in the low `n` positions
	n   uint   // pending bit count (< 8 between calls)
}

// writeBits appends the low nb bits of v, MSB first. Wide writes split
// so the pending accumulator (< 8 bits between calls) never overflows.
//
//ldms:hotpath inner loop of the window block encoder
func (w *bitWriter) writeBits(v uint64, nb uint) {
	if nb > 32 {
		w.writeBits(v>>32, nb-32)
		nb = 32
	}
	w.acc = w.acc<<nb | (v & (1<<nb - 1))
	w.n += nb
	for w.n >= 8 {
		w.n -= 8
		w.buf = append(w.buf, byte(w.acc>>w.n))
	}
}

// flush pads the pending bits out to a byte boundary with zeros.
func (w *bitWriter) flush() {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.n)))
		w.acc, w.n = 0, 0
	}
}

// bitReader consumes bits MSB-first from a byte slice.
type bitReader struct {
	buf []byte
	pos uint // bit offset
}

func (r *bitReader) readBits(nb uint) uint64 {
	var v uint64
	for nb > 0 {
		b := r.buf[r.pos>>3]
		off := r.pos & 7
		avail := 8 - off
		take := avail
		if take > nb {
			take = nb
		}
		v = v<<take | uint64((b>>(avail-take))&((1<<take)-1))
		r.pos += take
		nb -= take
	}
	return v
}

// ---- streaming point codec ---------------------------------------------

// genc is the per-block encoder state: previous timestamp/delta for
// delta-of-delta, previous value bits and XOR window for value encoding.
type genc struct {
	started   bool
	prevTS    int64
	prevDelta int64
	prevBits  uint64
	prevLead  uint
	prevSig   uint // 0 = no reusable XOR window yet
}

// Timestamp delta-of-delta buckets (zigzag-coded): '0' for 0; '10'+14
// bits covers microsecond jitter at nanosecond resolution; '110'+28 bits
// covers ~±134 ms; '1110'+40 bits covers ~±9 min interval changes;
// '1111'+64 bits is the escape.
//
//ldms:hotpath per-point encode inside the amortized block seal
func (e *genc) encode(w *bitWriter, ts int64, v uint64) {
	if !e.started {
		e.started = true
		e.prevTS, e.prevBits = ts, v
		w.writeBits(uint64(ts), 64)
		w.writeBits(v, 64)
		return
	}
	delta := ts - e.prevTS
	dod := delta - e.prevDelta
	e.prevTS, e.prevDelta = ts, delta
	z := zigzag(dod)
	switch {
	case z == 0:
		w.writeBits(0, 1)
	case z < 1<<14:
		w.writeBits(0b10, 2)
		w.writeBits(z, 14)
	case z < 1<<28:
		w.writeBits(0b110, 3)
		w.writeBits(z, 28)
	case z < 1<<40:
		w.writeBits(0b1110, 4)
		w.writeBits(z, 40)
	default:
		w.writeBits(0b1111, 4)
		w.writeBits(z, 64)
	}

	xor := v ^ e.prevBits
	e.prevBits = v
	if xor == 0 {
		w.writeBits(0, 1)
		return
	}
	lead := uint(bits.LeadingZeros64(xor))
	trail := uint(bits.TrailingZeros64(xor))
	sig := 64 - lead - trail
	if e.prevSig > 0 && lead >= e.prevLead && trail >= 64-e.prevLead-e.prevSig {
		// Fits the previous meaningful-bit window: '10' + window bits.
		w.writeBits(0b10, 2)
		w.writeBits(xor>>(64-e.prevLead-e.prevSig), e.prevSig)
		return
	}
	// New window: '11' + 6-bit leading + 6-bit (sig-1) + sig bits. The
	// lead field is 6 bits (not Gorilla's 5) because integer counters
	// produce low-order XORs with 60+ leading zeros; a 5-bit clamp would
	// widen sig by ~30 bits per new window.
	e.prevLead, e.prevSig = lead, sig
	w.writeBits(0b11, 2)
	w.writeBits(uint64(lead), 6)
	w.writeBits(uint64(sig-1), 6)
	w.writeBits(xor>>trail, sig)
}

// gdec mirrors genc for decoding.
type gdec struct {
	started   bool
	prevTS    int64
	prevDelta int64
	prevBits  uint64
	prevLead  uint
	prevSig   uint
}

func (d *gdec) decode(r *bitReader) (int64, uint64) {
	if !d.started {
		d.started = true
		d.prevTS = int64(r.readBits(64))
		d.prevBits = r.readBits(64)
		return d.prevTS, d.prevBits
	}
	var z uint64
	if r.readBits(1) == 0 {
		z = 0
	} else if r.readBits(1) == 0 {
		z = r.readBits(14)
	} else if r.readBits(1) == 0 {
		z = r.readBits(28)
	} else if r.readBits(1) == 0 {
		z = r.readBits(40)
	} else {
		z = r.readBits(64)
	}
	d.prevDelta += unzigzag(z)
	d.prevTS += d.prevDelta

	if r.readBits(1) == 1 {
		if r.readBits(1) == 0 {
			// Previous meaningful-bit window.
			xor := r.readBits(d.prevSig) << (64 - d.prevLead - d.prevSig)
			d.prevBits ^= xor
		} else {
			lead := uint(r.readBits(6))
			sig := uint(r.readBits(6)) + 1
			xor := r.readBits(sig) << (64 - lead - sig)
			d.prevLead, d.prevSig = lead, sig
			d.prevBits ^= xor
		}
	}
	return d.prevTS, d.prevBits
}

// zigzag maps signed to unsigned so small magnitudes stay small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }
