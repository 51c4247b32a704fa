package transport

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Wire framing shared by the sock and rdma transports:
//
//	u32 payload length | u8 message type | u64 request id | payload
//
// The top bit of the message type (compressFlag) marks a deflate-compressed
// payload; the low 7 bits are the message type proper.
//
// Request/response payloads:
//
//	dirReq          (empty, or a caps block from a capability-aware peer)
//	dirResp         u32 count, then count length-prefixed names, then an
//	                optional caps block
//	lookupReq       length-prefixed instance name
//	lookupResp      u32 set handle, then metadata chunk bytes
//	updateReq       u32 set handle
//	updateResp      data chunk bytes
//	errResp         length-prefixed message
const (
	msgDirReq = iota + 1
	msgDirResp
	msgLookupReq
	msgLookupResp
	msgUpdateReq
	msgUpdateResp
	msgErrResp
)

// maxFrame bounds a frame payload; metric sets are tens of kB, so 16 MB is
// generous and protects against corrupt length words.
const maxFrame = 16 << 20

const frameHeader = 4 + 1 + 8

var wireLE = binary.LittleEndian

// Frame buffer free lists. Aggregation pulls move one data chunk per
// request at a steady rate, so without recycling the hot path allocates a
// chunk-sized buffer per update on each half of the connection. Channel
// free lists (rather than sync.Pool) keep Get/Put allocation-free for the
// []byte values.
//
// Buffers are split into two size classes so the small, very hot request
// frames (update requests are 4–13 bytes) never contend with chunk-sized
// response buffers, and the total pooled bytes are capped: with 10k
// connections a single count-bounded list either thrashes (too small) or
// pins worst-case-sized buffers forever (too large). Oversized one-off
// buffers are never pooled at all.
const (
	bufClassSmall  = 4 << 10  // boundary between the two free lists
	bufPoolMaxItem = 1 << 20  // buffers above this are never pooled
	bufPoolBytes   = 12 << 20 // cap on total pooled bytes across both lists
)

var (
	bufFreeSmall = make(chan []byte, 1024)
	bufFreeLarge = make(chan []byte, 256)
	bufPooled    atomic.Int64 // bytes currently parked in the free lists
)

// getBuf returns a length-n buffer, reusing a recycled one when its
// capacity suffices.
func getBuf(n int) []byte {
	free := bufFreeSmall
	if n > bufClassSmall {
		free = bufFreeLarge
	}
	select {
	case b := <-free:
		bufPooled.Add(-int64(cap(b)))
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// putBuf recycles a buffer obtained from getBuf (or any buffer the caller
// has finished with). Callers must not retain references into b afterward.
func putBuf(b []byte) {
	c := cap(b)
	if c == 0 || c > bufPoolMaxItem {
		return
	}
	if bufPooled.Load()+int64(c) > bufPoolBytes {
		return
	}
	free := bufFreeSmall
	if c > bufClassSmall {
		free = bufFreeLarge
	}
	select {
	case free <- b[:0]:
		bufPooled.Add(int64(c))
	default:
	}
}

// growTo extends b to length n, reallocating through the buffer pool
// when its capacity falls short (the original is recycled).
func growTo(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := getBuf(n)
	copy(nb, b)
	putBuf(b)
	return nb
}

// writeFrame sends one frame. Callers serialize access to w. The header is
// built in the writer's own free space, so a frame costs no allocation.
func writeFrame(w *bufio.Writer, typ byte, reqID uint64, payload []byte) error {
	hdr := wireLE.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	hdr = wireLE.AppendUint64(append(hdr, typ), reqID)
	//ldms:errok a bufio.Writer's error sticks: the payload write returns it
	w.Write(hdr)
	_, err := w.Write(payload)
	return err
}

// frameReadChunk is the largest buffer readFrame allocates before any
// payload bytes have actually arrived. Larger frames grow the buffer as
// data lands, so a corrupt or hostile length word cannot force a
// worst-case allocation up front.
const frameReadChunk = 64 << 10

// readPayload reads exactly n payload bytes, growing the buffer in chunks
// for large frames. On error the partially filled buffer is recycled.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= frameReadChunk {
		b := getBuf(n)
		if _, err := io.ReadFull(r, b); err != nil {
			putBuf(b)
			return nil, err
		}
		return b, nil
	}
	b := getBuf(frameReadChunk)
	filled := 0
	for filled < n {
		if filled == len(b) {
			grow := len(b) * 2
			if grow > n {
				grow = n
			}
			nb := getBuf(grow)
			copy(nb, b[:filled])
			putBuf(b)
			b = nb
		}
		m, err := io.ReadFull(r, b[filled:])
		filled += m
		if err != nil {
			putBuf(b)
			return nil, err
		}
	}
	return b, nil
}

// readFrame receives one frame. The returned type still carries the
// compression flag, if any; callers pass it through maybeInflate before
// dispatching. The header is read in place in r's buffer (a stream ending
// inside it is io.ErrUnexpectedEOF, as io.ReadFull called it).
func readFrame(r *bufio.Reader) (typ byte, reqID uint64, payload []byte, err error) {
	hdr, err := r.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	n := wireLE.Uint32(hdr[0:])
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	typ, reqID = hdr[4], wireLE.Uint64(hdr[5:])
	//ldms:errok Discard of bytes Peek just returned cannot fail
	r.Discard(frameHeader)
	if n > 0 {
		// Recycled via putBuf once the payload is consumed (request payloads
		// after dispatch, update response payloads after the copy to dst).
		if payload, err = readPayload(r, int(n)); err != nil {
			return 0, 0, nil, err
		}
	}
	return typ, reqID, payload, nil
}

// maxWireString bounds u16 length-prefixed strings. Longer names used to
// truncate the length prefix silently and corrupt the rest of the frame.
const maxWireString = 1<<16 - 1

// errStringTooLong reports a name too large for the u16 wire encoding.
var errStringTooLong = errors.New("transport: string exceeds 64 KiB wire limit")

// appendString appends a u16 length-prefixed string. Strings beyond the
// u16 range are an error: encoding them would corrupt the frame.
func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxWireString {
		return b, errStringTooLong
	}
	b = wireLE.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// clipString truncates s to the wire string limit, for contexts (error
// messages) where clipping beats failing.
func clipString(s string) string {
	if len(s) > maxWireString {
		return s[:maxWireString]
	}
	return s
}

// readString decodes a u16 length-prefixed string at pos.
func readString(b []byte, pos int) (string, int, error) {
	if pos+2 > len(b) {
		return "", 0, fmt.Errorf("transport: truncated string length")
	}
	n := int(wireLE.Uint16(b[pos:]))
	if pos+2+n > len(b) {
		return "", 0, fmt.Errorf("transport: truncated string")
	}
	return string(b[pos+2 : pos+2+n]), pos + 2 + n, nil
}

// Capability negotiation. A capability-aware client appends a caps block to
// its dir request payload (legacy servers ignore dir request payloads); a
// capability-aware server appends a caps block after the names in its dir
// response (legacy clients stop reading after the last name). Both sides
// therefore learn the peer's capabilities on the first dir exchange of a
// connection — which every consumer performs before any lookup or update —
// and peers that never produce a block are treated as legacy in both
// directions. The block is a magic word plus a bit set:
//
//	u32 capsMagic | u32 capability bits
const (
	capDelta    = 1 << 0 // peer serves delta update requests
	capDict     = 1 << 1 // peer speaks dictionary-coded dir/lookup traffic
	capCompress = 1 << 2 // peer accepts deflate-compressed frames
	capTrace    = 1 << 3 // peer speaks trace-block-prefixed update responses ("TRC1")

	capsMagic = 0x43505331 // "CPS1"
	capsLen   = 8
)

// capsAll is what this implementation offers by default.
const capsAll = capDelta | capDict | capCompress | capTrace

// appendCaps appends a caps block.
func appendCaps(b []byte, caps uint32) []byte {
	b = wireLE.AppendUint32(b, capsMagic)
	return wireLE.AppendUint32(b, caps)
}

// parseCaps reads a caps block at pos, if one is present.
func parseCaps(b []byte, pos int) (uint32, bool) {
	if pos+capsLen > len(b) || wireLE.Uint32(b[pos:]) != capsMagic {
		return 0, false
	}
	return wireLE.Uint32(b[pos+4:]), true
}

// encodeDirResp serializes a name list, then a caps block when the server
// advertises capabilities (caps != 0).
func encodeDirResp(names []string, caps uint32) ([]byte, error) {
	b := wireLE.AppendUint32(nil, uint32(len(names)))
	var err error
	for _, n := range names {
		if b, err = appendString(b, n); err != nil {
			return nil, err
		}
	}
	if caps != 0 {
		b = appendCaps(b, caps)
	}
	return b, nil
}

// decodeDirResp parses a name list and any trailing caps block.
func decodeDirResp(b []byte) ([]string, uint32, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("transport: short dir response")
	}
	count := int(wireLE.Uint32(b))
	// Each name costs at least its 2-byte length prefix; a count beyond
	// that is a corrupt or hostile frame (and must not drive allocation).
	if count > (len(b)-4)/2 {
		return nil, 0, fmt.Errorf("transport: dir response claims %d names in %d bytes", count, len(b))
	}
	names := make([]string, 0, count)
	pos := 4
	for i := 0; i < count; i++ {
		s, next, err := readString(b, pos)
		if err != nil {
			return nil, 0, err
		}
		names = append(names, s)
		pos = next
	}
	caps, _ := parseCaps(b, pos)
	return names, caps, nil
}

// msgHello announces the dialing peer's name for reversed-direction pulls
// (connection initiation from either side, §IV-B).
const msgHello = msgErrResp + 1

// msgDirGenReq/msgDirGenResp poll the peer registry's directory generation
// (a u64 counter bumped on set add/remove). Tiered aggregators check it once
// per pass and only re-fetch the full directory when it moved, so membership
// changes propagate one pull interval per hop without per-pass dir traffic.
//
//	dirGenReq   (empty)
//	dirGenResp  u64 generation
const (
	msgDirGenReq  = msgHello + 1
	msgDirGenResp = msgHello + 2
)

// Wire-efficiency message types, used only after the peer advertised the
// matching capability:
//
//	deltaUpdateReq   u32 set handle | u64 base DGN the requester holds
//	deltaUpdateResp  u8 kind, then a full data chunk (kind 0) or a delta
//	                 update payload (kind 1, decoded by metric.ApplyDelta)
//	dirDictResp      dictionary-coded name list (see encodeDirDictResp),
//	                 then a caps block
//	lookupDictReq    u32 dictionary id of the instance name
const (
	msgDeltaUpdateReq  = msgDirGenResp + 1
	msgDeltaUpdateResp = msgDirGenResp + 2
	msgDirDictResp     = msgDirGenResp + 3
	msgLookupDictReq   = msgDirGenResp + 4
)

// Delta update response kinds.
const (
	deltaKindFull  = 0 // payload is a full data chunk (server fell back)
	deltaKindDelta = 1 // payload is a metric delta update
)

// Trace blocks. With capTrace negotiated by both peers, every update and
// delta-update response payload is prefixed with
//
//	u16 trace length | trace block ("TRC1", see obs.AppendHops)
//
// followed by the exact legacy payload bytes. The block rides in front —
// not behind — because delta payloads are validated to their exact length
// by metric.ApplyDelta, so trailing bytes would be rejected. A zero trace
// length is valid (the server has no hop chain for the set). Peers that
// never advertised capTrace see byte-identical legacy payloads.
const traceLenPrefix = 2

// traceSlack is the buffer headroom reserved for a trace block ahead of a
// data chunk: obs.MaxTraceHops hops of worst-case realistic names stay
// well inside it, and Server.appendTraceFor drops oversized blocks.
const traceSlack = 2048

// splitTracePrefix slices a trace-prefixed payload into its trace block
// and the legacy payload bytes.
func splitTracePrefix(b []byte) (trace, rest []byte, err error) {
	if len(b) < traceLenPrefix {
		return nil, nil, errBadTracePrefix
	}
	n := int(wireLE.Uint16(b))
	if traceLenPrefix+n > len(b) {
		return nil, nil, errBadTracePrefix
	}
	return b[traceLenPrefix : traceLenPrefix+n], b[traceLenPrefix+n:], nil
}

var errBadTracePrefix = errors.New("transport: malformed trace prefix")

// String dictionaries. Dir and lookup traffic repeats the same instance
// names every pass; with capDict negotiated the serving side assigns each
// name a sequential u32 id the first time it is sent and ships bare ids
// afterward, and the consuming side mirrors the table and references names
// by id in lookups. Tables are per connection and per direction, so a
// reconnect naturally resets both sides.
//
// Dictionary-coded name list:
//
//	u32 count, then per name:
//	u8 tag — 0 references an existing id, 1 defines the next id
//	u32 id (definitions must use the next sequential id)
//	if tag 1: u16 length | name bytes
const (
	dictTagRef = 0
	dictTagDef = 1
)

var (
	errDictBadTag = errors.New("transport: bad dictionary entry tag")
	errDictBadID  = errors.New("transport: dictionary id out of sequence")
)

// sendDict is the serving half's table: name → id, plus the reverse slice
// for resolving dictionary-coded lookup requests.
type sendDict struct {
	ids   map[string]uint32
	names []string
}

// id returns the name's dictionary id, assigning the next sequential id on
// first use; fresh reports whether this call defined it.
func (d *sendDict) id(s string) (id uint32, fresh bool) {
	if i, ok := d.ids[s]; ok {
		return i, false
	}
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	id = uint32(len(d.names))
	d.ids[s] = id
	d.names = append(d.names, s)
	return id, true
}

// name resolves a dictionary id from a lookup request.
func (d *sendDict) name(id uint32) (string, bool) {
	if int(id) >= len(d.names) {
		return "", false
	}
	return d.names[id], true
}

// recvDict is the consuming half's mirror of the peer's sendDict, with a
// reverse index so lookups can reference names by id.
type recvDict struct {
	names []string
	ids   map[string]uint32
}

// encodeDirDictResp serializes a dictionary-coded name list followed by a
// caps block, defining ids for names the dictionary has not sent yet.
func encodeDirDictResp(names []string, d *sendDict, caps uint32) ([]byte, error) {
	b := wireLE.AppendUint32(nil, uint32(len(names)))
	var err error
	for _, n := range names {
		id, fresh := d.id(n)
		if fresh {
			b = append(b, dictTagDef)
			b = wireLE.AppendUint32(b, id)
			if b, err = appendString(b, n); err != nil {
				return nil, err
			}
		} else {
			b = append(b, dictTagRef)
			b = wireLE.AppendUint32(b, id)
		}
	}
	if caps != 0 {
		b = appendCaps(b, caps)
	}
	return b, nil
}

// decodeDirDictResp parses a dictionary-coded name list, extending the
// mirror table with definitions, and returns the names plus any caps block.
// Sequential-id enforcement means a hostile peer cannot make the table
// sparse or force large allocations.
func decodeDirDictResp(b []byte, d *recvDict) ([]string, uint32, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("transport: short dict dir response")
	}
	count := int(wireLE.Uint32(b))
	// Every entry costs at least the tag and id bytes.
	if count > (len(b)-4)/5 {
		return nil, 0, fmt.Errorf("transport: dict dir response claims %d names in %d bytes", count, len(b))
	}
	names := make([]string, 0, count)
	pos := 4
	for i := 0; i < count; i++ {
		if pos+5 > len(b) {
			return nil, 0, fmt.Errorf("transport: truncated dict entry")
		}
		tag := b[pos]
		id := wireLE.Uint32(b[pos+1:])
		pos += 5
		switch tag {
		case dictTagRef:
			if int(id) >= len(d.names) {
				return nil, 0, errDictBadID
			}
			names = append(names, d.names[id])
		case dictTagDef:
			if int(id) != len(d.names) {
				return nil, 0, errDictBadID
			}
			s, next, err := readString(b, pos)
			if err != nil {
				return nil, 0, err
			}
			pos = next
			if d.ids == nil {
				d.ids = make(map[string]uint32)
			}
			d.ids[s] = id
			d.names = append(d.names, s)
			names = append(names, s)
		default:
			return nil, 0, errDictBadTag
		}
	}
	caps, _ := parseCaps(b, pos)
	return names, caps, nil
}

// Frame compression. With capCompress negotiated either side may set the
// top bit of the message type; the payload is then
//
//	u32 raw length | deflate stream
//
// Compression is applied per frame, only when the raw payload clears
// compressMin (tiny frames inflate under deflate's block overhead) and only
// when deflate actually wins; the receiver inflates whenever the bit is
// set, so the sender stays free to skip compression frame by frame.
const (
	compressFlag      = 0x80
	compressMin       = 512
	deflateBackoffMax = 256 // caps servedSet's back-off, in update responses
)

// frameDeflater is a per-connection compressor; callers serialize access
// (senders already hold the connection write lock).
type frameDeflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

// compress returns the compressed form of payload and true, or payload
// unchanged and false when compression would not shrink it (the caller has
// already turned away payloads under compressMin). The returned slice aliases
// the deflater's scratch buffer and is only valid until the next call.
func (d *frameDeflater) compress(payload []byte) ([]byte, bool) {
	d.buf.Reset()
	var hdr [4]byte
	wireLE.PutUint32(hdr[:], uint32(len(payload)))
	d.buf.Write(hdr[:])
	if d.fw == nil {
		d.fw, _ = flate.NewWriter(&d.buf, flate.BestSpeed)
	} else {
		d.fw.Reset(&d.buf)
	}
	if _, err := d.fw.Write(payload); err != nil {
		return payload, false
	}
	if err := d.fw.Close(); err != nil {
		return payload, false
	}
	if d.buf.Len() >= len(payload) {
		return payload, false
	}
	return d.buf.Bytes(), true
}

// frameInflater pools decompressors; flate readers carry ~40 kB of window
// state worth reusing across frames and connections.
type frameInflater struct {
	br bytes.Reader
	fr io.ReadCloser
}

var inflaterPool = sync.Pool{New: func() any { return new(frameInflater) }}

var errBadCompressedFrame = errors.New("transport: malformed compressed frame")

// maybeInflate strips the compression flag, inflating the payload when it
// is set. The compressed payload is recycled; the returned payload comes
// from the frame buffer pool either way.
func maybeInflate(typ byte, payload []byte) (byte, []byte, error) {
	if typ&compressFlag == 0 {
		return typ, payload, nil
	}
	typ &^= compressFlag
	if len(payload) < 4 {
		putBuf(payload)
		return 0, nil, errBadCompressedFrame
	}
	rawLen := wireLE.Uint32(payload)
	if rawLen > maxFrame {
		putBuf(payload)
		return 0, nil, errBadCompressedFrame
	}
	fi := inflaterPool.Get().(*frameInflater)
	fi.br.Reset(payload[4:])
	if fi.fr == nil {
		fi.fr = flate.NewReader(&fi.br)
	} else if err := fi.fr.(flate.Resetter).Reset(&fi.br, nil); err != nil {
		putBuf(payload)
		inflaterPool.Put(fi)
		return 0, nil, err
	}
	out, err := readPayload(fi.fr, int(rawLen))
	if err == nil {
		// The stream must end exactly at rawLen.
		var one [1]byte
		if n, _ := fi.fr.Read(one[:]); n != 0 {
			putBuf(out)
			out, err = nil, errBadCompressedFrame
		}
	}
	putBuf(payload)
	inflaterPool.Put(fi)
	if err != nil {
		return 0, nil, errBadCompressedFrame
	}
	return typ, out, nil
}
