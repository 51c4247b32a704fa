package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"goldms/internal/metric"
)

// The sock transport's connections are symmetric peers: either end may
// serve its registry and either end may issue dir/lookup/update requests
// on the same TCP connection. This implements §IV-B's "mechanisms to
// enable initiation of a connection from either side in order to support
// asymmetric network access": a sampler behind a connection barrier dials
// the aggregator (DialNamed, announcing its name with a hello message),
// and the aggregator pulls over the incoming connection exactly as if it
// had dialed out.
//
// Connection scaling: each connection runs one read goroutine over the Go
// netpoller (which is itself a shared epoll/kqueue event loop multiplexing
// every blocked read onto a handful of threads), so the per-connection
// cost is one goroutine stack plus the two bufio buffers. Those buffers
// are the knob that matters at 10k connections — ReadBuf/WriteBuf size
// them per factory (BenchmarkSockConnScale compares tunings), and the
// default is deliberately small because aggregation traffic is dominated
// by sub-kB delta frames.

// sockDefaultBuf is the default bufio size per direction. 4 KiB holds any
// delta frame and the typical data chunk while keeping 10k connections
// under ~80 MB of buffer memory.
const sockDefaultBuf = 4 << 10

// SockFactory implements the sock transport: the paper's TCP socket
// transport plugin. The zero value speaks the full protocol (delta
// updates, dictionaries, compression, traces) with capability-aware peers
// and plain LDMS wire protocol with everything else
// (testdata/legacy_peer.frames pins that plain image).
type SockFactory struct {
	// NoDelta / NoDict / NoCompress / NoTrace mask individual capabilities;
	// with all four set a connection advertises none.
	NoDelta    bool
	NoDict     bool
	NoCompress bool
	NoTrace    bool
	// ReadBuf / WriteBuf size the per-connection bufio buffers; 0 means
	// sockDefaultBuf.
	ReadBuf  int
	WriteBuf int
}

// caps returns the capability bits this factory's connections advertise.
func (sf SockFactory) caps() uint32 {
	c := uint32(capsAll)
	if sf.NoDelta {
		c &^= capDelta
	}
	if sf.NoDict {
		c &^= capDict
	}
	if sf.NoCompress {
		c &^= capCompress
	}
	if sf.NoTrace {
		c &^= capTrace
	}
	return c
}

// cfg resolves the factory's connection configuration.
func (sf SockFactory) cfg() sockCfg {
	rb, wb := sf.ReadBuf, sf.WriteBuf
	if rb <= 0 {
		rb = sockDefaultBuf
	}
	if wb <= 0 {
		wb = sockDefaultBuf
	}
	return sockCfg{caps: sf.caps(), rbuf: rb, wbuf: wb}
}

// sockCfg is the per-connection configuration resolved from a factory.
type sockCfg struct {
	caps       uint32
	rbuf, wbuf int
}

// Name returns "sock".
func (SockFactory) Name() string { return "sock" }

// MaxFanIn returns the paper's observed sock fan-in (~9,000:1).
func (SockFactory) MaxFanIn() int { return 9000 }

// Listen serves srv on a TCP address such as "127.0.0.1:0".
func (sf SockFactory) Listen(addr string, srv *Server) (Listener, error) {
	return listenTCP(addr, srv, nil, sf.cfg())
}

// ListenPeer serves srv and additionally reports each dialing peer that
// announces itself (via DialNamed) so the listener side can pull from it.
func (sf SockFactory) ListenPeer(addr string, srv *Server, onPeer func(name string, conn Conn)) (Listener, error) {
	return listenTCP(addr, srv, onPeer, sf.cfg())
}

// Dial connects to a TCP peer for pulling.
func (sf SockFactory) Dial(addr string) (Conn, error) {
	return dialTCP(addr, "", nil, sf.cfg())
}

// DialNamed connects to a TCP peer, announces name, and serves srv (which
// may be nil) over the same connection, so the remote side can pull from
// the dialer.
func (sf SockFactory) DialNamed(addr, name string, srv *Server) (Conn, error) {
	return dialTCP(addr, name, srv, sf.cfg())
}

// sockListener accepts TCP connections and runs a peer per connection.
type sockListener struct {
	ln     net.Listener
	srv    *Server
	cfg    sockCfg
	onPeer func(string, Conn)
	wg     sync.WaitGroup
	mu     sync.Mutex
	peers  map[*sockConn]struct{}
	closed bool
}

func listenTCP(addr string, srv *Server, onPeer func(string, Conn), cfg sockCfg) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	l := &sockListener{ln: ln, srv: srv, cfg: cfg, onPeer: onPeer, peers: make(map[*sockConn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound TCP address.
func (l *sockListener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting and closes all serving connections.
func (l *sockListener) Close() error {
	l.mu.Lock()
	l.closed = true
	for p := range l.peers {
		p.c.Close()
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *sockListener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		peer := newSockConn(c, l.srv, l.cfg)
		peer.onHello = l.onPeer
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.peers[peer] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			peer.readLoop()
			l.mu.Lock()
			delete(l.peers, peer)
			l.mu.Unlock()
		}()
	}
}

var _ Conn = (*sockConn)(nil)

// sockConn is one symmetric TCP peer: a request client (Dir/Lookup/Update
// toward the remote) and, when srv is set, a server for the remote's
// requests, multiplexed on one connection by message type and request ID.
type sockConn struct {
	c   net.Conn
	w   *bufio.Writer
	wmu sync.Mutex
	// scratch holds small request payloads (update handles) built under
	// wmu, so pipelined batches write frames without per-frame allocation.
	scratch []byte
	// defl compresses outgoing frames; guarded by wmu.
	defl frameDeflater

	// Capabilities: localCaps is what this side offers (fixed at dial or
	// accept); peerCaps is learned from the peer's first dir exchange in
	// either direction and stays zero for legacy peers, which disables
	// every extension transparently.
	localCaps uint32
	rbufSize  int
	peerCaps  atomic.Uint32

	// Dictionaries. sdict backs our serving half (touched only by the
	// readLoop goroutine); rdict mirrors the peer's serving dictionary and
	// is shared by requesting goroutines, hence the lock.
	sdict sendDict
	dmu   sync.Mutex
	rdict recvDict

	// Client half. Each registered request ID reserves exactly one
	// buffered slot in its response channel, so readLoop and fail deliver
	// without blocking; a batch registers N contiguous IDs on one channel
	// of capacity N.
	mu     sync.Mutex
	nextID uint64
	wait   map[uint64]chan sockResp
	closed bool
	err    error
	// spare is the response channel of the last batch that received every
	// response: nothing can still deliver into it, so the next batch takes it
	// instead of making one. Two updaters sharing the connection race for
	// it and the loser makes its own.
	spare chan sockResp

	// Server half, touched only by the readLoop goroutine. The handle table
	// (indexed by handle) and its reverse index grow from the first served
	// lookup, which the aggregator side of a 10k-producer fan-in never sees.
	srv      *Server
	handles  []servedSet
	handleOf map[*metric.Set]uint32
	layouts  map[*metric.Schema]*layoutDeflate
	onHello  func(string, Conn)

	// Transfer counters for prdcr_status and /metrics (both halves of the
	// symmetric connection share them). Byte counts are wire bytes: frames
	// that went out compressed count their compressed size.
	connStats
}

// sockResp is one delivered response: either a frame (typ, payload) from
// readLoop or a connection-level error from fail.
type sockResp struct {
	id      uint64
	typ     byte
	payload []byte
	err     error
}

// errUnresolved marks batch ops whose response has not arrived yet; it
// never escapes UpdateBatch or LookupBatch.
var errUnresolved = errors.New("transport: response pending")

var (
	errShortDeltaResp  = errors.New("transport: short delta update response")
	errBadDeltaResp    = errors.New("transport: bad delta update response kind")
	errShortLookupResp = errors.New("transport: short lookup response")
)

func newSockConn(c net.Conn, srv *Server, cfg sockCfg) *sockConn {
	return &sockConn{
		c:         c,
		w:         bufio.NewWriterSize(c, cfg.wbuf),
		localCaps: cfg.caps,
		rbufSize:  cfg.rbuf,
		wait:      make(map[uint64]chan sockResp),
		srv:       srv,
	}
}

func dialTCP(addr, name string, srv *Server, cfg sockCfg) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	sc := newSockConn(c, srv, cfg)
	if name != "" {
		hello, err := appendString(nil, name)
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := sc.send(msgHello, 0, hello); err != nil {
			c.Close()
			return nil, err
		}
	}
	go sc.readLoop()
	return sc, nil
}

// compressEnabled reports whether outgoing frames may be compressed.
func (sc *sockConn) compressEnabled() bool {
	return sc.localCaps&capCompress != 0 && sc.peerCaps.Load()&capCompress != 0
}

// deltaEnabled reports whether the peer serves delta update requests.
func (sc *sockConn) deltaEnabled() bool {
	return sc.localCaps&capDelta != 0 && sc.peerCaps.Load()&capDelta != 0
}

// dictEnabled reports whether dictionary-coded dir/lookup traffic is on.
func (sc *sockConn) dictEnabled() bool {
	return sc.localCaps&capDict != 0 && sc.peerCaps.Load()&capDict != 0
}

// traceEnabled reports whether update responses carry a trace-block
// prefix. Both sides compute it from the same negotiated pair, so the
// serving half prefixes exactly when the pulling half splits.
func (sc *sockConn) traceEnabled() bool {
	return sc.localCaps&capTrace != 0 && sc.peerCaps.Load()&capTrace != 0
}

// servedSet is one entry of the serving half's handle table: a looked-up set
// and how deflate last fared on its update responses. A loss backs the set
// off for 1, 2, 4 … deflateBackoffMax of its following responses of
// compressMin bytes or more; a win returns it to "always offer". The set's
// first such response consults its layout's record on the connection: where
// deflate was offered that layout and never won, the set starts as one that
// lost once, and that response goes out without an offer.
type servedSet struct {
	set    *metric.Set
	layout *layoutDeflate // nil: the per-set rule alone
	skip   uint16         // responses still to go out without an offer
	back   uint16         // what the last loss set skip to; 0 after a win
	begun  bool           // the first response has consulted layout
}

// layoutDeflate is how deflate has fared on one layout's update responses on
// one connection, shared by every served set of that layout.
type layoutDeflate struct{ offered, won bool }

// offer reports whether the next frame should be offered to deflate. Frames
// that keep no state (nil: dir, lookup, requests) always are.
func (ss *servedSet) offer() bool {
	if ss == nil {
		return true
	}
	if l := ss.layout; l != nil && !ss.begun {
		ss.begun = true
		if l.offered && !l.won {
			ss.back = 1
			return false
		}
	}
	if ss.skip == 0 {
		return true
	}
	ss.skip--
	return false
}

// offered records the outcome of an offer, on the set and on its layout.
func (ss *servedSet) offered(won bool) {
	if ss != nil && ss.layout != nil {
		ss.layout.offered, ss.layout.won = true, ss.layout.won || won
	}
	switch {
	case ss == nil:
	case won:
		ss.back = 0
	default:
		ss.back = min(max(2*ss.back, 1), deflateBackoffMax)
		ss.skip = ss.back
	}
}

// writeLocked writes one frame into the connection's buffered writer,
// compressing the payload when the capability is negotiated, ss (an update
// response's set; nil for any other frame) is not backed off, and compression
// wins. Caller holds wmu and decides when to flush.
func (sc *sockConn) writeLocked(typ byte, id uint64, payload []byte, ss *servedSet) error {
	if len(payload) >= compressMin && sc.compressEnabled() && ss.offer() {
		//ldms:wallclock hostCPU accounts real serving cost (paper overhead model), not sample time
		start := time.Now()
		cp, won := sc.defl.compress(payload)
		ss.offered(won)
		if sc.srv != nil {
			//ldms:wallclock second half of the real serving-cost measurement
			sc.srv.countDeflate(won, time.Since(start))
		}
		if won {
			typ |= compressFlag
			payload = cp
		}
	}
	if err := writeFrame(sc.w, typ, id, payload); err != nil {
		return err
	}
	sc.countOut(frameHeader + len(payload))
	return nil
}

// send writes one client-half frame and flushes. The flush also carries out
// any responses the serving half has corked (they share the writer).
func (sc *sockConn) send(typ byte, id uint64, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := sc.writeLocked(typ, id, payload, nil); err != nil {
		return err
	}
	return sc.w.Flush()
}

// reply writes one serving-half response (ss as for writeLocked) and leaves it
// in the buffered writer: readLoop flushes once it has no further whole request.
func (sc *sockConn) reply(ss *servedSet, typ byte, id uint64, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return sc.writeLocked(typ, id, payload, ss)
}

// flush pushes buffered output to the socket.
func (sc *sockConn) flush() error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return sc.w.Flush()
}

// frameBuffered reports whether r already holds one whole frame, so that
// reading it cannot block. A frame larger than the read buffer never
// qualifies, which only costs it the cork.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < frameHeader {
		return false
	}
	//ldms:errok Peek of no more than Buffered() bytes cannot fail
	hdr, _ := r.Peek(frameHeader)
	return uint64(r.Buffered()) >= frameHeader+uint64(wireLE.Uint32(hdr))
}

// readLoop dispatches incoming frames: requests to the server half,
// responses to waiting callers.
//
// Responses are corked: while another whole frame is already buffered, the
// serving half's answers pile up in the buffered writer, so a burst of N
// pipelined requests costs ~N/30 write(2) calls instead of N. The rule that
// keeps this safe is "never block on read with unflushed output" — the
// peer may be waiting for exactly those responses before it sends more.
func (sc *sockConn) readLoop() {
	r := bufio.NewReaderSize(sc.c, sc.rbufSize)
	corked := false
	for {
		if corked && !frameBuffered(r) {
			if err := sc.flush(); err != nil {
				sc.fail(err)
				return
			}
			corked = false
		}
		typ, id, payload, err := readFrame(r)
		if err != nil {
			sc.fail(err)
			return
		}
		// Wire bytes: counted at compressed size, before inflating.
		sc.countIn(frameHeader + len(payload))
		typ, payload, err = maybeInflate(typ, payload)
		if err != nil {
			sc.fail(err)
			return
		}
		switch typ {
		case msgDirReq, msgLookupReq, msgUpdateReq, msgHello, msgDirGenReq,
			msgDeltaUpdateReq, msgLookupDictReq:
			err := sc.serveRequest(typ, id, payload)
			putBuf(payload)
			if err != nil {
				sc.fail(err)
				return
			}
			corked = true
		default:
			sc.mu.Lock()
			ch := sc.wait[id]
			delete(sc.wait, id)
			sc.mu.Unlock()
			if ch != nil {
				ch <- sockResp{id: id, typ: typ, payload: payload}
			} else {
				// Cancelled or unknown request: nobody retains this.
				putBuf(payload)
			}
		}
	}
}

// handleFor resolves a request payload's leading u32 set handle (nil: unknown).
func (sc *sockConn) handleFor(payload []byte) *servedSet {
	if h := wireLE.Uint32(payload); int64(h) < int64(len(sc.handles)) {
		return &sc.handles[h]
	}
	return nil
}

// registerHandle returns the handle of a successfully looked-up set: the one
// it already has on this connection (a peer may look a set up every pass
// while it cannot mirror it; the table must not grow with that), or the next.
func (sc *sockConn) registerHandle(set *metric.Set) uint32 {
	if h, ok := sc.handleOf[set]; ok {
		return h
	}
	if sc.handleOf == nil {
		sc.handleOf = make(map[*metric.Set]uint32)
		sc.layouts = make(map[*metric.Schema]*layoutDeflate)
	}
	l := sc.layouts[set.Schema()]
	if l == nil {
		l = new(layoutDeflate)
		sc.layouts[set.Schema()] = l
	}
	h := uint32(len(sc.handles))
	sc.handles = append(sc.handles, servedSet{set: set, layout: l})
	sc.handleOf[set] = h
	return h
}

// serveRequest handles one request from the remote peer. It must not
// retain payload past return (readLoop recycles it). Responses are left
// unflushed for readLoop to cork.
func (sc *sockConn) serveRequest(typ byte, id uint64, payload []byte) error {
	replyErr := func(msg string) error {
		//ldms:errok appendString only fails on strings over maxWireString, which clipString just bounded
		p, _ := appendString(nil, clipString(msg))
		return sc.reply(nil, msgErrResp, id, p)
	}
	if typ == msgHello {
		name, _, err := readString(payload, 0)
		if err != nil {
			return replyErr(err.Error())
		}
		if sc.onHello != nil {
			go sc.onHello(name, sc)
		}
		return nil
	}
	if sc.srv == nil {
		return replyErr("transport: peer does not serve")
	}
	switch typ {
	case msgDirReq:
		// A capability-aware requester sends its caps block as the payload;
		// legacy requesters send none and get the legacy response shape.
		caps, _ := parseCaps(payload, 0)
		sc.peerCaps.Store(caps)
		names := sc.srv.serveDir()
		if caps&capDict != 0 && sc.localCaps&capDict != 0 {
			b, err := encodeDirDictResp(names, &sc.sdict, sc.localCaps)
			if err != nil {
				return replyErr(err.Error())
			}
			return sc.reply(nil, msgDirDictResp, id, b)
		}
		b, err := encodeDirResp(names, sc.localCaps)
		if err != nil {
			return replyErr(err.Error())
		}
		return sc.reply(nil, msgDirResp, id, b)
	case msgDirGenReq:
		return sc.reply(nil, msgDirGenResp, id, wireLE.AppendUint64(nil, sc.srv.serveDirGen()))
	case msgLookupReq, msgLookupDictReq:
		var name string
		if typ == msgLookupDictReq {
			if len(payload) < 4 {
				return replyErr("transport: short dict lookup request")
			}
			n, ok := sc.sdict.name(wireLE.Uint32(payload))
			if !ok {
				return replyErr("transport: unknown dictionary id")
			}
			name = n
		} else {
			n, _, err := readString(payload, 0)
			if err != nil {
				return replyErr(err.Error())
			}
			name = n
		}
		set, meta, err := sc.srv.serveLookup(name)
		if err != nil {
			return replyErr(err.Error())
		}
		resp := wireLE.AppendUint32(nil, sc.registerHandle(set))
		resp = append(resp, meta...)
		return sc.reply(nil, msgLookupResp, id, resp)
	case msgUpdateReq:
		if len(payload) < 4 {
			return replyErr("transport: short update request")
		}
		ss := sc.handleFor(payload)
		if ss == nil {
			return replyErr("transport: unknown set handle")
		}
		set := ss.set
		ds := set.DataSize()
		if !sc.traceEnabled() {
			buf := getBuf(ds)
			n := sc.srv.serveUpdate(set, buf)
			err := sc.reply(ss, msgUpdateResp, id, buf[:n])
			putBuf(buf)
			return err
		}
		// Trace-prefixed shape: u16 length | trace block | data chunk.
		buf := getBuf(traceLenPrefix + traceSlack + ds)
		b := sc.srv.appendTraceFor(buf[:0], set)
		off := len(b)
		b = growTo(b, off+ds)
		n := sc.srv.serveUpdate(set, b[off:])
		err := sc.reply(ss, msgUpdateResp, id, b[:off+n])
		putBuf(b)
		return err
	case msgDeltaUpdateReq:
		if len(payload) < 12 {
			return replyErr("transport: short delta update request")
		}
		ss := sc.handleFor(payload)
		if ss == nil {
			return replyErr("transport: unknown set handle")
		}
		set := ss.set
		since := wireLE.Uint64(payload[4:])
		ds := set.DataSize()
		if !sc.traceEnabled() {
			// Slack beyond DataSize covers the delta header on sets smaller
			// than it, so serveUpdateDelta never reallocates.
			buf := getBuf(1 + ds + 64)
			out := sc.srv.serveUpdateDelta(set, since, buf)
			err := sc.reply(ss, msgDeltaUpdateResp, id, out)
			putBuf(buf)
			return err
		}
		buf := getBuf(traceLenPrefix + traceSlack + 1 + ds + 64)
		b := sc.srv.appendTraceFor(buf[:0], set)
		off := len(b)
		b = growTo(b, off+1+ds+64)
		out := sc.srv.serveUpdateDelta(set, since, b[off:])
		err := sc.reply(ss, msgDeltaUpdateResp, id, b[:off+len(out)])
		putBuf(b)
		return err
	}
	return replyErr(fmt.Sprintf("transport: unknown message type %d", typ))
}

// fail resolves every outstanding waiter with the connection error. Each
// registered ID holds one reserved slot in its channel, so these sends
// never block; channels are never closed, which keeps shared batch
// channels safe.
func (sc *sockConn) fail(err error) {
	sc.mu.Lock()
	if sc.err == nil {
		sc.err = err
	}
	err = sc.err
	waiters := sc.wait
	sc.wait = make(map[uint64]chan sockResp)
	sc.mu.Unlock()
	for id, ch := range waiters {
		ch <- sockResp{id: id, err: err}
	}
}

// register allocates n contiguous request IDs all routed to ch, which must
// have capacity >= n. It returns the first ID.
func (sc *sockConn) register(n int, ch chan sockResp) (uint64, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.registerLocked(n, ch)
}

// registerLocked is register for callers that hold mu.
func (sc *sockConn) registerLocked(n int, ch chan sockResp) (uint64, error) {
	if sc.closed || sc.err != nil {
		err := sc.err
		if err == nil {
			err = ErrClosed
		}
		return 0, err
	}
	first := sc.nextID
	sc.nextID += uint64(n)
	for i := 0; i < n; i++ {
		sc.wait[first+uint64(i)] = ch
	}
	return first, nil
}

// deregister drops the IDs [first, first+n) that are still waiting.
func (sc *sockConn) deregister(first uint64, n int) {
	sc.mu.Lock()
	for i := 0; i < n; i++ {
		delete(sc.wait, first+uint64(i))
	}
	sc.mu.Unlock()
}

// pipeline runs one batch of n requests: it registers n contiguous request
// IDs on one response channel (the connection's spare one when that is free
// and large enough), has write send the frames under IDs first, first+1, …,
// then hands each response to resolve — which reports whether it settled one
// of the batch's ops — until all n have. It returns nil then, and otherwise the
// error (registration, write, or ctx ending) the unsettled ops should carry.
func (sc *sockConn) pipeline(ctx context.Context, n int, write func(first uint64) error, resolve func(first uint64, r sockResp) bool) error {
	sc.mu.Lock()
	ch := sc.spare
	sc.spare = nil
	if cap(ch) < n {
		ch = make(chan sockResp, n)
	}
	first, err := sc.registerLocked(n, ch)
	sc.mu.Unlock()
	if err != nil {
		return err
	}
	err = write(first)
	for pending := n; err == nil && pending > 0; {
		select {
		case r := <-ch:
			if resolve(first, r) {
				pending--
			}
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	if err == nil {
		// Every ID was delivered, and delivery removes it from wait first:
		// the channel is empty and nothing refers to it.
		sc.mu.Lock()
		sc.spare = ch
		sc.mu.Unlock()
		return nil
	}
	// Give up on the outstanding IDs, then drain what was already delivered
	// so responses that raced the decision still land. The channel is not
	// kept: readLoop may have picked it up for one last delivery just before
	// the IDs went.
	sc.deregister(first, n)
	for {
		select {
		case r := <-ch:
			resolve(first, r)
		default:
			return err
		}
	}
}

// respError decodes an error response payload (recycling it) and maps
// well-known messages back to sentinel errors.
func respError(payload []byte) error {
	msg, _, err := readString(payload, 0)
	putBuf(payload)
	if err != nil {
		return err
	}
	if msg == ErrNoSuchSet.Error() {
		return ErrNoSuchSet
	}
	return fmt.Errorf("transport: remote error: %s", msg)
}

// roundTrip sends a request frame and waits for its response.
func (sc *sockConn) roundTrip(ctx context.Context, typ byte, payload []byte) (sockResp, error) {
	ch := make(chan sockResp, 1)
	id, err := sc.register(1, ch)
	if err != nil {
		return sockResp{}, err
	}
	if err := sc.send(typ, id, payload); err != nil {
		sc.deregister(id, 1)
		return sockResp{}, err
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return sockResp{}, r.err
		}
		if r.typ == msgErrResp {
			return sockResp{}, respError(r.payload)
		}
		return r, nil
	case <-ctx.Done():
		sc.deregister(id, 1)
		return sockResp{}, ctx.Err()
	}
}

// Dir implements Conn. A capability-aware connection carries its caps
// block in the request and learns the peer's from the response, so both
// sides finish the first dir exchange knowing exactly which protocol
// extensions are safe on this connection.
func (sc *sockConn) Dir(ctx context.Context) ([]string, error) {
	var req []byte
	if sc.localCaps != 0 {
		req = appendCaps(nil, sc.localCaps)
	}
	resp, err := sc.roundTrip(ctx, msgDirReq, req)
	if err != nil {
		return nil, err
	}
	var names []string
	var caps uint32
	if resp.typ == msgDirDictResp {
		sc.dmu.Lock()
		names, caps, err = decodeDirDictResp(resp.payload, &sc.rdict)
		sc.dmu.Unlock()
	} else {
		names, caps, err = decodeDirResp(resp.payload)
	}
	putBuf(resp.payload)
	if err != nil {
		return nil, err
	}
	sc.peerCaps.Store(caps)
	return names, nil
}

// DirGen implements Conn: one small round trip for the remote registry's
// directory generation.
func (sc *sockConn) DirGen(ctx context.Context) (uint64, error) {
	resp, err := sc.roundTrip(ctx, msgDirGenReq, nil)
	if err != nil {
		return 0, err
	}
	if len(resp.payload) < 8 {
		putBuf(resp.payload)
		return 0, fmt.Errorf("transport: short dir-gen response")
	}
	gen := wireLE.Uint64(resp.payload)
	putBuf(resp.payload)
	return gen, nil
}

// Lookup implements Conn: a batch of one.
func (sc *sockConn) Lookup(ctx context.Context, name string) (RemoteSet, error) {
	op := [1]LookupOp{{Name: name}}
	sc.LookupBatch(ctx, op[:])
	return op[0].Set, op[0].Err
}

// appendLookupReq encodes the lookup request for name onto dst. Names the
// peer's dictionary already defined go over the wire as a bare u32 id.
func (sc *sockConn) appendLookupReq(dst []byte, name string) (byte, []byte, error) {
	if sc.dictEnabled() {
		sc.dmu.Lock()
		id, ok := sc.rdict.ids[name]
		sc.dmu.Unlock()
		if ok {
			return msgLookupDictReq, wireLE.AppendUint32(dst, id), nil
		}
	}
	req, err := appendString(dst, name)
	return msgLookupReq, req, err
}

// LookupBatch implements Conn: like UpdateBatch, every request frame goes
// out under one write-lock hold with a single flush and the responses are
// awaited together. A name the peer does not serve resolves that op to
// ErrNoSuchSet; the others are unaffected.
func (sc *sockConn) LookupBatch(ctx context.Context, ops []LookupOp) {
	for i := range ops {
		if len(ops[i].Name) > maxWireString {
			// No frame can carry this name: settle it here and pipeline the
			// ops on either side of it.
			ops[i].Set, ops[i].Err = nil, errStringTooLong
			sc.LookupBatch(ctx, ops[:i])
			sc.LookupBatch(ctx, ops[i+1:])
			return
		}
		ops[i].Set, ops[i].Err = nil, errUnresolved
	}
	if len(ops) == 0 {
		return
	}
	err := sc.pipeline(ctx, len(ops),
		func(first uint64) error { return sc.writeLookups(ops, first) },
		func(first uint64, r sockResp) bool { return sc.resolveLookup(ops, first, r) })
	for i := range ops {
		if ops[i].Err == errUnresolved {
			ops[i].Err = err
		}
	}
}

// writeLookups writes the batch's request frames under one write-lock hold
// and flushes once.
func (sc *sockConn) writeLookups(ops []LookupOp, first uint64) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	for i := range ops {
		typ, req, err := sc.appendLookupReq(sc.scratch[:0], ops[i].Name)
		if err != nil {
			return err
		}
		sc.scratch = req
		if err := sc.writeLocked(typ, first+uint64(i), req, nil); err != nil {
			return err
		}
	}
	return sc.w.Flush()
}

// resolveLookup applies one delivered response to its op; it reports
// whether the response matched an unresolved op in this batch.
func (sc *sockConn) resolveLookup(ops []LookupOp, first uint64, r sockResp) bool {
	i := int(r.id - first)
	if i < 0 || i >= len(ops) || ops[i].Err != errUnresolved {
		putBuf(r.payload)
		return false
	}
	switch {
	case r.err != nil:
		ops[i].Err = r.err
	case r.typ == msgErrResp:
		ops[i].Err = respError(r.payload)
	case r.typ != msgLookupResp:
		putBuf(r.payload)
		ops[i].Err = fmt.Errorf("transport: lookup answered with message type %d", r.typ)
	default:
		ops[i].Set, ops[i].Err = sc.decodeLookupResp(r.payload)
	}
	return true
}

// decodeLookupResp turns a lookup response payload (u32 handle, then the
// metadata chunk) into a handle, recycling the payload on every path.
func (sc *sockConn) decodeLookupResp(payload []byte) (RemoteSet, error) {
	defer putBuf(payload)
	if len(payload) < 4 {
		return nil, errShortLookupResp
	}
	meta, err := metric.ParseMeta(payload[4:])
	if err != nil {
		return nil, err
	}
	return &sockRemoteSet{conn: sc, handle: wireLE.Uint32(payload), meta: meta}, nil
}

// Close implements Conn.
func (sc *sockConn) Close() error {
	sc.mu.Lock()
	sc.closed = true
	sc.mu.Unlock()
	err := sc.c.Close()
	sc.fail(ErrClosed)
	return err
}

// UpdateBatch implements Conn: all request frames are written under one
// write-lock hold with a single flush, then responses (matched by request
// ID, which may arrive in any order relative to the remote's own traffic on
// this symmetric connection) are awaited together. An error frame for one op
// is recorded on that op alone.
//
// Ops that carry an acknowledged base DGN become delta update requests
// when the peer negotiated the capability; the server's response is
// either a delta patched into Dst or a full chunk (its fallback), and a
// peer without the capability never negotiates, leaving every op a full
// update.
func (sc *sockConn) UpdateBatch(ctx context.Context, ops []UpdateOp) {
	for i := range ops {
		if rs, ok := ops[i].Set.(*sockRemoteSet); !ok || rs.conn != sc {
			// No frame of ours can name this handle: settle it here and
			// pipeline the ops on either side of it.
			ops[i].N, ops[i].Err, ops[i].WasDelta = 0, errForeignHandle, false
			ops[i].Trace = ops[i].Trace[:0]
			sc.UpdateBatch(ctx, ops[:i])
			sc.UpdateBatch(ctx, ops[i+1:])
			return
		}
		ops[i].N, ops[i].Err, ops[i].WasDelta = 0, errUnresolved, false
	}
	if len(ops) == 0 {
		return
	}
	err := sc.pipeline(ctx, len(ops),
		func(first uint64) error { return sc.writeUpdates(ops, first) },
		func(first uint64, r sockResp) bool { return sc.resolveOp(ops, first, r) })
	for i := range ops {
		if ops[i].Err == errUnresolved {
			ops[i].Err = err
		}
	}
}

// writeUpdates writes the batch's request frames under one write-lock hold
// and flushes once.
func (sc *sockConn) writeUpdates(ops []UpdateOp, first uint64) error {
	useDelta := sc.deltaEnabled()
	sc.batches.Add(1)
	sc.batchedOps.Add(int64(len(ops)))
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	for i := range ops {
		typ := byte(msgUpdateReq)
		sc.scratch = wireLE.AppendUint32(sc.scratch[:0], ops[i].Set.(*sockRemoteSet).handle)
		if useDelta && ops[i].HaveAck {
			typ = msgDeltaUpdateReq
			sc.scratch = wireLE.AppendUint64(sc.scratch, ops[i].AckDGN)
		}
		if err := writeFrame(sc.w, typ, first+uint64(i), sc.scratch); err != nil {
			return err
		}
		sc.countOut(frameHeader + len(sc.scratch))
	}
	return sc.w.Flush()
}

// resolveOp applies one delivered response to its op; it reports whether
// the response matched an unresolved op in this batch.
func (sc *sockConn) resolveOp(ops []UpdateOp, first uint64, r sockResp) bool {
	i := int(r.id - first)
	if i < 0 || i >= len(ops) || ops[i].Err != errUnresolved {
		putBuf(r.payload)
		return false
	}
	// Data-bearing responses on a trace-negotiated connection carry a
	// trace-block prefix; peel it into the op before legacy decoding. The
	// trace bytes are copied out because r.payload is recycled below.
	ops[i].Trace = ops[i].Trace[:0]
	payload := r.payload
	if r.err == nil && r.typ != msgErrResp && sc.traceEnabled() {
		trace, rest, err := splitTracePrefix(payload)
		if err != nil {
			ops[i].Err = err
			putBuf(r.payload)
			return true
		}
		ops[i].Trace = append(ops[i].Trace, trace...)
		payload = rest
	}
	switch {
	case r.err != nil:
		ops[i].Err = r.err
	case r.typ == msgErrResp:
		ops[i].Err = respError(r.payload)
	case r.typ == msgDeltaUpdateResp:
		resolveDeltaResp(&ops[i], payload, r.payload)
		if ops[i].Err == nil {
			sc.countUpdate(ops[i].WasDelta)
		}
	case len(ops[i].Dst) < len(payload):
		ops[i].Err = fmt.Errorf("transport: update buffer too small: %d < %d", len(ops[i].Dst), len(payload))
		putBuf(r.payload)
	default:
		ops[i].N, ops[i].Err = copy(ops[i].Dst, payload), nil
		putBuf(r.payload)
		sc.countUpdate(false)
	}
	return true
}

// resolveDeltaResp decodes a delta update response into its op: kind full
// copies the chunk, kind delta patches Dst in place via the set metadata.
// payload may be a sub-slice of owned (a trace prefix was peeled off);
// owned is what goes back to the buffer pool.
func resolveDeltaResp(op *UpdateOp, payload, owned []byte) {
	defer putBuf(owned)
	if len(payload) < 1 {
		op.Err = errShortDeltaResp
		return
	}
	switch payload[0] {
	case deltaKindFull:
		if len(op.Dst) < len(payload)-1 {
			op.Err = fmt.Errorf("transport: update buffer too small: %d < %d", len(op.Dst), len(payload)-1)
			return
		}
		op.N, op.Err = copy(op.Dst, payload[1:]), nil
	case deltaKindDelta:
		ds := op.Set.Meta().DataSize
		if len(op.Dst) < ds {
			op.Err = fmt.Errorf("transport: update buffer too small: %d < %d", len(op.Dst), ds)
			return
		}
		if err := op.Set.Meta().ApplyDelta(op.Dst[:ds], payload[1:]); err != nil {
			op.Err = err
			return
		}
		op.N, op.Err, op.WasDelta = ds, nil, true
	default:
		op.Err = errBadDeltaResp
	}
}

// sockRemoteSet is a lookup handle over a TCP connection.
type sockRemoteSet struct {
	conn   *sockConn
	handle uint32
	meta   *metric.Meta
}

// Meta implements RemoteSet.
func (rs *sockRemoteSet) Meta() *metric.Meta { return rs.meta }
