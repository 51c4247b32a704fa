package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldms/internal/metric"
)

// dialSockAndMem serves reg over both transports and returns a pulling
// connection to each, capabilities negotiated.
func dialSockAndMem(t *testing.T, srv *Server) map[string]Conn {
	t.Helper()
	ln, err := SockFactory{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sock, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sock.Close() })
	fac := MemFactory{Net: NewNetwork()}
	if _, err := fac.Listen("node", srv); err != nil {
		t.Fatal(err)
	}
	mem, err := fac.Dial("node")
	if err != nil {
		t.Fatal(err)
	}
	conns := map[string]Conn{"sock": sock, "mem": mem}
	for name, c := range conns {
		if _, err := c.Dir(context.Background()); err != nil {
			t.Fatalf("%s dir: %v", name, err)
		}
	}
	return conns
}

// TestLookupBatchPerOpErrors: a name the peer does not serve (and one no
// frame can carry) fails that op alone, and the mem and sock transports
// resolve the same batch over the same registry to the same results.
func TestLookupBatchPerOpErrors(t *testing.T) {
	reg := newTestRegistry(t, 5)
	conns := dialSockAndMem(t, NewServer(reg))
	names := append(reg.Dir(), "no-such-set", strings.Repeat("x", maxWireString+1))
	names[1], names[5] = names[5], names[1] // the miss sits mid-batch

	results := map[string][]LookupOp{}
	for xprt, conn := range conns {
		ops := make([]LookupOp, len(names))
		for i, n := range names {
			ops[i].Name = n
		}
		LookupAll(context.Background(), conn, ops)
		results[xprt] = ops
		for i, op := range ops {
			switch {
			case op.Name == "no-such-set":
				if !errors.Is(op.Err, ErrNoSuchSet) || op.Set != nil {
					t.Errorf("%s op %d (%s): set=%v err=%v, want ErrNoSuchSet", xprt, i, op.Name, op.Set, op.Err)
				}
			case len(op.Name) > maxWireString:
				if xprt == "sock" && !errors.Is(op.Err, errStringTooLong) {
					t.Errorf("sock op %d: oversized name err = %v", i, op.Err)
				}
			case op.Err != nil:
				t.Errorf("%s op %d (%s) failed beside the miss: %v", xprt, i, op.Name, op.Err)
			case op.Set.Meta().Instance != op.Name:
				t.Errorf("%s op %d: looked up %s, got %s", xprt, i, op.Name, op.Set.Meta().Instance)
			}
		}
	}
	for i := range names[:len(names)-1] {
		s, m := results["sock"][i], results["mem"][i]
		if (s.Err == nil) != (m.Err == nil) || !errors.Is(s.Err, m.Err) {
			t.Errorf("op %d: sock err %v, mem err %v", i, s.Err, m.Err)
			continue
		}
		if s.Err != nil {
			continue
		}
		sm, mm := s.Set.Meta(), m.Set.Meta()
		if sm.Instance != mm.Instance || sm.MGN != mm.MGN || sm.DataSize != mm.DataSize ||
			sm.Schema != mm.Schema {
			t.Errorf("op %d: sock meta %+v, mem meta %+v", i, sm, mm)
		}
	}
	if sc := conns["sock"].(*sockConn); len(sc.wait) != 0 {
		t.Errorf("sock conn left %d wait entries", len(sc.wait))
	}

	// The handles are live: one pipelined pull over each resolves them.
	for xprt, conn := range conns {
		var ups []UpdateOp
		for _, op := range results[xprt] {
			if op.Err == nil {
				ups = append(ups, UpdateOp{Set: op.Set, Dst: make([]byte, op.Set.Meta().DataSize)})
			}
		}
		UpdateAll(context.Background(), conn, ups)
		for i, up := range ups {
			if up.Err != nil || up.N == 0 {
				t.Errorf("%s pull %d over a batch-looked-up handle: n=%d err=%v", xprt, i, up.N, up.Err)
			}
		}
	}
}

// muteServer accepts one connection and swallows whatever arrives, so every
// request written to it stays pending.
func muteServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestLookupBatchCancelled: a context that ends while responses are pending
// resolves every op with its error and leaves nothing registered.
func TestLookupBatchCancelled(t *testing.T) {
	conn, err := SockFactory{}.Dial(muteServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ops := make([]LookupOp, 40)
	for i := range ops {
		ops[i].Name = "set"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	LookupAll(ctx, conn, ops)
	for i, op := range ops {
		if !errors.Is(op.Err, context.DeadlineExceeded) || op.Set != nil {
			t.Fatalf("op %d: set=%v err=%v, want the context's error", i, op.Set, op.Err)
		}
	}
	sc := conn.(*sockConn)
	sc.mu.Lock()
	waiting, spare := len(sc.wait), sc.spare
	sc.mu.Unlock()
	if waiting != 0 {
		t.Errorf("%d wait entries left after cancellation", waiting)
	}
	if spare != nil {
		t.Error("an abandoned batch's channel was kept for reuse")
	}
}

// TestLookupShortResponseRecycled: the lookup decoder gives the payload
// buffer back on the short-response path too (it used to leak there).
func TestLookupShortResponseRecycled(t *testing.T) {
	sc := newSockConn(nil, nil, SockFactory{}.cfg())
	putBuf(make([]byte, 0, 64)) // so the next getBuf is taken from the pool
	before := bufPooled.Load()
	set, err := sc.decodeLookupResp(getBuf(2))
	if !errors.Is(err, errShortLookupResp) || set != nil {
		t.Fatalf("short lookup response decoded to set=%v err=%v", set, err)
	}
	if after := bufPooled.Load(); after < before {
		t.Errorf("pooled bytes %d -> %d: the short response's buffer leaked", before, after)
	}
}

// writeCounter counts the Write calls that reach the socket.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// corkedServer serves reg on one accepted connection whose writes are
// counted, and returns a raw client socket to it.
func corkedServer(t *testing.T, srv *Server) (client net.Conn, served *writeCounter) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	served = &writeCounter{Conn: c}
	sc := newSockConn(served, srv, SockFactory{}.cfg())
	done := make(chan struct{})
	go func() { defer close(done); sc.readLoop() }()
	t.Cleanup(func() { client.Close(); c.Close(); <-done })
	return client, served
}

// appendFrame appends one wire frame to b.
func appendFrame(b []byte, typ byte, id uint64, payload []byte) []byte {
	b = wireLE.AppendUint32(b, uint32(len(payload)))
	b = append(b, typ)
	b = wireLE.AppendUint64(b, id)
	return append(b, payload...)
}

// readResponses reads n frames off c and returns their request IDs.
func readResponses(t *testing.T, c net.Conn, r *bufio.Reader, n int) []uint64 {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	ids := make([]uint64, 0, n)
	for len(ids) < n {
		typ, id, payload, err := readFrame(r)
		if err != nil {
			t.Fatalf("response %d of %d: %v", len(ids)+1, n, err)
		}
		if typ != msgDirGenResp {
			t.Fatalf("response %d: message type %d", len(ids)+1, typ)
		}
		putBuf(payload)
		ids = append(ids, id)
	}
	return ids
}

// TestCorkBurstThenSilence: N pipelined requests followed by silence bring
// back all N responses with no further input — the serving half flushes
// before it blocks — and in far fewer socket writes than responses.
func TestCorkBurstThenSilence(t *testing.T) {
	client, served := corkedServer(t, NewServer(newTestRegistry(t, 2)))
	const n = 64
	var burst []byte
	for i := 0; i < n; i++ {
		burst = appendFrame(burst, msgDirGenReq, uint64(i), nil)
	}
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	ids := readResponses(t, client, bufio.NewReader(client), n)
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("response %d answers request %d", i, id)
		}
	}
	// One write would be ideal; the burst may reach the server in a few
	// reads, each ending in a flush.
	if w := served.writes.Load(); w > n/4 {
		t.Errorf("%d responses took %d socket writes; responses are not corked", n, w)
	}
}

// TestCorkPartialFrameFlushes: a buffered partial next frame is not a reason
// to keep holding responses — reading the rest of it could block for ever.
func TestCorkPartialFrameFlushes(t *testing.T) {
	client, _ := corkedServer(t, NewServer(newTestRegistry(t, 2)))
	const n = 16
	var burst []byte
	for i := 0; i <= n; i++ {
		burst = appendFrame(burst, msgDirGenReq, uint64(i), nil)
	}
	cut := len(burst) - 5 // the last frame stops inside its header
	if _, err := client.Write(burst[:cut]); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(client)
	readResponses(t, client, r, n)
	if _, err := client.Write(burst[cut:]); err != nil {
		t.Fatal(err)
	}
	if ids := readResponses(t, client, r, 1); ids[0] != n {
		t.Fatalf("completed frame answered as request %d, want %d", ids[0], n)
	}
}

// TestCorkSymmetricClientHalfNotStranded: on a symmetric connection the
// dialer's serving half is kept mid-burst by the listener's pipelined pulls
// while the dialer's own client half issues single round trips on the same
// socket. Each of those must complete: its request shares the writer with
// corked responses and goes out on its own flush, and its response is read
// by the same loop that is busy serving.
func TestCorkSymmetricClientHalfNotStranded(t *testing.T) {
	aggReg := newTestRegistry(t, 4)
	smpReg := newTestRegistry(t, 48)
	peerCh := make(chan Conn, 1)
	ln, err := SockFactory{}.ListenPeer("127.0.0.1:0", NewServer(aggReg), func(name string, conn Conn) {
		peerCh <- conn
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	smpConn, err := SockFactory{}.DialNamed(ln.Addr(), "smp", NewServer(smpReg))
	if err != nil {
		t.Fatal(err)
	}
	defer smpConn.Close()
	aggConn := <-peerCh

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	aggOps := lookupAll(t, aggConn, smpReg.Dir())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the listener keeps the dialer's serving half in bursts
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			UpdateAll(ctx, aggConn, aggOps)
			for i := range aggOps {
				if aggOps[i].Err != nil {
					t.Errorf("burst op %d: %v", i, aggOps[i].Err)
					return
				}
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := smpConn.DirGen(ctx); err != nil {
			t.Fatalf("client-half round trip %d during a serving burst: %v", i, err)
		}
		op := [1]LookupOp{{Name: "set00"}}
		LookupAll(ctx, smpConn, op[:])
		if op[0].Err != nil {
			t.Fatalf("client-half lookup %d during a serving burst: %v", i, op[0].Err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPullOfDeletedSet: a handle outlives its set when a mid tier drops a
// mirror between an upstream peer's directory poll and its pull. Serving
// that pull must neither panic nor ship stale pool bytes: the requester gets
// an empty chunk, which no mirror's LoadData accepts, with and without an
// acknowledged DGN.
func TestPullOfDeletedSet(t *testing.T) {
	reg := newTestRegistry(t, 2)
	conns := dialSockAndMem(t, NewServer(reg))
	pulls := map[string][]UpdateOp{}
	for xprt, conn := range conns {
		ops := lookupAll(t, conn, reg.Dir())
		UpdateAll(context.Background(), conn, ops)
		checkOps(t, ops)
		ops[0].AckDGN = readDGN(t, ops[0])
		pulls[xprt] = ops
	}
	reg.Remove(reg.Dir()[0]).Delete()
	for xprt, conn := range conns {
		ops := pulls[xprt]
		for _, ack := range []bool{true, false} {
			ops[0].HaveAck = ack
			UpdateAll(context.Background(), conn, ops)
			if ops[0].Err != nil || ops[0].N != 0 {
				t.Errorf("%s ack=%v: pull of a deleted set: n=%d err=%v, want an empty chunk", xprt, ack, ops[0].N, ops[0].Err)
			}
			if ops[1].Err != nil || ops[1].N == 0 {
				t.Errorf("%s ack=%v: the surviving set's pull: n=%d err=%v", xprt, ack, ops[1].N, ops[1].Err)
			}
		}
	}
}

// TestInternSharesAcrossConns: sets of one layout resolve to one *Schema
// whichever connection, transport or producer their metadata arrived over
// (every set here has a Schema object of its own at its source), and a
// different metric list under the same schema name resolves to another. The
// mirrors share it too, and deltas apply under it.
func TestInternSharesAcrossConns(t *testing.T) {
	const perConn = 64
	registry := func(prefix string) *metric.Registry {
		reg := metric.NewRegistry()
		for i := 0; i <= perConn; i++ {
			sch := metric.NewSchema("synth")
			for m := 0; m < 8; m++ {
				sch.MustAddMetric(fmt.Sprintf("m%d", m), metric.TypeU64)
			}
			if i == perConn { // the odd one out: same schema name, one metric more
				sch.MustAddMetric("extra", metric.TypeU64)
			}
			set, err := metric.New(fmt.Sprintf("%s/set%02d", prefix, i), sch, metric.WithCompID(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			set.BeginTransaction()
			set.SetU64(0, uint64(i))
			set.EndTransaction(time.Unix(1000, 0))
			if err := reg.Add(set); err != nil {
				t.Fatal(err)
			}
		}
		return reg
	}
	mem := MemFactory{Net: NewNetwork()}
	ctx := context.Background()
	var common, odd *metric.Schema
	for _, c := range []struct {
		name string
		fac  Factory
		addr string
	}{{"sockA", SockFactory{}, "127.0.0.1:0"}, {"sockB", SockFactory{}, "127.0.0.1:0"}, {"mem", mem, "leaf"}} {
		reg := registry(c.name)
		ln, err := c.fac.Listen(c.addr, NewServer(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := c.fac.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		names, err := conn.Dir(ctx)
		if err != nil {
			t.Fatal(err)
		}
		lops := make([]LookupOp, len(names))
		for i, n := range names {
			lops[i].Name = n
		}
		LookupAll(ctx, conn, lops)
		ops := make([]UpdateOp, len(lops))
		for i, lop := range lops {
			if lop.Err != nil {
				t.Fatalf("%s: lookup %s: %v", c.name, lop.Name, lop.Err)
			}
			meta := lop.Set.Meta()
			mir, err := meta.NewMirror()
			if err != nil {
				t.Fatal(err)
			}
			defer mir.Delete()
			want := &common
			if i == perConn {
				want = &odd
			}
			if *want == nil {
				*want = meta.Schema
			}
			if meta.Schema != *want || mir.Schema() != *want {
				t.Fatalf("%s: %s resolved to schema %p (mirror %p), want %p", c.name, lop.Name, meta.Schema, mir.Schema(), *want)
			}
			if got := mir.CompID(0); got != uint64(i) {
				t.Errorf("%s: %s mirror carries component id %d, want its own %d", c.name, lop.Name, got, i)
			}
			ops[i] = UpdateOp{Set: lop.Set, Dst: make([]byte, meta.DataSize)}
		}
		UpdateAll(ctx, conn, ops) // full chunks, then deltas under the shared schema
		for i := range ops {
			ops[i].AckDGN, ops[i].HaveAck = wireLE.Uint64(ops[i].Dst[8:]), true // the chunk header's DGN
			reg.Get(lops[i].Name).SetU64(1, 7)
		}
		UpdateAll(ctx, conn, ops)
		for i, op := range ops {
			if op.Err != nil || !op.WasDelta {
				t.Fatalf("%s: delta pull of %s: err %v, delta %v", c.name, lops[i].Name, op.Err, op.WasDelta)
			}
		}
	}
	if common == odd {
		t.Fatal("a different metric list under the same schema name shares the schema")
	}
}
