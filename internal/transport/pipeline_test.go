package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"goldms/internal/metric"
)

// lookupAll looks up every named set and pairs each handle with an update
// buffer, ready for UpdateAll.
func lookupAll(t *testing.T, conn Conn, names []string) []UpdateOp {
	t.Helper()
	ops := make([]UpdateOp, len(names))
	for i, name := range names {
		rs, err := conn.Lookup(context.Background(), name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		ops[i] = UpdateOp{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}
	}
	return ops
}

// checkOps verifies every op succeeded and mirrors carry the values
// newTestRegistry wrote (a = 100+i).
func checkOps(t *testing.T, ops []UpdateOp) {
	t.Helper()
	for i, op := range ops {
		if op.Err != nil {
			t.Fatalf("op %d: %v", i, op.Err)
		}
		mir, err := op.Set.Meta().NewMirror()
		if err != nil {
			t.Fatal(err)
		}
		if err := mir.LoadData(op.Dst[:op.N]); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got := mir.U64(0); got != uint64(100+i) {
			t.Errorf("op %d: a = %d want %d", i, got, 100+i)
		}
	}
}

func TestSockUpdateBatch(t *testing.T) {
	reg := newTestRegistry(t, 8)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)

	// A second batch reuses the same handles (and recycled buffers).
	for i := range ops {
		ops[i].N, ops[i].Err = 0, nil
	}
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)
}

// TestSockPipelineSymmetricInterleave drives pipelined update batches from
// BOTH ends of one TCP connection at once: the listener pulls the dialer's
// sets while the dialer pulls the listener's, so update responses
// interleave with incoming server-half requests on each side. Every op
// must still resolve to its own set's data.
func TestSockPipelineSymmetricInterleave(t *testing.T) {
	aggReg := newTestRegistry(t, 6)
	smpReg := newTestRegistry(t, 6)

	peerCh := make(chan Conn, 1)
	ln, err := SockFactory{}.ListenPeer("127.0.0.1:0", NewServer(aggReg), func(name string, conn Conn) {
		if name == "smp" {
			peerCh <- conn
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	dialConn, err := SockFactory{}.DialNamed(ln.Addr(), "smp", NewServer(smpReg))
	if err != nil {
		t.Fatal(err)
	}
	defer dialConn.Close()
	aggConn := <-peerCh

	aggOps := lookupAll(t, aggConn, smpReg.Dir())
	smpOps := lookupAll(t, dialConn, aggReg.Dir())

	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i := range aggOps {
				aggOps[i].N, aggOps[i].Err = 0, nil
			}
			UpdateAll(context.Background(), aggConn, aggOps)
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			for i := range smpOps {
				smpOps[i].N, smpOps[i].Err = 0, nil
			}
			UpdateAll(context.Background(), dialConn, smpOps)
		}
	}()
	wg.Wait()
	checkOps(t, aggOps)
	checkOps(t, smpOps)
}

// TestSockUpdateBatchMidBatchError forges a stale handle in the middle of
// a batch: only that op may fail, the rest of the pipeline must complete.
func TestSockUpdateBatchMidBatchError(t *testing.T) {
	reg := newTestRegistry(t, 4)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ops := lookupAll(t, conn, reg.Dir())
	sc := conn.(*sockConn)
	good := ops[1].Set.(*sockRemoteSet)
	ops[1].Set = &sockRemoteSet{conn: sc, handle: 9999, meta: good.meta}

	UpdateAll(context.Background(), conn, ops)
	if ops[1].Err == nil || !strings.Contains(ops[1].Err.Error(), "unknown set handle") {
		t.Fatalf("forged op error = %v, want unknown set handle", ops[1].Err)
	}
	for i, op := range ops {
		if i == 1 {
			continue
		}
		if op.Err != nil {
			t.Fatalf("op %d failed alongside the bad handle: %v", i, op.Err)
		}
		if op.N == 0 {
			t.Fatalf("op %d fetched no data", i)
		}
	}
}

// TestUpdateBatchAllocs: a steady-state pipelined batch allocates nothing on
// either half of the connection (both run in this process): no response
// channel or handle slice of its own, and frame headers are built and read in
// the bufio buffers rather than moved through an io interface.
func TestUpdateBatchAllocs(t *testing.T) {
	reg := newTestRegistry(t, 8)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(ctx, conn, ops) // warm the pools and the spare channel
	perBatch := testing.AllocsPerRun(200, func() { UpdateAll(ctx, conn, ops) })
	if perBatch != 0 {
		t.Errorf("UpdateBatch of %d ops: %.1f allocs, want 0", len(ops), perBatch)
	}
	sc := conn.(*sockConn)
	sc.mu.Lock()
	spare := sc.spare
	sc.mu.Unlock()
	if cap(spare) < len(ops) {
		t.Errorf("no response channel kept between batches (cap %d)", cap(spare))
	}
}

// TestMemUpdateBatchDelayOnce checks the mem transport charges its Delay
// hook once per pipelined batch, not once per op.
func TestMemUpdateBatchDelayOnce(t *testing.T) {
	reg := newTestRegistry(t, 5)
	var batches atomic.Int64
	fac := MemFactory{Net: NewNetwork(), Delay: func(addr, op string) {
		if op == "update_batch" {
			batches.Add(1)
		}
	}}
	if _, err := fac.Listen("node", NewServer(reg)); err != nil {
		t.Fatal(err)
	}
	conn, err := fac.Dial("node")
	if err != nil {
		t.Fatal(err)
	}
	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)
	if got := batches.Load(); got != 1 {
		t.Errorf("update_batch delays = %d want 1", got)
	}
}

// BenchmarkSockUpdate compares one-at-a-time round trips with the
// pipelined batch path over a real TCP loopback connection.
func BenchmarkSockUpdate(b *testing.B) {
	const nsets = 64
	reg := metric.NewRegistry()
	for i := 0; i < nsets; i++ {
		sch := metric.NewSchema(fmt.Sprintf("schema%02d", i))
		sch.MustAddMetric("a", metric.TypeU64)
		sch.MustAddMetric("b", metric.TypeD64)
		set, err := metric.New(fmt.Sprintf("set%02d", i), sch)
		if err != nil {
			b.Fatal(err)
		}
		if err := reg.Add(set); err != nil {
			b.Fatal(err)
		}
	}
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()

	ops := make([]UpdateOp, nsets)
	for i, name := range reg.Dir() {
		rs, err := conn.Lookup(context.Background(), name)
		if err != nil {
			b.Fatal(err)
		}
		ops[i] = UpdateOp{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}
	}
	ctx := context.Background()

	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			for i := range ops {
				UpdateAll(ctx, conn, ops[i:i+1])
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			UpdateAll(ctx, conn, ops)
		}
	})
}

// readDGN extracts the data generation number from a pulled data chunk, the
// value an updater acknowledges on its next delta request.
func readDGN(t *testing.T, op UpdateOp) uint64 {
	t.Helper()
	mir, err := op.Set.Meta().NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	if err := mir.LoadData(op.Dst[:op.N]); err != nil {
		t.Fatal(err)
	}
	return mir.DGN()
}

// TestSockDeltaUpdates drives the delta protocol end to end over TCP: a full
// first pull, then an acknowledged pull that must arrive as a delta and
// patch the buffer to exactly the server's current bytes, then a bogus
// (future) ack that must transparently fall back to a full chunk.
func TestSockDeltaUpdates(t *testing.T) {
	reg := newTestRegistry(t, 4)
	srv := NewServer(reg)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()
	if _, err := conn.Dir(ctx); err != nil { // negotiates capabilities
		t.Fatal(err)
	}

	ops := lookupAll(t, conn, reg.Dir())
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if ops[i].WasDelta {
			t.Fatalf("op %d: first pull arrived as a delta", i)
		}
		ops[i].AckDGN, ops[i].HaveAck = readDGN(t, ops[i]), true
	}

	// Mutate one metric per set, then pull with acks: every response must
	// be a delta and the patched chunks must match the new values.
	for i, name := range reg.Dir() {
		set := reg.Get(name)
		set.BeginTransaction()
		set.SetU64(0, uint64(100+i)) // checkOps expects a = 100+i
		set.EndTransaction(time.Unix(2000, 0))
	}
	for i := range ops {
		ops[i].N, ops[i].Err, ops[i].WasDelta = 0, nil, false
	}
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if !ops[i].WasDelta {
			t.Errorf("op %d: acknowledged pull was not a delta", i)
		}
	}
	st := conn.ConnStats()
	if st.Updates != 8 || st.DeltaUpdates != 4 {
		t.Errorf("conn stats updates=%d delta=%d, want 8/4", st.Updates, st.DeltaUpdates)
	}
	if got := srv.Stats().DeltaUpdates; got != 4 {
		t.Errorf("server delta updates = %d want 4", got)
	}

	// A future ack (the peer restarted, generations rewound) must fall back
	// to a full chunk, not an error.
	for i := range ops {
		ops[i].N, ops[i].Err, ops[i].WasDelta = 0, nil, false
		ops[i].AckDGN = 1 << 60
	}
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if ops[i].WasDelta {
			t.Errorf("op %d: future ack still answered with a delta", i)
		}
	}
}

// TestSockDeltaBytesPerSample verifies the wire saving the delta path
// exists for: steady-state acknowledged pulls of a wide set move far fewer
// bytes per sample than full-chunk pulls of the same set.
func TestSockDeltaBytesPerSample(t *testing.T) {
	sch := metric.NewSchema("wide")
	for i := 0; i < 64; i++ {
		sch.MustAddMetric(fmt.Sprintf("m%02d", i), metric.TypeU64)
	}
	set, err := metric.New("wide0", sch)
	if err != nil {
		t.Fatal(err)
	}
	reg := metric.NewRegistry()
	if err := reg.Add(set); err != nil {
		t.Fatal(err)
	}
	// Seed every metric with pseudorandom bits so the full chunk looks like
	// real telemetry (counters at arbitrary values) rather than zeros that
	// frame compression would collapse on its own.
	set.BeginTransaction()
	seed := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 64; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		set.SetU64(i, seed)
	}
	set.EndTransaction(time.Unix(1, 0))
	tick := func(v uint64) {
		set.BeginTransaction()
		set.SetU64(3, v) // one changing metric out of 64
		set.EndTransaction(time.Unix(int64(v), 0))
	}
	tick(1)

	pull := func(f SockFactory, ack bool) (perSample float64, deltas int64) {
		ln, err := f.Listen("127.0.0.1:0", NewServer(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := f.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		ctx := context.Background()
		if _, err := conn.Dir(ctx); err != nil {
			t.Fatal(err)
		}
		rs, err := conn.Lookup(ctx, "wide0")
		if err != nil {
			t.Fatal(err)
		}
		ops := []UpdateOp{{Set: rs, Dst: make([]byte, rs.Meta().DataSize)}}
		UpdateAll(ctx, conn, ops)
		if ops[0].Err != nil {
			t.Fatal(ops[0].Err)
		}
		base := conn.ConnStats()
		const rounds = 50
		for r := 0; r < rounds; r++ {
			tick(uint64(2 + r))
			if ack {
				ops[0].AckDGN, ops[0].HaveAck = readDGN(t, ops[0]), true
			}
			ops[0].N, ops[0].Err = 0, nil
			UpdateAll(ctx, conn, ops)
			if ops[0].Err != nil {
				t.Fatal(ops[0].Err)
			}
		}
		st := conn.ConnStats()
		return float64(st.BytesIn-base.BytesIn) / rounds, st.DeltaUpdates
	}

	full, fdeltas := pull(SockFactory{NoDelta: true}, false)
	delta, ddeltas := pull(SockFactory{}, true)
	if fdeltas != 0 {
		t.Fatalf("NoDelta factory produced %d deltas", fdeltas)
	}
	if ddeltas == 0 {
		t.Fatal("acknowledged pulls produced no deltas")
	}
	if delta*5 > full {
		t.Errorf("delta path = %.1f B/sample, full = %.1f: saving < 5x", delta, full)
	}
}

// TestSockDictionaryNames checks dictionary-coded directory traffic: after
// the first dir response defines each name, the client's receive dictionary
// resolves ids, lookups go over the wire by id, and a repeat dir moves
// fewer bytes than the defining one.
func TestSockDictionaryNames(t *testing.T) {
	reg := newTestRegistry(t, 6)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()

	names, err := conn.Dir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("dir = %v", names)
	}
	sc := conn.(*sockConn)
	st1 := conn.ConnStats()
	sc.dmu.Lock()
	ids := len(sc.rdict.ids)
	sc.dmu.Unlock()
	if ids != 6 {
		t.Fatalf("receive dictionary holds %d ids, want 6", ids)
	}

	// Repeat dir: every name is now a 5-byte reference instead of a
	// definition carrying the string.
	if _, err := conn.Dir(ctx); err != nil {
		t.Fatal(err)
	}
	st2 := conn.ConnStats()
	if grew, first := st2.BytesIn-st1.BytesIn, st1.BytesIn; grew >= first {
		t.Errorf("referencing dir response (%d B) not smaller than defining one (%d B)", grew, first)
	}

	// Lookups resolve through the dictionary (the request is a 4-byte id).
	for _, n := range names {
		rs, err := conn.Lookup(ctx, n)
		if err != nil {
			t.Fatalf("dictionary lookup %s: %v", n, err)
		}
		if rs.Meta().Instance != n {
			t.Errorf("lookup %s resolved to %s", n, rs.Meta().Instance)
		}
	}
}

// TestSockCompressionSavesBytes compares the same large directory exchange
// with and without the compression capability: the compressed connection
// must move fewer bytes and still decode identically.
func TestSockCompressionSavesBytes(t *testing.T) {
	reg := metric.NewRegistry()
	for i := 0; i < 40; i++ {
		sch := metric.NewSchema(fmt.Sprintf("schema%02d", i))
		sch.MustAddMetric("a", metric.TypeU64)
		set, err := metric.New(fmt.Sprintf("very/long/compressible/instance/name/%04d", i), sch)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	dirBytes := func(f SockFactory) int64 {
		ln, err := f.Listen("127.0.0.1:0", NewServer(reg))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := f.Dial(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// First dir negotiates caps but pre-dates them on the wire; the
		// second exercises the negotiated compression.
		if _, err := conn.Dir(context.Background()); err != nil {
			t.Fatal(err)
		}
		st1 := conn.ConnStats()
		names, err := conn.Dir(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 40 {
			t.Fatalf("dir = %d names", len(names))
		}
		st2 := conn.ConnStats()
		return st2.BytesIn - st1.BytesIn
	}
	// NoDict isolates compression: dictionary refs would shrink the repeat
	// response on their own.
	plain := dirBytes(SockFactory{NoCompress: true, NoDict: true})
	packed := dirBytes(SockFactory{NoDict: true})
	if packed >= plain {
		t.Errorf("compressed dir moved %d B, uncompressed %d B", packed, plain)
	}
}

// noCaps masks every capability: its connections advertise none and speak
// the plain protocol that testdata/legacy_peer.frames pins.
var noCaps = SockFactory{NoDelta: true, NoDict: true, NoCompress: true, NoTrace: true}

// TestSockLegacyServerFallback peers a fully capable client with a legacy
// (no-capability) server: everything must keep working over the plain
// protocol — full updates despite acknowledged DGNs, un-dictionaried names,
// no compression.
func TestSockLegacyServerFallback(t *testing.T) {
	reg := newTestRegistry(t, 3)
	srv := NewServer(reg)
	ln, err := noCaps.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := SockFactory{}.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()

	names, err := conn.Dir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("dir over legacy peer = %v", names)
	}
	if got := conn.(*sockConn).peerCaps.Load(); got != 0 {
		t.Fatalf("legacy server advertised caps %#x", got)
	}

	ops := lookupAll(t, conn, names)
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		ops[i].AckDGN, ops[i].HaveAck = readDGN(t, ops[i]), true
		ops[i].N, ops[i].Err = 0, nil
	}
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if ops[i].WasDelta {
			t.Errorf("op %d: delta from a legacy server", i)
		}
	}
	if st := conn.ConnStats(); st.DeltaUpdates != 0 {
		t.Errorf("delta updates against legacy server = %d", st.DeltaUpdates)
	}
	if got := srv.Stats().DeltaUpdates; got != 0 {
		t.Errorf("legacy server served %d deltas", got)
	}
}

// TestSockLegacyClientFallback is the inverse pairing: an old client against
// a new server. The server must answer with the plain protocol (the legacy
// client never offered capabilities) and the client must remain oblivious
// to the capability trailer on dir responses.
func TestSockLegacyClientFallback(t *testing.T) {
	reg := newTestRegistry(t, 3)
	srv := NewServer(reg)
	ln, err := SockFactory{}.Listen("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := noCaps.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := context.Background()

	names, err := conn.Dir(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("legacy dir against new server = %v", names)
	}
	ops := lookupAll(t, conn, names)
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	// Even a (buggy) caller setting acks on a legacy connection gets full
	// chunks: the client never negotiated the capability.
	for i := range ops {
		ops[i].AckDGN, ops[i].HaveAck = readDGN(t, ops[i]), true
		ops[i].N, ops[i].Err = 0, nil
	}
	UpdateAll(ctx, conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if ops[i].WasDelta {
			t.Errorf("op %d: delta on a legacy client", i)
		}
	}
	if got := srv.Stats().DeltaUpdates; got != 0 {
		t.Errorf("server served %d deltas to a legacy client", got)
	}
}

// TestMemLegacyPeerFallback covers the mem transport's model of an old
// peer: NoDelta connections ignore acknowledged DGNs and always move full
// chunks, so mixed-version simulations behave like mixed-version daemons.
func TestMemLegacyPeerFallback(t *testing.T) {
	reg := newTestRegistry(t, 3)
	fac := MemFactory{Net: NewNetwork(), NoDelta: true}
	if _, err := fac.Listen("node", NewServer(reg)); err != nil {
		t.Fatal(err)
	}
	conn, err := fac.Dial("node")
	if err != nil {
		t.Fatal(err)
	}
	ops := lookupAll(t, conn, reg.Dir())
	for i := range ops {
		ops[i].HaveAck = true // would be a delta on a capable connection
	}
	UpdateAll(context.Background(), conn, ops)
	checkOps(t, ops)
	for i := range ops {
		if ops[i].WasDelta {
			t.Errorf("op %d: NoDelta mem conn produced a delta", i)
		}
	}
	if st := conn.ConnStats(); st.DeltaUpdates != 0 {
		t.Errorf("NoDelta mem conn counted %d delta updates", st.DeltaUpdates)
	}
}
