package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"testing"

	"goldms/internal/metric"
)

// mix64 is splitmix64's finalizer: incompressible, reproducible test values.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// wideCard is the width of the sets below: 512 u64 metrics make a 4 KiB data
// chunk, the wide_churn shape.
const wideCard = 512

func wideSchema(name string) *metric.Schema {
	sch := metric.NewSchema(name)
	for j := 0; j < wideCard; j++ {
		sch.MustAddMetric(fmt.Sprintf("m%03d", j), metric.TypeU64)
	}
	return sch
}

// fillWide rewrites the first n metrics of set for the given step: small
// near-equal numbers deflate shrinks several-fold, or random bits it cannot
// shrink at all.
func fillWide(set *metric.Set, step, n int, compressible bool) {
	set.SetValues(func(b *metric.Batch) {
		for j := 0; j < n; j++ {
			v := uint64(step + j%4)
			if !compressible {
				v = mix64(uint64(step)<<16 | uint64(j))
			}
			b.SetU64(j, v)
		}
	})
}

// TestCompressionBackoff is the sender's policy as a table: a loss skips the
// set's next 1, 2, 4 … deflateBackoffMax large update responses, a win
// returns it to "always offer", frames under compressMin neither consult nor
// advance the state, and frames that name no set are always offered.
func TestCompressionBackoff(t *testing.T) {
	var out bytes.Buffer
	srv := NewServer(metric.NewRegistry())
	sc := &sockConn{w: bufio.NewWriter(&out), localCaps: capsAll, srv: srv}
	sc.peerCaps.Store(capsAll)
	random := make([]byte, 4096)
	for i := range random {
		random[i] = byte(mix64(uint64(i)))
	}
	zeros := make([]byte, 4096)
	// write sends one frame for ss and reports whether deflate was offered it
	// and whether it went out compressed.
	write := func(ss *servedSet, payload []byte) (offered, packed bool) {
		t.Helper()
		before := srv.Stats()
		out.Reset()
		if err := sc.writeLocked(msgUpdateResp, 1, payload, ss); err != nil {
			t.Fatal(err)
		}
		if err := sc.w.Flush(); err != nil {
			t.Fatal(err)
		}
		typ, _, got, err := readFrameBytes(out.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		packed = typ&compressFlag != 0
		if _, got, err = maybeInflate(typ, got); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame does not decode to what was sent (err %v)", err)
		}
		after := srv.Stats()
		if wins := after.DeflateWins - before.DeflateWins; (wins == 1) != packed {
			t.Fatalf("DeflateWins moved by %d on a frame with packed=%v", wins, packed)
		}
		return after.DeflateOffers > before.DeflateOffers, packed
	}

	var ss servedSet
	for _, want := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 256} {
		if offered, packed := write(&ss, random); !offered || packed {
			t.Fatalf("before a skip of %d: offered=%v packed=%v, want a lost offer", want, offered, packed)
		}
		if int(ss.skip) != want {
			t.Fatalf("after the loss: skip = %d, want %d", ss.skip, want)
		}
		for i := 0; i < want; i++ {
			if i == want/2 {
				// A small frame in the middle of a back-off: not offered, not counted.
				state := ss
				if offered, _ := write(&ss, random[:compressMin-1]); offered || ss != state {
					t.Fatalf("frame under compressMin: offered=%v state %+v -> %+v", offered, state, ss)
				}
			}
			// Even a frame that would have won is not offered while backed off.
			if offered, _ := write(&ss, zeros); offered {
				t.Fatalf("skip of %d: response %d was offered", want, i)
			}
		}
	}
	// A win resets: every following frame is offered, and the next loss
	// starts again from one.
	for i := 0; i < 3; i++ {
		if offered, packed := write(&ss, zeros); !offered || !packed || ss != (servedSet{}) {
			t.Fatalf("win %d: offered=%v packed=%v state %+v", i, offered, packed, ss)
		}
	}
	if write(&ss, random); ss.skip != 1 {
		t.Fatalf("first loss after a win: skip = %d, want 1", ss.skip)
	}
	// Small frames do not wear a back-off down either.
	for i := 0; i < 5; i++ {
		write(&ss, zeros[:compressMin-1])
	}
	if ss.skip != 1 {
		t.Fatalf("small frames advanced the state: skip = %d", ss.skip)
	}
	// Stateless frames (dir, lookup, requests): offered however often they lose.
	for i := 0; i < 4; i++ {
		if offered, packed := write(nil, random); !offered || packed {
			t.Fatalf("stateless frame %d: offered=%v packed=%v", i, offered, packed)
		}
	}
	// Nothing but deflate ran on this server: its time is in the serving account.
	if st := srv.Stats(); st.HostCPU <= 0 {
		t.Errorf("HostCPU = %v after %d deflate offers", st.HostCPU, st.DeflateOffers)
	}
}

// adaptivePeer is one client connection of TestSockCompressionAdaptive with
// its serving side's counters.
type adaptivePeer struct {
	srv     *Server
	conn    Conn
	ops     []UpdateOp
	mirrors []*metric.Set
}

func newAdaptivePeer(t *testing.T, reg *metric.Registry, f SockFactory, trace bool, names []string) *adaptivePeer {
	t.Helper()
	p := &adaptivePeer{srv: NewServer(reg)}
	if trace {
		p.srv.Trace = testTraceHook()
	}
	ln, err := f.Listen("127.0.0.1:0", p.srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	if p.conn, err = f.Dial(ln.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.conn.Close() })
	if _, err := p.conn.Dir(context.Background()); err != nil { // negotiates capabilities
		t.Fatal(err)
	}
	p.ops = lookupAll(t, p.conn, names)
	for _, op := range p.ops {
		mir, err := op.Set.Meta().NewMirror()
		if err != nil {
			t.Fatal(err)
		}
		p.mirrors = append(p.mirrors, mir)
	}
	return p
}

// pull fetches op k alone, acknowledging the chunk its buffer holds when
// ack is set, loads the result into the mirror, and returns the wire bytes
// the response cost plus the serving side's deflate offers and wins for it.
func (p *adaptivePeer) pull(t *testing.T, k int, ack bool) (wire, offers, wins int64) {
	t.Helper()
	op := &p.ops[k]
	if ack && op.N > 0 {
		op.AckDGN, op.HaveAck = p.mirrors[k].DGN(), true
	}
	st0 := p.conn.ConnStats()
	sv0 := p.srv.Stats()
	UpdateAll(context.Background(), p.conn, p.ops[k:k+1])
	if op.Err != nil {
		t.Fatalf("pull of op %d: %v", k, op.Err)
	}
	if err := p.mirrors[k].LoadData(op.Dst[:op.N]); err != nil {
		t.Fatalf("pull of op %d: %v", k, err)
	}
	st1 := p.conn.ConnStats()
	sv1 := p.srv.Stats()
	return st1.BytesIn - st0.BytesIn, sv1.DeflateOffers - sv0.DeflateOffers, sv1.DeflateWins - sv0.DeflateWins
}

// TestSockCompressionAdaptive serves a compressible, an incompressible and a
// flipping wide set on one connection, 600 pulls each, in each of the four
// update-response shapes. Against a NoCompress connection the pulled chunks
// are byte-equal at every step; against a sender that offered every response
// (a connection pulling only the compressible set, shown to have) the
// compressible set costs the same wire bytes; the incompressible set is
// offered a handful of times, not 600; the flipping set is compressed again
// within the cap.
func TestSockCompressionAdaptive(t *testing.T) {
	for _, shape := range []struct {
		name         string
		delta, trace bool
	}{
		{"full", false, false},
		{"full+trace", false, true},
		{"delta", true, false},
		{"delta+trace", true, true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			t.Parallel() // four independent rigs; the race-detector CI step runs this 20 times
			testCompressionAdaptive(t, shape.delta, shape.trace)
		})
	}
}

func testCompressionAdaptive(t *testing.T, delta, trace bool) {
	const (
		pulls = 600
		// The flipping set: compressible, incompressible from flipOut,
		// compressible again from flipBack.
		flipOut, flipBack  = 50, 300
		comp, incomp, flip = 0, 1, 2
	)
	names := []string{"wide/a-comp", "wide/b-incomp", "wide/c-flip"}
	reg := metric.NewRegistry()
	sets := make([]*metric.Set, len(names))
	sch := wideSchema("wide")
	for i, name := range names {
		set, err := metric.New(name, sch)
		if err != nil {
			t.Fatal(err)
		}
		fillWide(set, 0, wideCard, i != incomp)
		if err := reg.Add(set); err != nil {
			t.Fatal(err)
		}
		sets[i] = set
	}
	f := SockFactory{NoDelta: !delta, NoTrace: !trace}
	plainF := f
	plainF.NoCompress = true
	adaptive := newAdaptivePeer(t, reg, f, trace, names)
	always := newAdaptivePeer(t, reg, f, trace, names[:1])
	plain := newAdaptivePeer(t, reg, plainF, trace, names)

	// In the delta shapes the compressible set changes half its metrics a
	// step, so its response is a real delta (2.6 kB of index/value entries);
	// the other two change everything and take the full-chunk fallback inside
	// the delta response.
	compChanged := wideCard
	if delta {
		compChanged = wideCard / 2
	}
	var wire, offers, wins [3]int64
	var alwaysWire, alwaysOffers int64
	regained := -1
	for step := 1; step <= pulls; step++ {
		fillWide(sets[comp], step, compChanged, true)
		fillWide(sets[incomp], step, wideCard, false)
		flipCompressible := step < flipOut || step >= flipBack
		fillWide(sets[flip], step, wideCard, flipCompressible)
		for k := range names {
			w, o, n := adaptive.pull(t, k, delta)
			wire[k] += w
			offers[k] += o
			wins[k] += n
			plain.pull(t, k, delta)
			if a, p := adaptive.ops[k], plain.ops[k]; !bytes.Equal(a.Dst[:a.N], p.Dst[:p.N]) {
				t.Fatalf("step %d, %s: chunk differs from the NoCompress connection's", step, names[k])
			}
			if trace && len(adaptive.ops[k].Trace) == 0 {
				t.Fatalf("step %d, %s: no trace block on a trace-negotiated connection", step, names[k])
			}
			if k == flip {
				switch {
				case step < flipOut && n != 1:
					t.Fatalf("step %d: flipping set not compressed in its first compressible phase", step)
				case step >= flipBack && regained < 0 && n == 1:
					regained = step
				case regained >= 0 && n != 1:
					t.Fatalf("step %d: flipping set regained compression at %d and lost it again", step, regained)
				}
			}
		}
		w, o, _ := always.pull(t, comp, delta)
		alwaysWire += w
		alwaysOffers += o
	}
	if st := adaptive.conn.ConnStats(); delta && st.DeltaUpdates != pulls-1 {
		t.Errorf("delta shape: %d real deltas, want %d (the compressible set's, after its first pull)", st.DeltaUpdates, pulls-1)
	} else if !delta && st.DeltaUpdates != 0 {
		t.Errorf("full shape: %d deltas", st.DeltaUpdates)
	}
	if alwaysOffers != pulls {
		t.Fatalf("the reference sender offered %d of %d responses", alwaysOffers, pulls)
	}
	if wins[comp] != pulls {
		t.Errorf("compressible set: %d of %d responses went out compressed", wins[comp], pulls)
	}
	if d := wire[comp] - alwaysWire; d > alwaysWire/100 || -d > alwaysWire/100 {
		t.Errorf("compressible set: %d wire bytes, always-offer sender %d (more than 1%% apart)", wire[comp], alwaysWire)
	}
	raw := int64(pulls * (frameHeader + sets[comp].DataSize()))
	if wire[comp] > raw/2 {
		t.Errorf("compressible set: %d wire bytes of %d raw, compression did nothing", wire[comp], raw)
	}
	if offers[incomp] > 12 || wins[incomp] != 0 {
		t.Errorf("incompressible set: %d offers (want <= 12), %d wins (want 0) in %d pulls", offers[incomp], wins[incomp], pulls)
	}
	if regained < 0 || regained > flipBack+deflateBackoffMax+1 {
		t.Errorf("flipping set compressible again from pull %d, compressed again at %d (want within %d)", flipBack, regained, deflateBackoffMax+1)
	}
	if offers[flip] > flipOut+(pulls-flipBack)+12 {
		t.Errorf("flipping set: %d offers", offers[flip])
	}
}

// TestSockHandleReuse: looking one set up again and again on a connection
// returns the one handle and leaves one entry in the serving side's table
// (it used to grow by one per lookup, on the sampler host, without bound),
// and every RemoteSet handed out still pulls.
func TestSockHandleReuse(t *testing.T) {
	reg := newTestRegistry(t, 2)
	names := reg.Dir()
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
	const n = 1000
	ops := make([]LookupOp, n+1)
	for i := range ops {
		ops[i].Name = names[0]
	}
	ops[n].Name = names[1]
	LookupAll(ctx, conn, ops)
	pullOps := make([]UpdateOp, len(ops))
	for i, op := range ops {
		if op.Err != nil {
			t.Fatalf("lookup %d: %v", i, op.Err)
		}
		if h, h0 := op.Set.(*sockRemoteSet).handle, ops[0].Set.(*sockRemoteSet).handle; (h == h0) != (i < n) {
			t.Fatalf("lookup %d of %q: handle %d, first lookup's %d", i, op.Name, h, h0)
		}
		pullOps[i] = UpdateOp{Set: op.Set, Dst: make([]byte, op.Set.Meta().DataSize)}
	}
	UpdateAll(ctx, conn, pullOps)
	for i, op := range pullOps {
		if op.Err != nil {
			t.Fatalf("pull through lookup %d: %v", i, op.Err)
		}
		mir, err := op.Set.Meta().NewMirror()
		if err != nil {
			t.Fatal(err)
		}
		if err := mir.LoadData(op.Dst[:op.N]); err != nil {
			t.Fatal(err)
		}
		// newTestRegistry's set i carries a = 100+i.
		if want := uint64(100 + i/n); mir.U64(0) != want {
			t.Fatalf("pull through lookup %d: a = %d, want %d", i, mir.U64(0), want)
		}
	}
	// The serving half's table belongs to its readLoop goroutine: look at it
	// once the listener has closed the connection and waited that goroutine out.
	l := ln.(*sockListener)
	var peer *sockConn
	l.mu.Lock()
	for p := range l.peers {
		peer = p
	}
	l.mu.Unlock()
	if peer == nil {
		t.Fatal("no serving connection")
	}
	ln.Close()
	if len(peer.handles) != 2 || len(peer.handleOf) != 2 {
		t.Errorf("serving side holds %d handles (%d indexed) after %d lookups of 2 sets, want 2", len(peer.handles), len(peer.handleOf), len(ops))
	}
}

// TestSockCompressionBackedOffFree: once an incompressible wide set is backed
// off, serving it makes no deflate call at all and a pull allocates what
// TestUpdateBatchAllocs allows a pull of any set.
func TestSockCompressionBackedOffFree(t *testing.T) {
	reg := metric.NewRegistry()
	set, err := metric.New("wide/incomp", wideSchema("wide"))
	if err != nil {
		t.Fatal(err)
	}
	fillWide(set, 1, wideCard, false)
	if err := reg.Add(set); err != nil {
		t.Fatal(err)
	}
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
	if _, err := conn.Dir(ctx); err != nil {
		t.Fatal(err)
	}
	ops := lookupAll(t, conn, reg.Dir())
	// The 264th pull is the ninth lost offer and buys 128 pulls of silence.
	for i := 0; i < 264; i++ {
		UpdateAll(ctx, conn, ops)
		if ops[0].Err != nil {
			t.Fatal(ops[0].Err)
		}
	}
	before := srv.Stats()
	const runs = 100 // AllocsPerRun adds a warm-up run: 101 pulls, inside the 128
	perPull := testing.AllocsPerRun(runs, func() { UpdateAll(ctx, conn, ops) })
	after := srv.Stats()
	if got := after.Updates - before.Updates; got != runs+1 {
		t.Fatalf("%d pulls served, want %d", got, runs+1)
	}
	if d := after.DeflateOffers - before.DeflateOffers; d != 0 {
		t.Errorf("%d deflate offers while backed off, want 0", d)
	}
	if perPull != 0 {
		t.Errorf("a pull of a backed-off set: %.1f allocs, want 0", perPull)
	}
	if ops[0].Err != nil || ops[0].N != set.DataSize() {
		t.Errorf("last pull: n=%d err=%v", ops[0].N, ops[0].Err)
	}
}

// addSynth adds n sets of one card-metric u64 layout to reg, named
// prefix/NNNN and filled as fillWide would: splitmix values, or small
// near-equal numbers deflate shrinks. It returns their names in order.
func addSynth(tb testing.TB, reg *metric.Registry, prefix string, n, card int, compressible bool) []string {
	tb.Helper()
	sch := metric.NewSchema(prefix)
	for j := 0; j < card; j++ {
		sch.MustAddMetric(fmt.Sprintf("m%03d", j), metric.TypeU64)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%s/%04d", prefix, i)
		set, err := metric.New(names[i], sch)
		if err != nil {
			tb.Fatal(err)
		}
		set.SetValues(func(b *metric.Batch) {
			for j := 0; j < card; j++ {
				v := uint64(j % 4)
				if !compressible {
					v = mix64(uint64(i)<<16 | uint64(j))
				}
				b.SetU64(j, v)
			}
		})
		if err := reg.Add(set); err != nil {
			tb.Fatal(err)
		}
	}
	return names
}

// TestSockCompressionColdStart: on a cold connection deflate is offered one
// first chunk per layout that never wins, not one per set. 64 incompressible
// sets of one layout and 8 compressible sets of another are looked up and
// pulled once: the first layout costs one lost offer, the second 8 offers
// and 8 wins. Every chunk equals a NoCompress connection's, and on the
// second pull each set that skipped its first offer is offered once more.
func TestSockCompressionColdStart(t *testing.T) {
	const nIncomp, nComp = 64, 8
	reg := metric.NewRegistry()
	incompNames := addSynth(t, reg, "synth64", nIncomp, 64, false)
	compNames := addSynth(t, reg, "comp", nComp, wideCard, true)
	names := append(incompNames, compNames...)
	adaptive := newAdaptivePeer(t, reg, SockFactory{}, false, names)
	plain := newAdaptivePeer(t, reg, SockFactory{NoCompress: true}, false, names)
	incomp, comp := adaptive.ops[:nIncomp], adaptive.ops[nIncomp:]
	ctx := context.Background()

	// pullAll pulls ops once and returns the serving side's offers and wins.
	pullAll := func(ops []UpdateOp) (offers, wins int64) {
		t.Helper()
		before := adaptive.srv.Stats()
		UpdateAll(ctx, adaptive.conn, ops)
		for _, op := range ops {
			if op.Err != nil {
				t.Fatal(op.Err)
			}
		}
		after := adaptive.srv.Stats()
		return after.DeflateOffers - before.DeflateOffers, after.DeflateWins - before.DeflateWins
	}
	if offers, wins := pullAll(incomp); offers != 1 || wins != 0 {
		t.Errorf("first pull of %d incompressible sets of one layout: %d offers, %d wins; want 1, 0", nIncomp, offers, wins)
	}
	if offers, wins := pullAll(comp); offers != nComp || wins != nComp {
		t.Errorf("first pull of %d compressible sets: %d offers, %d wins; want %d, %d", nComp, offers, wins, nComp, nComp)
	}
	// samePlain pulls every set over the NoCompress connection and compares.
	samePlain := func(pull int) {
		t.Helper()
		UpdateAll(ctx, plain.conn, plain.ops)
		for k, op := range adaptive.ops {
			p := plain.ops[k]
			if p.Err != nil {
				t.Fatalf("pull %d, NoCompress op %d: %v", pull, k, p.Err)
			}
			if op.N == 0 || !bytes.Equal(op.Dst[:op.N], p.Dst[:p.N]) {
				t.Fatalf("pull %d, op %d: chunk differs from the NoCompress connection's", pull, k)
			}
		}
	}
	samePlain(1)
	// Second pull, one set at a time: the set whose offer lost waits one
	// response out; each seeded set has done so and is offered again.
	for k := range incomp {
		offers, _ := pullAll(incomp[k : k+1])
		if want := int64(min(k, 1)); offers != want {
			t.Errorf("second pull of incompressible set %d: %d offers, want %d", k, offers, want)
		}
	}
	if offers, wins := pullAll(comp); offers != nComp || wins != nComp {
		t.Errorf("second pull of %d compressible sets: %d offers, %d wins; want %d, %d", nComp, offers, wins, nComp, nComp)
	}
	samePlain(2)
}
