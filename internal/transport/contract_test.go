package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"goldms/internal/metric"
)

// strayHandle is a RemoteSet no transport made.
type strayHandle struct{ meta *metric.Meta }

func (h strayHandle) Meta() *metric.Meta { return h.meta }

// TestConnContract holds every Conn implementation to the one interface:
// DirGen follows set membership, ConnStats counts one update per completed
// op, a handle from elsewhere fails only its own op, and a one-op UpdateAll
// without an ack is a plain full-chunk pull.
func TestConnContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Factory
		addr string
	}{
		{"sock", SockFactory{}, "127.0.0.1:0"},
		{"rdma", RDMAFactory{Kind: "rdma"}, "127.0.0.1:0"},
		{"mem", MemFactory{Net: NewNetwork()}, "contract"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := newTestRegistry(t, 3)
			srv := NewServer(reg)
			ln, err := tc.f.Listen(tc.addr, srv)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			dial := func() Conn {
				conn, err := tc.f.Dial(ln.Addr())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				return conn
			}
			conn, other := dial(), dial()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := conn.Dir(ctx); err != nil {
				t.Fatal(err)
			}

			t.Run("DirGenFollowsMembership", func(t *testing.T) {
				g0, err := conn.DirGen(ctx)
				if err != nil {
					t.Fatal(err)
				}
				sch := metric.NewSchema("late")
				sch.MustAddMetric("x", metric.TypeU64)
				late, err := metric.New("late", sch)
				if err != nil {
					t.Fatal(err)
				}
				if err := reg.Add(late); err != nil {
					t.Fatal(err)
				}
				g1, err := conn.DirGen(ctx)
				if err != nil {
					t.Fatal(err)
				}
				reg.Remove("late")
				g2, err := conn.DirGen(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !(g0 < g1 && g1 < g2) {
					t.Errorf("dir generation %d -> add %d -> remove %d, want strictly rising", g0, g1, g2)
				}
			})

			t.Run("PlainPullIsTheChunk", func(t *testing.T) {
				rs, err := conn.Lookup(ctx, "set01")
				if err != nil {
					t.Fatal(err)
				}
				want := make([]byte, rs.Meta().DataSize)
				want = want[:reg.Get("set01").CopyDataInto(want)]
				before, served := conn.ConnStats(), srv.Stats()
				op := []UpdateOp{{Set: rs, Dst: make([]byte, len(want)+8), WasDelta: true}}
				UpdateAll(ctx, conn, op)
				if op[0].Err != nil {
					t.Fatal(op[0].Err)
				}
				if got := op[0].Dst[:op[0].N]; !bytes.Equal(got, want) {
					t.Errorf("one-op pull = %x, want the set's data chunk %x", got, want)
				}
				if op[0].WasDelta {
					t.Error("unacknowledged pull reported a delta")
				}
				after := conn.ConnStats()
				if after.Updates != before.Updates+1 || after.DeltaUpdates != before.DeltaUpdates {
					t.Errorf("conn counted %d updates (%d delta), want 1 full",
						after.Updates-before.Updates, after.DeltaUpdates-before.DeltaUpdates)
				}
				if st := srv.Stats(); st.Updates != served.Updates+1 || st.DeltaUpdates != served.DeltaUpdates {
					t.Errorf("server served %d updates (%d delta), want 1 full",
						st.Updates-served.Updates, st.DeltaUpdates-served.DeltaUpdates)
				}
			})

			t.Run("ForeignHandleFailsAlone", func(t *testing.T) {
				ops := lookupAll(t, conn, []string{"set00", "set01", "set02"})
				theirs := lookupAll(t, other, []string{"set01"})
				ops[1].Set = theirs[0].Set
				stray := UpdateOp{Set: strayHandle{ops[0].Set.Meta()}, Dst: make([]byte, len(ops[0].Dst))}
				ops = append(ops, stray)
				before, otherBefore, served := conn.ConnStats(), other.ConnStats(), srv.Stats()
				UpdateAll(ctx, conn, ops)
				for _, i := range []int{1, 3} {
					if !errors.Is(ops[i].Err, errForeignHandle) || ops[i].N != 0 {
						t.Errorf("op %d: n=%d err=%v, want %v", i, ops[i].N, ops[i].Err, errForeignHandle)
					}
				}
				for _, i := range []int{0, 2} {
					if ops[i].Err != nil || ops[i].N != len(ops[i].Dst) {
						t.Errorf("op %d failed beside the foreign handles: n=%d err=%v", i, ops[i].N, ops[i].Err)
					}
				}
				if got := conn.ConnStats().Updates - before.Updates; got != 2 {
					t.Errorf("conn counted %d updates, want 2 (one per completed op)", got)
				}
				if got := other.ConnStats(); got != otherBefore {
					t.Errorf("the handle's own connection moved: %+v -> %+v", otherBefore, got)
				}
				if got := srv.Stats().Updates - served.Updates; got != 2 {
					t.Errorf("server served %d updates, want 2", got)
				}
			})
		})
	}
}

// wireFrame is one recorded frame of testdata/legacy_peer.frames.
type wireFrame struct {
	fromClient bool
	op         string
	raw        []byte
}

func (f wireFrame) payload() []byte { return f.raw[frameHeader:] }

func readWireFrames(t *testing.T, path string) []wireFrame {
	t.Helper()
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var frames []wireFrame
	sc := bufio.NewScanner(file)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || (fields[0] != ">" && fields[0] != "<") {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		raw, err := hex.DecodeString(fields[2])
		if err != nil || len(raw) < frameHeader || int(wireLE.Uint32(raw)) != len(raw)-frameHeader {
			t.Fatalf("%s: bad frame %q: %v", path, fields[2], err)
		}
		frames = append(frames, wireFrame{fromClient: fields[0] == ">", op: fields[1], raw: raw})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestLegacyPeerWireImage replays, over a raw TCP connection, the request
// frames a capability-less client sent a default server, and requires the
// server's answers byte for byte: no dictionary, compression or trace
// framing reaches a peer that never offered them. The served sets are
// mirrors of the recorded metadata and data chunks (metadata generation
// numbers are process-wide, so freshly made sets would differ there).
func TestLegacyPeerWireImage(t *testing.T) {
	frames := readWireFrames(t, "testdata/legacy_peer.frames")
	metas, chunks := map[uint32][]byte{}, map[uint32][]byte{}
	for i := 0; i+1 < len(frames); i += 2 {
		req, resp := frames[i], frames[i+1]
		switch {
		case req.op == "lookup" && resp.op == "lookup":
			metas[wireLE.Uint32(resp.payload())] = resp.payload()[4:]
		case req.op == "update" && resp.op == "update":
			chunks[wireLE.Uint32(req.payload())] = resp.payload()
		}
	}
	reg := metric.NewRegistry()
	for h, meta := range metas {
		m, err := metric.ParseMeta(meta)
		if err != nil {
			t.Fatal(err)
		}
		set, err := m.NewMirror()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(set.Delete)
		if err := set.LoadData(chunks[h]); err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(set); err != nil {
			t.Fatal(err)
		}
	}
	if len(metas) == 0 || len(chunks) != len(metas) {
		t.Fatalf("fixture holds %d lookups and %d updates", len(metas), len(chunks))
	}

	ln, err := SockFactory{}.Listen("127.0.0.1:0", NewServer(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if f.fromClient {
			if _, err := c.Write(f.raw); err != nil {
				t.Fatalf("frame %d (%s request): %v", i, f.op, err)
			}
			continue
		}
		got := make([]byte, len(f.raw))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("frame %d (%s response): %v", i, f.op, err)
		}
		if !bytes.Equal(got, f.raw) {
			t.Fatalf("frame %d (%s response):\n got %x\nwant %x", i, f.op, got, f.raw)
		}
	}
	// Nothing follows the last recorded response.
	if err := c.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var extra [1]byte
	if n, err := c.Read(extra[:]); n != 0 || !isTimeout(err) {
		t.Errorf("server sent more than the recorded image: n=%d err=%v", n, err)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
