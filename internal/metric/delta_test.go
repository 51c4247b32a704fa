package metric

import (
	"bytes"
	"errors"
	"testing"
)

func deltaTestSet(t *testing.T) *Set {
	t.Helper()
	sch := NewSchema("delta_test")
	mustAdd := func(name string, ty Type) {
		t.Helper()
		if _, err := sch.AddMetric(name, ty); err != nil {
			t.Fatalf("AddMetric(%s): %v", name, err)
		}
	}
	mustAdd("a_u8", TypeU8)
	mustAdd("b_s16", TypeS16)
	mustAdd("c_u32", TypeU32)
	mustAdd("d_u64", TypeU64)
	mustAdd("e_f32", TypeF32)
	mustAdd("f_d64", TypeD64)
	s, err := New("delta/test", sch)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// mirrorOf builds a consumer-side mirror plus its parsed metadata.
func mirrorOf(t *testing.T, s *Set) (*Set, *Meta) {
	t.Helper()
	m, err := ParseMeta(s.MetaBytes())
	if err != nil {
		t.Fatalf("ParseMeta: %v", err)
	}
	mir, err := m.NewMirror()
	if err != nil {
		t.Fatalf("NewMirror: %v", err)
	}
	return mir, m
}

// TestDeltaRoundTrip drives the full consumer protocol: full pull, then
// delta pulls applied onto the prior chunk, checking byte-identity with a
// full copy after every step.
func TestDeltaRoundTrip(t *testing.T) {
	s := deltaTestSet(t)
	mir, meta := mirrorOf(t, s)

	// Initial sample: everything set.
	s.SetValues(func(b *Batch) {
		b.SetU64(0, 7)
		b.SetS64(1, -3)
		b.SetU64(2, 100)
		b.SetU64(3, 1<<40)
		b.SetF64(4, 1.5)
		b.SetF64(5, 2.25)
	})

	// Full pull into the consumer's persistent buffer.
	buf := make([]byte, s.DataSize())
	s.CopyDataInto(buf)
	if err := mir.LoadData(buf); err != nil {
		t.Fatalf("LoadData full: %v", err)
	}
	ack := s.DGN()

	// Steady telemetry: only two metrics move.
	s.SetValues(func(b *Batch) {
		b.SetU64(0, 7) // unchanged bits
		b.SetS64(1, -4)
		b.SetU64(2, 100) // unchanged bits
		b.SetU64(3, 1<<40+1)
		b.SetF64(4, 1.5)  // unchanged bits
		b.SetF64(5, 2.25) // unchanged bits
	})

	delta, ok := s.AppendDelta(nil, ack)
	if !ok {
		t.Fatalf("AppendDelta returned ok=false")
	}
	if n := le.Uint32(delta[deltaCountOff:]); n != 2 {
		t.Fatalf("delta carries %d entries, want 2 (only changed bits)", n)
	}
	if err := meta.ApplyDelta(buf, delta); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	want := s.DataSnapshot()
	if !bytes.Equal(buf, want) {
		t.Fatalf("delta-patched chunk differs from full copy\n got %x\nwant %x", buf, want)
	}
	if err := mir.LoadData(buf); err != nil {
		t.Fatalf("LoadData after delta: %v", err)
	}

	// An idle set still yields a (header-only) delta so the consumer
	// observes timestamps and the consistent flag.
	ack = s.DGN()
	delta, ok = s.AppendDelta(nil, ack)
	if !ok {
		t.Fatalf("idle AppendDelta returned ok=false")
	}
	if len(delta) != deltaHeaderSize {
		t.Fatalf("idle delta is %d bytes, want %d", len(delta), deltaHeaderSize)
	}
	if err := meta.ApplyDelta(buf, delta); err != nil {
		t.Fatalf("idle ApplyDelta: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("idle delta perturbed the chunk")
	}
}

// TestDeltaFallback covers the conditions under which AppendDelta refuses
// and callers must fall back to a full chunk.
func TestDeltaFallback(t *testing.T) {
	s := deltaTestSet(t)
	s.SetU64(3, 1)

	// A base ahead of the set (consumer state from a previous incarnation).
	if _, ok := s.AppendDelta(nil, s.DGN()+1); ok {
		t.Fatalf("AppendDelta accepted a future base DGN")
	}

	// A delta that cannot beat the full chunk: every metric changed from a
	// zero base, so entries + header outweigh the packed chunk.
	s.SetValues(func(b *Batch) {
		b.SetU64(0, 1)
		b.SetS64(1, 2)
		b.SetU64(2, 3)
		b.SetU64(3, 4)
		b.SetF64(4, 5)
		b.SetF64(5, 6)
	})
	if out, ok := s.AppendDelta(nil, 0); ok {
		t.Fatalf("AppendDelta encoded %d bytes where full chunk is %d", len(out), s.DataSize())
	}

	// Refusal must roll dst back to its original length.
	pre := []byte{0xAA, 0xBB}
	if out, ok := s.AppendDelta(pre, 0); ok || len(out) != 2 {
		t.Fatalf("refused AppendDelta left dst at %d bytes, want 2", len(out))
	}
}

// TestDeltaUnchangedBitsNotJournaled checks that rewriting identical values
// does not grow deltas even though the DGN advances per write.
func TestDeltaUnchangedBitsNotJournaled(t *testing.T) {
	s := deltaTestSet(t)
	s.SetValues(func(b *Batch) {
		b.SetU64(3, 42)
		b.SetF64(5, 3.5)
	})
	ack := s.DGN()

	for pass := 0; pass < 3; pass++ {
		s.SetValues(func(b *Batch) {
			b.SetU64(3, 42)
			b.SetF64(5, 3.5)
		})
	}
	if s.DGN() == ack {
		t.Fatalf("DGN did not advance across rewrite passes")
	}
	delta, ok := s.AppendDelta(nil, ack)
	if !ok {
		t.Fatalf("AppendDelta returned ok=false")
	}
	if n := le.Uint32(delta[deltaCountOff:]); n != 0 {
		t.Fatalf("identical rewrites journaled %d entries, want 0", n)
	}
}

// TestDeltaLoadDataJournals checks that a mirror journals changes arriving
// via LoadData, so a mid-tier aggregator can serve deltas off re-exported
// mirrors.
func TestDeltaLoadDataJournals(t *testing.T) {
	s := deltaTestSet(t)
	mir, meta := mirrorOf(t, s)

	s.SetU64(3, 10)
	if err := mir.LoadData(s.DataSnapshot()); err != nil {
		t.Fatalf("LoadData: %v", err)
	}

	// Downstream consumer of the mirror does a full pull.
	buf := make([]byte, mir.DataSize())
	mir.CopyDataInto(buf)
	ack := mir.DGN()

	// Next hop: only one metric moves at the source.
	s.SetU64(3, 11)
	if err := mir.LoadData(s.DataSnapshot()); err != nil {
		t.Fatalf("LoadData: %v", err)
	}

	delta, ok := mir.AppendDelta(nil, ack)
	if !ok {
		t.Fatalf("mirror AppendDelta returned ok=false")
	}
	if n := le.Uint32(delta[deltaCountOff:]); n != 1 {
		t.Fatalf("mirror delta carries %d entries, want 1", n)
	}
	if err := meta.ApplyDelta(buf, delta); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !bytes.Equal(buf, mir.DataSnapshot()) {
		t.Fatalf("mirror delta-patched chunk differs from mirror data")
	}
}

// TestDeltaFirstLoadJournalsAll: a rebuilt mirror must not trust a diff
// against its zeroed chunk — every metric is journaled on first load.
func TestDeltaFirstLoadJournalsAll(t *testing.T) {
	s := deltaTestSet(t)
	// Source holds zeros for most metrics at a high DGN.
	s.SetU64(3, 1)
	s.SetU64(3, 0)
	mir, _ := mirrorOf(t, s)
	if err := mir.LoadData(s.DataSnapshot()); err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	delta, ok := mir.AppendDelta(nil, 1)
	if !ok {
		// Full fallback is equally safe.
		return
	}
	if n := int(le.Uint32(delta[deltaCountOff:])); n != mir.Card() {
		t.Fatalf("first load journaled %d entries, want all %d", n, mir.Card())
	}
}

// TestApplyDeltaHostile feeds malformed payloads; every one must error
// without panicking or writing out of bounds.
func TestApplyDeltaHostile(t *testing.T) {
	s := deltaTestSet(t)
	_, meta := mirrorOf(t, s)
	buf := make([]byte, s.DataSize())

	good, ok := s.AppendDelta(nil, s.DGN())
	if !ok {
		t.Fatalf("AppendDelta failed")
	}

	// Cross-wired payload: a structurally valid delta whose header claims a
	// different metadata generation must be refused before any entry lands.
	wrongMGN := append([]byte(nil), good...)
	le.PutUint64(wrongMGN[offMGN:], meta.MGN+1)

	cases := []struct {
		name  string
		delta []byte
		err   error
	}{
		{"empty", nil, ErrDeltaTruncated},
		{"short header", good[:deltaHeaderSize-1], ErrDeltaTruncated},
		{"trailing junk", append(append([]byte(nil), good...), 0xFF), ErrDeltaTrailing},
		{"wrong MGN", wrongMGN, ErrDeltaWrongMGN},
	}

	// Absurd count with no entry bytes.
	huge := append([]byte(nil), good...)
	le.PutUint32(huge[deltaCountOff:], 1<<30)
	cases = append(cases, struct {
		name  string
		delta []byte
		err   error
	}{"huge count", huge, ErrDeltaTruncated})

	// Out-of-range index.
	badIdx := append([]byte(nil), good...)
	le.PutUint32(badIdx[deltaCountOff:], 1)
	badIdx = le.AppendUint16(badIdx, uint16(s.Card()))
	badIdx = append(badIdx, 0)
	cases = append(cases, struct {
		name  string
		delta []byte
		err   error
	}{"bad index", badIdx, ErrDeltaBadIndex})

	for _, tc := range cases {
		if err := meta.ApplyDelta(buf, tc.delta); err != tc.err {
			t.Errorf("%s: ApplyDelta err = %v, want %v", tc.name, err, tc.err)
		}
	}

	// Wrong buffer size.
	if err := meta.ApplyDelta(buf[:len(buf)-1], good); err != ErrDeltaBufSize {
		t.Errorf("short buf: ApplyDelta err = %v, want %v", err, ErrDeltaBufSize)
	}

	// Hostile metadata: an offset pointing into the header never becomes a
	// Meta to apply a delta under.
	evil := append([]byte(nil), s.MetaBytes()...)
	le.PutUint32(evil[s.entryOff[3]+entryValOff:], 0)
	if _, err := ParseMeta(evil); !errors.Is(err, ErrBadLayout) {
		t.Errorf("header offset: ParseMeta err = %v, want %v", err, ErrBadLayout)
	}
}

// FuzzApplyDelta hammers the delta decoder with arbitrary payloads. It must
// never panic; buffers of the wrong shape and hostile entries must error.
func FuzzApplyDelta(f *testing.F) {
	sch := NewSchema("fuzz_delta")
	sch.AddMetric("a", TypeU64)
	sch.AddMetric("b", TypeU8)
	sch.AddMetric("c", TypeF32)
	s, err := New("fuzz/delta", sch)
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	m, err := ParseMeta(s.MetaBytes())
	if err != nil {
		f.Fatalf("ParseMeta: %v", err)
	}
	s.SetU64(0, 99)
	if seed, ok := s.AppendDelta(nil, 0); ok {
		f.Add(seed)
	}
	f.Add([]byte{})
	buf := make([]byte, s.DataSize())
	f.Fuzz(func(t *testing.T, delta []byte) {
		_ = m.ApplyDelta(buf, delta)
	})
}
