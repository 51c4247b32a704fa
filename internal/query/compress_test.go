package query

import (
	"math"
	"testing"
	"time"

	"goldms/internal/metric"
)

// point is one (timestamp, raw bits) pair fed to a test series.
type point struct {
	ts   int64
	bits uint64
}

// cseries is a one-metric compressed series driven the way Observe drives
// a set's storage: row write, commit, seal accounting.
type cseries struct {
	head   block
	sealed *sealedRing
}

func newCSeries(points int) *cseries {
	return &cseries{head: newBlock(blockPoints, 1), sealed: newSealedRing(points, 1)}
}

func (c *cseries) push(ts int64, bits uint64) {
	c.head.row()[0] = bits
	c.head.commit(ts)
	c.sealed.committed(&c.head)
}

// count returns the live points retained (sealed + unsealed head).
func (c *cseries) count() int { return c.sealed.n*blockPoints + c.sealed.pending }

// appendSince serves everything retained at or after sinceNanos.
func (c *cseries) appendSince(out []Point, sinceNanos int64) []Point {
	out = c.sealed.appendSince(out, 0, sinceNanos, metric.TypeU64, 0)
	return c.head.appendSince(out, 0, sinceNanos, metric.TypeU64, c.sealed.pending)
}

// pushAll feeds points into a compressed series and mirrors them into a
// reference slice for roundtrip comparison.
func pushAll(c *cseries, ref *[]point, pts []point) {
	for _, p := range pts {
		c.push(p.ts, p.bits)
		*ref = append(*ref, p)
	}
}

// checkRoundtrip asserts the series serves exactly the reference tail
// that fits its retained capacity, bit-exact.
func checkRoundtrip(t *testing.T, c *cseries, ref []point) {
	t.Helper()
	got := c.appendSince(nil, math.MinInt64)
	if len(got) != c.count() {
		t.Fatalf("appendSince served %d points, count() says %d", len(got), c.count())
	}
	want := ref
	if len(want) > len(got) {
		want = want[len(want)-len(got):]
	}
	if len(got) != len(want) {
		t.Fatalf("served %d points, want %d retained", len(got), len(want))
	}
	for i := range got {
		if ts := got[i].Time.UnixNano(); ts != want[i].ts {
			t.Fatalf("point %d ts = %d, want %d", i, ts, want[i].ts)
		}
		if got[i].Value.Bits != want[i].bits {
			t.Fatalf("point %d bits = %#x, want %#x", i, got[i].Value.Bits, want[i].bits)
		}
	}
}

func TestCompressRoundtripRegular(t *testing.T) {
	c := newCSeries(512)
	var ref []point
	base := time.Unix(1700000000, 0).UnixNano()
	pts := make([]point, 0, 700)
	for i := 0; i < 700; i++ {
		// Regular 1 s cadence, monotone counter: the best case the
		// dod/XOR buckets are tuned for.
		pts = append(pts, point{base + int64(i)*int64(time.Second), uint64(i) * 4096})
	}
	pushAll(c, &ref, pts)
	checkRoundtrip(t, c, ref)
}

func TestCompressRoundtripJitterAndFloats(t *testing.T) {
	c := newCSeries(256)
	var ref []point
	base := time.Unix(1700000000, 0).UnixNano()
	rng := uint64(0x9e3779b97f4a7c15)
	pts := make([]point, 0, 600)
	for i := 0; i < 600; i++ {
		// xorshift keeps the test deterministic without math/rand.
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		// Microsecond-scale jitter around a 1 s cadence, float values
		// including exact-zero deltas and sign flips.
		ts := base + int64(i)*int64(time.Second) + int64(rng%2000000) - 1000000
		v := math.Float64bits(math.Sin(float64(i)/7) * float64(int64(rng%1000)-500))
		if i%17 == 0 {
			v = math.Float64bits(math.NaN())
		}
		if i%23 == 0 && i > 0 {
			v = pts[i-1].bits // repeated value: XOR == 0 path
		}
		pts = append(pts, point{ts, v})
	}
	pushAll(c, &ref, pts)
	checkRoundtrip(t, c, ref)
}

func TestCompressRoundtripAdversarial(t *testing.T) {
	c := newCSeries(blockPoints) // head + one block slot: exercises tight wraps
	var ref []point
	pts := []point{
		{0, 0},
		{0, math.MaxUint64},              // dod 0, all-bits XOR
		{int64(time.Hour), 1},            // huge delta: wide dod bucket
		{int64(time.Hour) + 1, 1},        // delta collapses to 1 ns
		{int64(time.Hour) + 2, 1 << 63},  // only the sign bit flips
		{int64(time.Hour) + 3, 1},        // flip back
		{math.MaxInt64 / 2, 0xdeadbeef},  // 64-bit dod escape bucket
		{math.MaxInt64/2 + 1, 0xdeadbee}, // narrow XOR window shrink
	}
	pushAll(c, &ref, pts)
	checkRoundtrip(t, c, ref)

	// Fill several full block generations so the block ring wraps and
	// seals reuse previously grown buffers.
	more := make([]point, 0, 5*blockPoints)
	ts := int64(math.MaxInt64 / 2)
	for i := 0; i < 5*blockPoints; i++ {
		ts -= int64(time.Millisecond) // decreasing: negative deltas
		more = append(more, point{ts, uint64(i) << (uint(i) % 48)})
	}
	pushAll(c, &ref, more)
	checkRoundtrip(t, c, ref)
}

// TestCompressFootprint pins the acceptance bar: steady regular telemetry
// must retain points at ≥5× less RAM than the 16-byte raw representation.
func TestCompressFootprint(t *testing.T) {
	c := newCSeries(1024)
	base := time.Unix(1700000000, 0).UnixNano()
	// Fill until every block has been sealed at least once so bytes()
	// reflects steady-state buffer sizes.
	n := 2 * 1024
	for i := 0; i < n; i++ {
		c.push(base+int64(i)*int64(time.Second), uint64(2000+i%5))
	}
	sealed := c.sealed.n * blockPoints
	if sealed == 0 {
		t.Fatal("no sealed blocks")
	}
	blockBytes := c.sealed.bytes()
	perPoint := float64(blockBytes) / float64(sealed)
	if perPoint > 16.0/5 {
		t.Fatalf("sealed storage = %.2f B/point, want ≤ %.2f (≥5× vs raw 16 B)", perPoint, 16.0/5)
	}
	t.Logf("sealed storage: %.3f B/point (%.1f× vs raw)", perPoint, 16/perPoint)
}

// TestCompressSinceSkipsBlocks asserts the block time-range index cuts
// decodes: a since bound past a block's maxTS must exclude its points.
func TestCompressSinceSkipsBlocks(t *testing.T) {
	c := newCSeries(4 * blockPoints)
	base := time.Unix(1700000000, 0).UnixNano()
	total := 3*blockPoints + 10
	for i := 0; i < total; i++ {
		c.push(base+int64(i)*int64(time.Second), uint64(i))
	}
	// Bound inside the second sealed block.
	cut := blockPoints + blockPoints/2
	since := base + int64(cut)*int64(time.Second)
	got := c.appendSince(nil, since)
	if want := total - cut; len(got) != want {
		t.Fatalf("since cut served %d points, want %d", len(got), want)
	}
	if got[0].Value.U64() != uint64(cut) {
		t.Fatalf("first served point = %d, want %d", got[0].Value.U64(), cut)
	}
	// Bound past everything: nothing served.
	if got := c.appendSince(nil, base+int64(total)*int64(time.Second)); len(got) != 0 {
		t.Fatalf("future bound served %d points", len(got))
	}
}

func TestBitWriterReaderWideValues(t *testing.T) {
	var w bitWriter
	vals := []struct {
		v  uint64
		nb uint
	}{
		{1, 1}, {0, 1}, {0x3fff, 14}, {0xfffffff, 28},
		{0xffffffffff, 40}, {math.MaxUint64, 64}, {0xdeadbeefcafebabe, 64},
		{5, 3}, {0x1ffffffffff, 41}, {1, 64},
	}
	for _, tc := range vals {
		w.writeBits(tc.v, tc.nb)
	}
	w.flush()
	r := bitReader{buf: w.buf}
	for i, tc := range vals {
		if got := r.readBits(tc.nb); got != tc.v {
			t.Fatalf("value %d: read %#x, want %#x", i, got, tc.v)
		}
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag roundtrip %d -> %d", v, got)
		}
	}
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Fatalf("zigzag small-magnitude mapping broken: %d %d %d", zigzag(0), zigzag(-1), zigzag(1))
	}
}

// TestCompressDecodeAllocs is the read-side gate: serving a sealed series
// into a buffer of the right size decodes in place, no allocation.
func TestCompressDecodeAllocs(t *testing.T) {
	c := newCSeries(1024)
	base := time.Unix(1700000000, 0).UnixNano()
	for i := 0; i < 2*1024; i++ {
		c.push(base+int64(i)*int64(time.Second), uint64(i))
	}
	out := make([]Point, 0, c.count())
	if allocs := testing.AllocsPerRun(20, func() { out = c.appendSince(out[:0], 0) }); allocs != 0 {
		t.Fatalf("decode of %d points: %v allocs, want 0", c.count(), allocs)
	}
	if len(out) != c.count() {
		t.Fatalf("decoded %d points, want %d", len(out), c.count())
	}
}
