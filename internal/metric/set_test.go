package metric

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"goldms/internal/mmgr"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema("meminfo")
	for _, m := range []struct {
		name string
		typ  Type
	}{
		{"MemTotal", TypeU64},
		{"MemFree", TypeU64},
		{"Active", TypeU64},
		{"loadavg", TypeD64},
		{"cpu_pct", TypeF32},
		{"delta", TypeS32},
		{"flag", TypeU8},
	} {
		if _, err := s.AddMetric(m.name, m.typ); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestSchemaDuplicate(t *testing.T) {
	s := NewSchema("x")
	if _, err := s.AddMetric("a", TypeU64); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddMetric("a", TypeU64); err == nil {
		t.Fatal("duplicate metric accepted")
	}
}

func TestSchemaInvalid(t *testing.T) {
	s := NewSchema("x")
	if _, err := s.AddMetric("", TypeU64); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.AddMetric("a", TypeNone); err == nil {
		t.Error("TypeNone accepted")
	}
	if _, err := s.AddMetric("b", Type(200)); err == nil {
		t.Error("garbage type accepted")
	}
}

func TestSchemaFrozenAfterSetCreation(t *testing.T) {
	s := NewSchema("x")
	s.MustAddMetric("a", TypeU64)
	if _, err := New("inst", s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddMetric("late", TypeU64); err == nil {
		t.Fatal("schema accepted metric after freeze")
	}
}

func TestNewSetValidation(t *testing.T) {
	s := NewSchema("x")
	s.MustAddMetric("a", TypeU64)
	if _, err := New("", s); err == nil {
		t.Error("empty instance name accepted")
	}
	if _, err := New("i", NewSchema("empty")); err == nil {
		t.Error("empty schema accepted")
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	set, err := New("node1/meminfo", testSchema(t), WithCompID(7))
	if err != nil {
		t.Fatal(err)
	}
	set.BeginTransaction()
	set.SetU64(0, 64<<30)
	set.SetU64(1, 12345)
	set.SetU64(2, 42)
	set.SetF64(3, 1.25)
	set.SetF64(4, 0.5)
	set.SetS64(5, -17)
	set.SetU64(6, 200)
	ts := time.Unix(1700000000, 123456000)
	set.EndTransaction(ts)

	if got := set.U64(0); got != 64<<30 {
		t.Errorf("metric 0 = %d", got)
	}
	if got := set.F64(3); got != 1.25 {
		t.Errorf("metric 3 = %g", got)
	}
	if got := set.F64(4); got != 0.5 {
		t.Errorf("metric 4 (f32) = %g", got)
	}
	if got := set.S64(5); got != -17 {
		t.Errorf("metric 5 = %d", got)
	}
	if got := set.U64(6); got != 200 {
		t.Errorf("metric 6 (u8) = %d", got)
	}
	if !set.Consistent() {
		t.Error("set should be consistent after EndTransaction")
	}
	if got := set.Timestamp(); !got.Equal(ts) {
		t.Errorf("timestamp = %v want %v", got, ts)
	}
	if got := set.CompID(3); got != 7 {
		t.Errorf("comp id = %d want 7", got)
	}
}

func TestDGNIncrementsPerElement(t *testing.T) {
	set, _ := New("s", testSchema(t))
	d0 := set.DGN()
	set.SetU64(0, 1)
	set.SetU64(1, 2)
	set.SetU64(2, 3)
	if got := set.DGN(); got != d0+3 {
		t.Errorf("DGN = %d want %d", got, d0+3)
	}
}

func TestSetValuesBatch(t *testing.T) {
	set, _ := New("s", testSchema(t))
	d0 := set.DGN()
	set.SetValues(func(b *Batch) {
		b.SetU64(0, 11)
		b.SetU64(1, 22)
		b.SetF64(3, 1.5)
		b.SetS64(5, -4)
	})
	// DGN advances once per element, exactly as per-metric SetValue does.
	if got := set.DGN(); got != d0+4 {
		t.Errorf("DGN = %d want %d", got, d0+4)
	}
	if set.U64(0) != 11 || set.U64(1) != 22 || set.F64(3) != 1.5 || set.S64(5) != -4 {
		t.Errorf("batch values = %d %d %g %d", set.U64(0), set.U64(1), set.F64(3), set.S64(5))
	}
	// An empty batch leaves the DGN untouched.
	set.SetValues(func(b *Batch) {})
	if got := set.DGN(); got != d0+4 {
		t.Errorf("DGN after empty batch = %d want %d", got, d0+4)
	}
}

func TestConsistentFlagDuringTransaction(t *testing.T) {
	set, _ := New("s", testSchema(t))
	set.BeginTransaction()
	set.SetU64(0, 1)
	set.EndTransaction(time.Now())
	if !set.Consistent() {
		t.Fatal("expected consistent after EndTransaction")
	}
	set.BeginTransaction()
	if set.Consistent() {
		t.Fatal("expected inconsistent during transaction")
	}
	set.EndTransaction(time.Now())
	if !set.Consistent() {
		t.Fatal("expected consistent after second EndTransaction")
	}
}

func TestTypeConversionOnStore(t *testing.T) {
	s := NewSchema("conv")
	iu32 := s.MustAddMetric("u32", TypeU32)
	if32 := s.MustAddMetric("f32", TypeF32)
	set, _ := New("s", s)
	// Store a float into a u32 metric: truncates.
	set.SetValue(iu32, F64Value(3.9))
	if got := set.U64(iu32); got != 3 {
		t.Errorf("u32 from float = %d want 3", got)
	}
	// Store an int into an f32 metric: converts.
	set.SetValue(if32, U64Value(10))
	if got := set.F64(if32); got != 10 {
		t.Errorf("f32 from int = %g want 10", got)
	}
}

func TestMetaParseRoundTrip(t *testing.T) {
	set, err := New("nid00042/lustre", testSchema(t), WithCompID(42))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMeta(set.MetaBytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Instance != "nid00042/lustre" {
		t.Errorf("instance = %q", m.Instance)
	}
	if m.Schema.Name() != "meminfo" {
		t.Errorf("schema = %q", m.Schema.Name())
	}
	if m.MGN != set.MGN() {
		t.Errorf("MGN = %d want %d", m.MGN, set.MGN())
	}
	if !m.Schema.Equal(set.Schema()) || m.DataSize != set.DataSize() {
		t.Errorf("parsed layout differs from the set's: %+v", m.Schema)
	}
	if len(m.CompIDs) != 1 || m.CompIDs[0] != 42 {
		t.Errorf("comp ids = %v, want a uniform 42", m.CompIDs)
	}
}

func TestParseMetaErrors(t *testing.T) {
	if _, err := ParseMeta(nil); err == nil {
		t.Error("nil metadata accepted")
	}
	if _, err := ParseMeta(make([]byte, 10)); err == nil {
		t.Error("short metadata accepted")
	}
	set, _ := New("s", testSchema(t))
	b := append([]byte(nil), set.MetaBytes()...)
	b[0] ^= 0xff
	if _, err := ParseMeta(b); err == nil {
		t.Error("bad magic accepted")
	}
	b = append([]byte(nil), set.MetaBytes()...)
	if _, err := ParseMeta(b[:len(b)-4]); err == nil {
		t.Error("truncated metadata accepted")
	}
}

func TestMirrorUpdateFlow(t *testing.T) {
	// Full sampler -> aggregator data path: create, sample, lookup, mirror,
	// pull, load, verify.
	src, _ := New("node/misc", testSchema(t), WithCompID(9))
	src.BeginTransaction()
	src.SetU64(0, 111)
	src.SetF64(3, 2.5)
	src.EndTransaction(time.Unix(1000, 0))

	m, err := ParseMeta(src.MetaBytes())
	if err != nil {
		t.Fatal(err)
	}
	mir, err := m.NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	if mir.Local() {
		t.Error("mirror should not be local")
	}
	if mir.Consistent() {
		t.Error("fresh mirror must be inconsistent")
	}
	if err := mir.LoadData(src.DataSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got := mir.U64(0); got != 111 {
		t.Errorf("mirrored metric 0 = %d want 111", got)
	}
	if got := mir.F64(3); got != 2.5 {
		t.Errorf("mirrored metric 3 = %g want 2.5", got)
	}
	if !mir.Consistent() {
		t.Error("mirror should be consistent after loading consistent data")
	}
	if got := mir.Timestamp().Unix(); got != 1000 {
		t.Errorf("mirrored timestamp = %d want 1000", got)
	}
	if got := mir.CompID(0); got != 9 {
		t.Errorf("mirrored comp id = %d want 9", got)
	}
}

func TestLoadDataMGNMismatch(t *testing.T) {
	src, _ := New("a", testSchema(t))
	m, _ := ParseMeta(src.MetaBytes())
	mir, _ := m.NewMirror()

	// Metadata modification on the source bumps its MGN.
	src.SetCompID(77)
	err := mir.LoadData(src.DataSnapshot())
	var mgnErr *ErrMGNMismatch
	if err == nil {
		t.Fatal("stale-metadata load accepted")
	}
	if !asMGNMismatch(err, &mgnErr) {
		t.Fatalf("error type = %T want *ErrMGNMismatch", err)
	}
}

func asMGNMismatch(err error, target **ErrMGNMismatch) bool {
	e, ok := err.(*ErrMGNMismatch)
	if ok {
		*target = e
	}
	return ok
}

func TestLoadDataWrongLength(t *testing.T) {
	src, _ := New("a", testSchema(t))
	if err := src.LoadData(make([]byte, 3)); err == nil {
		t.Fatal("short data accepted")
	}
}

func TestDataSizeFractionOfSetSize(t *testing.T) {
	// §IV-B: "The data portion is roughly 10% of the total set size."
	// With realistic (long) metric names the serialized metadata dominates.
	s := NewSchema("lustre")
	for i := 0; i < 100; i++ {
		s.MustAddMetric(fmt.Sprintf("dirty_pages_hits#stats.snx11024.%03d", i), TypeU64)
	}
	set, _ := New("nid00001/lustre", s)
	frac := float64(set.DataSize()) / float64(set.DataSize()+set.MetaSize())
	if frac > 0.25 {
		t.Errorf("data fraction = %.2f, want <= 0.25 (paper: ~0.10)", frac)
	}
}

func TestArenaAccounting(t *testing.T) {
	a, _ := mmgr.New(1 << 20)
	set, err := New("s", testSchema(t), WithArena(a))
	if err != nil {
		t.Fatal(err)
	}
	if a.InUse() == 0 {
		t.Fatal("arena should have allocations")
	}
	set.Delete()
	if a.InUse() != 0 {
		t.Fatalf("arena InUse = %d after Delete, want 0", a.InUse())
	}
}

func TestArenaExhaustionAtSetCreation(t *testing.T) {
	a, _ := mmgr.New(128) // far too small for meta+data
	if _, err := New("s", testSchema(t), WithArena(a)); err == nil {
		t.Fatal("expected arena exhaustion")
	}
	if a.InUse() != 0 {
		t.Fatalf("failed creation leaked %d bytes", a.InUse())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	s1, _ := New("b", testSchema(t))
	sch2 := NewSchema("other")
	sch2.MustAddMetric("x", TypeU64)
	s2, _ := New("a", sch2)
	if err := r.Add(s1); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(s2); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(s1); err == nil {
		t.Fatal("duplicate add accepted")
	}
	dir := r.Dir()
	if len(dir) != 2 || dir[0] != "a" || dir[1] != "b" {
		t.Errorf("dir = %v", dir)
	}
	if r.Get("a") != s2 {
		t.Error("Get returned wrong set")
	}
	if got := r.Remove("a"); got != s2 {
		t.Error("Remove returned wrong set")
	}
	if r.Len() != 1 {
		t.Errorf("len = %d want 1", r.Len())
	}
	if r.Get("a") != nil {
		t.Error("removed set still present")
	}
}

func TestValueConversions(t *testing.T) {
	v := F64Value(-2.75)
	if v.F64() != -2.75 {
		t.Errorf("F64 = %g", v.F64())
	}
	if v.S64() != -2 {
		t.Errorf("S64 = %d", v.S64())
	}
	s := S64Value(-5)
	if s.F64() != -5.0 {
		t.Errorf("S64Value.F64 = %g", s.F64())
	}
	if s.String() != "-5" {
		t.Errorf("String = %q", s.String())
	}
	u := U64Value(math.MaxUint64)
	if u.U64() != math.MaxUint64 {
		t.Errorf("U64 = %d", u.U64())
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for tt := TypeU8; tt <= TypeD64; tt++ {
		got, err := ParseType(tt.String())
		if err != nil || got != tt {
			t.Errorf("ParseType(%q) = %v, %v", tt.String(), got, err)
		}
	}
	if _, err := ParseType("bogus"); err == nil {
		t.Error("bogus type accepted")
	}
}

// Property: for any sequence of u64 values written to a set, a mirror loaded
// from a snapshot reads back exactly the same values.
func TestQuickMirrorFidelity(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			vals = []uint64{0}
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		sch := NewSchema("q")
		for i := range vals {
			sch.MustAddMetric(fmt.Sprintf("m%02d", i), TypeU64)
		}
		src, err := New("q/inst", sch)
		if err != nil {
			return false
		}
		src.BeginTransaction()
		for i, v := range vals {
			src.SetU64(i, v)
		}
		src.EndTransaction(time.Now())
		m, err := ParseMeta(src.MetaBytes())
		if err != nil {
			return false
		}
		mir, err := m.NewMirror()
		if err != nil {
			return false
		}
		if err := mir.LoadData(src.DataSnapshot()); err != nil {
			return false
		}
		for i, v := range vals {
			if mir.U64(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: DGN strictly increases across element updates.
func TestQuickDGNMonotonic(t *testing.T) {
	set, _ := New("s", testSchema(t))
	f := func(idx uint8, v uint64) bool {
		i := int(idx) % set.Card()
		before := set.DGN()
		set.SetU64(i, v)
		return set.DGN() == before+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotRow(t *testing.T) {
	set, _ := New("n7/meminfo", testSchema(t), WithCompID(7))
	set.BeginTransaction()
	set.SetU64(0, 100)
	set.EndTransaction(time.Unix(5, 0))
	row := set.Snapshot()
	if row.Instance != "n7/meminfo" || row.Schema != "meminfo" || row.CompID != 7 {
		t.Errorf("row header = %+v", row)
	}
	if len(row.Names) != set.Card() || len(row.Values) != set.Card() {
		t.Fatalf("row lengths = %d/%d", len(row.Names), len(row.Values))
	}
	if row.Values[0].U64() != 100 {
		t.Errorf("row value 0 = %v", row.Values[0])
	}
	if row.Names[3] != "loadavg" {
		t.Errorf("row name 3 = %q", row.Names[3])
	}
}

func TestConcurrentSampleAndRead(t *testing.T) {
	set, _ := New("s", testSchema(t))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			set.BeginTransaction()
			set.SetU64(0, uint64(i))
			set.SetU64(1, uint64(i))
			set.EndTransaction(time.Now())
		}
	}()
	inconsistent := 0
	for i := 0; i < 2000; i++ {
		buf := set.DataSnapshot()
		if le.Uint64(buf[offFlags:])&flagConsistent == 0 {
			inconsistent++
		}
	}
	<-done
	// We cannot assert a specific count, only that concurrent reads never
	// crash or deadlock, and that the snapshot is well-formed.
	if got := set.U64(0); got != 1999 {
		t.Errorf("final value = %d want 1999", got)
	}
	t.Logf("observed %d inconsistent snapshots (expected occasionally > 0)", inconsistent)
}

// Property: arbitrary bytes never panic ParseMeta and never allocate from
// hostile counts (the decoder is exposed to network peers).
func TestQuickParseMetaGarbage(t *testing.T) {
	f := func(junk []byte) bool {
		ParseMeta(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A well-formed header with an absurd cardinality must error, not OOM.
	set, _ := New("s", testSchema(t))
	b := append([]byte(nil), set.MetaBytes()...)
	le.PutUint32(b[metaOffCard:], 1<<31-1)
	if _, err := ParseMeta(b); err == nil {
		t.Error("hostile cardinality accepted")
	}
}
