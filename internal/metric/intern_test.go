package metric

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// freshTable gives the test an empty intern table of its own.
func freshTable(t testing.TB) {
	t.Helper()
	old := interned
	interned = newInternTable()
	t.Cleanup(func() { interned = old })
}

// layoutMeta returns the metadata chunk of a card-metric set of the named
// schema, as a lookup would deliver it.
func layoutMeta(t testing.TB, instance, schema string, card int) []byte {
	t.Helper()
	sch := NewSchema(schema)
	for i := 0; i < card; i++ {
		sch.MustAddMetric(fmt.Sprintf("metric_%03d", i), TypeU64)
	}
	set, err := New(instance, sch, WithCompID(7))
	if err != nil {
		t.Fatal(err)
	}
	return set.MetaBytes()
}

func mustMirror(t testing.TB, chunk []byte) (*Meta, *Set) {
	t.Helper()
	m, err := ParseMeta(chunk)
	if err != nil {
		t.Fatal(err)
	}
	mir, err := m.NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	return m, mir
}

// TestInternCollision: two layouts that land in one bucket stay two schemas,
// each found by its own compare and released on its own.
func TestInternCollision(t *testing.T) {
	tab := newInternTable()
	a, b := NewSchema("s"), NewSchema("s")
	a.MustAddMetric("x", TypeU64)
	b.MustAddMetric("x", TypeU32)
	a.hash, b.hash = 7, 7
	if got := tab.resolve(7, a.Equal, a, true); got != a {
		t.Fatalf("first layout resolved to %p, want itself", got)
	}
	if got := tab.resolve(7, b.Equal, b, true); got != b {
		t.Fatalf("colliding layout resolved to %p, want itself (%p)", got, b)
	}
	if tab.n != 2 || len(tab.buckets) != 1 {
		t.Fatalf("%d entries in %d buckets, want 2 in 1", tab.n, len(tab.buckets))
	}
	twin := NewSchema("s")
	twin.MustAddMetric("x", TypeU32)
	twin.hash = 7
	if got := tab.resolve(7, twin.Equal, twin, true); got != b {
		t.Fatalf("b's twin resolved to %p, want b (%p)", got, b)
	}
	tab.release(a)
	if got := tab.resolve(7, b.Equal, nil, false); got != b || tab.n != 1 {
		t.Fatalf("after releasing a: found %p, %d entries", got, tab.n)
	}
	tab.release(b)
	if tab.n != 1 {
		t.Fatal("b left the table while its twin's mirror lives")
	}
	tab.release(b)
	if tab.n != 0 || len(tab.buckets) != 0 {
		t.Fatalf("%d entries, %d buckets after the last release", tab.n, len(tab.buckets))
	}
}

// TestInternReleases: the table holds a layout exactly as long as a mirror
// does, and lookups that never become mirrors cannot grow it.
func TestInternReleases(t *testing.T) {
	freshTable(t)
	chunk := layoutMeta(t, "n1/a", "a", 8)
	m1, mir1 := mustMirror(t, chunk)
	m2, mir2 := mustMirror(t, layoutMeta(t, "n2/a", "a", 8))
	if m1.Schema != m2.Schema || mir1.Schema() != mir2.Schema() || mir1.Schema() != m1.Schema {
		t.Fatal("two instances of one layout do not share a schema")
	}
	if _, other := mustMirror(t, layoutMeta(t, "n3/a", "a", 9)); other.Schema() == m1.Schema {
		t.Fatal("a different list under the same schema name shares the schema")
	} else {
		other.Delete()
	}
	mir1.Delete()
	mir1.Delete() // a second Delete must not release twice
	if InternedSchemas() != 1 {
		t.Fatalf("%d layouts held while one mirror lives, want 1", InternedSchemas())
	}
	mir2.Delete()
	if InternedSchemas() != 0 {
		t.Fatalf("%d layouts held after the last mirror went, want 0", InternedSchemas())
	}
	// A handle that outlives every mirror still makes a working mirror, and
	// the layout is canonical again for whoever parses it next.
	late, err := m1.NewMirror()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := ParseMeta(chunk); again.Schema != late.Schema() {
		t.Fatal("re-entered layout is not the canonical one")
	}
	late.Delete()

	// Never mirrored: swept once internIdle newer layouts have come by.
	idle, _ := ParseMeta(layoutMeta(t, "n/idle", "idle", 3))
	for i := 0; i < 1000; i++ {
		_, mir := mustMirror(t, layoutMeta(t, "n/churn", fmt.Sprintf("churn%d", i), 4))
		if n := InternedSchemas(); n > 2 {
			t.Fatalf("table holds %d layouts during churn %d", n, i)
		}
		mir.Delete()
	}
	if InternedSchemas() != 0 {
		t.Fatalf("%d layouts held after the churn, want 0", InternedSchemas())
	}
	if again, _ := ParseMeta(layoutMeta(t, "n/idle", "idle", 3)); again.Schema == idle.Schema {
		t.Fatal("the never-mirrored entry was still in the table")
	}
	for i := 0; i < 1000; i++ { // and lookups alone stay bounded by the idle ring
		if _, err := ParseMeta(layoutMeta(t, "n/look", fmt.Sprintf("look%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if n := InternedSchemas(); n > internIdle {
		t.Fatalf("%d never-mirrored layouts held, want <= %d", n, internIdle)
	}
}

// TestInternRace: parsers and deleters on many goroutines (run under -race).
// A mirror's schema always equals its Meta's, and nothing is left behind.
func TestInternRace(t *testing.T) {
	freshTable(t)
	var chunks [3][]byte
	for i := range chunks {
		chunks[i] = layoutMeta(t, "n/set", fmt.Sprintf("layout%d", i), 4+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				m, err := ParseMeta(chunks[(g+i)%len(chunks)])
				if err != nil {
					t.Error(err)
					return
				}
				if i%5 == 4 {
					continue // a lookup that never becomes a mirror
				}
				mir, err := m.NewMirrorNamed(fmt.Sprintf("g%d/set", g))
				if err != nil {
					t.Error(err)
					return
				}
				if !mir.Schema().Equal(m.Schema) {
					t.Errorf("mirror schema %q differs from its Meta's %q", mir.SchemaName(), m.Schema.Name())
				}
				mir.Delete()
			}
		}(g)
	}
	wg.Wait()
	if n := InternedSchemas(); n > len(chunks) {
		t.Fatalf("%d layouts held after every mirror went, want <= %d idle ones", n, len(chunks))
	}
}

// TestMirrorFootprint pins what a mirror owns: its two chunks, its change
// journal and its entry offsets — about 3 kB for a 64-metric set — and not a
// name list, index and parsed entries of its own (13 kB before schemas were
// shared).
func TestMirrorFootprint(t *testing.T) {
	freshTable(t)
	const mirrors, card, bound = 1024, 64, 5 << 10
	chunks := make([][]byte, mirrors)
	for i := range chunks {
		chunks[i] = layoutMeta(t, fmt.Sprintf("node%04d/synth64", i), "synth64", card)
	}
	metas, sets := make([]*Meta, mirrors), make([]*Set, mirrors)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, chunk := range chunks {
		var err error
		if metas[i], err = ParseMeta(chunk); err != nil {
			t.Fatal(err)
		}
		if sets[i], err = metas[i].NewMirrorNamed(metas[i].Instance); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / mirrors
	t.Logf("%d B of live heap per mirror", per)
	if per > bound {
		t.Errorf("%d B of live heap per mirror, want <= %d", per, bound)
	}
	if InternedSchemas() != 1 || sets[0].Schema() != sets[mirrors-1].Schema() {
		t.Errorf("%d layouts held for one", InternedSchemas())
	}
	runtime.KeepAlive(metas)
	runtime.KeepAlive(chunks)
}

// FuzzParseMeta: the lookup-response decoder never panics; a chunk it accepts
// makes a mirror whose own metadata resolves to the same schema, and deltas
// applied under it stay inside the pull buffer.
func FuzzParseMeta(f *testing.F) {
	good := layoutMeta(f, "node/fuzz", "fuzz", 5)
	f.Add(good, []byte{})
	f.Add(good[:len(good)-3], []byte{1})
	zeroOff := append([]byte(nil), good...)
	le.PutUint32(zeroOff[len(zeroOff)-4:], 0) // last entry's offset into the header
	f.Add(zeroOff, []byte{})
	f.Fuzz(func(t *testing.T, chunk, delta []byte) {
		m, err := ParseMeta(chunk)
		if err != nil {
			return
		}
		mir, err := m.NewMirrorNamed("fuzz/mirror")
		if err != nil {
			t.Fatalf("accepted chunk makes no mirror: %v", err)
		}
		defer mir.Delete()
		again, err := ParseMeta(mir.MetaBytes())
		if err != nil || again.Schema != m.Schema {
			t.Fatalf("mirror metadata re-parses to %p (%v), want %p", again, err, m.Schema)
		}
		guarded := make([]byte, m.DataSize+16)
		for i := range guarded {
			guarded[i] = 0xA5
		}
		buf := guarded[8 : 8+m.DataSize : 8+m.DataSize]
		own, _ := mir.AppendDelta(nil, 0)
		for _, d := range [][]byte{delta, own, append(append([]byte(nil), own...), delta...)} {
			if len(d) >= 8 {
				le.PutUint64(d[offMGN:], m.MGN) // past the MGN gate, into the entries
			}
			_ = m.ApplyDelta(buf, d)
		}
		for i, b := range guarded {
			if (i < 8 || i >= 8+m.DataSize) && b != 0xA5 {
				t.Fatalf("ApplyDelta wrote outside the buffer at %d", i-8)
			}
		}
	})
}
