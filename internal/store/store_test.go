package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goldms/internal/metric"
)

var (
	colNames = []string{"Active", "Cached", "load"}
	colTypes = []metric.Type{metric.TypeU64, metric.TypeU64, metric.TypeD64}
)

func testRow(ts int64, comp uint64, active, cached uint64, load float64) metric.Row {
	return metric.Row{
		Time:     time.Unix(ts, 250000000),
		Instance: "n1/meminfo",
		Schema:   "meminfo",
		CompID:   comp,
		Names:    colNames,
		Values: []metric.Value{
			metric.U64Value(active), metric.U64Value(cached), metric.F64Value(load),
		},
	}
}

// store1 hands s a batch of one row.
func store1(s Store, row metric.Row) error {
	return s.StoreBatch([]metric.Row{row})
}

func TestCSVStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meminfo.csv")
	s, err := New("store_csv", Config{Path: path, Schema: "meminfo", Names: colNames, Types: colTypes})
	if err != nil {
		t.Fatal(err)
	}
	if err := store1(s, testRow(100, 1, 111, 222, 1.5)); err != nil {
		t.Fatal(err)
	}
	if err := store1(s, testRow(120, 2, 333, 444, 2.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), b)
	}
	if lines[0] != "#Time,Time_usec,CompId,Active,Cached,load" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "100,250000,1,111,222,1.5" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if s.BytesWritten() != int64(len(b)) {
		t.Errorf("BytesWritten = %d, file = %d", s.BytesWritten(), len(b))
	}
}

func TestCSVAltHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.csv")
	s, err := New("store_csv", Config{
		Path: path, Schema: "s", Names: colNames, Types: colTypes,
		Options: map[string]string{"altheader": "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	store1(s, testRow(1, 1, 1, 2, 3))
	s.Close()
	b, _ := os.ReadFile(path)
	if strings.HasPrefix(string(b), "#") {
		t.Error("header written to data file despite altheader")
	}
	h, err := os.ReadFile(path + ".HEADER")
	if err != nil || !strings.HasPrefix(string(h), "#Time") {
		t.Errorf("HEADER file: %q err=%v", h, err)
	}
}

func TestCSVAppendAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.csv")
	cfg := Config{Path: path, Schema: "s", Names: colNames, Types: colTypes}
	s, _ := New("store_csv", cfg)
	store1(s, testRow(1, 1, 1, 2, 3))
	s.Close()
	s2, err := New("store_csv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	store1(s2, testRow(2, 1, 4, 5, 6))
	s2.Close()
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 { // one header + two rows; header not duplicated
		t.Errorf("lines after reopen = %d:\n%s", len(lines), b)
	}
}

func TestFlatfileStore(t *testing.T) {
	dir := t.TempDir()
	s, err := New("store_flatfile", Config{Path: dir, Schema: "meminfo", Names: colNames, Types: colTypes})
	if err != nil {
		t.Fatal(err)
	}
	store1(s, testRow(100, 7, 11, 22, 0.5))
	store1(s, testRow(101, 7, 12, 23, 0.6))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// One file per metric name.
	for _, name := range colNames {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("metric file %s: %v", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 2 {
			t.Errorf("%s lines = %d", name, len(lines))
		}
	}
	b, _ := os.ReadFile(filepath.Join(dir, "Active"))
	if !strings.HasPrefix(string(b), "100 250000 7 11\n") {
		t.Errorf("Active content = %q", b)
	}
	b, _ = os.ReadFile(filepath.Join(dir, "load"))
	if !strings.Contains(string(b), " 0.5") {
		t.Errorf("load content = %q", b)
	}
}

func TestFlatfileCardinalityMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := New("store_flatfile", Config{Path: dir, Schema: "s", Names: colNames, Types: colTypes})
	row := testRow(1, 1, 1, 2, 3)
	row.Values = row.Values[:1]
	if err := store1(s, row); err == nil {
		t.Error("mismatched row accepted")
	}
	s.Close()
}

func TestSOSStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sos")
	cfg := Config{Path: dir, Schema: "meminfo", Names: colNames, Types: colTypes}
	s, err := New("store_sos", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := store1(s, testRow(int64(100+i), 3, uint64(i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if s.BytesWritten() == 0 {
		t.Error("no bytes written")
	}
	s.Close()

	// Reopen appends to the same container.
	s2, err := New("store_sos", cfg)
	if err != nil {
		t.Fatal(err)
	}
	store1(s2, testRow(200, 3, 99, 0, 0))
	ss, ok := s2.(*sosStore)
	if !ok {
		t.Fatal("not a sosStore")
	}
	it, _ := ss.Container().Query(time.Time{}, time.Time{}, 0)
	n := 0
	for {
		_, more, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		n++
	}
	if n != 6 {
		t.Errorf("records = %d want 6", n)
	}
	s2.Close()
}

func TestUnknownStore(t *testing.T) {
	if _, err := New("store_mysql", Config{Names: colNames, Types: colTypes}); err == nil {
		t.Error("unknown plugin accepted")
	}
}

func TestEmptySchemaRejected(t *testing.T) {
	if _, err := New("store_csv", Config{Path: filepath.Join(t.TempDir(), "x.csv")}); err == nil {
		t.Error("empty schema accepted")
	}
}

func TestNamesRegistered(t *testing.T) {
	got := strings.Join(Names(), ",")
	for _, want := range []string{"store_csv", "store_flatfile", "store_sos"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %s in %q", want, got)
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a/b"); got != "a_b" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestCSVRollover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roll.csv")
	s, err := New("store_csv", Config{
		Path: path, Schema: "s", Names: colNames, Types: colTypes,
		Options: map[string]string{"rollover": "200"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := store1(s, testRow(int64(i), 1, uint64(i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Rolled files exist and each non-final file starts with the header.
	rolled, err := filepath.Glob(path + ".*")
	if err != nil || len(rolled) < 2 {
		t.Fatalf("rolled files = %v err=%v", rolled, err)
	}
	totalRows := 0
	for _, p := range append(rolled, path) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if !strings.HasPrefix(lines[0], "#Time") {
			t.Errorf("%s lacks header", p)
		}
		totalRows += len(lines) - 1
	}
	if totalRows != 40 {
		t.Errorf("rows across rolled files = %d want 40", totalRows)
	}
}

func TestCSVRolloverContinuesAcrossRestart(t *testing.T) {
	// Regression: rolls used to reset to 0 on restart, so the first roll
	// of the new process renamed over the existing <path>.1.
	path := filepath.Join(t.TempDir(), "roll.csv")
	cfg := Config{
		Path: path, Schema: "s", Names: colNames, Types: colTypes,
		Options: map[string]string{"rollover": "200"},
	}
	s, err := New("store_csv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := store1(s, testRow(int64(i), 1, uint64(i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	before, _ := filepath.Glob(path + ".*")
	if len(before) == 0 {
		t.Fatal("first run produced no rolled files")
	}
	marker, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}

	// "Restarted" store must keep numbering past the existing files.
	s2, err := New("store_csv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := store1(s2, testRow(int64(100+i), 1, uint64(i), 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s2.Close()
	after, _ := filepath.Glob(path + ".*")
	if len(after) <= len(before) {
		t.Errorf("second run rolled no new files: before %v, after %v", before, after)
	}
	got, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(marker) {
		t.Errorf("restart overwrote %s.1:\nbefore: %q\nafter:  %q", path, marker, got)
	}
}

// TestCSVStoreBatchMatchesPerRow: one StoreBatch of N rows writes the same
// file as N batches of one.
func TestCSVStoreBatchMatchesPerRow(t *testing.T) {
	dir := t.TempDir()
	rowPath := filepath.Join(dir, "row.csv")
	batchPath := filepath.Join(dir, "batch.csv")
	rows := []metric.Row{
		testRow(100, 1, 111, 222, 1.5),
		testRow(120, 2, 333, 444, 2.5),
		testRow(140, 3, 555, 666, 3.5),
	}
	sr, _ := New("store_csv", Config{Path: rowPath, Schema: "s", Names: colNames, Types: colTypes})
	for _, r := range rows {
		if err := store1(sr, r); err != nil {
			t.Fatal(err)
		}
	}
	sr.Close()
	sb, _ := New("store_csv", Config{Path: batchPath, Schema: "s", Names: colNames, Types: colTypes})
	if err := Batch(sb, rows); err != nil {
		t.Fatal(err)
	}
	if sb.BytesWritten() == 0 {
		t.Error("batch wrote no bytes")
	}
	sb.Close()
	a, _ := os.ReadFile(rowPath)
	b, _ := os.ReadFile(batchPath)
	if string(a) != string(b) {
		t.Errorf("batched CSV differs from per-row:\nrow:   %q\nbatch: %q", a, b)
	}
}

func TestCSVStoreBatchRollover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roll.csv")
	s, err := New("store_csv", Config{
		Path: path, Schema: "s", Names: colNames, Types: colTypes,
		Options: map[string]string{"rollover": "200"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]metric.Row, 40)
	for i := range rows {
		rows[i] = testRow(int64(i), 1, uint64(i), 0, 0)
	}
	if err := Batch(s, rows); err != nil {
		t.Fatal(err)
	}
	s.Close()
	rolled, _ := filepath.Glob(path + ".*")
	if len(rolled) < 2 {
		t.Fatalf("batched rollover produced %v", rolled)
	}
	totalRows := 0
	for _, p := range append(rolled, path) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		totalRows += len(lines) - 1 // header
	}
	if totalRows != 40 {
		t.Errorf("rows across rolled files = %d want 40", totalRows)
	}
}

// TestFlatfileStoreBatchMatchesPerRow: one StoreBatch of N rows writes the
// same metric files as N batches of one.
func TestFlatfileStoreBatchMatchesPerRow(t *testing.T) {
	rowDir := t.TempDir()
	batchDir := t.TempDir()
	rows := []metric.Row{
		testRow(100, 7, 11, 22, 0.5),
		testRow(101, 7, 12, 23, 0.6),
	}
	sr, _ := New("store_flatfile", Config{Path: rowDir, Schema: "s", Names: colNames, Types: colTypes})
	for _, r := range rows {
		if err := store1(sr, r); err != nil {
			t.Fatal(err)
		}
	}
	sr.Close()
	sb, _ := New("store_flatfile", Config{Path: batchDir, Schema: "s", Names: colNames, Types: colTypes})
	if err := Batch(sb, rows); err != nil {
		t.Fatal(err)
	}
	sb.Close()
	for _, name := range colNames {
		a, _ := os.ReadFile(filepath.Join(rowDir, name))
		b, _ := os.ReadFile(filepath.Join(batchDir, name))
		if string(a) != string(b) {
			t.Errorf("%s: batched differs from per-row:\nrow:   %q\nbatch: %q", name, a, b)
		}
	}
}

func TestFlatfileStoreBatchCardinalityMismatch(t *testing.T) {
	s, _ := New("store_flatfile", Config{Path: t.TempDir(), Schema: "s", Names: colNames, Types: colTypes})
	bad := testRow(1, 1, 1, 2, 3)
	bad.Values = bad.Values[:1]
	if err := Batch(s, []metric.Row{testRow(2, 1, 1, 2, 3), bad}); err == nil {
		t.Error("mismatched batch accepted")
	}
	s.Close()
}

func TestSOSStoreBatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sos")
	s, err := New("store_sos", Config{Path: dir, Schema: "meminfo", Names: colNames, Types: colTypes})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]metric.Row, 5)
	for i := range rows {
		rows[i] = testRow(int64(100+i), 3, uint64(i), 0, 0)
	}
	if err := Batch(s, rows); err != nil {
		t.Fatal(err)
	}
	ss := s.(*sosStore)
	it, _ := ss.Container().Query(time.Time{}, time.Time{}, 0)
	n := 0
	for {
		_, more, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			break
		}
		n++
	}
	if n != 5 {
		t.Errorf("records = %d want 5", n)
	}
	s.Close()

	// Five batches of one build a byte-identical container.
	rowDir := filepath.Join(t.TempDir(), "sos")
	sr, err := New("store_sos", Config{Path: rowDir, Schema: "meminfo", Names: colNames, Types: colTypes})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := store1(sr, r); err != nil {
			t.Fatal(err)
		}
	}
	sr.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) == 0 {
		t.Fatal("container holds no files")
	}
	for _, f := range files {
		a, _ := os.ReadFile(f)
		b, err := os.ReadFile(filepath.Join(rowDir, filepath.Base(f)))
		if err != nil || string(a) != string(b) {
			t.Errorf("%s: one batch differs from batches of one (err=%v)", filepath.Base(f), err)
		}
	}
}

func TestCSVRolloverBadOption(t *testing.T) {
	_, err := New("store_csv", Config{
		Path: filepath.Join(t.TempDir(), "x.csv"), Schema: "s",
		Names: colNames, Types: colTypes,
		Options: map[string]string{"rollover": "zero"},
	})
	if err == nil {
		t.Fatal("bad rollover accepted")
	}
}

func TestFlushPaths(t *testing.T) {
	dir := t.TempDir()
	for _, plugin := range []string{"store_csv", "store_flatfile", "store_sos"} {
		path := filepath.Join(dir, plugin)
		s, err := New(plugin, Config{Path: path, Schema: "s", Names: colNames, Types: colTypes})
		if err != nil {
			t.Fatalf("%s: %v", plugin, err)
		}
		if err := store1(s, testRow(1, 1, 1, 2, 3)); err != nil {
			t.Fatalf("%s store: %v", plugin, err)
		}
		if err := s.Flush(); err != nil {
			t.Fatalf("%s flush: %v", plugin, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s close: %v", plugin, err)
		}
		// Idempotent close, and flush after close is harmless.
		if err := s.Close(); err != nil {
			t.Fatalf("%s second close: %v", plugin, err)
		}
		if err := s.Flush(); plugin != "store_sos" && err != nil {
			t.Fatalf("%s flush after close: %v", plugin, err)
		}
	}
}

func TestStoreAfterCloseRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.csv")
	s, _ := New("store_csv", Config{Path: path, Schema: "s", Names: colNames, Types: colTypes})
	s.Close()
	if err := store1(s, testRow(1, 1, 1, 2, 3)); err == nil {
		t.Error("csv store after close accepted")
	}
	d := t.TempDir()
	f, _ := New("store_flatfile", Config{Path: d, Schema: "s", Names: colNames, Types: colTypes})
	f.Close()
	if err := store1(f, testRow(1, 1, 1, 2, 3)); err == nil {
		t.Error("flatfile store after close accepted")
	}
}
