package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"goldms/internal/metric"
)

var _ Store = (*csvStore)(nil)

// csvStore is the store_csv plugin: one comma-separated-value file per
// metric set schema, one row per (component, sample). The header row is
// written to the data file, or to a separate .HEADER file when the
// altheader option is set (paper §IV-C: "optionally write header to
// separate file").
type csvStore struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	w         *bufio.Writer
	names     []string
	header    string
	altHeader bool
	rollBytes int64 // roll to a numbered file after this many bytes (0 = never)
	fileBytes int64 // bytes in the current file
	rolls     int
	written   int64
	scratch   []byte // row/batch formatting buffer, reused across calls
	closed    bool
}

// newCSV creates the store_csv plugin. Options:
//
//	altheader=1     write the header to <path>.HEADER instead of the data file
//	rollover=<n>    roll the data file after ~n bytes; rolled files are
//	                renamed <path>.1, <path>.2, ... (the LDMS store_csv
//	                rollover feature, needed for multi-day continuous runs)
func newCSV(cfg Config) (Store, error) {
	if err := os.MkdirAll(filepath.Dir(cfg.Path), 0o755); err != nil {
		return nil, fmt.Errorf("store_csv: %w", err)
	}
	header := "#Time,Time_usec,CompId"
	for _, n := range cfg.Names {
		header += "," + n
	}
	header += "\n"
	s := &csvStore{
		path:      cfg.Path,
		names:     cfg.Names,
		header:    header,
		altHeader: cfg.opt("altheader", "0") == "1",
		rolls:     lastRoll(cfg.Path),
	}
	if v := cfg.opt("rollover", ""); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("store_csv: bad rollover %q", v)
		}
		s.rollBytes = n
	}
	if s.altHeader {
		if err := os.WriteFile(cfg.Path+".HEADER", []byte(header), 0o644); err != nil {
			return nil, err
		}
	}
	if err := s.openFileLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// lastRoll scans for existing <path>.N rolled files and returns the
// highest N, so a restarted daemon continues the numbering instead of
// renaming its first roll over an existing <path>.1.
func lastRoll(path string) int {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return 0
	}
	max := 0
	for _, m := range matches {
		n, err := strconv.Atoi(strings.TrimPrefix(m, path+"."))
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// openFileLocked opens (or reopens after a roll) the data file and writes
// the header when the file is fresh. Caller holds s.mu or is the
// constructor.
func (s *csvStore) openFileLocked() error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store_csv: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.f = f
	s.w = bufio.NewWriterSize(f, 64<<10)
	s.fileBytes = st.Size()
	if !s.altHeader && st.Size() == 0 {
		n, err := s.w.WriteString(s.header)
		s.written += int64(n)
		s.fileBytes += int64(n)
		if err != nil {
			f.Close()
			return err
		}
	}
	return nil
}

// rollLocked renames the current file aside and starts a fresh one.
func (s *csvStore) rollLocked() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	s.rolls++
	if err := os.Rename(s.path, fmt.Sprintf("%s.%d", s.path, s.rolls)); err != nil {
		return err
	}
	return s.openFileLocked()
}

// Name implements Store.
func (s *csvStore) Name() string { return "store_csv" }

// appendCSVRow formats one row onto buf.
//
//ldms:hotpath
func appendCSVRow(buf []byte, row metric.Row) []byte {
	buf = strconv.AppendInt(buf, row.Time.Unix(), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(row.Time.Nanosecond()/1000), 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, row.CompID, 10)
	for _, v := range row.Values {
		buf = append(buf, ',')
		buf = appendValue(buf, v)
	}
	return append(buf, '\n')
}

// appendValue formats a metric value in its natural representation.
//
//ldms:hotpath
func appendValue(buf []byte, v metric.Value) []byte {
	switch v.Type {
	case metric.TypeD64, metric.TypeF32:
		return strconv.AppendFloat(buf, v.F64(), 'g', -1, 64)
	case metric.TypeS8, metric.TypeS16, metric.TypeS32, metric.TypeS64:
		return strconv.AppendInt(buf, v.S64(), 10)
	default:
		return strconv.AppendUint(buf, v.U64(), 10)
	}
}

// writeScratchLocked drains the formatting buffer to the data file and
// rolls if the size threshold was crossed. Caller holds s.mu.
func (s *csvStore) writeScratchLocked() error {
	if len(s.scratch) == 0 {
		return nil
	}
	n, err := s.w.Write(s.scratch)
	s.written += int64(n)
	s.fileBytes += int64(n)
	s.scratch = s.scratch[:0]
	if err != nil {
		return err
	}
	if s.rollBytes > 0 && s.fileBytes >= s.rollBytes {
		return s.rollLocked()
	}
	return nil
}

// StoreBatch implements Store: all rows are formatted into one
// reused buffer and written under a single lock acquisition. The
// rollover threshold is still honored mid-batch.
func (s *csvStore) StoreBatch(rows []metric.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store_csv: closed")
	}
	s.scratch = s.scratch[:0]
	for _, row := range rows {
		s.scratch = appendCSVRow(s.scratch, row)
		if s.rollBytes > 0 && s.fileBytes+int64(len(s.scratch)) >= s.rollBytes {
			if err := s.writeScratchLocked(); err != nil {
				return err
			}
		}
	}
	return s.writeScratchLocked()
}

// Flush implements Store.
func (s *csvStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close implements Store.
func (s *csvStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// BytesWritten implements Store.
func (s *csvStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

func init() {
	Register("store_csv", newCSV)
}
