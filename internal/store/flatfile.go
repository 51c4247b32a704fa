package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"goldms/internal/metric"
)

var _ Store = (*flatStore)(nil)

// flatStore is the flat-file plugin: one file per metric name (paper
// §IV-A: "a file per metric name (e.g. Active and Cached memory are stored
// in 2 separate files)"), each line "time time_usec compid value".
type flatStore struct {
	mu      sync.Mutex
	dir     string
	files   []*bufio.Writer
	osf     []*os.File
	written int64
	scratch []byte // line/batch formatting buffer, reused across calls
	closed  bool
}

// newFlat creates the store_flatfile plugin rooted at cfg.Path.
func newFlat(cfg Config) (Store, error) {
	if err := os.MkdirAll(cfg.Path, 0o755); err != nil {
		return nil, fmt.Errorf("store_flatfile: %w", err)
	}
	s := &flatStore{dir: cfg.Path}
	for _, name := range cfg.Names {
		f, err := os.OpenFile(filepath.Join(cfg.Path, sanitize(name)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store_flatfile: %w", err)
		}
		s.osf = append(s.osf, f)
		s.files = append(s.files, bufio.NewWriterSize(f, 16<<10))
	}
	return s, nil
}

// sanitize makes a metric name safe as a file name.
func sanitize(name string) string {
	b := []byte(name)
	for i, c := range b {
		if c == '/' || c == 0 {
			b[i] = '_'
		}
	}
	return string(b)
}

// Name implements Store.
func (s *flatStore) Name() string { return "store_flatfile" }

// appendFlatLine formats one "time time_usec compid value" line onto buf.
//
//ldms:hotpath
func appendFlatLine(buf []byte, row metric.Row, v metric.Value) []byte {
	buf = strconv.AppendInt(buf, row.Time.Unix(), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(row.Time.Nanosecond()/1000), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, row.CompID, 10)
	buf = append(buf, ' ')
	buf = appendValue(buf, v)
	return append(buf, '\n')
}

// StoreBatch implements Store: one lock acquisition for the whole
// batch and, per metric file, all of the batch's lines formatted into one
// reused buffer and handed to the writer in a single call.
func (s *flatStore) StoreBatch(rows []metric.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store_flatfile: closed")
	}
	for _, row := range rows {
		if len(row.Values) != len(s.files) {
			return fmt.Errorf("store_flatfile: row has %d values, store %d files", len(row.Values), len(s.files))
		}
	}
	for i, w := range s.files {
		s.scratch = s.scratch[:0]
		for _, row := range rows {
			s.scratch = appendFlatLine(s.scratch, row, row.Values[i])
		}
		n, err := w.Write(s.scratch)
		s.written += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Store.
func (s *flatStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	for i, w := range s.files {
		if err := w.Flush(); err != nil {
			return err
		}
		if err := s.osf[i].Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Store.
func (s *flatStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for i, w := range s.files {
		if w != nil {
			if err := w.Flush(); err != nil && first == nil {
				first = err
			}
		}
		if s.osf[i] != nil {
			if err := s.osf[i].Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// BytesWritten implements Store.
func (s *flatStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

func init() {
	Register("store_flatfile", newFlat)
}
