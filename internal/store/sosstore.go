package store

import (
	"fmt"
	"sync"

	"goldms/internal/metric"
	"goldms/internal/sos"
)

var _ Store = (*sosStore)(nil)

// sosStore is the store_sos plugin: samples append to a SOS container
// rooted at cfg.Path.
type sosStore struct {
	mu sync.Mutex
	c  *sos.Container
}

// newSOS opens the SOS container at cfg.Path, creating it if absent.
func newSOS(cfg Config) (Store, error) {
	c, err := sos.Open(cfg.Path, nil)
	if err != nil {
		var cerr error
		c, cerr = sos.Create(cfg.Path, cfg.Schema, cfg.Names, cfg.Types, nil)
		if cerr != nil {
			return nil, fmt.Errorf("store_sos: open: %v; create: %w", err, cerr)
		}
	}
	return &sosStore{c: c}, nil
}

// Name implements Store.
func (s *sosStore) Name() string { return "store_sos" }

// StoreBatch implements Store: the whole batch appends under one
// lock acquisition.
func (s *sosStore) StoreBatch(rows []metric.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, row := range rows {
		if err := s.c.Append(row.Time, row.CompID, row.Values); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Store.
func (s *sosStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Sync()
}

// Close implements Store.
func (s *sosStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Close()
}

// BytesWritten implements Store.
func (s *sosStore) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Stats().BytesWritten
}

// Container exposes the underlying SOS container for analysis tooling.
func (s *sosStore) Container() *sos.Container { return s.c }

func init() {
	Register("store_sos", newSOS)
}
