// Package store implements the LDMS storage plugin API and the CSV,
// flat-file, and SOS backends (paper §IV-A: "Storage plugins write in a
// variety of formats. Currently these include MySQL, flat file, and a
// proprietary structured file format called Scalable Object Store").
//
// Store plugins run on aggregators. A storage policy hands each
// consistent, updated metric-set sample to the plugin as a flattened Row;
// stale or torn samples never reach a store (the updater filters them using
// the DGN and consistent flag).
package store

import (
	"fmt"
	"sort"
	"sync"

	"goldms/internal/metric"
)

// Config is the common configuration for store creation.
type Config struct {
	// Path is the store root (a directory or file path, by plugin).
	Path string
	// Schema is the metric-set schema this store instance receives.
	Schema string
	// Names and Types define the schema columns, known at policy start
	// from the first matched set.
	Names []string
	Types []metric.Type
	// Options holds plugin-specific settings.
	Options map[string]string
}

// opt returns an option value or a default.
func (c Config) opt(key, def string) string {
	if v, ok := c.Options[key]; ok {
		return v
	}
	return def
}

// Store receives flattened samples for one schema.
type Store interface {
	// Name returns the plugin type name.
	Name() string
	// StoreBatch appends rows in order: one lock acquisition and (for file
	// backends) one buffered write per batch. The storage pipeline hands it
	// whole queue drains; rows and their Values slices are only valid for
	// the duration of the call (the pipeline recycles them afterwards), so
	// implementations must copy anything they retain. On error the batch is
	// abandoned; how many rows landed is plugin-defined.
	StoreBatch(rows []metric.Row) error
	// Flush forces buffered data to stable storage.
	Flush() error
	// Close flushes and releases resources.
	Close() error
	// BytesWritten reports the cumulative bytes written, for the
	// data-volume accounting of experiment T1.
	BytesWritten() int64
}

// Batch hands rows to s in one StoreBatch call.
func Batch(s Store, rows []metric.Row) error {
	return s.StoreBatch(rows)
}

// Factory constructs a configured store.
type Factory func(cfg Config) (Store, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a store factory under name; duplicates panic.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("store: duplicate plugin %q", name))
	}
	registry[name] = f
}

// New instantiates the named store plugin.
func New(name string, cfg Config) (Store, error) {
	regMu.RLock()
	f := registry[name]
	regMu.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("store: unknown plugin %q", name)
	}
	if len(cfg.Names) == 0 {
		return nil, fmt.Errorf("store %s: no schema columns configured", name)
	}
	return f(cfg)
}

// Names lists registered store plugins, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
