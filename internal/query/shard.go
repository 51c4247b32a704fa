package query

// Lock-striped sharding of the window's set index. Before sharding, one
// RWMutex guarded the instance→series map: every updater insert and
// every HTTP query serialized on it, so read QPS collapsed as soon as a
// live update pass was running (Zhang et al.'s monitoring-service study
// — the query side, not collection, is where these systems fall over).
// Hashing each set instance onto one of N independently-locked shards
// lets inserts for different producers and concurrent queries proceed
// in parallel; per-series data stays under the per-set mutex
// exactly as before.

import "sync"

// DefaultShards is the shard count when none is configured. 16 striped
// locks keep 64-producer insert traffic and concurrent dashboard reads
// off each other's locks without measurable memory cost.
const DefaultShards = 16

// windowShard is one stripe of the set index.
type windowShard struct {
	mu   sync.RWMutex
	sets map[string]*setSeries
}

// shardFor hashes an instance name onto its stripe (FNV-1a).
func (w *Window) shardFor(name string) *windowShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return &w.shards[h&uint64(len(w.shards)-1)]
}

// roundPow2 rounds n up to a power of two (shard counts must be
// maskable); values below 1 select the default.
func roundPow2(n int) int {
	if n <= 0 {
		return DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
