package metric

import (
	"hash/maphash"
	"slices"
	"sync"
)

// internTable resolves equal layouts to one canonical *Schema, so a fleet of
// mirrors of one sampler holds one name list and one index, and consumers
// compare layouts by pointer. ParseMeta looks a chunk's layout up by a seeded
// hash (a peer cannot aim at a bucket) and a full compare, and enters the
// schema it had to build; mirrors count references on the canonical schema
// and the last Delete takes the entry out. An entry no mirror ever claimed
// leaves when internIdle newer ones have been entered, so lookups that never
// become mirrors cannot grow the table.
type internTable struct {
	mu      sync.Mutex
	seed    maphash.Seed
	buckets map[uint64][]*Schema
	n       int
	idle    [internIdle]*Schema // the last entries entered, oldest at next
	next    int
}

const internIdle = 16

func newInternTable() *internTable {
	return &internTable{seed: maphash.MakeSeed(), buckets: make(map[uint64][]*Schema)}
}

// interned is the process's table: every daemon in it shares the schemas.
var interned = newInternTable()

// InternedSchemas returns the number of distinct layouts the process holds.
func InternedSchemas() int {
	interned.mu.Lock()
	defer interned.mu.Unlock()
	return interned.n
}

// resolve returns the entry under hash that same accepts. When there is none
// it enters s (whose hash that is) and returns it, or returns nil for a nil
// s. mirror counts a reference on the result.
func (t *internTable) resolve(hash uint64, same func(*Schema) bool, s *Schema, mirror bool) *Schema {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := slices.IndexFunc(t.buckets[hash], same); i >= 0 {
		s = t.buckets[hash][i]
	} else if s != nil {
		t.buckets[hash] = append(t.buckets[hash], s)
		t.n++
		if old := t.idle[t.next]; old != nil && old.refs == 0 {
			t.removeLocked(old)
		}
		t.idle[t.next] = s
		t.next = (t.next + 1) % internIdle
	}
	if mirror {
		s.refs++
	}
	return s
}

// release drops a mirror's reference; the last one takes the entry out.
func (t *internTable) release(s *Schema) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.refs--; s.refs == 0 {
		t.removeLocked(s)
	}
}

// removeLocked takes s out of its bucket, if it is (still) there.
func (t *internTable) removeLocked(s *Schema) {
	b := t.buckets[s.hash]
	i := slices.Index(b, s)
	if i < 0 {
		return
	}
	if b = slices.Delete(b, i, i+1); len(b) == 0 {
		delete(t.buckets, s.hash)
	} else {
		t.buckets[s.hash] = b
	}
	t.n--
}
