// Package intern provides the per-stream key dictionary of the
// zero-allocation batch hot path: an append-only mapping from
// partitioning-key strings to dense uint32 IDs.
//
// Keys are interned once, where a batch becomes columns (the engine's
// accumulate-stage transposition, a Receiver drain, or a caller building
// a ColumnBatch), and stay dense integers through the statistics,
// partitioning, shuffle, and reduce structures; the strings are resolved
// back only at the report/window boundary. Because the dictionary is append-only and
// shared across batches, the per-key ID is stable for the stream's
// lifetime, which lets the statistics hash table replace its
// string-keyed map with an ID-indexed slot array that is reused batch
// after batch.
//
// A Dict is safe for concurrent interning and resolution, under a
// read-write lock.
package intern

import (
	"fmt"
	"sync"
)

// Dict is an append-only string ↔ uint32 dictionary. The zero value is
// ready to use.
type Dict struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// NewDict returns a dictionary pre-sized for the given expected key
// cardinality (0 is fine).
func NewDict(hint int) *Dict {
	return &Dict{
		ids:  make(map[string]uint32, hint),
		strs: make([]string, 0, hint),
	}
}

// Intern returns the dense ID for key, assigning the next free ID on
// first sight. IDs start at 0 and grow by one per distinct key.
func (d *Dict) Intern(key string) uint32 {
	d.mu.RLock()
	id, ok := d.ids[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.ids[key]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	id = uint32(len(d.strs))
	d.ids[key] = id
	d.strs = append(d.strs, key)
	return id
}

// Lookup returns the ID for key without interning it.
func (d *Dict) Lookup(key string) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ids[key]
	d.mu.RUnlock()
	return id, ok
}

// Resolve returns the key string for id. It panics on an ID the
// dictionary never issued (always a caller bug: IDs only come from
// Intern).
func (d *Dict) Resolve(id uint32) string {
	d.mu.RLock()
	s := d.strs[id]
	d.mu.RUnlock()
	return s
}

// Len returns the number of interned keys (also the next free ID).
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.strs)
	d.mu.RUnlock()
	return n
}

// Snapshot returns the interned strings in ID order: index i holds the
// key with ID i. The checkpoint writer serializes this; restoring it
// with FromSnapshot reproduces every ID exactly.
func (d *Dict) Snapshot() []string {
	d.mu.RLock()
	out := make([]string, len(d.strs))
	copy(out, d.strs)
	d.mu.RUnlock()
	return out
}

// FromSnapshot rebuilds a dictionary whose IDs match the snapshot:
// strs[i] interns to ID i. It returns an error if the snapshot holds
// duplicate strings (which no Snapshot can produce).
func FromSnapshot(strs []string) (*Dict, error) {
	d := NewDict(len(strs))
	for i, s := range strs {
		if _, dup := d.ids[s]; dup {
			return nil, fmt.Errorf("intern: snapshot has duplicate key %q at index %d", s, i)
		}
		d.ids[s] = uint32(i)
		d.strs = append(d.strs, s)
	}
	return d, nil
}
