package stats

import (
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// KeyEntry is the per-key record stored in the HTable. It holds the key's
// buffered tuples and the auxiliary statistics driving the budgeted count
// updates of Algorithm 1:
//
//   - FreqCurrent: exact number of tuples received for the key this batch.
//   - FreqUpdated: the (approximate) count last published for the key —
//     the count the paper's CountTree node would hold. Finalize orders
//     keys by it.
//   - Budget: remaining count updates allowed for the key this batch.
//   - FStep: frequency step — the count is published once every FStep new
//     tuples of its key.
//   - TStep: time step — low-frequency keys are refreshed when TStep time
//     has elapsed since the last update, so cold keys do not go stale.
//   - LastUpdate: time of the key's last published update.
type KeyEntry struct {
	Key string
	// ID is the key's dense intern ID when the table runs in dictionary
	// mode; 0 (and unused) in map mode.
	ID uint32
	// Tuples buffers the key's tuples in map mode; empty in dictionary
	// mode.
	Tuples []tuple.Tuple
	// Cols buffers the key's tuples in dictionary mode, whose only fold
	// is the column fold; empty in map mode. Its backing arrays survive
	// arena rewinds, so steady-state ingestion allocates nothing.
	Cols        tuple.ColSlice
	FreqCurrent int
	FreqUpdated int
	Budget      int
	FStep       int
	TStep       tuple.Time
	LastUpdate  tuple.Time
}

// HTable maps partitioning keys to their entries. It is the only per-batch
// structure of Algorithm 1: the published counts live in the entries, and
// Finalize sorts the entries once at the heartbeat.
//
// The table runs in one of two modes:
//
//   - Dictionary mode (hot path): keys are addressed by their dense
//     intern ID. Entries live in one flat arena reused batch after batch
//     — per-key column buffers keep their backing arrays across Resets —
//     and the ID → entry index translation is a flat int32 slot array,
//     so steady-state ingestion allocates nothing.
//   - Map mode (string path): a plain string-keyed Go map, kept for
//     dictionary-less callers and as the reference behaviour the golden
//     tests compare against. Reset clears the map in place so its bucket
//     memory is reused; it only reallocates when a batch outgrows it.
type HTable struct {
	m map[string]*KeyEntry // map mode; nil in dictionary mode

	dict    *intern.Dict
	slot    []int32    // intern ID -> entry index + 1; 0 = absent this batch
	entries []KeyEntry // dense per-batch entry arena, reused across batches
}

// NewHTable returns an empty map-mode hash table sized for the given
// expected cardinality (0 is fine).
func NewHTable(hint int) *HTable {
	return &HTable{m: make(map[string]*KeyEntry, hint)}
}

// NewHTableDict returns an empty dictionary-mode table addressing entries
// by their intern IDs in dict.
func NewHTableDict(dict *intern.Dict, hint int) *HTable {
	return &HTable{
		dict:    dict,
		slot:    make([]int32, dict.Len()+hint),
		entries: make([]KeyEntry, 0, hint),
	}
}

// Dict returns the intern dictionary, or nil in map mode.
func (h *HTable) Dict() *intern.Dict { return h.dict }

// Len returns the number of distinct keys.
func (h *HTable) Len() int {
	if h.dict != nil {
		return len(h.entries)
	}
	return len(h.m)
}

// Get returns the entry for key, or nil. In dictionary mode it resolves
// the key through the dictionary without interning it.
func (h *HTable) Get(key string) *KeyEntry {
	if h.dict != nil {
		id, ok := h.dict.Lookup(key)
		if !ok {
			return nil
		}
		return h.GetID(id)
	}
	return h.m[key]
}

// GetID returns the entry for the interned key id, or nil. Dictionary
// mode only. The pointer is valid until the next PutID or Reset.
func (h *HTable) GetID(id uint32) *KeyEntry {
	if int(id) >= len(h.slot) {
		return nil
	}
	if s := h.slot[id]; s != 0 {
		return &h.entries[s-1]
	}
	return nil
}

// Put inserts a new entry. The caller guarantees key is absent. Map mode
// only.
func (h *HTable) Put(e *KeyEntry) { h.m[e.Key] = e }

// PutID appends a fresh entry for the interned key id and returns it,
// zeroed except for Key, ID, and length-0 column buffers that keep
// whatever backing arrays the arena slot held in an earlier batch. The
// caller guarantees the id is absent. The pointer is valid until the
// next PutID or Reset.
func (h *HTable) PutID(id uint32, key string) *KeyEntry {
	if int(id) >= len(h.slot) {
		h.growSlots(int(id) + 1)
	}
	n := len(h.entries)
	if n < cap(h.entries) {
		h.entries = h.entries[:n+1]
	} else {
		h.entries = append(h.entries, KeyEntry{})
	}
	e := &h.entries[n]
	*e = KeyEntry{Key: key, ID: id, Cols: e.Cols.Reset()} // reuse the slot's previous column arrays
	h.slot[id] = int32(n) + 1
	return e
}

// growSlots extends the ID slot array to at least n entries. New slots
// are zero (absent), matching the empty state.
func (h *HTable) growSlots(n int) {
	if n < 2*len(h.slot) {
		n = 2 * len(h.slot)
	}
	grown := make([]int32, n)
	copy(grown, h.slot)
	h.slot = grown
}

// Reset clears the table for the next batch interval, reusing memory: in
// dictionary mode only the slots of this batch's entries are cleared and
// the entry arena rewinds (column buffers keep their arrays); in map mode
// the map is cleared in place and only reallocated when the hint says
// the next batch will not fit the current buckets anyway.
func (h *HTable) Reset(hint int) {
	if h.dict != nil {
		for i := range h.entries {
			h.slot[h.entries[i].ID] = 0
		}
		h.entries = h.entries[:0]
		return
	}
	clear(h.m)
}

// Range calls fn for every entry; iteration order is unspecified in map
// mode and insertion order in dictionary mode.
func (h *HTable) Range(fn func(*KeyEntry)) {
	if h.dict != nil {
		for i := range h.entries {
			fn(&h.entries[i])
		}
		return
	}
	for _, e := range h.m {
		fn(e)
	}
}
