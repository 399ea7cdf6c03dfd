package tuple

import "sync"

// ColumnBatch is the struct-of-arrays form of a micro-batch: one dense
// slice per field, with keys replaced by intern IDs. Row i of the batch
// is (IDs[i], TS[i], Vals[i], W[i]). The layout exists for the hot path:
// frequency counting walks the contiguous ID column instead of hashing a
// string per record, and the 20 bytes per row (vs 48 for a Tuple with
// its string header) keep more of the batch in cache.
//
// IDs are only meaningful against the dictionary that interned them —
// normally the owning engine's — so a ColumnBatch never travels between
// engines without re-interning.
type ColumnBatch struct {
	// Interval bounds: rows with Start <= TS[i] < End belong to the batch.
	Start, End Time

	IDs  []uint32
	TS   []Time
	Vals []float64
	W    []int32
}

// Len returns the number of rows.
func (cb *ColumnBatch) Len() int { return len(cb.IDs) }

// Reset empties the batch, keeping the column capacity for reuse.
func (cb *ColumnBatch) Reset() {
	cb.Start, cb.End = 0, 0
	cb.IDs = cb.IDs[:0]
	cb.TS = cb.TS[:0]
	cb.Vals = cb.Vals[:0]
	cb.W = cb.W[:0]
}

// Grow ensures capacity for n additional rows.
func (cb *ColumnBatch) Grow(n int) {
	if need := len(cb.IDs) + n; need > cap(cb.IDs) {
		ids := make([]uint32, len(cb.IDs), need)
		copy(ids, cb.IDs)
		cb.IDs = ids
		ts := make([]Time, len(cb.TS), need)
		copy(ts, cb.TS)
		cb.TS = ts
		vals := make([]float64, len(cb.Vals), need)
		copy(vals, cb.Vals)
		cb.Vals = vals
		w := make([]int32, len(cb.W), need)
		copy(w, cb.W)
		cb.W = w
	}
}

// Append adds one row.
func (cb *ColumnBatch) Append(id uint32, ts Time, val float64, w int32) {
	cb.IDs = append(cb.IDs, id)
	cb.TS = append(cb.TS, ts)
	cb.Vals = append(cb.Vals, val)
	cb.W = append(cb.W, w)
}

// AppendRows converts row tuples into columns, interning each key through
// intern (typically the owning engine's dictionary). Row order is
// preserved, so keys intern in arrival order and a column fold makes the
// same per-row decisions as a fold over the rows.
func (cb *ColumnBatch) AppendRows(rows []Tuple, intern func(string) uint32) {
	cb.Grow(len(rows))
	for i := range rows {
		t := &rows[i]
		cb.Append(intern(t.Key), t.TS, t.Val, int32(t.Weight))
	}
}

// AppendRowsTo materializes the batch back into row tuples, resolving IDs
// through resolve. It appends to dst (pass dst[:0] to reuse a buffer) and
// preserves row order.
func (cb *ColumnBatch) AppendRowsTo(dst []Tuple, resolve func(uint32) string) []Tuple {
	if need := len(dst) + len(cb.IDs); cap(dst) < need {
		grown := make([]Tuple, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := range cb.IDs {
		dst = append(dst, Tuple{
			TS:     cb.TS[i],
			Key:    resolve(cb.IDs[i]),
			Val:    cb.Vals[i],
			Weight: int(cb.W[i]),
		})
	}
	return dst
}

// TotalWeight sums the weight column.
func (cb *ColumnBatch) TotalWeight() int {
	w := 0
	for _, x := range cb.W {
		w += int(x)
	}
	return w
}

var columnBatchPool = sync.Pool{New: func() any { return new(ColumnBatch) }}

// GetColumnBatch returns an empty ColumnBatch from the pool.
func GetColumnBatch() *ColumnBatch {
	return columnBatchPool.Get().(*ColumnBatch)
}

// PutColumnBatch resets cb and returns it to the pool. The caller must not
// retain references to the columns afterwards.
func PutColumnBatch(cb *ColumnBatch) {
	cb.Reset()
	columnBatchPool.Put(cb)
}

// ColSlice is a columnar view of the tuples of one key (or one fragment
// of a split key): parallel timestamp, value, and weight columns. The key
// itself lives on the enclosing KeySlice or accumulator entry, and the
// intern ID column is unnecessary — every row shares the key.
//
// A ColSlice is a value: slicing and appending follow the usual Go slice
// aliasing rules, applied to all three columns in lockstep.
type ColSlice struct {
	TS   []Time
	Vals []float64
	W    []int32
}

// Len returns the number of rows.
func (c ColSlice) Len() int { return len(c.TS) }

// Weight sums the weight column.
func (c ColSlice) Weight() int {
	w := 0
	for _, x := range c.W {
		w += int(x)
	}
	return w
}

// Slice returns rows [i, j), sharing the backing arrays.
func (c ColSlice) Slice(i, j int) ColSlice {
	return ColSlice{TS: c.TS[i:j], Vals: c.Vals[i:j], W: c.W[i:j]}
}

// Reset returns the zero-length view of the same backing arrays.
func (c ColSlice) Reset() ColSlice {
	return ColSlice{TS: c.TS[:0], Vals: c.Vals[:0], W: c.W[:0]}
}

// Append adds one row, returning the extended slice.
func (c ColSlice) Append(ts Time, val float64, w int32) ColSlice {
	return ColSlice{
		TS:   append(c.TS, ts),
		Vals: append(c.Vals, val),
		W:    append(c.W, w),
	}
}

// AppendCols concatenates o onto c, returning the extended slice.
func (c ColSlice) AppendCols(o ColSlice) ColSlice {
	return ColSlice{
		TS:   append(c.TS, o.TS...),
		Vals: append(c.Vals, o.Vals...),
		W:    append(c.W, o.W...),
	}
}

// Tuple materializes row i as a Tuple with the given key.
func (c ColSlice) Tuple(key string, i int) Tuple {
	return Tuple{TS: c.TS[i], Key: key, Val: c.Vals[i], Weight: int(c.W[i])}
}

// AppendTuples materializes every row as a Tuple with the given key,
// appending to dst.
func (c ColSlice) AppendTuples(dst []Tuple, key string) []Tuple {
	for i := range c.TS {
		dst = append(dst, c.Tuple(key, i))
	}
	return dst
}
