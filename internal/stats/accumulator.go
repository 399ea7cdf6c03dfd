// Package stats implements the frequency-aware buffering mechanism of the
// batching phase (Algorithm 1 of the paper): a hash table of per-key tuple
// lists whose approximate counts are published under a per-key update
// budget, so that the total update work is bounded by the budget per key.
// At the heartbeat one sort of the table by published count yields the
// quasi-sorted key list the paper reads from its balanced BST (the
// CountTree).
package stats

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// AccumulatorConfig tunes the frequency-aware buffering mechanism.
type AccumulatorConfig struct {
	// Budget is the maximum number of published count updates allowed per
	// key per batch interval (the paper's "update allowance").
	Budget int
	// EstimatedTuples (N_Est) is the expected number of tuples per batch
	// given the recent data rate; it seeds the initial frequency step.
	EstimatedTuples int
	// EstimatedKeys (K_Avg) is the average number of distinct keys over the
	// past few batches; with EstimatedTuples it sets the initial f.step
	// f = N_Est / (K_Avg * Budget), i.e. the best step under a uniform
	// distribution assumption.
	EstimatedKeys int
}

// DefaultAccumulatorConfig returns the configuration used throughout the
// evaluation: an update budget of 8 per key and neutral estimates that are
// refined after the first batch.
func DefaultAccumulatorConfig() AccumulatorConfig {
	return AccumulatorConfig{Budget: 8, EstimatedTuples: 100000, EstimatedKeys: 1000}
}

func (c AccumulatorConfig) validate() error {
	if c.Budget < 1 {
		return fmt.Errorf("stats: budget must be >= 1, got %d", c.Budget)
	}
	if c.EstimatedTuples < 1 || c.EstimatedKeys < 1 {
		return fmt.Errorf("stats: estimates must be >= 1, got N=%d K=%d",
			c.EstimatedTuples, c.EstimatedKeys)
	}
	return nil
}

// initialFStep computes the uniform-distribution frequency step
// f = N_Est / (K_Avg * Budget), floored at 1.
func (c AccumulatorConfig) initialFStep() int {
	f := c.EstimatedTuples / (c.EstimatedKeys * c.Budget)
	if f < 1 {
		f = 1
	}
	return f
}

// SortedKey is one element of the accumulator's output: a key with its
// exact frequency and buffered tuples. The slice handed to the partitioner
// is quasi-sorted: descending by each key's last published count
// (FreqUpdated), key descending on ties.
//
// Exactly one of Tuples (map mode, and PostSort) and Cols (dictionary
// mode) holds the key's tuples.
type SortedKey struct {
	Key    string
	Count  int
	Tuples []tuple.Tuple
	Cols   tuple.ColSlice
}

// BatchStats summarizes one accumulated batch: the statistics Algorithm 4
// consumes to attribute load changes to data rate vs data distribution.
type BatchStats struct {
	Tuples      int // N_C: number of data tuples
	Keys        int // |K|: number of distinct keys
	TreeUpdates int // budgeted count publications (cost accounting)
	Start, End  tuple.Time
}

// Accumulator implements Algorithm 1 (Micro-batch Accumulator): it buffers
// incoming tuples into the HTable and publishes each key's count under the
// budgeted f.step / t.step update discipline. The paper keeps the
// published counts in a balanced BST (the CountTree) so the key list is
// quasi-sorted when the heartbeat fires; here the tree is only ever read
// once, in Finalize, and a node's count always equals its entry's
// FreqUpdated, so one sort of the HTable by (FreqUpdated desc, key desc)
// at the heartbeat reproduces the tree's descending walk exactly.
//
// An Accumulator is not safe for concurrent use; the receiver owns it.
//
// An accumulator runs in one of two modes, each with exactly one fold:
//
//   - Dictionary mode (NewAccumulatorDict) is the engine's hot path. It
//     folds ColumnBatches whose keys were interned into its dictionary
//     (AddColumns) and buffers each key's tuples as ColSlice columns. The
//     HTable runs on flat ID-indexed slots, the entry arena and per-key
//     column buffers are reused across Resets, and Finalize reuses its
//     output slice. The hand-off therefore aliases buffers that the NEXT
//     Reset reclaims, which is safe in the engine because a batch is
//     fully processed and reported before the next one accumulates.
//   - Map mode (NewAccumulator) folds row tuples one at a time (Add) into
//     a string-keyed table and buffers them as []Tuple. Its output is
//     freshly allocated, so callers may retain it across batch intervals;
//     it is the string-keyed reference the golden tests compare against.
type Accumulator struct {
	cfg   AccumulatorConfig
	dict  *intern.Dict
	ht    *HTable
	start tuple.Time
	end   tuple.Time

	nTuples     int
	treeUpdates int
	initialF    int
	out         []SortedKey // dict mode: Finalize output, reused across batches

	// Finalize scratch, reused across batches: the entries in heartbeat
	// order and the counting pass's run offsets.
	order    []rankedEntry
	runStart []int32
}

// NewAccumulator returns an accumulator for the batch interval
// [start, end). It returns an error for invalid configurations.
func NewAccumulator(cfg AccumulatorConfig, start, end tuple.Time) (*Accumulator, error) {
	return newAccumulator(cfg, nil, start, end)
}

// NewAccumulatorDict returns an accumulator on the zero-allocation hot
// path, folding column batches whose IDs were interned into dict. The
// dictionary may be shared (e.g. across shards, or checkpoint-restored).
func NewAccumulatorDict(cfg AccumulatorConfig, dict *intern.Dict, start, end tuple.Time) (*Accumulator, error) {
	if dict == nil {
		return nil, fmt.Errorf("stats: nil intern dictionary")
	}
	return newAccumulator(cfg, dict, start, end)
}

func newAccumulator(cfg AccumulatorConfig, dict *intern.Dict, start, end tuple.Time) (*Accumulator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if end <= start {
		return nil, fmt.Errorf("stats: batch interval [%v,%v) is empty", start, end)
	}
	a := &Accumulator{
		cfg:      cfg,
		dict:     dict,
		start:    start,
		end:      end,
		initialF: cfg.initialFStep(),
	}
	if dict != nil {
		a.ht = NewHTableDict(dict, cfg.EstimatedKeys)
	} else {
		a.ht = NewHTable(cfg.EstimatedKeys)
	}
	return a, nil
}

// Reset prepares the accumulator for the next batch interval, clearing the
// HTable as the paper prescribes at every heartbeat. Updated
// estimates may be supplied so f.step starts close to its converged value.
func (a *Accumulator) Reset(cfg AccumulatorConfig, start, end tuple.Time) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if end <= start {
		return fmt.Errorf("stats: batch interval [%v,%v) is empty", start, end)
	}
	a.cfg = cfg
	a.ht.Reset(cfg.EstimatedKeys)
	a.start, a.end = start, end
	a.nTuples = 0
	a.treeUpdates = 0
	a.initialF = cfg.initialFStep()
	return nil
}

// Dict returns the intern dictionary, or nil for a map-mode accumulator.
func (a *Accumulator) Dict() *intern.Dict { return a.dict }

// Interval returns the accumulator's batch interval.
func (a *Accumulator) Interval() (start, end tuple.Time) { return a.start, a.end }

// Tuples returns the number of tuples received so far (N_C).
func (a *Accumulator) Tuples() int { return a.nTuples }

// Keys returns the number of distinct keys received so far (|K|).
func (a *Accumulator) Keys() int { return a.ht.Len() }

// TreeUpdates returns the number of budgeted count publications so far;
// tests use it to verify the budget bounds the total update work.
func (a *Accumulator) TreeUpdates() int { return a.treeUpdates }

// Add ingests one tuple at arrival time now, following Algorithm 1: the
// map-mode fold. Tuples outside the batch interval are rejected with an
// error (the engine routes tuples to the right accumulator before calling
// Add). A dictionary-mode accumulator folds only through AddColumns.
func (a *Accumulator) Add(t tuple.Tuple, now tuple.Time) error {
	if a.dict != nil {
		return fmt.Errorf("stats: Add requires a map-mode accumulator; dictionary mode folds through AddColumns")
	}
	if err := a.checkTS(t.TS); err != nil {
		return err
	}
	a.addKey(t, now)
	return nil
}

// checkTS rejects timestamps outside the batch interval.
func (a *Accumulator) checkTS(ts tuple.Time) error {
	if ts < a.start || ts >= a.end {
		return fmt.Errorf("stats: tuple ts %v outside batch interval [%v,%v)", ts, a.start, a.end)
	}
	return nil
}

// addKey is Add's fold for a tuple whose timestamp the caller already
// checked.
func (a *Accumulator) addKey(t tuple.Tuple, now tuple.Time) {
	a.nTuples++
	e := a.ht.Get(t.Key)
	if e == nil {
		e = &KeyEntry{Key: t.Key, Tuples: append(make([]tuple.Tuple, 0, 4), t)}
		a.ht.Put(e)
		a.initEntry(e, now)
		return
	}
	// Existing key: buffer the tuple and decide whether its published
	// count is due for an update this arrival.
	e.Tuples = append(e.Tuples, t)
	a.bump(e, now)
}

// AddColumns ingests a whole ColumnBatch in row order with arrival time
// TS[i]: the dictionary-mode fold. Its budget decision sequence (and
// therefore the published counts, the update count, and Finalize's output
// order) is identical to the map-mode fold calling Add on the same rows;
// only the per-key buffering differs, ColSlice columns instead of
// []Tuple. The accumulator's dictionary must have interned the batch's
// IDs.
func (a *Accumulator) AddColumns(cb *tuple.ColumnBatch) error {
	if a.dict == nil {
		return fmt.Errorf("stats: AddColumns requires a dictionary-mode accumulator")
	}
	// The columns are cut to one length so the loop indexes them without
	// bounds checks, and an existing key's buffers grow in place instead
	// of through ColSlice.Append's value copy; BenchmarkAccumulatorFold
	// measured that ~15% faster per tuple on a 2-core Xeon.
	n := len(cb.IDs)
	tss, vals, ws := cb.TS[:n], cb.Vals[:n], cb.W[:n]
	for i, id := range cb.IDs {
		ts := tss[i]
		if ts < a.start || ts >= a.end {
			return a.checkTS(ts)
		}
		a.nTuples++
		e := a.ht.GetID(id)
		if e == nil {
			// First sighting: resolve the key string once, for the HTable
			// entry.
			e = a.ht.PutID(id, a.dict.Resolve(id))
			e.Cols = e.Cols.Append(ts, vals[i], ws[i])
			a.initEntry(e, ts)
			continue
		}
		c := &e.Cols
		c.TS = append(c.TS, ts)
		c.Vals = append(c.Vals, vals[i])
		c.W = append(c.W, ws[i])
		a.bump(e, ts)
	}
	return nil
}

// bump counts one more arrival of an existing key at time now and decides
// whether its published count is due for an update — the budgeted
// f.step / t.step discipline shared by the map-mode and column folds.
func (a *Accumulator) bump(e *KeyEntry, now tuple.Time) {
	e.FreqCurrent++
	deltaFreq := e.FreqCurrent - e.FreqUpdated
	deltaTime := now - e.LastUpdate

	switch {
	case e.Budget > 0 && deltaFreq >= e.FStep:
		// Frequency step fired: publish the exact current count and
		// re-estimate f.step proportionally to the key's share of the
		// batch so far (hot keys need more tuples per update).
		a.publish(e, now)
		fstep := (a.cfg.EstimatedTuples / a.cfg.Budget) * e.FreqCurrent / a.nTuples
		if fstep < 1 {
			fstep = 1
		}
		e.FStep = fstep
	case e.Budget > 0 && deltaTime >= e.TStep:
		// Time step fired: refresh cold keys so their counts do not go
		// stale, spreading the remaining budget over the remaining time.
		a.publish(e, now)
		remaining := a.end - now
		if remaining < 0 {
			remaining = 0
		}
		e.TStep = remaining / tuple.Time(e.Budget+1)
	default:
		// Key not eligible for an update yet.
	}
}

// initEntry seeds the budget statistics of a first-sighting entry whose
// first tuple the caller already buffered, publishing count 1.
func (a *Accumulator) initEntry(e *KeyEntry, now tuple.Time) {
	e.FreqCurrent = 1
	e.FreqUpdated = 1
	e.Budget = a.cfg.Budget
	e.FStep = a.initialF
	e.TStep = (a.end - now) / tuple.Time(a.cfg.Budget)
	e.LastUpdate = now
}

// publish moves the key's published count from its stale value to the
// exact current count (the paper's CountTree node move) and charges the
// key's budget.
func (a *Accumulator) publish(e *KeyEntry, now tuple.Time) {
	e.FreqUpdated = e.FreqCurrent
	e.Budget--
	e.LastUpdate = now
	a.treeUpdates++
}

// Finalize produces the quasi-sorted key list ⟨k, count, tupleList⟩ for the
// partitioner plus the batch statistics, at the heartbeat (or at the early
// batch release cut-off). Counts in the output are exact (FreqCurrent);
// the order is descending by published count (FreqUpdated), key
// descending on ties — the paper's descending CountTree walk, produced by
// one sort of the HTable entries.
//
// In dictionary mode the returned slice is owned by the accumulator and
// valid until the next Reset; the steady state allocates nothing.
func (a *Accumulator) Finalize() ([]SortedKey, BatchStats) {
	order := a.rankOrder()
	var out []SortedKey
	if a.dict != nil && cap(a.out) >= len(order) {
		out = a.out[:len(order)]
	} else {
		out = make([]SortedKey, len(order))
	}
	for i, r := range order {
		e := r.e
		if a.dict != nil {
			out[i] = SortedKey{Key: e.Key, Count: e.FreqCurrent, Cols: e.Cols}
		} else {
			out[i] = SortedKey{Key: e.Key, Count: e.FreqCurrent, Tuples: e.Tuples}
		}
	}
	clear(order) // drop the entry pointers so the reused scratch pins nothing
	if a.dict != nil {
		a.out = out
	}
	st := BatchStats{
		Tuples:      a.nTuples,
		Keys:        a.ht.Len(),
		TreeUpdates: a.treeUpdates,
		Start:       a.start,
		End:         a.end,
	}
	return out, st
}

// rankOrder returns the HTable entries in the heartbeat order: published
// count descending, key descending on ties. A counting pass over the
// published counts places each equal-count run, and only those runs are
// comparison-sorted, by key. The result aliases the accumulator's scratch.
func (a *Accumulator) rankOrder() []rankedEntry {
	// runStart[u] counts the keys published at count u, then becomes the
	// next free slot of that run, with the highest count's run first.
	runStart := a.runStart[:0]
	a.ht.Range(func(e *KeyEntry) {
		for e.FreqUpdated >= len(runStart) {
			runStart = append(runStart, 0)
		}
		runStart[e.FreqUpdated]++
	})
	next := int32(0)
	for u := len(runStart) - 1; u >= 0; u-- {
		n := runStart[u]
		runStart[u] = next
		next += n
	}
	order := slices.Grow(a.order[:0], a.ht.Len())[:a.ht.Len()]
	a.ht.Range(func(e *KeyEntry) {
		i := runStart[e.FreqUpdated]
		runStart[e.FreqUpdated]++
		order[i] = rankedEntry{upd: e.FreqUpdated, prefix: keyPrefix(e.Key), e: e}
	})
	a.runStart, a.order = runStart, order
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && order[hi].upd == order[lo].upd {
			hi++
		}
		slices.SortFunc(order[lo:hi], func(x, y rankedEntry) int {
			if x.prefix != y.prefix {
				return cmp.Compare(y.prefix, x.prefix)
			}
			return strings.Compare(y.e.Key, x.e.Key)
		})
		lo = hi
	}
	return order
}

// rankedEntry is one HTable entry with its sort key copied out, so the
// heartbeat sort compares contiguous records instead of chasing entry
// pointers: the published count, then the key's first eight bytes, and
// only on a prefix tie the whole key.
type rankedEntry struct {
	upd    int
	prefix uint64
	e      *KeyEntry
}

// keyPrefix packs the first eight bytes of key big-endian, zero-padded.
// Distinct prefixes order exactly like their keys; equal prefixes need the
// full comparison.
func keyPrefix(key string) uint64 {
	var p uint64
	for i := 0; i < 8; i++ {
		p <<= 8
		if i < len(key) {
			p |= uint64(key[i])
		}
	}
	return p
}

// PostSort is the baseline the paper compares against in Figure 14a: buffer
// tuples with no online statistics and sort the keys by exact frequency
// after the batch interval ends. It returns the same output shape as
// Finalize so the two can be swapped in the engine.
func PostSort(b *tuple.Batch) []SortedKey {
	byKey := tuple.KeyFrequency(b)
	out := make([]SortedKey, 0, len(byKey))
	for k, ts := range byKey {
		out = append(out, SortedKey{Key: k, Count: len(ts), Tuples: ts})
	}
	SortKeysDesc(out)
	return out
}

// SortKeysDesc sorts keys by count descending with the key string as
// ascending tie-break, the canonical order the partitioner expects.
func SortKeysDesc(s []SortedKey) {
	slices.SortFunc(s, func(a, b SortedKey) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return strings.Compare(a.Key, b.Key)
	})
}
