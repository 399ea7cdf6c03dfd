package stats

import (
	"fmt"

	"prompt/internal/cluster"
	"prompt/internal/hashutil"
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// ShardedAccumulator runs Algorithm 1 across several independent
// accumulator shards so the per-tuple statistics pass can use every core.
// Tuples route to shards by key hash, so each key's exact count and
// buffered tuple list live wholly in one shard; at the heartbeat the
// shards finalize independently and their outputs merge into one exactly
// sorted key list.
//
// The merge is deterministic by construction — shard routing depends only
// on the key and the (fixed) shard count, per-shard accumulation preserves
// arrival order, and the merged list is sorted with the canonical
// descending order — so the number of worker goroutines executing the
// shards changes wall-clock time only, never the partitioner's input.
// Relative to the single accumulator, the ordering handed to the
// partitioner is exactly sorted rather than quasi-sorted (each shard
// publishes counts for its own keys only, so the global quasi-order is
// not reconstructible); counts and tuple lists are identical.
//
// Like the single accumulator, it runs in one of two modes with one fold
// each: map mode routes row tuples (AddAll), and dictionary mode
// (NewShardedDict, a shared intern dictionary) routes ColumnBatches whose
// keys the caller already interned (AddAllColumns), so every shard runs
// the zero-allocation column fold. The merged output slice is reused
// across batches in dictionary mode (valid until the next Reset),
// matching the single accumulator's dict-mode contract.
type ShardedAccumulator struct {
	shards []*Accumulator
	dict   *intern.Dict
	// route[s] (map mode) and routeCols[s] (dictionary mode) collect the
	// rows of shard s for the current batch; reused across batches to
	// avoid reallocation.
	route     [][]tuple.Tuple
	routeCols []tuple.ColumnBatch
	// bucket caches each intern ID's shard (hashutil.Bucket of the key),
	// computed once per key; -1 = not yet computed. Valid for the
	// accumulator's lifetime because the shard count is fixed.
	bucket []int32

	// Per-heartbeat scratch, reused across batches.
	errs   []error
	keys   [][]SortedKey
	stats  []BatchStats
	merged []SortedKey // dict mode only: reused merge output
}

// NewSharded returns a sharded accumulator with the given number of shards
// (>= 1) for the batch interval [start, end). The configured estimates are
// split evenly across shards so each shard's initial f.step matches its
// expected share of the batch.
func NewSharded(cfg AccumulatorConfig, shards int, start, end tuple.Time) (*ShardedAccumulator, error) {
	return newSharded(cfg, nil, shards, start, end)
}

// NewShardedDict is NewSharded on the zero-allocation hot path: every
// shard folds columns whose IDs were interned into the shared dictionary.
func NewShardedDict(cfg AccumulatorConfig, dict *intern.Dict, shards int, start, end tuple.Time) (*ShardedAccumulator, error) {
	if dict == nil {
		return nil, fmt.Errorf("stats: nil intern dictionary")
	}
	return newSharded(cfg, dict, shards, start, end)
}

func newSharded(cfg AccumulatorConfig, dict *intern.Dict, shards int, start, end tuple.Time) (*ShardedAccumulator, error) {
	if shards < 1 {
		return nil, fmt.Errorf("stats: need >= 1 shard, got %d", shards)
	}
	sa := &ShardedAccumulator{
		shards:    make([]*Accumulator, shards),
		dict:      dict,
		route:     make([][]tuple.Tuple, shards),
		routeCols: make([]tuple.ColumnBatch, shards),
		errs:      make([]error, shards),
		keys:      make([][]SortedKey, shards),
		stats:     make([]BatchStats, shards),
	}
	scfg := cfg.perShard(shards)
	for i := range sa.shards {
		acc, err := newAccumulator(scfg, dict, start, end)
		if err != nil {
			return nil, err
		}
		sa.shards[i] = acc
	}
	return sa, nil
}

// perShard divides the batch-level estimates across shards, flooring at 1.
func (c AccumulatorConfig) perShard(shards int) AccumulatorConfig {
	if shards <= 1 {
		return c
	}
	c.EstimatedTuples = c.EstimatedTuples / shards
	if c.EstimatedTuples < 1 {
		c.EstimatedTuples = 1
	}
	c.EstimatedKeys = c.EstimatedKeys / shards
	if c.EstimatedKeys < 1 {
		c.EstimatedKeys = 1
	}
	return c
}

// Shards returns the shard count.
func (sa *ShardedAccumulator) Shards() int { return len(sa.shards) }

// Dict returns the shared intern dictionary, or nil in map mode.
func (sa *ShardedAccumulator) Dict() *intern.Dict { return sa.dict }

// Reset prepares every shard for the next batch interval.
func (sa *ShardedAccumulator) Reset(cfg AccumulatorConfig, start, end tuple.Time) error {
	scfg := cfg.perShard(len(sa.shards))
	for _, acc := range sa.shards {
		if err := acc.Reset(scfg, start, end); err != nil {
			return err
		}
	}
	return nil
}

// AddAll ingests one batch interval's tuples in map mode: a single
// sequential routing scan checks each timestamp and splits the tuples by
// key hash, then each shard accumulates its slice on the pool (or inline
// with a nil pool). Arrival time equals the tuple timestamp, as in the
// engine's simulated stream. Dictionary mode ingests through
// AddAllColumns.
func (sa *ShardedAccumulator) AddAll(tuples []tuple.Tuple, pool *cluster.WorkerPool) error {
	if sa.dict != nil {
		return fmt.Errorf("stats: AddAll requires a map-mode accumulator; dictionary mode folds through AddAllColumns")
	}
	n := len(sa.shards)
	for s := range sa.route {
		sa.route[s] = sa.route[s][:0]
	}
	first := sa.shards[0]
	for i := range tuples {
		t := &tuples[i]
		if err := first.checkTS(t.TS); err != nil {
			return err
		}
		s := hashutil.Bucket(t.Key, n)
		sa.route[s] = append(sa.route[s], *t)
	}
	pool.Do(n, func(s int) {
		acc := sa.shards[s]
		for _, t := range sa.route[s] {
			acc.addKey(t, t.TS)
		}
	})
	return nil
}

// shardOf returns the shard of intern ID id — hashutil.Bucket of its key,
// the same assignment the map-mode routing uses — computing it once per
// key and caching it for the accumulator's lifetime.
func (sa *ShardedAccumulator) shardOf(id uint32) int32 {
	for int(id) >= len(sa.bucket) {
		grown := make([]int32, 2*len(sa.bucket)+64)
		for j := copy(grown, sa.bucket); j < len(grown); j++ {
			grown[j] = -1
		}
		sa.bucket = grown
	}
	s := sa.bucket[id]
	if s < 0 {
		s = int32(hashutil.Bucket(sa.dict.Resolve(id), len(sa.shards)))
		sa.bucket[id] = s
	}
	return s
}

// AddAllColumns is the dictionary-mode fold: the routing scan walks the
// contiguous ID column (each key's shard is cached after its first
// resolution, so the steady state never hashes strings), splits the rows
// into per-shard column buffers preserving arrival order, and each shard
// runs its column fold on the pool. Shard assignment is the same
// hashutil.Bucket of the key string as AddAll, so the merged counts and
// order are bit-identical to the map-mode fold's.
func (sa *ShardedAccumulator) AddAllColumns(cb *tuple.ColumnBatch, pool *cluster.WorkerPool) error {
	if sa.dict == nil {
		return fmt.Errorf("stats: AddAllColumns requires a dictionary-mode accumulator")
	}
	n := len(sa.shards)
	for s := range sa.routeCols {
		sa.routeCols[s].Reset()
		sa.routeCols[s].Start, sa.routeCols[s].End = cb.Start, cb.End
	}
	for i, id := range cb.IDs {
		s := sa.shardOf(id)
		sa.routeCols[s].Append(id, cb.TS[i], cb.Vals[i], cb.W[i])
	}
	errs := sa.errs
	for s := range errs {
		errs[s] = nil
	}
	pool.Do(n, func(s int) {
		errs[s] = sa.shards[s].AddColumns(&sa.routeCols[s])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Finalize finalizes every shard on the pool, merges the outputs, and
// returns the exactly sorted key list plus the combined batch statistics.
// In dictionary mode the returned slice is owned by the accumulator and
// valid until the next Reset.
func (sa *ShardedAccumulator) Finalize(pool *cluster.WorkerPool) ([]SortedKey, BatchStats) {
	n := len(sa.shards)
	keys, stats := sa.keys, sa.stats
	pool.Do(n, func(s int) {
		keys[s], stats[s] = sa.shards[s].Finalize()
	})
	total := 0
	for s := range keys {
		total += len(keys[s])
	}
	var merged []SortedKey
	if sa.dict != nil && cap(sa.merged) >= total {
		merged = sa.merged[:0]
	} else {
		merged = make([]SortedKey, 0, total)
	}
	var st BatchStats
	for s := range keys {
		merged = append(merged, keys[s]...)
		st.Tuples += stats[s].Tuples
		st.Keys += stats[s].Keys
		st.TreeUpdates += stats[s].TreeUpdates
	}
	if n > 0 {
		st.Start, st.End = stats[0].Start, stats[0].End
	}
	SortKeysDesc(merged)
	if sa.dict != nil {
		sa.merged = merged
	}
	return merged, st
}
