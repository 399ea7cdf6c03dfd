package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// dictTestTuples builds a deterministic skewed tuple stream for interval
// [start, end): key k%03d appears with weight proportional to 1/(k+1).
func dictTestTuples(r *rand.Rand, n int, start, end tuple.Time) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	span := int64(end - start)
	for i := range ts {
		k := r.Intn(50)
		if r.Intn(3) == 0 {
			k = r.Intn(5) // hot keys
		}
		ts[i] = tuple.Tuple{
			TS:  start + tuple.Time(r.Int63n(span)),
			Key: fmt.Sprintf("k%03d", k),
			Val: float64(i),
		}
	}
	return ts
}

// addRows folds rows into a dictionary-mode accumulator the way the
// engine's accumulate stage does: transpose them into cb, interning keys
// in arrival order, then run the column fold.
func addRows(a *Accumulator, cb *tuple.ColumnBatch, rows []tuple.Tuple) error {
	cb.Reset()
	cb.AppendRows(rows, a.Dict().Intern)
	return a.AddColumns(cb)
}

// asRows rewrites dictionary-mode Finalize output in map-mode form, each
// key's column buffer materialized as tuples, so the two folds compare
// with reflect.DeepEqual. A key that also carries a row buffer is kept
// as is, so the comparison catches it.
func asRows(keys []SortedKey) []SortedKey {
	out := make([]SortedKey, len(keys))
	for i, sk := range keys {
		out[i] = sk
		if sk.Tuples == nil {
			out[i] = SortedKey{Key: sk.Key, Count: sk.Count, Tuples: sk.Cols.AppendTuples(nil, sk.Key)}
		}
	}
	return out
}

// TestDictAccumulatorMatchesMapMode drives the dictionary-mode column
// fold and the map-mode row fold through several batch intervals
// (exercising entry-arena and column-buffer reuse across Resets) and
// asserts their Finalize outputs are identical every batch.
func TestDictAccumulatorMatchesMapMode(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 2000, EstimatedKeys: 50}
	dict := intern.NewDict(0)
	da, err := NewAccumulatorDict(cfg, dict, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	var cb tuple.ColumnBatch
	r := rand.New(rand.NewSource(7))
	for batch := 0; batch < 5; batch++ {
		start := tuple.Time(batch) * tuple.Second
		end := start + tuple.Second
		if batch > 0 {
			if err := da.Reset(cfg, start, end); err != nil {
				t.Fatal(err)
			}
			if err := ma.Reset(cfg, start, end); err != nil {
				t.Fatal(err)
			}
		}
		tuples := dictTestTuples(r, 2000, start, end)
		if err := addRows(da, &cb, tuples); err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			if err := ma.Add(tp, tp.TS); err != nil {
				t.Fatal(err)
			}
		}
		dKeys, dStats := da.Finalize()
		mKeys, mStats := ma.Finalize()
		if !reflect.DeepEqual(dStats, mStats) {
			t.Fatalf("batch %d: stats diverge: dict %+v map %+v", batch, dStats, mStats)
		}
		if !reflect.DeepEqual(asRows(dKeys), mKeys) {
			t.Fatalf("batch %d: sorted keys diverge (%d vs %d entries)",
				batch, len(dKeys), len(mKeys))
		}
	}
	if dict.Len() != 50 {
		t.Fatalf("dictionary holds %d keys, want 50", dict.Len())
	}
}

// TestDictShardedMatchesMapSharded does the same comparison for the
// sharded accumulator: the dictionary-mode column fold (AddAllColumns)
// against the map-mode row fold (AddAll).
func TestDictShardedMatchesMapSharded(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 2000, EstimatedKeys: 50}
	dict := intern.NewDict(0)
	ds, err := NewShardedDict(cfg, dict, 4, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewSharded(cfg, 4, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	var cb tuple.ColumnBatch
	r := rand.New(rand.NewSource(11))
	for batch := 0; batch < 5; batch++ {
		start := tuple.Time(batch) * tuple.Second
		end := start + tuple.Second
		if batch > 0 {
			if err := ds.Reset(cfg, start, end); err != nil {
				t.Fatal(err)
			}
			if err := ms.Reset(cfg, start, end); err != nil {
				t.Fatal(err)
			}
		}
		tuples := dictTestTuples(r, 2000, start, end)
		cb.Reset()
		cb.AppendRows(tuples, dict.Intern)
		if err := ds.AddAllColumns(&cb, nil); err != nil {
			t.Fatal(err)
		}
		if err := ms.AddAll(tuples, nil); err != nil {
			t.Fatal(err)
		}
		dKeys, dStats := ds.Finalize(nil)
		mKeys, mStats := ms.Finalize(nil)
		if !reflect.DeepEqual(dStats, mStats) {
			t.Fatalf("batch %d: stats diverge: dict %+v map %+v", batch, dStats, mStats)
		}
		if !reflect.DeepEqual(asRows(dKeys), mKeys) {
			t.Fatalf("batch %d: sorted keys diverge", batch)
		}
	}
}

// TestDictModeRejectsRowFold pins the one-fold contract: dictionary-mode
// accumulators fold only columns and map-mode accumulators only rows, so
// the wrong entry point fails instead of silently buffering into the
// other representation.
func TestDictModeRejectsRowFold(t *testing.T) {
	cfg := DefaultAccumulatorConfig()
	dict := intern.NewDict(0)
	da, err := NewAccumulatorDict(cfg, dict, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.Add(tuple.NewTuple(0, "k", 1), 0); err == nil {
		t.Error("dictionary-mode Add succeeded, want an error")
	}
	ds, err := NewShardedDict(cfg, dict, 2, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddAll([]tuple.Tuple{tuple.NewTuple(0, "k", 1)}, nil); err == nil {
		t.Error("dictionary-mode sharded AddAll succeeded, want an error")
	}
	ma, err := NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.AddColumns(&tuple.ColumnBatch{}); err == nil {
		t.Error("map-mode AddColumns succeeded, want an error")
	}
	if da.Tuples() != 0 {
		t.Errorf("rejected folds counted %d tuples", da.Tuples())
	}
}

// TestDictAccumulatorSteadyStateReuse checks the memory contract: after
// the first batch established capacity, a repeat batch with the same key
// set must not grow the HTable arena and Finalize must return the same
// backing slice.
func TestDictAccumulatorSteadyStateReuse(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 1000, EstimatedKeys: 10}
	a, err := NewAccumulatorDict(cfg, intern.NewDict(0), 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	var cb tuple.ColumnBatch
	feed := func(start tuple.Time) {
		rows := make([]tuple.Tuple, 1000)
		for i := range rows {
			rows[i] = tuple.Tuple{
				TS:  start + tuple.Time(i)*(tuple.Second/1000),
				Key: fmt.Sprintf("k%d", i%10),
			}
		}
		if err := addRows(a, &cb, rows); err != nil {
			t.Fatal(err)
		}
	}
	feed(0)
	first, _ := a.Finalize()
	firstPtr := &first[0]
	firstCols := &first[0].Cols.TS[0]

	if err := a.Reset(cfg, tuple.Second, 2*tuple.Second); err != nil {
		t.Fatal(err)
	}
	feed(tuple.Second)
	second, _ := a.Finalize()
	if &second[0] != firstPtr {
		t.Error("Finalize output slice was reallocated in steady state")
	}
	if &second[0].Cols.TS[0] != firstCols {
		t.Error("per-key column buffer was reallocated in steady state")
	}
	if len(second) != 10 {
		t.Fatalf("got %d keys, want 10", len(second))
	}
	for i := range second {
		if second[i].Count != 100 || second[i].Cols.Len() != 100 {
			t.Fatalf("key %s count %d with %d buffered rows, want 100",
				second[i].Key, second[i].Count, second[i].Cols.Len())
		}
	}
}

// TestDictFinalizeZeroAlloc pins the heartbeat hand-off's memory
// contract: once a dictionary-mode accumulator has seen its steady-state
// cardinality, Finalize (collect, order, and build the output) makes no
// allocation at all.
func TestDictFinalizeZeroAlloc(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 2000, EstimatedKeys: 50}
	a, err := NewAccumulatorDict(cfg, intern.NewDict(0), 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	var cb tuple.ColumnBatch
	if err := addRows(a, &cb, dictTestTuples(rand.New(rand.NewSource(5)), 2000, 0, tuple.Second)); err != nil {
		t.Fatal(err)
	}
	a.Finalize()
	if allocs := testing.AllocsPerRun(20, func() { a.Finalize() }); allocs != 0 {
		t.Fatalf("steady-state Finalize made %.1f allocations, want 0", allocs)
	}
}
