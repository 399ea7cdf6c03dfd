package stats

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"prompt/internal/cluster"
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// The Finalize goldens pin the heartbeat hand-off order bit for bit: the
// digests below were captured from the budget-updated balanced-tree
// implementation of Algorithm 1 and must be reproduced by any replacement.
// Each digest covers every output key in order — key string, exact count,
// and the key's buffered tuples in arrival order — plus the batch
// statistics (tuples, keys, budgeted update count), over several batch
// intervals so that Reset and the estimate feedback are exercised too.

// goldenStream is one fixed-seed arrival sequence: for batch b it returns
// the tuples of interval [b, b+1) seconds in arrival order.
type goldenStream struct {
	name  string
	cfg   AccumulatorConfig
	batch func(r *rand.Rand, b int) []tuple.Tuple
}

func goldenStreams() []goldenStream {
	evenly := func(start tuple.Time, i, n int) tuple.Time {
		return start + tuple.Time(int64(i)*int64(tuple.Second)/int64(n))
	}
	return []goldenStream{
		{
			// Zipf-hot: a few keys dominate, so f.step fires constantly
			// and hot keys exhaust their budgets.
			name: "zipf-hot",
			cfg:  AccumulatorConfig{Budget: 8, EstimatedTuples: 20000, EstimatedKeys: 800},
			batch: func(r *rand.Rand, b int) []tuple.Tuple {
				z := rand.NewZipf(r, 1.1, 1, 1999)
				start := tuple.Time(b) * tuple.Second
				out := make([]tuple.Tuple, 20000)
				for i := range out {
					out[i] = tuple.NewTuple(evenly(start, i, len(out)), fmt.Sprintf("z%d", z.Uint64()), float64(i))
				}
				return out
			},
		},
		{
			// Uniform: dense count ties, so the key tie-break decides most
			// of the order.
			name: "uniform",
			cfg:  AccumulatorConfig{Budget: 8, EstimatedTuples: 15000, EstimatedKeys: 1000},
			batch: func(r *rand.Rand, b int) []tuple.Tuple {
				start := tuple.Time(b) * tuple.Second
				out := make([]tuple.Tuple, 15000)
				for i := range out {
					out[i] = tuple.NewTuple(evenly(start, i, len(out)), fmt.Sprintf("u%04d", r.Intn(1000)), float64(i))
				}
				return out
			},
		},
		{
			// Sparse arrivals at random instants: few tuples per key and
			// large gaps, so t.step (not f.step) triggers the updates.
			name: "sparse-tstep",
			cfg:  AccumulatorConfig{Budget: 4, EstimatedTuples: 100000, EstimatedKeys: 50},
			batch: func(r *rand.Rand, b int) []tuple.Tuple {
				start := tuple.Time(b) * tuple.Second
				out := make([]tuple.Tuple, 600)
				for i := range out {
					ts := start + tuple.Time(r.Int63n(int64(tuple.Second)))
					out[i] = tuple.NewTuple(ts, fmt.Sprintf("s%d", r.Intn(150)), float64(i))
				}
				return out
			},
		},
		{
			// Budget=1: every key gets at most one update, so most counts
			// stay stale and the quasi-order differs most from exact.
			name: "budget-1",
			cfg:  AccumulatorConfig{Budget: 1, EstimatedTuples: 8000, EstimatedKeys: 300},
			batch: func(r *rand.Rand, b int) []tuple.Tuple {
				z := rand.NewZipf(r, 1.3, 2, 499)
				start := tuple.Time(b) * tuple.Second
				out := make([]tuple.Tuple, 8000)
				for i := range out {
					out[i] = tuple.Tuple{TS: evenly(start, i, len(out)), Key: fmt.Sprintf("b%d", z.Uint64()), Val: float64(i), Weight: 1 + i%3}
				}
				return out
			},
		},
	}
}

const goldenBatches = 3

// goldenDigests holds the captured digests per stream: [0] for the single
// accumulator (the map-mode row fold and the dictionary-mode column fold,
// which hand off the same quasi-sorted order) and [1] for the sharded
// accumulator (both modes, exactly sorted merge).
var goldenDigests = map[string][2]string{
	"zipf-hot":     {"61ea4a6bf0041b9a", "3ab51396c27ae57a"},
	"uniform":      {"b16a46265360cdf5", "722dbe75a93397bb"},
	"sparse-tstep": {"38a6e0f5a46ff92f", "749c84c20666b6b9"},
	"budget-1":     {"e1b943d690fb5d1c", "8951ab08b2ff8498"},
}

// digestFinalize hashes one Finalize output plus its statistics.
func digestFinalize(h hash.Hash64, keys []SortedKey, st BatchStats) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(st.Tuples))
	word(uint64(st.Keys))
	word(uint64(st.TreeUpdates))
	word(uint64(len(keys)))
	for _, sk := range keys {
		h.Write([]byte(sk.Key))
		word(uint64(sk.Count))
		if sk.Cols.Len() > 0 {
			for i := range sk.Cols.TS {
				word(uint64(sk.Cols.TS[i]))
				word(math.Float64bits(sk.Cols.Vals[i]))
				word(uint64(sk.Cols.W[i]))
			}
			continue
		}
		for _, tp := range sk.Tuples {
			word(uint64(tp.TS))
			word(math.Float64bits(tp.Val))
			word(uint64(tp.Weight))
		}
	}
}

// goldenFold runs one stream through one fold for goldenBatches batch
// intervals and returns the digest of all Finalize outputs.
func goldenFold(t *testing.T, gs goldenStream, fold string) string {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	h := fnv.New64a()
	dict := intern.NewDict(0)
	pool := cluster.NewWorkerPool(3)
	var (
		acc *Accumulator
		sa  *ShardedAccumulator
		cb  tuple.ColumnBatch
		err error
	)
	for b := 0; b < goldenBatches; b++ {
		start, end := tuple.Time(b)*tuple.Second, tuple.Time(b+1)*tuple.Second
		rows := gs.batch(r, b)
		switch fold {
		case "row-map", "cols":
			if acc == nil {
				if fold == "row-map" {
					acc, err = NewAccumulator(gs.cfg, start, end)
				} else {
					acc, err = NewAccumulatorDict(gs.cfg, dict, start, end)
				}
			} else {
				err = acc.Reset(gs.cfg, start, end)
			}
			if err != nil {
				t.Fatal(err)
			}
			if fold == "cols" {
				cb.Reset()
				cb.Start, cb.End = start, end
				cb.AppendRows(rows, dict.Intern)
				err = acc.AddColumns(&cb)
			} else {
				for _, tp := range rows {
					if err = acc.Add(tp, tp.TS); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			keys, st := acc.Finalize()
			digestFinalize(h, keys, st)
		case "sharded-map", "sharded-cols":
			if sa == nil {
				if fold == "sharded-map" {
					sa, err = NewSharded(gs.cfg, 3, start, end)
				} else {
					sa, err = NewShardedDict(gs.cfg, dict, 3, start, end)
				}
			} else {
				err = sa.Reset(gs.cfg, start, end)
			}
			if err != nil {
				t.Fatal(err)
			}
			if fold == "sharded-cols" {
				cb.Reset()
				cb.Start, cb.End = start, end
				cb.AppendRows(rows, dict.Intern)
				err = sa.AddAllColumns(&cb, pool)
			} else {
				err = sa.AddAll(rows, pool)
			}
			if err != nil {
				t.Fatal(err)
			}
			keys, st := sa.Finalize(pool)
			digestFinalize(h, keys, st)
		default:
			t.Fatalf("unknown fold %q", fold)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFinalizeGolden checks every stream × fold against the captured
// digests.
func TestFinalizeGolden(t *testing.T) {
	for _, gs := range goldenStreams() {
		for _, fold := range []string{"row-map", "cols", "sharded-map", "sharded-cols"} {
			t.Run(gs.name+"/"+fold, func(t *testing.T) {
				want := goldenDigests[gs.name][0]
				if strings.HasPrefix(fold, "sharded") {
					want = goldenDigests[gs.name][1]
				}
				if got := goldenFold(t, gs, fold); got != want {
					t.Errorf("Finalize digest %s, want %s", got, want)
				}
			})
		}
	}
}
