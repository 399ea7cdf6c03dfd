package engine

import (
	"bytes"
	"reflect"
	"testing"

	"prompt/internal/fault"
	"prompt/internal/intern"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// columnarMode selects how the columnar golden runs feed the engine.
type columnarMode int

const (
	rowMode         columnarMode = iota // Step over rows (the reference)
	stepColumnsMode                     // caller-built ColumnBatch via StepColumns
)

// runColumnar drives n batches through the engine in the given mode and
// returns the reports plus the window answer. stepColumnsMode builds each
// batch's columns against the engine's dictionary through the pooled
// ColumnBatch, exercising the recycle discipline.
func runColumnar(t *testing.T, gs goldenScheme, workers, n int, mode columnarMode, mutate func(*Config)) ([]BatchReport, map[string]float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg.StatsShards = gs.shards
	cfg = gs.config(cfg)
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(10000, 120, 77)
	for i := 0; i < n; i++ {
		start := eng.Now()
		end := start + eng.Config().BatchInterval
		tuples, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if mode == stepColumnsMode {
			cb := tuple.GetColumnBatch()
			cb.AppendRows(tuples, eng.Dict().Intern)
			_, err = eng.StepColumns(cb, start, end)
			tuple.PutColumnBatch(cb)
		} else {
			_, err = eng.Step(tuples, start, end)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return eng.Reports(), eng.WindowSnapshot()
}

// TestGoldenColumnarEquivalence proves the two ingest APIs bit-identical:
// for every scheme of the golden sweep at Workers 0 and 4, caller-built
// columns (StepColumns) must reproduce the row run's (Step, transposed by
// the accumulate stage under Algorithm 1) BatchReport slice and window
// answer exactly.
func TestGoldenColumnarEquivalence(t *testing.T) {
	freezeClock(t)
	const batches = 3
	for _, gs := range goldenSchemes() {
		for _, workers := range []int{0, 4} {
			refReps, refWin := runColumnar(t, gs, workers, batches, rowMode, nil)
			gotReps, gotWin := runColumnar(t, gs, workers, batches, stepColumnsMode, nil)
			if !reflect.DeepEqual(gotReps, refReps) {
				t.Errorf("scheme %s workers %d: columnar reports diverge from row mode", gs.name, workers)
			}
			if !reflect.DeepEqual(gotWin, refWin) {
				t.Errorf("scheme %s workers %d: columnar window diverges from row mode", gs.name, workers)
			}
		}
	}
}

// TestGoldenColumnarPureColumns covers the no-rows fast path: with batch
// validation off and a column-aware partitioner, the batch flows through
// as pure columns (Batch.Tuples stays nil) and must still match row mode.
func TestGoldenColumnarPureColumns(t *testing.T) {
	freezeClock(t)
	gs := goldenScheme{name: "prompt", config: func(cfg Config) Config { return cfg }}
	noValidate := func(cfg *Config) { cfg.ValidateBatches = false }
	for _, workers := range []int{0, 4} {
		refReps, refWin := runColumnar(t, gs, workers, 3, rowMode, noValidate)
		gotReps, gotWin := runColumnar(t, gs, workers, 3, stepColumnsMode, noValidate)
		if !reflect.DeepEqual(gotReps, refReps) {
			t.Errorf("workers %d: pure-columnar reports diverge from row mode", workers)
		}
		if !reflect.DeepEqual(gotWin, refWin) {
			t.Errorf("workers %d: pure-columnar window diverges from row mode", workers)
		}
	}
}

// TestGoldenColumnarFaulted runs the columnar path under a scripted fault
// plan — an executor kill, a straggler, and a lost output with recovery —
// and requires the faulted reports and window to match row mode exactly.
// The fault store replicates from the materialized row view, so recompute
// equivalence is part of the contract.
func TestGoldenColumnarFaulted(t *testing.T) {
	freezeClock(t)
	plan, err := fault.ParsePlan("kill@1:cores=2;straggle@2:stage=map,factor=8,task=1;lose@3:fails=1")
	if err != nil {
		t.Fatal(err)
	}
	withFaults := func(cfg *Config) { cfg.Faults = plan }
	gs := goldenScheme{name: "prompt", config: func(cfg Config) Config { return cfg }}
	for _, workers := range []int{0, 4} {
		refReps, refWin := runColumnar(t, gs, workers, 5, rowMode, withFaults)
		gotReps, gotWin := runColumnar(t, gs, workers, 5, stepColumnsMode, withFaults)
		if !reflect.DeepEqual(gotReps, refReps) {
			t.Errorf("workers %d: faulted columnar reports diverge from row mode", workers)
		}
		if !reflect.DeepEqual(gotWin, refWin) {
			t.Errorf("workers %d: faulted columnar window diverges from row mode", workers)
		}
	}
}

// TestGoldenColumnarCheckpointRestore checkpoints a columnar engine
// mid-stream, restores it, and continues in columnar mode; the stitched
// run must match an uninterrupted row run batch for batch. The restored
// dictionary must keep every already-issued key ID stable for the
// caller-built columns to stay meaningful.
func TestGoldenColumnarCheckpointRestore(t *testing.T) {
	freezeClock(t)
	const batches, ckptAt = 6, 3
	cfg := testConfig()
	refReps, refWin := runColumnar(t, goldenScheme{name: "prompt", config: func(c Config) Config { return c }},
		0, batches, rowMode, nil)

	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(10000, 120, 77)
	step := func(e *Engine) {
		t.Helper()
		start := e.Now()
		end := start + e.Config().BatchInterval
		tuples, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		cb := tuple.GetColumnBatch()
		cb.AppendRows(tuples, e.Dict().Intern)
		_, err = e.StepColumns(cb, start, end)
		tuple.PutColumnBatch(cb)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ckptAt; i++ {
		step(eng)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, []Query{WordCount(window.Sliding(10*tuple.Second, tuple.Second))}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := ckptAt; i < batches; i++ {
		step(restored)
	}
	if !reflect.DeepEqual(restored.Reports(), refReps) {
		t.Error("columnar checkpoint/restore reports diverge from uninterrupted row run")
	}
	if !reflect.DeepEqual(restored.WindowSnapshot(), refWin) {
		t.Error("columnar checkpoint/restore window diverges from uninterrupted row run")
	}
}

// TestTransposeInternsInArrivalOrder pins where interned IDs come from:
// the accumulate stage transposes row input in arrival order, so the
// engine's dictionary must equal an independent arrival-order interning
// of the same batches — for the single accumulator, for sharded
// statistics on a multi-goroutine pool (repeated, since IDs assigned in
// scheduling order would differ run to run), and for the pipelined
// driver. IDs reach checkpoints, wire dictionary deltas and columnar
// batches, so any other order would make them irreproducible.
func TestTransposeInternsInArrivalOrder(t *testing.T) {
	const batches = 4
	want := intern.NewDict(0)
	src := testSource(6000, 300, 9)
	for i := 0; i < batches; i++ {
		start := tuple.Time(i) * tuple.Second
		tuples, err := src.Slice(start, start+tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			want.Intern(tp.Key)
		}
	}
	run := func(shards, workers, depth int) []string {
		cfg := testConfig()
		cfg.StatsShards, cfg.Workers, cfg.PipelineDepth = shards, workers, depth
		eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunBatches(testSource(6000, 300, 9), batches); err != nil {
			t.Fatal(err)
		}
		return eng.Dict().Snapshot()
	}
	if got := run(1, 0, 1); !reflect.DeepEqual(got, want.Snapshot()) {
		t.Fatal("single accumulator: dictionary diverges from arrival-order interning")
	}
	for r := 0; r < 8; r++ {
		if got := run(3, 4, 1); !reflect.DeepEqual(got, want.Snapshot()) {
			t.Fatalf("sharded stats run %d: dictionary diverges from arrival-order interning", r)
		}
	}
	if got := run(3, 4, 2); !reflect.DeepEqual(got, want.Snapshot()) {
		t.Fatal("pipelined sharded stats: dictionary diverges from arrival-order interning")
	}

	// A batch failing on an out-of-interval timestamp interns the keys
	// before the bad tuple and none after it, as a row-at-a-time fold
	// would.
	eng, err := New(testConfig(), WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	bad := []tuple.Tuple{
		tuple.NewTuple(0, "a", 1),
		tuple.NewTuple(2*tuple.Second, "b", 1),
		tuple.NewTuple(1, "c", 1),
	}
	if _, err := eng.Step(bad, 0, tuple.Second); err == nil {
		t.Fatal("out-of-interval tuple accepted")
	}
	if got := eng.Dict().Snapshot(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("failed batch interned %v, want [a]", got)
	}
}
