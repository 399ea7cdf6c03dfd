package dist

import (
	"fmt"
	"reflect"
	"testing"

	"prompt/internal/core"
)

// TestColumnarClusterEquivalence runs the Prompt scheme against a cluster
// over every transport backend and checks bit-identity with the
// single-process reference. Algorithm 1 folds columns, so the blocks keep
// their struct-of-arrays key runs and the exchange travels as MapTaskCols
// frames (delta-encoded columns) — the loopback backend exercises the
// in-process handoff and the net backend the real codec.
func TestColumnarClusterEquivalence(t *testing.T) {
	queries := testQueries()
	const batches, seed = 3, 42
	for _, workers := range []int{0, 4} {
		cfg := testConfig(core.PromptScheme(), workers)
		ref := runEngine(t, cfg, queries, nil, batches, seed)
		refReps := scrubWallClock(ref.reports)

		for _, backend := range []string{"loopback", "pipe", "net"} {
			t.Run(fmt.Sprintf("w%d/%s", workers, backend), func(t *testing.T) {
				tr := buildTransport(t, backend, newShards(2, queries))
				coord, err := NewCoordinator(tr, cfg.BatchInterval, queries)
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				got := runEngine(t, cfg, queries, coord, batches, seed)
				if !reflect.DeepEqual(scrubWallClock(got.reports), refReps) {
					t.Fatalf("columnar cluster reports diverge from single-process\n got: %+v\nwant: %+v",
						scrubWallClock(got.reports), refReps)
				}
				if !reflect.DeepEqual(got.window, ref.window) {
					t.Fatal("columnar cluster window diverges from single-process")
				}
				if !reflect.DeepEqual(got.results, ref.results) {
					t.Fatal("columnar cluster per-query results diverge from single-process")
				}
			})
		}
	}
}
