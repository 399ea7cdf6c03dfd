package prompt_test

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"prompt"
	"prompt/internal/tuple"
)

// scrubWall zeroes the wall-clock-measured report fields (and everything
// derived from them) that legitimately differ between two runs of the
// same computation. All simulated fields stay for the bit-identity
// comparison. The engine-internal golden tests freeze the pipeline clock
// instead; the public API offers no such hook.
func scrubWall(reps []prompt.BatchReport) []prompt.BatchReport {
	out := append([]prompt.BatchReport(nil), reps...)
	for i := range out {
		out[i].PartitionTime = 0
		out[i].PartitionOverflow = 0
	}
	return out
}

// columnarConfig is the shared configuration of the public columnar
// equivalence tests.
func columnarConfig() prompt.Config {
	return prompt.Config{
		BatchInterval: time.Second,
		MapTasks:      4,
		ReduceTasks:   4,
		Validate:      true,
	}
}

// TestProcessReceivedMatchesProcessBatch checks the two public ingest
// layouts against each other on the same batches: rows through
// ProcessBatch, which the accumulate stage transposes for Algorithm 1,
// and columns drained from a single-producer Receiver, which keeps
// arrival order. Reports and windows must match bit for bit (modulo
// measured wall time), for Prompt and a per-tuple baseline scheme.
func TestProcessReceivedMatchesProcessBatch(t *testing.T) {
	for _, scheme := range []prompt.Scheme{prompt.SchemePrompt, prompt.SchemeHash} {
		mkStream := func() *prompt.Stream {
			cfg := columnarConfig()
			cfg.Scheme = scheme
			st, err := prompt.New(cfg, prompt.WordCount(5*time.Second, time.Second))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		rowSt, colSt := mkStream(), mkStream()
		rowSrc, colSrc := zipfSource(t, 7), zipfSource(t, 7)
		recv := prompt.NewReceiver(1, 64)
		for i := 0; i < 4; i++ {
			start, end := rowSt.Now(), rowSt.Now()+tuple.Second
			tuples, err := rowSrc.Slice(start, end)
			if err != nil {
				t.Fatal(err)
			}
			rowRep, err := rowSt.ProcessBatch(tuples)
			if err != nil {
				t.Fatal(err)
			}
			tuples2, err := colSrc.Slice(start, end)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 {
				recv.Reset()
			}
			go func() {
				prod := recv.Producer(0)
				defer prod.Close()
				for _, tp := range tuples2 {
					prod.Push(tp)
				}
			}()
			colRep, err := colSt.ProcessReceived(recv)
			if err != nil {
				t.Fatal(err)
			}
			got := scrubWall([]prompt.BatchReport{colRep})
			want := scrubWall([]prompt.BatchReport{rowRep})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scheme %s batch %d: received report diverges from ProcessBatch\n got: %+v\nwant: %+v",
					scheme, i, got[0], want[0])
			}
		}
		if !reflect.DeepEqual(colSt.Window(), rowSt.Window()) {
			t.Errorf("scheme %s: received window diverges from ProcessBatch", scheme)
		}
	}
}

// TestIngestRejectsOutOfRangeWeight: the engine stores tuple weights as
// int32, so every public ingest path must reject a weight outside that
// range instead of truncating it (1<<32+1 used to fold as weight 1), and
// the failed batch must commit nothing.
func TestIngestRejectsOutOfRangeWeight(t *testing.T) {
	for _, w := range []int{1<<32 + 1, math.MinInt32 - 1} {
		batch := []prompt.Tuple{
			prompt.NewTuple(0, "a", 1),
			{TS: 1, Key: "b", Val: 1, Weight: w},
		}
		for _, scheme := range []prompt.Scheme{prompt.SchemePrompt, prompt.SchemeHash} {
			for _, depth := range []int{1, 2} {
				mk := func() *prompt.Stream {
					cfg := columnarConfig()
					cfg.Scheme, cfg.PipelineDepth = scheme, depth
					st, err := prompt.New(cfg, prompt.WordCount(5*time.Second, time.Second))
					if err != nil {
						t.Fatal(err)
					}
					return st
				}
				st := mk()
				if _, err := st.ProcessBatch(batch); err == nil {
					t.Errorf("weight %d scheme %s: ProcessBatch accepted it", w, scheme)
				}
				if _, err := mk().Run(prompt.FixedBatches(batch), 1); err == nil {
					t.Errorf("weight %d scheme %s depth %d: Run accepted it", w, scheme, depth)
				}
				if st.Now() != 0 || len(st.Reports()) != 0 {
					t.Errorf("weight %d scheme %s: rejected batch advanced the stream", w, scheme)
				}
			}
		}

		st, err := prompt.New(columnarConfig(), prompt.WordCount(5*time.Second, time.Second))
		if err != nil {
			t.Fatal(err)
		}
		recv := prompt.NewReceiver(1, 64)
		go func() {
			prod := recv.Producer(0)
			defer prod.Close()
			for _, tp := range batch {
				prod.Push(tp)
			}
		}()
		if _, err := st.ProcessReceived(recv); err == nil {
			t.Errorf("weight %d: ProcessReceived accepted it", w)
		}
		if st.Now() != 0 || len(st.Reports()) != 0 {
			t.Errorf("weight %d: rejected received batch advanced the stream", w)
		}
	}
}

// TestReceiverProcessReceived pushes each batch through concurrent
// producers feeding the lock-free rings and checks the stream's answers
// against a single-goroutine row-mode reference. Tuples are dealt to
// producers round-robin, so the drained order differs from arrival
// order — reports must not care (batch results are order-independent
// within an interval).
func TestReceiverProcessReceived(t *testing.T) {
	const producers, batches = 3, 4
	rowSt, err := prompt.New(columnarConfig(), prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	colSt, err := prompt.New(columnarConfig(), prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rowSrc, colSrc := zipfSource(t, 13), zipfSource(t, 13)
	recv := prompt.NewReceiver(producers, 64)

	for b := 0; b < batches; b++ {
		start, end := rowSt.Now(), rowSt.Now()+tuple.Second
		tuples, err := rowSrc.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rowSt.ProcessBatch(tuples); err != nil {
			t.Fatal(err)
		}

		tuples2, err := colSrc.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if b > 0 {
			recv.Reset()
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				prod := recv.Producer(p)
				defer prod.Close()
				for i := p; i < len(tuples2); i += producers {
					if !prod.Push(tuples2[i]) {
						t.Error("push on open producer failed")
						return
					}
				}
			}(p)
		}
		rep, err := colSt.ProcessReceived(recv)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tuples != len(tuples2) {
			t.Fatalf("batch %d: receiver processed %d tuples, want %d", b, rep.Tuples, len(tuples2))
		}
	}
	if !reflect.DeepEqual(colSt.Window(), rowSt.Window()) {
		t.Error("receiver-fed window diverges from row-mode reference")
	}
}
