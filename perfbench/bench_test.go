package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"prompt/internal/partition"
)

// small keeps a workload's keys, skew, scheme, topology and queries but
// cuts its batches to 4000 tuples, so the tests stay quick under -race.
func small(w workload) workload {
	w.perBatch = 4000
	return w
}

// inputDigest hashes the first n batches a workload generates.
func inputDigest(w workload, seed int64, n int) uint64 {
	g := newGenerator(w, seed)
	h := fnv.New64a()
	for k := 0; k < n; k++ {
		_, _, tuples := g.batch(k)
		for _, t := range tuples {
			fmt.Fprintf(h, "%d %s %v %d\n", t.TS, t.Key, t.Val, t.Weight)
		}
	}
	return h.Sum64()
}

// TestInputsArePinned fails when the benchmark's inputs change for a
// fixed seed; a change to them makes old and new figures incomparable.
func TestInputsArePinned(t *testing.T) {
	want := map[string]uint64{
		"zipf-prompt":    0x6fbb1d83f4a7954b,
		"uniform-hash":   0x8e2388510eaa5e7c,
		"skew-shards-6q": 0xa31959a7a98ea385,
	}
	for _, w := range workloads {
		if got := inputDigest(w, 1, 3); got != want[w.name] {
			t.Errorf("%s: first batches for seed 1 hash to %#x, pinned %#x", w.name, got, want[w.name])
		}
	}
}

func TestGeneratorSeedAndBatchIndependence(t *testing.T) {
	w := small(workloads[0])
	if inputDigest(w, 1, 2) == inputDigest(w, 2, 2) {
		t.Fatal("seeds 1 and 2 generate the same batches")
	}
	a, b := newGenerator(w, 7), newGenerator(w, 7)
	b.batch(0)
	_, _, late := b.batch(3)
	late = append(late[:0:0], late...)
	_, _, direct := a.batch(3)
	if !reflect.DeepEqual(late, direct) {
		t.Fatal("batch 3 depends on the batches generated before it")
	}
	for _, tp := range direct {
		if tp.Val < 1 || tp.Val > 9 || tp.Val != math.Trunc(tp.Val) {
			t.Fatalf("value %v is not a small integer", tp.Val)
		}
	}
}

// TestReferenceFlagsCorruptAnswers runs the public stream, checks that its
// windows match the reference, then requires the check to reject each kind
// of corruption.
func TestReferenceFlagsCorruptAnswers(t *testing.T) {
	w := small(workloads[2])
	sys, err := newPublicSystem(w)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	r := newRunner(w, newGenerator(w, 3), sys)
	for i := 0; i < 8; i++ {
		if _, err := r.feed(); err != nil {
			t.Fatal(err)
		}
	}
	for qi := range w.queries {
		got, err := sys.window(qi)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ref.verify(qi, got); err != nil {
			t.Fatalf("correct answer rejected: %v", err)
		}
	}
	got, _ := sys.window(1)
	var key string
	for k := range got {
		key = k
		break
	}
	corruptions := map[string]func(map[string]float64){
		"value":     func(m map[string]float64) { m[key]++ },
		"missing":   func(m map[string]float64) { delete(m, key) },
		"extra":     func(m map[string]float64) { m["not-a-key"] = 1 },
		"swap-keys": func(m map[string]float64) { m["not-a-key"] = m[key]; delete(m, key) },
	}
	for name, corrupt := range corruptions {
		m, _ := sys.window(1)
		corrupt(m)
		if err := r.ref.verify(1, m); err == nil {
			t.Errorf("%s corruption passed the check", name)
		}
	}

	// A mismatch at a periodic check counts its batch as failed.
	r.sys = corruptWindows{sys}
	for r.next%checkEvery != checkEvery-1 {
		if _, err := r.feed(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.feed(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || r.lastErr == nil {
		t.Fatalf("failed = %d, lastErr = %v after a corrupted check; want 1 failure", r.failed, r.lastErr)
	}
}

// corruptWindows answers every window with one count off.
type corruptWindows struct{ system }

func (c corruptWindows) window(qi int) (map[string]float64, error) {
	m, err := c.system.window(qi)
	for k := range m {
		m[k] += 0.5
		break
	}
	return m, err
}

// TestTracedRunMatchesPublicAPI proves the traced build measures the same
// program: every timing-independent report field and every window agree
// with the public-API run, batch by batch.
func TestTracedRunMatchesPublicAPI(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			pub, err := newPublicSystem(w)
			if err != nil {
				t.Fatal(err)
			}
			defer pub.close()
			trc, err := newTracedSystem(w, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			defer trc.close()
			pt := trc.eng.Config().Partitioner
			if partition.IsColumnAware(pt) != partition.IsColumnAware(pt.(*tracedPartitioner).inner) {
				t.Fatal("the traced partitioner hides whether it consumes columns")
			}
			g := newGenerator(w, 5)
			for k := 0; k < 12; k++ {
				_, _, tuples := g.batch(k)
				want, err := pub.step(tuples)
				if err != nil {
					t.Fatal(err)
				}
				got, err := trc.step(tuples)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: traced report %+v, public %+v", k, got, want)
				}
				for qi := range w.queries {
					a, _ := pub.window(qi)
					b, _ := trc.window(qi)
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("batch %d query %d: windows differ (%d vs %d keys)", k, qi, len(a), len(b))
					}
				}
			}
		})
	}
}

// Span timestamps of engine stages are reconstructed from the observer's
// reported wall time, so a stage's start may read up to this much late.
const nestTolerance = 2e6 // ns

// TestSpanCoverage checks the traced run's spans: every batch has one span
// per engine stage, the stages lie inside their batch in order, the time no
// stage covers stays under 10% of batch wall time in total, child spans
// nest inside their parents, and the dump round-trips through JSON.
func TestSpanCoverage(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			sys, err := newTracedSystem(w, tr)
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(w, newGenerator(w, 9), sys)
			for i := 0; i < 6; i++ {
				if _, err := r.feed(); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.close(); err != nil {
				t.Fatal(err)
			}

			byID := map[uint64]span{}
			for _, sp := range tr.spans {
				if _, dup := byID[sp.ID]; dup {
					t.Fatalf("span id %d used twice", sp.ID)
				}
				byID[sp.ID] = sp
			}
			var wall, stagesTotal int64
			for _, b := range tr.spans {
				if b.Name != spanBatch {
					continue
				}
				wall += b.dur()
				prevEnd := b.Start
				for _, st := range engineStages {
					var found []span
					for _, sp := range tr.spans {
						if sp.Trace == b.Trace && sp.Name == "engine."+st {
							found = append(found, sp)
						}
					}
					if len(found) != 1 {
						t.Fatalf("batch %d: %d %s spans, want 1", b.Trace, len(found), st)
					}
					sp := found[0]
					if sp.Parent != b.ID || sp.Start < prevEnd-nestTolerance || sp.End > b.End {
						t.Fatalf("batch %d: stage %s [%d,%d] outside batch [%d,%d] or out of order",
							b.Trace, st, sp.Start, sp.End, b.Start, b.End)
					}
					prevEnd = sp.End
					stagesTotal += sp.dur()
				}
			}
			if unattributed := wall - stagesTotal; unattributed < 0 || unattributed > wall/10 {
				t.Fatalf("unattributed %d ns of %d ns batch wall time", unattributed, wall)
			}
			nested := map[string]int{}
			for _, sp := range tr.spans {
				if sp.Parent == 0 {
					continue
				}
				p, ok := byID[sp.Parent]
				if !ok || p.Trace != sp.Trace {
					t.Fatalf("%s span %d: parent %d missing from trace %d", sp.Name, sp.ID, sp.Parent, sp.Trace)
				}
				if sp.Start < p.Start-nestTolerance || sp.End > p.End+nestTolerance {
					t.Fatalf("%s [%d,%d] not inside its parent %s [%d,%d]", sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
				}
				nested[sp.Name+" in "+p.Name]++
			}
			want := []string{spanPartition + " in engine.partition", spanAssign + " in engine.process"}
			if w.shards > 0 {
				want = append(want, spanMapBlocks+" in engine.process", spanReduce+" in engine.process",
					spanExchange+" in "+spanMapBlocks, spanExchange+" in "+spanReduce, spanHandle+" in "+spanExchange)
			}
			for _, k := range want {
				if nested[k] == 0 {
					t.Errorf("no %s span", k)
				}
			}

			var buf bytes.Buffer
			if err := tr.dump(&buf, host()); err != nil {
				t.Fatal(err)
			}
			var back traceFile
			if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Spans, tr.spans) || back.Host != host() {
				t.Fatal("span dump does not round-trip through JSON")
			}
		})
	}
}

// TestLayerMetricsAddUp checks the per-layer identity the benchmark
// prints: stage times plus instrumentation plus unattributed time equal
// the batch wall time, and every layer that runs reports work.
func TestLayerMetricsAddUp(t *testing.T) {
	w := small(workloads[2])
	tr := newTracer()
	sys, err := newTracedSystem(w, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	r := newRunner(w, newGenerator(w, 4), sys)
	s, err := r.measure(0, 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	m := layerMetrics(tr.spans, tr.bytes, 0, s)
	parts := m["trace.instrument_ms"].Value + m["engine.unattributed_ms"].Value
	for _, st := range engineStages {
		parts += m["engine."+st+"_ms"].Value
	}
	if got, want := parts, m["engine.batch_ms"].Value; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("stages + instrumentation + unattributed = %v ms, batch = %v ms", got, want)
	}
	for name, v := range m {
		if strings.HasPrefix(name, "engine.recover") {
			continue
		}
		if v.Value <= 0 {
			t.Errorf("%s = %v on %s, want > 0", name, v.Value, w.name)
		}
	}
}

// TestMetricsMatchBenchmarkFile runs both modes briefly and requires
// exactly the metrics, with the units, that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w := small(workloads[0])
	e2e, err := endToEnd(w, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := traced(w, 1, 0.2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		res  result
		want []struct{ Name, Unit string }
	}{{e2e, spec.EndToEnd}, {layers, spec.PerLayer}} {
		if !c.res.Correct || c.res.Failed != 0 || c.res.Attempted == 0 {
			t.Errorf("run not correct: %+v", c.res)
		}
		got := map[string]string{}
		for n, m := range c.res.Metrics {
			got[n] = m.Unit
		}
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
		}
	}
}
