// Command perfbench is the repository benchmark. It runs one workload
// through the public prompt API in a closed loop and prints every
// end-to-end metric with its unit, checking each query's window against an
// independent reference; with -trace 1 it instead runs the same workload
// with every layer boundary timed and prints the per-layer metrics.
//
//	go run ./perfbench -workload zipf-prompt -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A batch counts as failed when ProcessBatch errors or a window check
// after it disagrees with the reference.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setups is how many times a run builds and warms a stream; setup_s is
// their median.
const setups = 5

// minSteadyBatches gives batch_ms_p95 ten samples beyond it.
const minSteadyBatches = 200

// hardCap stops a measured phase early enough for the run to end within
// three minutes even on a slow host.
const hardCap = 100 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo is recorded with every result: figures compare only within
// one host.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func host() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fail(err)
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	// Every workload fits in two threads; capping keeps figures from a
	// larger host comparable.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var res result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds)
	} else {
		res, err = traced(w, *seed, *seconds, filepath.Join(".bench_build", "traces"))
	}
	if err != nil {
		fail(err)
	}
	h := host()
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-30s %14.4f ratio (%d of %d batches)\n", "failed_batch_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// endToEnd builds and warms the public-API stream several times, keeps the
// last one, and measures it with tracing off.
func endToEnd(w workload, seed int64, seconds float64) (result, error) {
	gen := newGenerator(w, seed)
	gen.batch(0) // size the generator's buffers before the heap baseline
	base := liveHeap()

	var setupSecs []float64
	var r *runner
	attempted, failed := 0, 0
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.sys.close(); err != nil {
				return result{}, err
			}
			attempted, failed = attempted+r.attempted, failed+r.failed
		}
		t0 := time.Now()
		sys, err := newPublicSystem(w)
		if err != nil {
			return result{}, err
		}
		buildMs := float64(time.Since(t0)) / 1e6
		r = newRunner(w, gen, sys)
		warmMs, err := r.warmUp()
		if err != nil {
			return result{}, err
		}
		setupSecs = append(setupSecs, (buildMs+warmMs)/1e3)
	}
	runtime.GC()
	s, err := r.measure(seconds, minSteadyBatches, hardCap)
	attempted, failed = attempted+r.attempted, failed+r.failed
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if r.lastErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", r.lastErr)
	}
	if len(s.walls) == 0 {
		return result{}, fmt.Errorf("no batch measured")
	}
	r.ref = nil // the reference is benchmark state, not the stream's
	end := liveHeap()
	retained := float64(end-min(base, end)) / (1 << 20)
	runtime.KeepAlive(r.sys)
	if err := r.sys.close(); err != nil {
		return result{}, err
	}

	m := map[string]metric{
		"tuples_per_s":          {s.rate(), "1/s"},
		"batch_ms_p50":          {quantile(s.walls, 0.50), "ms"},
		"batch_ms_p95":          {quantile(s.walls, 0.95), "ms"},
		"setup_s":               {quantile(setupSecs, 0.5), "s"},
		"alloc_bytes_per_tuple": {float64(s.alloc) / float64(s.tuples), "B"},
		"retained_heap_mb":      {retained, "MB"},
		"sim_makespan_ms_p95":   {quantile(s.series(func(o outcome) float64 { return simMs(o.MapStageTime + o.ReduceStageTime) }), 0.95), "ms"},
		"answered_batch_ratio":  {float64(attempted-failed) / float64(attempted), "ratio"},
	}
	fmt.Printf("workload %s seed %d: %d steady batches, %d setups\n", w.name, seed, len(s.walls), setups)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// traced measures the public-API stream briefly for the tracing-overhead
// base, then runs the traced build of the same configuration and derives
// the per-layer metrics from its spans. The spans are written to a file
// in traceDir.
func traced(w workload, seed int64, seconds float64, traceDir string) (result, error) {
	gen := newGenerator(w, seed)
	pub, err := newPublicSystem(w)
	if err != nil {
		return result{}, err
	}
	pr := newRunner(w, gen, pub)
	if _, err := pr.warmUp(); err != nil {
		return result{}, err
	}
	ps, err := pr.measure(seconds/2, 1, hardCap/2)
	if err != nil {
		return result{}, err
	}
	if err := pub.close(); err != nil {
		return result{}, err
	}

	tr := newTracer()
	sys, err := newTracedSystem(w, tr)
	if err != nil {
		return result{}, err
	}
	r := newRunner(w, gen, sys)
	r.gcStats = true
	if _, err := r.warmUp(); err != nil {
		return result{}, err
	}
	runtime.GC()
	s, err := r.measure(seconds/2, 1, hardCap/2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if r.lastErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", r.lastErr)
	}
	keysAtEnd := 0
	for qi := range w.queries {
		win, err := sys.window(qi)
		if err != nil {
			return result{}, err
		}
		keysAtEnd += len(win)
	}
	if err := sys.close(); err != nil {
		return result{}, err
	}
	if len(s.walls) == 0 {
		return result{}, fmt.Errorf("no traced batch measured")
	}

	lm := layerMetrics(tr.spans, tr.bytes, w.maxWindow(), s)
	lm["window.keys_at_end"] = metric{float64(keysAtEnd), "count"}
	batches := float64(len(s.walls))
	lm["runtime.gc_cycles_per_batch"] = metric{float64(r.gcCycles) / batches, "count"}
	lm["runtime.gc_pause_ms"] = metric{float64(r.gcPauseNanos) / 1e6 / batches, "ms"}
	tracedRate, untracedRate := s.rate(), ps.rate()
	lm["trace.tuples_per_s"] = metric{tracedRate, "1/s"}
	lm["trace.untraced_tuples_per_s"] = metric{untracedRate, "1/s"}
	lm["trace.overhead_ratio"] = metric{tracedRate / untracedRate, "ratio"}

	if err := writeTrace(tr, traceDir, w, seed); err != nil {
		return result{}, err
	}
	attempted, failed := pr.attempted+r.attempted, pr.failed+r.failed
	fmt.Printf("workload %s seed %d: %d traced batches, %d untraced\n",
		w.name, seed, len(s.walls), len(ps.walls))
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: lm}, nil
}

func writeTrace(tr *tracer, dir string, w workload, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.dump(bw, host()); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
