package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"prompt"
)

// checkEvery is how often, in batches, every window is checked against
// the reference; the last batch of a run is always checked too.
const checkEvery = 20

// runner drives one system through consecutive batches in a closed loop:
// each batch is generated and folded into the reference outside the timed
// region, then ProcessBatch alone is timed.
type runner struct {
	w    workload
	gen  *generator
	ref  *reference
	sys  system
	next int // index of the next batch

	attempted, failed int
	lastErr           error
	checked           int // batch index of the last check, -1 before any

	gcStats      bool // also read GC counts around each step
	gcCycles     uint32
	gcPauseNanos uint64
}

func newRunner(w workload, gen *generator, sys system) *runner {
	return &runner{w: w, gen: gen, ref: newReference(w, gen.names), sys: sys, checked: -1}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// sample is one batch as the runner saw it.
type sample struct {
	wallMs float64 // ProcessBatch wall time
	alloc  uint64  // bytes ProcessBatch allocated
	out    outcome
}

// feed runs the next batch. A failed step or a failed periodic answer
// check counts the batch as failed.
func (r *runner) feed() (sample, error) {
	k := r.next
	ids, vals, tuples := r.gen.batch(k)
	r.ref.add(ids, vals)
	r.next++
	r.attempted++

	var before, after runtime.MemStats
	if r.gcStats {
		runtime.ReadMemStats(&before)
	}
	a0 := allocBytes()
	t0 := time.Now()
	out, err := r.sys.step(tuples)
	wall := time.Since(t0)
	s := sample{wallMs: float64(wall) / 1e6, alloc: allocBytes() - a0, out: out}
	if r.gcStats {
		runtime.ReadMemStats(&after)
		r.gcCycles += after.NumGC - before.NumGC
		r.gcPauseNanos += after.PauseTotalNs - before.PauseTotalNs
	}
	if err != nil {
		r.failed++
		r.lastErr = fmt.Errorf("batch %d: %w", k, err)
		return s, r.lastErr
	}
	if r.next%checkEvery == 0 {
		r.check()
	}
	return s, nil
}

// check compares every query's window after the latest batch with the
// reference; a mismatch fails that batch.
func (r *runner) check() {
	if r.checked == r.next-1 {
		return
	}
	r.checked = r.next - 1
	for qi := range r.w.queries {
		got, err := r.sys.window(qi)
		if err == nil {
			err = r.ref.verify(qi, got)
		}
		if err != nil {
			r.failed++
			r.lastErr = err
			return
		}
	}
}

// warmUp fills the longest window and returns the summed step time in
// milliseconds.
func (r *runner) warmUp() (float64, error) {
	wallMs := 0.0
	for r.next < r.w.maxWindow() {
		s, err := r.feed()
		if err != nil {
			return 0, err
		}
		wallMs += s.wallMs
	}
	r.check()
	return wallMs, nil
}

// steady holds the per-batch samples of a measured phase.
type steady struct {
	walls  []float64 // ProcessBatch wall, ms
	out    []outcome
	tuples int
	alloc  uint64
}

// series extracts one value per measured batch.
func (st *steady) series(f func(outcome) float64) []float64 {
	v := make([]float64, len(st.out))
	for i, o := range st.out {
		v[i] = f(o)
	}
	return v
}

// measure runs batches until seconds have passed and at least minBatches
// ran, or until hardCap passed.
func (r *runner) measure(seconds float64, minBatches int, hardCap time.Duration) (*steady, error) {
	st := &steady{}
	begin := time.Now()
	for {
		el := time.Since(begin)
		if (el.Seconds() >= seconds && len(st.walls) >= minBatches) || el >= hardCap {
			break
		}
		s, err := r.feed()
		if err != nil {
			return st, err
		}
		st.walls = append(st.walls, s.wallMs)
		st.out = append(st.out, s.out)
		st.tuples += s.out.Tuples
		st.alloc += s.alloc
	}
	r.check()
	return st, nil
}

// simMs converts simulated (virtual, microsecond) time to milliseconds.
func simMs(t prompt.Time) float64 { return float64(t) / 1e3 }

// rate is tuples per second of ProcessBatch wall time.
func (st *steady) rate() float64 { return float64(st.tuples) / (sum(st.walls) / 1e3) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// liveHeap returns the bytes of live heap objects after two forced
// collections: the second also frees what sync.Pool victim caches held
// through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
