package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"prompt"
)

// Every workload runs 1 s batches of virtual time on 8 Map tasks, 8 Reduce
// tasks and 8 simulated cores.
const (
	mapTasks    = 8
	reduceTasks = 8
	simCores    = 8
)

// querySpec is one sliding query with a 1 s slide: a per-key tuple count
// (WordCount) or a per-key sum of tuple values (SlidingSum).
type querySpec struct {
	sum     bool
	seconds int // window length
}

// workload is one benchmark input and the stream configuration it runs on.
type workload struct {
	name string
	why  string

	scheme      prompt.Scheme
	workers     int
	statsShards int // 0 keeps the single Alg. 1 accumulator
	shards      int // 0 runs in-process; n > 0 uses n loopback shards

	keys     int
	zipfS    float64 // 0 draws keys uniformly
	perBatch int     // tuples per 1 s batch

	queries []querySpec
}

var workloads = []workload{
	{
		name:     "zipf-prompt",
		why:      "single-threaded Prompt on Zipf 1.0 keys: Alg. 1 accumulate dominates batch wall time",
		scheme:   prompt.SchemePrompt,
		keys:     50000,
		zipfS:    1.0,
		perBatch: 20000,
		queries:  []querySpec{{seconds: 10}},
	},
	{
		name:     "uniform-hash",
		why:      "hash scheme on uniform keys: bypasses Alg. 1; post-sort, row partitioning and window churn dominate",
		scheme:   prompt.SchemeHash,
		keys:     20000,
		perBatch: 20000,
		queries:  []querySpec{{seconds: 10}},
	},
	{
		name:        "skew-shards-6q",
		why:         "Zipf 1.5 over 2 loopback shards, 2 workers, 6 queries: wire codec, split-key routing and eviction",
		scheme:      prompt.SchemePrompt,
		workers:     2,
		statsShards: 2,
		shards:      2,
		keys:        50000,
		zipfS:       1.5,
		perBatch:    20000,
		queries: []querySpec{
			{seconds: 10}, {sum: true, seconds: 5}, {seconds: 20},
			{sum: true, seconds: 30}, {seconds: 60}, {sum: true, seconds: 60},
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// maxWindow is the longest query window in batches: warm-up runs that many
// batches so every window is full before measuring starts.
func (w workload) maxWindow() int {
	m := 0
	for _, q := range w.queries {
		m = max(m, q.seconds)
	}
	return m
}

// promptQueries builds the workload's queries; names are unique so the
// shard handshake and reports tell them apart.
func (w workload) promptQueries() []prompt.Query {
	out := make([]prompt.Query, len(w.queries))
	for i, q := range w.queries {
		length := time.Duration(q.seconds) * time.Second
		if q.sum {
			out[i] = prompt.SlidingSum(fmt.Sprintf("sum-%ds", q.seconds), length, time.Second)
		} else {
			out[i] = prompt.WordCount(length, time.Second)
			out[i].Name = fmt.Sprintf("count-%ds", q.seconds)
		}
	}
	return out
}

// streamOptions is the workload's configuration through the public API.
func (w workload) streamOptions() []prompt.Option {
	opts := []prompt.Option{
		prompt.WithBatchInterval(time.Second),
		prompt.WithParallelism(mapTasks, reduceTasks),
		prompt.WithCores(simCores),
		prompt.WithScheme(w.scheme),
		prompt.WithWorkers(w.workers),
	}
	if w.statsShards > 0 {
		opts = append(opts, prompt.WithStatsShards(w.statsShards))
	}
	if w.shards > 0 {
		opts = append(opts, prompt.WithShards(w.shards))
	}
	return opts
}

// splitmix is SplitMix64: a tiny generator whose sequence is fixed by its
// definition, so benchmark inputs never change with the Go release.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit returns a uniform float64 in [0, 1).
func (r *splitmix) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// generator makes a workload's batches from a seed. Batch k depends only
// on (seed, k), so any batch can be regenerated without replaying earlier
// ones; buffers are reused between calls.
type generator struct {
	seed     uint64
	perBatch int
	names    []string  // key id -> key
	cdf      []float64 // Zipf inverse-CDF table; nil draws uniformly

	ids    []int32
	vals   []int32
	tuples []prompt.Tuple
}

func newGenerator(w workload, seed int64) *generator {
	g := &generator{seed: uint64(seed), perBatch: w.perBatch, names: make([]string, w.keys)}
	for i := range g.names {
		g.names[i] = "k" + strconv.Itoa(i)
	}
	if w.zipfS > 0 {
		g.cdf = make([]float64, w.keys)
		total := 0.0
		for i := range g.cdf {
			total += 1 / math.Pow(float64(i+1), w.zipfS)
			g.cdf[i] = total
		}
		for i := range g.cdf {
			g.cdf[i] /= total
		}
	}
	return g
}

// batch fills the generator's buffers with batch k: key ids, integer
// values in [1, 9], and the tuples, evenly stamped across [k s, (k+1) s).
// The returned slices are valid until the next call.
func (g *generator) batch(k int) (ids, vals []int32, tuples []prompt.Tuple) {
	r := splitmix{s: g.seed*0x100000001b3 ^ uint64(k)*0x9e3779b97f4a7c15}
	n := g.perBatch
	g.ids, g.vals, g.tuples = g.ids[:0], g.vals[:0], g.tuples[:0]
	start := prompt.At(time.Duration(k) * time.Second)
	step := prompt.At(time.Second) / prompt.Time(n)
	for i := 0; i < n; i++ {
		var id int
		if g.cdf != nil {
			id = min(sort.SearchFloat64s(g.cdf, r.unit()), len(g.cdf)-1)
		} else {
			id = int(r.next() % uint64(len(g.names)))
		}
		v := int32(1 + r.next()%9)
		g.ids = append(g.ids, int32(id))
		g.vals = append(g.vals, v)
		g.tuples = append(g.tuples, prompt.NewTuple(start+prompt.Time(i)*step, g.names[id], float64(v)))
	}
	return g.ids, g.vals, g.tuples
}
