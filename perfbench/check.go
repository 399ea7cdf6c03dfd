package main

import "fmt"

// keyAgg is one key's count and value sum within one batch.
type keyAgg struct {
	id    int32
	count int64
	sum   int64
}

// reference computes every query's sliding-window answer from the
// generated tuples alone, independently of the engine: a ring of per-batch
// per-key aggregates and, per query, dense per-key window totals. A key
// leaves a window once its last contributing batch slides out. Values are
// small integers, so the float64 answers compare exactly.
type reference struct {
	names []string
	ring  [][]keyAgg // batch k lives in ring[k % len(ring)]

	count, sum []int64 // per-batch scratch, indexed by key id
	touched    []int32

	queries []refQuery
	batches int
}

type refQuery struct {
	sum     bool
	length  int     // window length in batches
	total   []int64 // per key id
	contrib []int32 // batches in the window holding the key
	live    int     // keys with contrib > 0
}

func newReference(w workload, names []string) *reference {
	r := &reference{
		names: names,
		ring:  make([][]keyAgg, w.maxWindow()+1),
		count: make([]int64, len(names)),
		sum:   make([]int64, len(names)),
	}
	for _, q := range w.queries {
		r.queries = append(r.queries, refQuery{
			sum: q.sum, length: q.seconds,
			total: make([]int64, len(names)), contrib: make([]int32, len(names)),
		})
	}
	return r
}

// add folds the next batch into every query's window.
func (r *reference) add(ids, vals []int32) {
	r.touched = r.touched[:0]
	for i, id := range ids {
		if r.count[id] == 0 {
			r.touched = append(r.touched, id)
		}
		r.count[id]++
		r.sum[id] += int64(vals[i])
	}
	k := r.batches
	slot := r.ring[k%len(r.ring)][:0]
	for _, id := range r.touched {
		slot = append(slot, keyAgg{id: id, count: r.count[id], sum: r.sum[id]})
		r.count[id], r.sum[id] = 0, 0
	}
	r.ring[k%len(r.ring)] = slot
	for qi := range r.queries {
		q := &r.queries[qi]
		q.apply(slot, +1)
		if old := k - q.length; old >= 0 {
			q.apply(r.ring[old%len(r.ring)], -1)
		}
	}
	r.batches++
}

func (q *refQuery) apply(batch []keyAgg, sign int64) {
	for _, a := range batch {
		v := a.count
		if q.sum {
			v = a.sum
		}
		q.total[a.id] += sign * v
		if q.contrib[a.id] == 0 {
			q.live++
		}
		q.contrib[a.id] += int32(sign)
		if q.contrib[a.id] == 0 {
			q.live--
		}
	}
}

// verify compares query qi's window answer with the reference and
// describes the first difference.
func (r *reference) verify(qi int, got map[string]float64) error {
	q := &r.queries[qi]
	if len(got) != q.live {
		return fmt.Errorf("query %d after batch %d: window holds %d keys, want %d", qi, r.batches-1, len(got), q.live)
	}
	for id, c := range q.contrib {
		if c == 0 {
			continue
		}
		key := r.names[id]
		v, ok := got[key]
		if !ok {
			return fmt.Errorf("query %d after batch %d: key %s missing", qi, r.batches-1, key)
		}
		if v != float64(q.total[id]) {
			return fmt.Errorf("query %d after batch %d: key %s = %v, want %d", qi, r.batches-1, key, v, q.total[id])
		}
	}
	return nil
}
