package main

import (
	"fmt"
	"time"

	"prompt"
	"prompt/internal/core"
	"prompt/internal/dist"
	"prompt/internal/engine"
	"prompt/internal/transport"
	"prompt/internal/tuple"
)

// outcome is the part of a batch report that does not depend on host
// timing: the traced and the public-API run must agree on all of it.
type outcome struct {
	Tuples, Keys    int
	Quality         prompt.QualityReport
	BucketSizes     []int
	BucketBSI       float64
	MapStageTime    prompt.Time
	ReduceStageTime prompt.Time
}

// system is one way of running a workload's stream: through the public
// API, or through the internal constructors with traced layers.
type system interface {
	step(tuples []prompt.Tuple) (outcome, error)
	window(qi int) (map[string]float64, error)
	close() error
}

// publicSystem drives a MultiStream built with NewMultiWithOptions.
type publicSystem struct{ st *prompt.MultiStream }

func newPublicSystem(w workload) (*publicSystem, error) {
	st, err := prompt.NewMultiWithOptions(w.promptQueries(), w.streamOptions()...)
	if err != nil {
		return nil, fmt.Errorf("building %s stream: %w", w.name, err)
	}
	return &publicSystem{st: st}, nil
}

func (s *publicSystem) step(tuples []prompt.Tuple) (outcome, error) {
	r, err := s.st.ProcessBatch(tuples)
	return outcome{r.Tuples, r.Keys, r.Quality, r.BucketSizes, r.BucketBSI, r.MapStageTime, r.ReduceStageTime}, err
}

func (s *publicSystem) window(qi int) (map[string]float64, error) { return s.st.Window(qi) }

func (s *publicSystem) close() error { return s.st.Close() }

// tracedSystem builds the same configuration as newPublicSystem from the
// internal constructors, so that every layer boundary can be decorated:
// the Partitioner and Assigner, and for sharded workloads the shard
// handlers, the loopback connections and the coordinator executor.
type tracedSystem struct {
	eng   *engine.Engine
	coord *dist.Coordinator
	tr    *tracer
}

func newTracedSystem(w workload, tr *tracer) (*tracedSystem, error) {
	scheme, err := core.ByName(string(w.scheme))
	if err != nil {
		return nil, err
	}
	scheme.Partitioner = &tracedPartitioner{inner: scheme.Partitioner, tr: tr}
	scheme.Assigner = &tracedAssigner{inner: scheme.Assigner, tr: tr}
	cfg := scheme.Apply(engine.Config{
		BatchInterval: tuple.Second,
		MapTasks:      mapTasks,
		ReduceTasks:   reduceTasks,
		Cores:         simCores,
		Workers:       w.workers,
		StatsShards:   w.statsShards,
		Observer:      tr,
	})
	queries := w.promptQueries()
	eng, err := engine.NewMulti(cfg, queries)
	if err != nil {
		return nil, fmt.Errorf("building traced %s engine: %w", w.name, err)
	}
	s := &tracedSystem{eng: eng, tr: tr}
	if w.shards > 0 {
		handlers := make([]*tracedHandler, w.shards)
		inner := make([]transport.Handler, w.shards)
		for i := range handlers {
			handlers[i] = &tracedHandler{inner: dist.NewShard(i, queries), tr: tr}
			inner[i] = handlers[i]
		}
		tp := &tracedTransport{inner: transport.NewLoopback(inner...), handlers: handlers, tr: tr}
		coord, err := dist.NewCoordinator(tp, cfg.BatchInterval, queries)
		if err != nil {
			tp.Close()
			return nil, fmt.Errorf("connecting traced %s shards: %w", w.name, err)
		}
		eng.SetExecutor(&tracedExecutor{inner: coord, tr: tr})
		s.coord = coord
	}
	return s, nil
}

func (s *tracedSystem) step(tuples []prompt.Tuple) (outcome, error) {
	start := s.eng.Now()
	k := len(s.eng.Reports())
	s.tr.beginBatch(k)
	t0 := time.Now()
	r, err := s.eng.Step(tuples, start, start+s.eng.Config().BatchInterval)
	s.tr.endBatch(k, t0, time.Now())
	return outcome{r.Tuples, r.Keys, r.Quality, r.BucketSizes, r.BucketBSI, r.MapStageTime, r.ReduceStageTime}, err
}

func (s *tracedSystem) window(qi int) (map[string]float64, error) {
	if qi < 0 || qi >= s.eng.Queries() {
		return nil, fmt.Errorf("query index %d outside [0,%d)", qi, s.eng.Queries())
	}
	return s.eng.WindowOf(qi).Snapshot(), nil
}

func (s *tracedSystem) close() error {
	if s.coord != nil {
		return s.coord.Close()
	}
	return nil
}
