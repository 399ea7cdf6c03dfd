package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"prompt/internal/engine"
	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/wire"
)

// Span names. Engine stages are "engine.<stage>", as the observer names
// them.
const (
	spanBatch     = "engine.batch"
	spanPartition = "partition.partition"
	spanAssign    = "reducer.assign"
	spanMapBlocks = "dist.map_blocks"
	spanReduce    = "dist.reduce_buckets"
	spanExchange  = "transport.exchange"
	spanWait      = "transport.wait"
	spanHandle    = "dist.shard_handle"
	// spanWireSize covers re-marshalling each frame to count its bytes. It
	// is tracing cost, kept out of every layer's own span.
	spanWireSize = "trace.wire_size"
)

// engineStages are the pipeline stages in order; a batch's stage spans
// and its unattributed time add up to its wall time.
var engineStages = []string{"accumulate", "partition", "process", "recover", "commit"}

// setupTrace is the trace id of spans outside any batch (the handshake).
const setupTrace = -1

// span is one timed region. Trace is the batch index; Parent is the id of
// the enclosing span, 0 for a batch. Times are nanoseconds since the
// tracer started.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// distKey names one executor call: the parent of the exchanges it makes.
type distKey struct {
	batch, query int
	reduce       bool
}

// tracer keeps spans in memory. It is the engine's Observer (stage spans)
// and the shared sink of every layer decorator; decorators run on worker
// goroutines, so every method locks.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID uint64
	spans  []span
	bytes  map[int]int64 // wire bytes per batch

	batch    int
	batchID  uint64
	stageIDs map[string]uint64
	distIDs  map[distKey]uint64
}

func newTracer() *tracer {
	return &tracer{
		epoch:    time.Now(),
		bytes:    make(map[int]int64),
		batch:    setupTrace,
		stageIDs: make(map[string]uint64),
		distIDs:  make(map[distKey]uint64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) id() uint64 { t.nextID++; return t.nextID }

// beginBatch allocates the batch's span id and its stage span ids up
// front, so spans recorded inside a stage can name it as their parent
// before the stage ends.
func (t *tracer) beginBatch(k int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batch = k
	t.batchID = t.id()
	for _, s := range engineStages {
		t.stageIDs[s] = t.id()
	}
}

func (t *tracer) endBatch(k int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: spanBatch, Trace: k, ID: t.batchID,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.batch = setupTrace
}

// inStage returns the current batch and the span id of one of its stages.
func (t *tracer) inStage(stage string) (int, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.batch == setupTrace {
		return setupTrace, 0
	}
	return t.batch, t.stageIDs[stage]
}

func (t *tracer) record(name string, trace int, id, parent uint64, start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		id = t.id()
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: start, End: end})
}

// Observer: the engine reports each stage's wall time as it ends.

func (t *tracer) OnBatchStart(metrics.BatchStart) {}

func (t *tracer) OnStageEnd(ev metrics.StageEnd) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: "engine." + ev.Stage, Trace: ev.Batch, ID: t.stageIDs[ev.Stage],
		Parent: t.batchID, Start: end - int64(ev.Wall), End: end})
}

func (t *tracer) OnBatchEnd(metrics.BatchEnd)   {}
func (t *tracer) OnTaskRetry(metrics.TaskRetry) {}
func (t *tracer) OnRecovery(metrics.Recovery)   {}
func (t *tracer) OnDrop(metrics.Drop)           {}
func (t *tracer) OnApprox(metrics.Approx)       {}

// dump writes the spans as JSON with the host they were measured on.
func (t *tracer) dump(w io.Writer, host hostInfo) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return json.NewEncoder(w).Encode(traceFile{Host: host, Spans: t.spans})
}

type traceFile struct {
	Host  hostInfo `json:"host"`
	Spans []span   `json:"spans"`
}

// tracedPartitioner times Alg. 2. It forwards ColumnAware, which decides
// whether the engine materialises rows before partitioning.
type tracedPartitioner struct {
	inner partition.Partitioner
	tr    *tracer
}

func (p *tracedPartitioner) Name() string      { return p.inner.Name() }
func (p *tracedPartitioner) ColumnAware() bool { return partition.IsColumnAware(p.inner) }

func (p *tracedPartitioner) Partition(in partition.Input, n int) ([]*tuple.Block, error) {
	trace, parent := p.tr.inStage("partition")
	start := p.tr.now()
	blocks, err := p.inner.Partition(in, n)
	p.tr.record(spanPartition, trace, 0, parent, start)
	return blocks, err
}

// tracedAssigner times Alg. 3; Map tasks call it from worker goroutines.
type tracedAssigner struct {
	inner reducer.Assigner
	tr    *tracer
}

func (a *tracedAssigner) Name() string { return a.inner.Name() }

func (a *tracedAssigner) Assign(task int, clusters []tuple.Cluster, ref map[string]tuple.SplitInfo, r int) ([]int, error) {
	trace, parent := a.tr.inStage("process")
	start := a.tr.now()
	out, err := a.inner.Assign(task, clusters, ref, r)
	a.tr.record(spanAssign, trace, 0, parent, start)
	return out, err
}

// tracedExecutor times the coordinator's Map and Reduce scatters. Their
// span ids are registered while they run so the exchanges they make can
// name them as parent.
type tracedExecutor struct {
	inner engine.JobExecutor
	tr    *tracer
}

func (x *tracedExecutor) open(k distKey) (uint64, uint64, int64) {
	_, parent := x.tr.inStage("process")
	x.tr.mu.Lock()
	id := x.tr.id()
	x.tr.distIDs[k] = id
	x.tr.mu.Unlock()
	return id, parent, x.tr.now()
}

func (x *tracedExecutor) close(name string, k distKey, id, parent uint64, start int64) {
	x.tr.record(name, k.batch, id, parent, start)
	x.tr.mu.Lock()
	delete(x.tr.distIDs, k)
	x.tr.mu.Unlock()
}

func (x *tracedExecutor) MapBlocks(batch, qi int, blocks []*tuple.Block, r int) ([]engine.BlockMapOut, error) {
	k := distKey{batch: batch, query: qi}
	id, parent, start := x.open(k)
	out, err := x.inner.MapBlocks(batch, qi, blocks, r)
	x.close(spanMapBlocks, k, id, parent, start)
	return out, err
}

func (x *tracedExecutor) ReduceBuckets(batch, qi int, perBucket [][]engine.Contrib) ([]map[string]float64, error) {
	k := distKey{batch: batch, query: qi, reduce: true}
	id, parent, start := x.open(k)
	out, err := x.inner.ReduceBuckets(batch, qi, perBucket)
	x.close(spanReduce, k, id, parent, start)
	return out, err
}

// tracedHandler times a shard's request handling. Its connection stores
// the id of the exchange in progress, the handle span's parent.
type tracedHandler struct {
	inner    transport.Handler
	tr       *tracer
	trace    int
	exchange uint64
}

func (h *tracedHandler) Handle(req wire.Msg) (wire.Msg, error) {
	start := h.tr.now()
	reply, err := h.inner.Handle(req)
	h.tr.record(spanHandle, h.trace, 0, h.exchange, start)
	return reply, err
}

// tracedTransport wraps the loopback transport's connections.
type tracedTransport struct {
	inner    transport.Transport
	handlers []*tracedHandler
	tr       *tracer
}

func (t *tracedTransport) Shards() int  { return t.inner.Shards() }
func (t *tracedTransport) Close() error { return t.inner.Close() }

func (t *tracedTransport) Dial(shard int) (transport.Conn, error) {
	c, err := t.inner.Dial(shard)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, h: t.handlers[shard], tr: t.tr}, nil
}

// tracedConn times exchanges. The loopback connection serialises
// exchanges anyway; holding mu across the whole exchange moves that queue
// in front of the span, recorded as transport.wait, and makes the shard
// handler's parent unambiguous.
type tracedConn struct {
	mu    sync.Mutex
	inner transport.Conn
	h     *tracedHandler
	tr    *tracer
}

func (c *tracedConn) Exchange(req wire.Msg) (wire.Msg, error) {
	trace, parent := setupTrace, uint64(0)
	if k, ok := taskKey(req); ok {
		trace = k.batch
		c.tr.mu.Lock()
		parent = c.tr.distIDs[k]
		c.tr.mu.Unlock()
	}
	waitStart := c.tr.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tr.record(spanWait, trace, 0, parent, waitStart)

	c.tr.mu.Lock()
	id := c.tr.id()
	c.tr.mu.Unlock()
	c.h.trace, c.h.exchange = trace, id
	start := c.tr.now()
	reply, err := c.inner.Exchange(req)
	c.tr.record(spanExchange, trace, id, parent, start)

	sizeStart := c.tr.now()
	n := frameLen(req)
	if err == nil {
		n += frameLen(reply)
	}
	c.tr.record(spanWireSize, trace, 0, parent, sizeStart)
	c.tr.mu.Lock()
	c.tr.bytes[trace] += int64(n)
	c.tr.mu.Unlock()
	return reply, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

func frameLen(m wire.Msg) int {
	b, err := wire.Marshal(m)
	if err != nil {
		return 0
	}
	return len(b)
}

// taskKey identifies the executor call a task frame belongs to.
func taskKey(m wire.Msg) (distKey, bool) {
	switch t := m.(type) {
	case *wire.MapTask:
		return distKey{batch: t.Batch, query: t.Query}, true
	case *wire.MapTaskCols:
		return distKey{batch: t.Batch, query: t.Query}, true
	case *wire.ReduceTask:
		return distKey{batch: t.Batch, query: t.Query, reduce: true}, true
	}
	return distKey{}, false
}
