package main

// layerMetrics derives the per-layer metrics from the spans of the
// steady-state batches (trace >= warm): per-batch means unless the name
// says otherwise. Identity, per batch: the engine stage metrics plus
// trace.instrument_ms plus engine.unattributed_ms equal engine.batch_ms.
func layerMetrics(spans []span, bytes map[int]int64, warm int, s *steady) map[string]metric {
	total := map[string]int64{}
	count := map[string]int{}
	parentName := map[uint64]string{}
	for _, sp := range spans {
		if sp.Trace >= warm {
			parentName[sp.ID] = sp.Name
		}
	}
	wireSizeInDist := map[string]int64{}
	for _, sp := range spans {
		if sp.Trace < warm {
			continue
		}
		total[sp.Name] += sp.dur()
		count[sp.Name]++
		if sp.Name == spanWireSize {
			wireSizeInDist[parentName[sp.Parent]] += sp.dur()
		}
	}
	var wireBytes int64
	for trace, n := range bytes {
		if trace >= warm {
			wireBytes += n
		}
	}

	b := float64(count[spanBatch])
	perBatchMs := func(ns int64) float64 { return float64(ns) / 1e6 / b }
	var stages int64
	for _, st := range engineStages {
		stages += total["engine."+st]
	}
	instrument := total[spanWireSize]
	partitionNs := total[spanPartition]

	meanOf := func(f func(outcome) float64) float64 { return mean(s.series(f)) }
	p95Of := func(f func(outcome) float64) float64 { return quantile(s.series(f), 0.95) }
	keys := sum(s.series(func(o outcome) float64 { return float64(o.Keys) }))

	ms := func(v float64) metric { return metric{v, "ms"} }
	return map[string]metric{
		"engine.batch_ms":         ms(perBatchMs(total[spanBatch])),
		"engine.accumulate_ms":    ms(perBatchMs(total["engine.accumulate"])),
		"engine.partition_ms":     ms(perBatchMs(total["engine.partition"])),
		"engine.process_ms":       ms(perBatchMs(total["engine.process"] - instrument)),
		"engine.recover_ms":       ms(perBatchMs(total["engine.recover"])),
		"engine.commit_ms":        ms(perBatchMs(total["engine.commit"])),
		"engine.unattributed_ms":  ms(perBatchMs(total[spanBatch] - stages)),
		"trace.instrument_ms":     ms(perBatchMs(instrument)),
		"stats.fold_ns_per_tuple": {float64(total["engine.accumulate"]) / float64(s.tuples), "ns"},
		"stats.finalize_ms":       ms(perBatchMs(total["engine.partition"] - partitionNs)),

		"partition.partition_ms": ms(perBatchMs(partitionNs)),
		"partition.ns_per_key":   {float64(partitionNs) / keys, "ns"},
		"partition.bsi_mean":     {meanOf(func(o outcome) float64 { return o.Quality.BSI }), "tuples"},
		"partition.bci_mean":     {meanOf(func(o outcome) float64 { return o.Quality.BCI }), "keys"},
		"partition.ksr_mean":     {meanOf(func(o outcome) float64 { return o.Quality.KSR }), "ratio"},

		"reducer.assign_calls_per_batch": {float64(count[spanAssign]) / b, "count"},
		"reducer.assign_busy_ms":         ms(perBatchMs(total[spanAssign])),
		"reducer.bucket_bsi_mean":        {meanOf(func(o outcome) float64 { return o.BucketBSI }), "tuples"},

		"dist.map_blocks_ms":     ms(perBatchMs(total[spanMapBlocks] - wireSizeInDist[spanMapBlocks])),
		"dist.reduce_buckets_ms": ms(perBatchMs(total[spanReduce] - wireSizeInDist[spanReduce])),
		"dist.shard_handle_ms":   ms(perBatchMs(total[spanHandle])),

		"transport.exchanges_per_batch": {float64(count[spanExchange]) / b, "count"},
		"transport.exchange_busy_ms":    ms(perBatchMs(total[spanExchange])),
		"transport.wait_ms":             ms(perBatchMs(total[spanWait])),

		"wire.codec_ms":        ms(perBatchMs(total[spanExchange] - total[spanHandle])),
		"wire.bytes_per_batch": {float64(wireBytes) / b, "B"},

		"cluster.sim_map_ms_p95":    ms(p95Of(func(o outcome) float64 { return simMs(o.MapStageTime) })),
		"cluster.sim_reduce_ms_p95": ms(p95Of(func(o outcome) float64 { return simMs(o.ReduceStageTime) })),
	}
}
