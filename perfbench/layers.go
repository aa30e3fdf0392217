package main

import (
	"modissense/internal/core"
	"modissense/internal/repos"
)

// snapshot is the counter state at one boundary of the untraced half.
type snapshot struct {
	m  scrape
	t  tableCounters
	rt runtimeReading
}

func takeSnapshot(l *live) (snapshot, error) {
	m, err := readMetrics(l.c)
	if err != nil {
		return snapshot{}, err
	}
	return snapshot{m: m, t: readTable(l.p), rt: readRuntime()}, nil
}

// Per-layer timings come from the traced half's replays, in this order.
var layerTimings = []struct{ name, unit string }{
	{"core.http_us", "us"},
	{"core.handler_self_us", "us"},
	{"core.checkin_handler_self_us", "us"},
	{"core.trending_handler_self_us", "us"},
	{"social.authenticate_us", "us"},
	{"matview.cache_hit_us", "us"},
	{"matview.view_apply_us", "us"},
	{"matview.view_topk_us", "us"},
	{"query.run_us", "us"},
	{"query.self_us", "us"},
	{"exec.scatter_us", "us"},
	{"kvstore.multiscan_us", "us"},
	{"repos.decode_us_per_row", "us"},
	{"repos.store_batch_us", "us"},
	{"relstore.poi_get_us", "us"},
	{"pubsub.publish_us", "us"},
}

// layerReport turns the untraced half's counter deltas and the traced
// half's replays into the per-layer metrics.
func (r *runner) layerReport(l *live, u, t *phase, before, after snapshot, tr *tracer, replayed uint64) {
	for _, lt := range layerTimings {
		s := tr.layer[lt.name]
		if s == nil {
			s = &samples{}
		}
		m := metric{Name: lt.name, Unit: lt.unit, Value: s.quantile(0.5), N: s.n()}
		if s.n() == 0 {
			m.Note = "no replay sampled"
		}
		r.rep.layer(m)
	}
	d := func(name string) float64 { return delta(before.m, after.m, name) }
	searches := float64(u.searchOK)
	checkins := float64(u.checkinsAcked)
	count := func(name, unit string, v float64) {
		r.rep.layer(metric{Name: name, Unit: unit, Value: v, N: -1})
	}
	count("core.response_bytes", "bytes", ratio(float64(u.respBy), searches))
	count("matview.cache_hit_ratio", "ratio", ratio(d("matview_cache_hits_total"),
		d("matview_cache_hits_total")+d("matview_cache_misses_total")))
	count("matview.invalidations_per_checkin", "count", ratio(d("matview_cache_invalidations_total"), checkins))
	count("query.rows_per_result", "count", ratio(float64(u.rows), float64(u.results)))
	count("query.candidates_per_search", "count", ratio(d("query_merge_candidates_sum"), d("query_merge_candidates_count")))
	count("exec.tasks_per_search", "count", ratio(float64(u.tasks), searches))
	count("exec.useful_task_ratio", "ratio", usefulTaskRatio(l.p, u.sampled))
	count("kvstore.rows_scanned_per_search", "count", ratio(float64(u.rows), searches))
	count("kvstore.block_decodes_per_search", "count", ratio(float64(u.blocks), searches))
	count("kvstore.block_cache_hit_ratio", "ratio", ratio(d("kvstore_block_cache_hits_total"),
		d("kvstore_block_cache_hits_total")+d("kvstore_block_cache_misses_total")))
	count("kvstore.wal_syncs_per_batch", "count", ratio(d("kvstore_wal_syncs_total"), float64(u.batches)))
	count("kvstore.group_commit_cells", "count", ratio(d("kvstore_wal_group_cells_total"), d("kvstore_wal_group_commits_total")))
	count("kvstore.write_amp", "ratio", ratio(d("kvstore_bytes_flushed_total")+d("kvstore_bytes_compacted_total"),
		d("kvstore_bytes_ingested_total")))
	count("kvstore.write_stalls", "count", float64(after.t.stalls-before.t.stalls))
	count("kvstore.flushes", "count", float64(after.t.flushes-before.t.flushes))
	count("kvstore.compactions", "count", float64(after.t.compactions-before.t.compactions))
	count("kvstore.space_amp", "ratio", ratio(float64(after.t.resident), float64(after.t.logical)))
	count("kvstore.wal_replay_records", "count", float64(replayed))
	count("pubsub.matches_per_checkin", "count", ratio(d("pubsub_matches_total"), checkins))
	count("cluster.sim_events_per_search", "count", ratio(float64(u.simEvents), searches))
	count("runtime.alloc_bytes_per_op", "bytes", ratio(float64(after.rt.totalAlloc-before.rt.totalAlloc), float64(u.attempted)))
	count("runtime.gc_cpu_fraction", "ratio", ratio(after.rt.gcCPU-before.rt.gcCPU, after.rt.totalCPU-before.rt.totalCPU))
	r.rep.note("sizes at the end of the untraced half: segments %.2f MB resident, %.2f MB logical; result cache %.0f entries, %.2f MB",
		float64(after.t.resident)/1e6, float64(after.t.logical)/1e6, after.m["matview_cache_entries"], after.m["matview_cache_bytes"]/1e6)
	over := t.search.quantile(0.5) - u.search.quantile(0.5)
	r.rep.layer(metric{Name: "trace.overhead_ms", Unit: "ms", Value: over, N: t.search.n()})
	for _, kind := range []string{"search", "trending", "checkin"} {
		s := tr.layer["trace."+kind+"_coverage"]
		if s == nil {
			s = &samples{}
		}
		r.rep.layer(metric{Name: "trace." + kind + "_coverage", Unit: "ratio", Value: s.quantile(0.5), N: s.n()})
	}
	r.rep.note("untraced half: search p50 %.4g ms (n=%d); traced half: search p50 %.4g ms (n=%d); tracing overhead %.4g ms (%.3g%% of the untraced p50)",
		u.search.quantile(0.5), u.search.n(), t.search.quantile(0.5), t.search.n(), over, 100*ratio(over, u.search.quantile(0.5)))
}

// usefulTaskRatio is the share of scatter tasks that land on a region
// holding at least one of the search's friends: a search fans out one
// task per region, and a region with none of them can only scan nothing.
func usefulTaskRatio(p *core.Platform, specs []*searchSpec) float64 {
	table := p.Visits.Table()
	regions := table.NumRegions()
	useful, tasks := 0, 0
	for _, s := range specs {
		hit := map[int]bool{}
		for _, f := range s.Friends {
			hit[table.RegionFor(repos.UserKeyPrefix(f)).ID] = true
		}
		useful += len(hit)
		tasks += regions
	}
	return ratio(float64(useful), float64(tasks))
}
