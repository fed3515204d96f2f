//! The names and units of every metric the benchmark prints, as
//! `BENCHMARK.json` declares them. Every workload prints every metric of
//! the list its run reports: all of [`END_TO_END`] untraced, all of
//! [`PER_LAYER`] traced.

/// End-to-end metrics: what a user of the workload sees. Each workload
/// defines an operation (see `METRICS.md`), and the per-operation
/// metrics count that unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("cpu_ns_per_op", "ns"),
    ("allocs_per_op", "count"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer (the graph layer outside `sssp`, the generator
/// outside `handoff`, …) reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("queue.insert_ns.p50", "ns"),
    ("queue.insert_ns.p99", "ns"),
    ("queue.extract_ns.p50", "ns"),
    ("queue.extract_ns.p99", "ns"),
    ("queue.insert_retry_ratio", "ratio"),
    ("queue.forced_insert_ratio", "ratio"),
    ("queue.root_extract_ratio", "ratio"),
    ("queue.swap_downs_per_refill", "count"),
    ("queue.rank_err_p50", "rank"),
    ("queue.rank_err_p99", "rank"),
    ("set.min_swaps_per_insert", "count"),
    ("set.splits_per_kinsert", "count"),
    ("set.tree_grows", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.refills_per_kextract", "count"),
    ("pool.refill_races_per_krefill", "count"),
    ("sharded.mean_batch", "count"),
    ("sharded.batch_widens", "count"),
    ("sharded.batch_narrows", "count"),
    ("sync.trylock_fail_ratio", "ratio"),
    ("sync.futex_waits_per_item", "count"),
    ("sync.futex_wakes_per_item", "count"),
    ("sync.event_parks_per_item", "count"),
    ("sync.spurious_wakeups_per_kitem", "count"),
    ("smr.retired_per_kop", "count"),
    ("smr.scans_per_kop", "count"),
    ("smr.reclaim_ratio", "ratio"),
    ("alloc.per_insert", "count"),
    ("alloc.per_extract", "count"),
    ("obs.telemetry_cost_pct", "%"),
    ("graph.queue_share", "ratio"),
    ("graph.self_s", "s"),
    ("graph.empty_polls_per_pop", "count"),
    ("graph.waste_ratio", "ratio"),
    ("graph.pops_per_node", "count"),
    ("gen.late_p50_us", "us"),
    ("gen.late_max_us", "us"),
    ("handoff.idle.p50_us", "us"),
    ("handoff.idle.p90_us", "us"),
    ("handoff.idle.p99_us", "us"),
    ("handoff.idle.p999_us", "us"),
    ("handoff.idle.samples", "count"),
    ("handoff.busy.p50_us", "us"),
    ("handoff.busy.p90_us", "us"),
    ("handoff.busy.p99_us", "us"),
    ("handoff.busy.p999_us", "us"),
    ("handoff.busy.samples", "count"),
    ("trace.overhead_pct", "%"),
];
