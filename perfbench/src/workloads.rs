//! The four workloads, each with an untraced run (end-to-end metrics) and
//! a traced run (per-layer metrics).

use std::path::PathBuf;
use std::time::Instant;

use pq_traits::ConcurrentPriorityQueue;
use zmsq::{ShardedConfig, ShardedZmsq, Zmsq, ZmsqConfig};

use crate::handoff;
use crate::metrics::PER_LAYER;
use crate::mixed::{self, Digest, LoopOutcome};
use crate::report::{self, delta, discrete_quantile, median, percentile, ratio, Report};
use crate::sssp;
use crate::trace::{Call, Traced, Tracer};

/// Worker threads of the closed-loop workloads (the benchmark host has
/// two CPUs; the open-loop workload uses one generator and one consumer).
pub const THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Mixed,
    Sssp,
    Handoff,
    Sharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Mixed,
        Workload::Sssp,
        Workload::Handoff,
        Workload::Sharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mixed => "mixed",
            Workload::Sssp => "sssp",
            Workload::Handoff => "handoff",
            Workload::Sharded => "sharded",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `full` is the benchmark; `tiny` exists for the tests.
#[derive(Clone, Debug)]
pub struct Size {
    /// Keys in the queue before the closed-loop phase.
    pub prefill: usize,
    /// Closed-loop operations before the measured part, on `mixed` and
    /// on `sharded`.
    pub warmup_ops: (u64, u64),
    /// Measured closed-loop operations per `--seconds` on `mixed` and on
    /// `sharded`: about what the seed commit completes in one second on
    /// a 2-vCPU host, so a run measures for about `--seconds` there.
    pub ops_per_second: (u64, u64),
    /// Ranked operations of the single-threaded exact-rank pass (after
    /// the same warm-up as the closed loop).
    pub rank_ops: u64,
    /// Queue instances per untraced run of `mixed` and `sharded`, each
    /// set up and then driven through the warm-up and an equal share of
    /// the measured budget; `setup_s` is the median of their set-ups.
    pub setups: usize,
    /// Set-ups per run of `sssp`; its set-up is shorter, so more of them
    /// steady the median.
    pub sssp_setups: usize,
    pub graph_nodes: usize,
    pub graph_attach: usize,
    /// At least this many SSSP solves per run.
    pub min_solves: usize,
    /// `handoff` arrival rates of the idle and busy phases, items/s.
    pub rates: (f64, f64),
    /// `handoff` alternations of the two phases per run.
    pub rounds: usize,
    /// Set-ups per run of `handoff` (milliseconds each).
    pub handoff_setups: usize,
    /// Runs of the whole `handoff` schedule per untraced run.
    pub handoff_runs: usize,
}

impl Size {
    pub fn full() -> Self {
        Self {
            prefill: 262_144,
            warmup_ops: (1_000_000, 3_000_000),
            ops_per_second: (400_000, 900_000),
            rank_ops: 400_000,
            setups: 3,
            sssp_setups: 5,
            graph_nodes: 200_000,
            graph_attach: 9,
            min_solves: 3,
            rates: (20_000.0, 200_000.0),
            rounds: 10,
            handoff_setups: 15,
            handoff_runs: 3,
        }
    }

    pub fn tiny() -> Self {
        Self {
            prefill: 2_048,
            warmup_ops: (2_000, 2_000),
            ops_per_second: (20_000, 20_000),
            rank_ops: 4_000,
            setups: 3,
            sssp_setups: 3,
            graph_nodes: 3_000,
            graph_attach: 4,
            min_solves: 2,
            rates: (2_000.0, 20_000.0),
            rounds: 2,
            handoff_setups: 3,
            handoff_runs: 2,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase (per timed phase in a traced run).
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// Run one workload as `opts` says.
pub fn run(opts: &Opts) -> Report {
    let mut r = match (opts.workload, opts.trace) {
        (Workload::Mixed, false) => closed_untraced(opts, mixed_queue),
        (Workload::Sharded, false) => closed_untraced(opts, sharded_queue),
        (Workload::Mixed, true) => closed_traced(opts, mixed_queue, |_, _, _, tput, r| {
            telemetry_cost(opts, tput, r)
        }),
        (Workload::Sharded, true) => closed_traced(opts, sharded_queue, |q, b, a, _, r| {
            sharded_layers(q, b, a, r)
        }),
        (Workload::Sssp, false) => sssp_untraced(opts),
        (Workload::Sssp, true) => sssp_traced(opts),
        (Workload::Handoff, false) => handoff_untraced(opts),
        (Workload::Handoff, true) => handoff_traced(opts),
    };
    if opts.trace {
        // Layers the workload does not exercise.
        r.fill_missing(PER_LAYER);
    }
    r
}

/// `mixed`: the default queue, as `Zmsq::new()` builds it.
pub fn mixed_queue() -> Zmsq<u64> {
    Zmsq::new()
}

/// `sharded`: the README's headline tuning.
pub fn sharded_queue() -> ShardedZmsq<u64> {
    ShardedZmsq::with_tuning(
        4,
        ZmsqConfig::default().adaptive_batch(4, 64),
        ShardedConfig::new()
            .stickiness(0)
            .insert_buffer(64)
            .delete_buffer(64),
    )
}

/// `(warm-up, measured)` closed-loop operations of the workload.
fn budget(opts: &Opts) -> (u64, u64) {
    let pick = |pair: (u64, u64)| match opts.workload {
        Workload::Sharded => pair.1,
        _ => pair.0,
    };
    let ops = opts.seconds * pick(opts.size.ops_per_second) as f64;
    (pick(opts.size.warmup_ops), ops as u64)
}

/// Run the closed-loop phase of the workload: the full warm-up, then a
/// `1 / share` part of the measured budget.
fn closed_loop<Q: ConcurrentPriorityQueue<u64> + Sync>(
    q: &Q,
    opts: &Opts,
    share: usize,
) -> LoopOutcome {
    let (warmup, ops) = budget(opts);
    let run = mixed::closed_loop(q, opts.seed, THREADS, warmup, ops / share as u64);
    eprintln!(
        "  {} ops in {:.3} s; window throughput {:.0?}",
        run.ops,
        run.elapsed.as_secs_f64(),
        run.window_tput
    );
    run
}

/// Build a queue and insert the prefill; returns it with its digest and
/// the set-up time in seconds.
fn setup_closed<Q: ConcurrentPriorityQueue<u64>>(
    build: impl Fn() -> Q,
    opts: &Opts,
) -> (Q, Digest, f64) {
    let t0 = Instant::now();
    let q = build();
    let d = mixed::prefill(&q, opts.seed, opts.size.prefill);
    (q, d, t0.elapsed().as_secs_f64())
}

/// The end-to-end metrics every workload computes alike, for `ops`
/// operations of the measured part.
fn push_common(r: &mut Report, allocs: u64, ops: u64, setup_times: &[f64]) {
    r.push("allocs_per_op", ratio(allocs, ops), "count");
    r.push("peak_rss_mb", report::peak_rss_mb(), "MiB");
    r.push("setup_s", median(setup_times), "s");
}

fn check_run(
    r: &mut Report,
    q: &impl ConcurrentPriorityQueue<u64>,
    pre: Digest,
    run: &LoopOutcome,
) {
    r.attempted += run.total_ops;
    r.failed += run.failed;
    for e in mixed::check_conservation(q, pre, run) {
        r.fail(e);
    }
}

fn closed_untraced<Q>(opts: &Opts, build: fn() -> Q) -> Report
where
    Q: ConcurrentPriorityQueue<u64> + Sync,
{
    let mut r = Report::default();
    let mut setup_times = Vec::new();
    // Every set-up is measured, with an equal share of the budget: queue
    // instances differ (tree shape, memory placement), and pooling
    // several steadies the figures.
    let instances = opts.size.setups.max(1);
    let (mut ops, mut secs, mut allocs, mut cpu_ns) = (0, 0.0, 0, 0);
    for _ in 0..instances {
        let (q, pre, t) = setup_closed(build, opts);
        setup_times.push(t);
        let run = closed_loop(&q, opts, instances);
        check_run(&mut r, &q, pre, &run);
        ops += run.ops;
        secs += run.elapsed.as_secs_f64();
        allocs += run.allocs;
        cpu_ns += run.cpu_ns;
    }
    r.push("throughput_ops_s", ops as f64 / secs, "1/s");
    r.push("cpu_ns_per_op", ratio(cpu_ns, ops), "ns");
    push_common(&mut r, allocs, ops, &setup_times);
    r
}

/// `queue.rank_err_p50` and `queue.rank_err_p99` from the exact-rank
/// pass. It runs on a fresh thread, so it is the first user of the queue
/// library's per-thread random streams and repeats exactly for a given
/// seed. It is single-threaded and untimed; no timed phase touches the
/// oracle.
fn rank_errors<Q: ConcurrentPriorityQueue<u64>>(opts: &Opts, build: fn() -> Q, r: &mut Report) {
    let (ranks, failed) = std::thread::scope(|s| {
        s.spawn(|| {
            let (q, _, _) = setup_closed(build, opts);
            let t0 = Instant::now();
            let out = mixed::rank_pass(
                &q,
                opts.seed,
                opts.size.prefill,
                budget(opts).0,
                opts.size.rank_ops,
            );
            eprintln!("  rank pass: {:.3} s", t0.elapsed().as_secs_f64());
            out
        })
        .join()
        .expect("rank pass panicked")
    });
    r.attempted += budget(opts).0 + opts.size.rank_ops;
    r.failed += failed;
    r.push(
        "queue.rank_err_p50",
        discrete_quantile(&ranks, 0.50),
        "rank",
    );
    r.push(
        "queue.rank_err_p99",
        discrete_quantile(&ranks, 0.99),
        "rank",
    );
}

/// Counter snapshots of the queue and of the sync and reclamation
/// substrates, taken before and after a phase.
struct Counters {
    queue: obs::Snapshot,
    sync: obs::Snapshot,
    smr: obs::Snapshot,
}

impl Counters {
    fn take<V>(q: &impl ConcurrentPriorityQueue<V>) -> Self {
        Self {
            queue: q.metrics().unwrap_or_default(),
            sync: zmsq_sync::obs::snapshot(),
            smr: smr::obs::snapshot(),
        }
    }
}

/// Per-layer metrics common to every workload: `queue`, `set`, `pool`,
/// `sync` and `smr` from counter deltas over a phase that handled
/// `items` inserted items in `ops` queue operations, and the `queue`
/// call spans and `alloc` split of the traced phase.
fn push_layers(r: &mut Report, b: &Counters, a: &Counters, items: u64, ops: u64, tracer: &Tracer) {
    let q = |n: &str| delta(&b.queue, &a.queue, n);
    let (inserts, extracts, refills) = (
        q("zmsq.inserts"),
        q("zmsq.extracts"),
        q("zmsq.pool_refills"),
    );
    let ins = tracer.sampled_ns(Call::Insert);
    let ext = tracer.sampled_ns(Call::Extract);
    r.push("queue.insert_ns.p50", percentile(&ins, 0.50), "ns");
    r.push("queue.insert_ns.p99", percentile(&ins, 0.99), "ns");
    r.push("queue.extract_ns.p50", percentile(&ext, 0.50), "ns");
    r.push("queue.extract_ns.p99", percentile(&ext, 0.99), "ns");
    r.push(
        "queue.insert_retry_ratio",
        ratio(q("zmsq.insert_retries"), inserts),
        "ratio",
    );
    r.push(
        "queue.forced_insert_ratio",
        ratio(q("zmsq.forced_inserts"), inserts),
        "ratio",
    );
    r.push(
        "queue.root_extract_ratio",
        ratio(q("zmsq.root_extracts"), extracts),
        "ratio",
    );
    r.push(
        "queue.swap_downs_per_refill",
        ratio(q("zmsq.swap_downs"), refills),
        "count",
    );
    r.push(
        "set.min_swaps_per_insert",
        ratio(q("zmsq.min_swap_inserts"), inserts),
        "count",
    );
    r.push(
        "set.splits_per_kinsert",
        1e3 * ratio(q("zmsq.splits"), inserts),
        "count",
    );
    r.push("set.tree_grows", q("zmsq.tree_grows") as f64, "count");
    r.push(
        "pool.hit_ratio",
        ratio(q("zmsq.pool_hits"), extracts),
        "ratio",
    );
    r.push(
        "pool.refills_per_kextract",
        1e3 * ratio(refills, extracts),
        "count",
    );
    r.push(
        "pool.refill_races_per_krefill",
        1e3 * ratio(q("zmsq.refill_races"), refills),
        "count",
    );
    let s = |n: &str| delta(&b.sync, &a.sync, n);
    r.push(
        "sync.trylock_fail_ratio",
        ratio(s("trylock.failures"), s("trylock.attempts")),
        "ratio",
    );
    r.push(
        "sync.futex_waits_per_item",
        ratio(s("futex.waits"), items),
        "count",
    );
    r.push(
        "sync.futex_wakes_per_item",
        ratio(s("futex.wakes"), items),
        "count",
    );
    r.push(
        "sync.event_parks_per_item",
        ratio(s("event.parks"), items),
        "count",
    );
    r.push(
        "sync.spurious_wakeups_per_kitem",
        1e3 * ratio(s("event.spurious_wakeups"), items),
        "count",
    );
    let m = |n: &str| delta(&b.smr, &a.smr, n);
    r.push(
        "smr.retired_per_kop",
        1e3 * ratio(m("hp.retired"), ops),
        "count",
    );
    r.push(
        "smr.scans_per_kop",
        1e3 * ratio(m("hp.scans"), ops),
        "count",
    );
    r.push(
        "smr.reclaim_ratio",
        ratio(m("hp.freed"), m("hp.retired")),
        "ratio",
    );
    let (ti, te) = (tracer.totals(Call::Insert), tracer.totals(Call::Extract));
    r.push("alloc.per_insert", ratio(ti.allocs, ti.calls), "count");
    r.push("alloc.per_extract", ratio(te.allocs, te.calls), "count");
}

fn write_spans(r: &mut Report, tracer: &Tracer, opts: &Opts) {
    let path = opts.out_dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    match tracer.write_json(&path, opts.workload.name()) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => r.fail(format!("writing {}: {e}", path.display())),
    }
}

fn pct_over(base: f64, other: f64) -> f64 {
    100.0 * (other / base - 1.0)
}

/// The traced run of a closed-loop workload. `extra` adds the
/// workload's own layer metrics, given the queue, the counters around the
/// untraced phase and that phase's throughput.
fn closed_traced<Q>(
    opts: &Opts,
    build: fn() -> Q,
    extra: impl FnOnce(&Q, &Counters, &Counters, f64, &mut Report),
) -> Report
where
    Q: ConcurrentPriorityQueue<u64> + Sync,
{
    let mut r = Report::default();
    rank_errors(opts, build, &mut r);
    // Untraced phase: the counters and the reference throughput.
    let (q, pre, _) = setup_closed(build, opts);
    let before = Counters::take(&q);
    let plain = closed_loop(&q, opts, 1);
    let after = Counters::take(&q);
    check_run(&mut r, &q, pre, &plain);
    let plain_tput = throughput(&plain);
    extra(&q, &before, &after, plain_tput, &mut r);
    drop(q);
    // Traced phase on a fresh queue.
    let tracer = Tracer::new();
    let (q, pre, _) = setup_closed(build, opts);
    let traced = Traced::new(&q, &tracer, false);
    let (run, _) = tracer.root("closed_loop", || closed_loop(&traced, opts, 1));
    check_run(&mut r, &q, pre, &run);
    push_layers(&mut r, &before, &after, plain.ops / 2, plain.ops, &tracer);
    r.push(
        "trace.overhead_pct",
        pct_over(throughput(&run), plain_tput),
        "%",
    );
    write_spans(&mut r, &tracer, opts);
    r
}

fn throughput(run: &LoopOutcome) -> f64 {
    run.ops as f64 / run.elapsed.as_secs_f64()
}

/// `obs.telemetry_cost_pct`: the untraced phase again with the default-on
/// telemetry (rank estimator, sojourn tracker) switched off.
fn telemetry_cost(opts: &Opts, default_tput: f64, r: &mut Report) {
    let bare = || Zmsq::<u64>::with_config(ZmsqConfig::default().no_rank_estimator().no_sojourn());
    let (q, pre, _) = setup_closed(bare, opts);
    let off = closed_loop(&q, opts, 1);
    check_run(r, &q, pre, &off);
    r.push(
        "obs.telemetry_cost_pct",
        pct_over(default_tput, throughput(&off)),
        "%",
    );
}

fn sharded_layers(q: &ShardedZmsq<u64>, b: &Counters, a: &Counters, r: &mut Report) {
    let g = |n: &str| delta(&b.queue, &a.queue, n) as f64;
    r.push("sharded.mean_batch", q.mean_batch() as f64, "count");
    r.push("sharded.batch_widens", g("zmsq.batch.widens"), "count");
    r.push("sharded.batch_narrows", g("zmsq.batch.narrows"), "count");
}

fn sssp_setup(opts: &Opts) -> (zmsq_graph::CsrGraph, u32, Vec<f64>) {
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..opts.size.sssp_setups.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        let (g, src) = sssp::graph(opts.seed, opts.size.graph_nodes, opts.size.graph_attach);
        let q = sssp::queue();
        setup_times.push(t0.elapsed().as_secs_f64());
        drop(q);
        built = Some((g, src));
    }
    let (g, src) = built.expect("at least one set-up");
    (g, src, setup_times)
}

fn check_sssp(r: &mut Report, res: &zmsq_graph::SsspResult, want: &[u64], q: &Zmsq<u32>) {
    let pops = res.processed + res.wasted;
    r.attempted += pops;
    let wrong = res.dist.iter().zip(want).filter(|(a, b)| a != b).count() as u64;
    if wrong > 0 {
        r.failed += wrong;
        r.fail(format!("{wrong} distances differ from sequential Dijkstra"));
    }
    if q.extract_max().is_some() {
        r.fail("queue not empty after the solve".to_string());
    }
}

fn sssp_untraced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (g, src, setup_times) = sssp_setup(opts);
    let want = zmsq_graph::sequential_sssp(&g, src);
    let nodes = g.num_nodes() as u64;
    let (mut solve_s, mut cpu_per_node) = (Vec::new(), Vec::new());
    let (mut allocs, mut solved) = (0u64, 0u64);
    while solve_s.len() < opts.size.min_solves || solve_s.iter().sum::<f64>() < opts.seconds {
        let q = sssp::queue();
        let (a0, cpu0) = (crate::alloc::process_calls(), report::process_cpu_ns());
        let (res, secs) = sssp::solve(&g, src, &q, THREADS);
        let cpu_ns = report::process_cpu_ns() - cpu0;
        allocs += crate::alloc::process_calls() - a0;
        check_sssp(&mut r, &res, &want, &q);
        solved += nodes;
        solve_s.push(secs);
        cpu_per_node.push(ratio(cpu_ns, nodes));
    }
    // An operation is a node solved: throughput is nodes over the median
    // time to the exact distances.
    r.push("throughput_ops_s", nodes as f64 / median(&solve_s), "1/s");
    r.push("cpu_ns_per_op", median(&cpu_per_node), "ns");
    push_common(&mut r, allocs, solved, &setup_times);
    r
}

fn sssp_traced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (g, src, _) = sssp_setup(opts);
    let want = zmsq_graph::sequential_sssp(&g, src);
    let q = sssp::queue();
    let before = Counters::take(&q);
    let (plain, plain_s) = sssp::solve(&g, src, &q, THREADS);
    let after = Counters::take(&q);
    check_sssp(&mut r, &plain, &want, &q);
    let pops = plain.processed + plain.wasted;
    let inserts = delta(&before.queue, &after.queue, "zmsq.inserts");
    drop(q);

    let tracer = Tracer::new();
    let q = sssp::queue();
    let traced = Traced::new(&q, &tracer, false);
    let ((res, _), wall_ns) = tracer.root("graph.parallel_sssp", || {
        sssp::solve(&g, src, &traced, THREADS)
    });
    check_sssp(&mut r, &res, &want, &q);
    push_layers(&mut r, &before, &after, inserts, inserts + pops, &tracer);
    let (ti, te) = (tracer.totals(Call::Insert), tracer.totals(Call::Extract));
    // Worker time is THREADS × the parent span; the parent's self time is
    // the per-worker share of it spent outside queue calls.
    let queue_share = (ti.ns + te.ns) as f64 / (THREADS as f64 * wall_ns as f64);
    r.push("graph.queue_share", queue_share, "ratio");
    r.push(
        "graph.self_s",
        wall_ns as f64 / 1e9 * (1.0 - queue_share),
        "s",
    );
    r.push(
        "graph.empty_polls_per_pop",
        ratio(te.empty, te.calls - te.empty),
        "count",
    );
    r.push("graph.waste_ratio", res.waste_ratio(), "ratio");
    r.push(
        "graph.pops_per_node",
        ratio(pops, g.num_nodes() as u64),
        "count",
    );
    r.push(
        "trace.overhead_pct",
        pct_over(plain_s, wall_ns as f64 / 1e9),
        "%",
    );
    write_spans(&mut r, &tracer, opts);
    r
}

fn blocking_queue() -> Zmsq<u64> {
    Zmsq::with_config(ZmsqConfig::default().blocking(true))
}

/// The arrival plan, and the set-up times of building it with a queue.
fn handoff_setup(opts: &Opts) -> (handoff::Schedule, Vec<f64>) {
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..opts.size.handoff_setups.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        let q = blocking_queue();
        let sched = handoff::schedule(opts.seed, opts.size.rates, opts.seconds, opts.size.rounds);
        setup_times.push(t0.elapsed().as_secs_f64());
        drop(q);
        built = Some(sched);
    }
    (built.expect("at least one set-up"), setup_times)
}

fn handoff_run(r: &mut Report, q: &Zmsq<u64>, sched: &handoff::Schedule) -> handoff::Outcome {
    let out = handoff::run(
        sched,
        |p, s| q.insert(p, s),
        || q.extract_max_blocking(),
        || q.close(),
    );
    check_handoff(r, &out);
    out
}

fn check_handoff(r: &mut Report, out: &handoff::Outcome) {
    r.attempted += out.lat_ns.len() as u64;
    r.failed += out.missing + out.duplicates;
    if out.missing + out.duplicates > 0 {
        r.fail(format!(
            "{} items never arrived, {} arrived twice",
            out.missing, out.duplicates
        ));
    }
}

/// Per phase (idle, busy): each segment's `q` percentile latency, µs.
fn segment_percentiles(out: &handoff::Outcome, sched: &handoff::Schedule, q: f64) -> [Vec<f64>; 2] {
    let mut by_phase = [Vec::new(), Vec::new()];
    for seg in &sched.segments {
        let lat = handoff::latencies_us(out, seg.items.clone());
        by_phase[seg.phase].push(percentile(&lat, q));
    }
    by_phase
}

const PHASES: [&str; 2] = ["idle", "busy"];

fn handoff_untraced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (sched, setup_times) = handoff_setup(opts);
    // The whole schedule runs several times, each on a fresh queue:
    // host noise comes in spells of ten seconds and more.
    let (mut cpu_ns, mut allocs, mut items, mut elapsed_ns) = (0, 0, 0, 0);
    for _ in 0..opts.size.handoff_runs.max(1) {
        let q = blocking_queue();
        let out = handoff_run(&mut r, &q, &sched);
        cpu_ns += out.consumer_cpu_ns;
        allocs += out.allocs;
        items += sched.due_ns.len() as u64;
        elapsed_ns += out.elapsed_ns;
    }
    // An operation is an item handed over.
    r.push(
        "throughput_ops_s",
        items as f64 / (elapsed_ns as f64 / 1e9),
        "1/s",
    );
    r.push("cpu_ns_per_op", ratio(cpu_ns, items), "ns");
    push_common(&mut r, allocs, items, &setup_times);
    r
}

fn handoff_traced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (sched, _) = handoff_setup(opts);
    let q = blocking_queue();
    let before = Counters::take(&q);
    let plain = handoff_run(&mut r, &q, &sched);
    let after = Counters::take(&q);
    let items = sched.due_ns.len() as u64;
    drop(q);

    let tracer = Tracer::new();
    let q = blocking_queue();
    let traced = Traced::new(&q, &tracer, true);
    let (out, _) = tracer.root("handoff", || {
        handoff::run(
            &sched,
            |p, s| traced.insert(p, s),
            || traced.extract_with(|q| q.extract_max_blocking()),
            || q.close(),
        )
    });
    check_handoff(&mut r, &out);
    push_layers(&mut r, &before, &after, items, 2 * items, &tracer);
    // Each phase's p50 and p90: the median over its segments, each
    // segment's percentile, so a noisy spell moves a minority of segments
    // only; tail percentiles pool every segment of a phase.
    let (p50, p90) = (
        segment_percentiles(&plain, &sched, 0.50),
        segment_percentiles(&plain, &sched, 0.90),
    );
    for (i, phase) in PHASES.iter().enumerate() {
        r.push(&format!("handoff.{phase}.p50_us"), median(&p50[i]), "us");
        r.push(&format!("handoff.{phase}.p90_us"), median(&p90[i]), "us");
        let mut lat: Vec<f64> = sched
            .segments
            .iter()
            .filter(|seg| seg.phase == i)
            .flat_map(|seg| handoff::latencies_us(&plain, seg.items.clone()))
            .collect();
        lat.sort_by(f64::total_cmp);
        r.push(
            &format!("handoff.{phase}.p99_us"),
            percentile(&lat, 0.99),
            "us",
        );
        r.push(
            &format!("handoff.{phase}.p999_us"),
            percentile(&lat, 0.999),
            "us",
        );
        r.push(
            &format!("handoff.{phase}.samples"),
            lat.len() as f64,
            "count",
        );
    }
    let mut late: Vec<f64> = plain.late_ns.iter().map(|&l| l as f64 / 1e3).collect();
    late.sort_by(f64::total_cmp);
    r.push("gen.late_p50_us", percentile(&late, 0.50), "us");
    r.push("gen.late_max_us", late.last().copied().unwrap_or(0.0), "us");
    let busy_p50 = |o: &handoff::Outcome| median(&segment_percentiles(o, &sched, 0.5)[1]);
    r.push(
        "trace.overhead_pct",
        pct_over(busy_p50(&plain), busy_p50(&out)),
        "%",
    );
    write_spans(&mut r, &tracer, opts);
    r
}
