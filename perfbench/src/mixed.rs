//! Closed-loop alternating insert / `extract_max` workloads (`mixed` on
//! the default `Zmsq<u64>`, `sharded` on the README's tuned
//! `ShardedZmsq<u64>`), plus the single-threaded exact-rank pass.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use fault::DetRng;
use pq_traits::ConcurrentPriorityQueue;

use crate::oracle::{RankOracle, KEY_BITS};

/// Seed of the key stream number `stream` of a run seeded with `seed`.
/// Stream 0 is the prefill; stream `1 + t` is worker `t`'s inserts.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[inline]
pub fn next_key(rng: &mut DetRng) -> u64 {
    rng.next_u64() >> (64 - KEY_BITS)
}

/// Multiset digest of keys: count, wrapping sum and xor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
    pub xor: u64,
}

impl Digest {
    #[inline]
    pub fn add(&mut self, key: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(key);
        self.xor ^= key;
    }

    pub fn merge(&mut self, other: Digest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
    }
}

/// Insert the seeded prefill into `q`; returns the keys' digest.
pub fn prefill<Q: ConcurrentPriorityQueue<u64>>(q: &Q, seed: u64, n: usize) -> Digest {
    let mut rng = DetRng::seed_from_u64(stream_seed(seed, 0));
    let mut d = Digest::default();
    for _ in 0..n {
        let k = next_key(&mut rng);
        q.insert(k, k);
        d.add(k);
    }
    d
}

/// Outcome of a closed-loop phase.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Operations (inserts + extractions) in the measured part.
    pub ops: u64,
    /// Operations in the whole phase, warm-up included.
    pub total_ops: u64,
    /// Wall time of the measured part.
    pub elapsed: Duration,
    /// `extract_max` calls that returned `None` from a non-empty queue.
    pub failed: u64,
    /// Extractions whose value did not equal their priority.
    pub corrupt: u64,
    pub inserted: Digest,
    pub extracted: Digest,
    /// Allocator calls made by the process during the measured part.
    pub allocs: u64,
    /// CPU time of the process during the measured part, in ns.
    pub cpu_ns: u64,
    /// Throughput of each of the measured part's equal windows, ops/s.
    pub window_tput: Vec<f64>,
}

/// Windows the measured part is split into (for the diagnostics line).
pub const WINDOWS: usize = 10;
/// Operations a worker claims from the shared budget at a time.
const CHUNK: u64 = 256;

/// `threads` workers alternate insert and `extract_max` on `q` until
/// `warmup + ops` operations are done; the last `ops` are measured. The
/// queue holds the prefill throughout, so a `None` is a failed
/// operation.
///
/// A fixed operation budget, rather than a fixed time, makes every run
/// drive the queue through the same evolution of its tree, whatever its
/// speed. Workers claim the budget in chunks from one shared counter
/// (one atomic add per chunk); the worker whose chunk crosses a window
/// boundary stamps the time, so there is no clock read per operation.
pub fn closed_loop<Q: ConcurrentPriorityQueue<u64> + Sync>(
    q: &Q,
    seed: u64,
    threads: usize,
    warmup: u64,
    ops: u64,
) -> LoopOutcome {
    let (warmup, ops) = (warmup.next_multiple_of(CHUNK), ops.next_multiple_of(CHUNK));
    let total = warmup + ops;
    let claimed = AtomicU64::new(0);
    let epoch = Instant::now();
    // Nanoseconds since `epoch` at each window boundary (0 = not yet).
    let marks: Vec<AtomicU64> = (0..WINDOWS).map(|_| AtomicU64::new(0)).collect();
    let alloc_at_start = AtomicU64::new(0);
    let cpu_at_start = AtomicU64::new(0);
    let boundary = |k: usize| warmup + ops * k as u64 / WINDOWS as u64;
    let per_thread: Vec<(LoopOutcome, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (claimed, marks) = (&claimed, &marks);
                let (alloc_at_start, cpu_at_start) = (&alloc_at_start, &cpu_at_start);
                s.spawn(move || {
                    let mut rng = DetRng::seed_from_u64(stream_seed(seed, 1 + t as u64));
                    let mut o = LoopOutcome::default();
                    loop {
                        let c = claimed.fetch_add(CHUNK, Ordering::Relaxed);
                        if c >= total {
                            break;
                        }
                        for (k, mark) in marks.iter().enumerate() {
                            if (c..c + CHUNK).contains(&boundary(k)) {
                                if k == 0 {
                                    alloc_at_start
                                        .store(crate::alloc::process_calls(), Ordering::Relaxed);
                                    cpu_at_start
                                        .store(crate::report::process_cpu_ns(), Ordering::Relaxed);
                                }
                                mark.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            }
                        }
                        for _ in 0..CHUNK.min(total - c) / 2 {
                            let k = next_key(&mut rng);
                            q.insert(k, k);
                            o.inserted.add(k);
                            match q.extract_max() {
                                Some((p, v)) => {
                                    o.corrupt += u64::from(p != v);
                                    o.extracted.add(p);
                                }
                                None => o.failed += 1,
                            }
                        }
                    }
                    (o, epoch.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    let mut out = LoopOutcome {
        ops,
        allocs: crate::alloc::process_calls() - alloc_at_start.load(Ordering::Relaxed),
        cpu_ns: crate::report::process_cpu_ns() - cpu_at_start.load(Ordering::Relaxed),
        ..LoopOutcome::default()
    };
    let mut end_ns = 0;
    for (o, done_ns) in per_thread {
        out.total_ops += o.inserted.count + o.extracted.count + o.failed;
        out.failed += o.failed;
        out.corrupt += o.corrupt;
        out.inserted.merge(o.inserted);
        out.extracted.merge(o.extracted);
        end_ns = end_ns.max(done_ns);
    }
    let mut stamps: Vec<u64> = marks.iter().map(|m| m.load(Ordering::Relaxed)).collect();
    stamps.push(end_ns);
    out.elapsed = Duration::from_nanos(end_ns - stamps[0]);
    out.window_tput = (0..WINDOWS)
        .map(|k| {
            let n = boundary(k + 1) - boundary(k);
            n as f64 / (stamps[k + 1].saturating_sub(stamps[k]) as f64 / 1e9)
        })
        .collect();
    out
}

/// Empty `q` after a phase and check conservation: the prefill plus
/// every inserted key must equal every extracted key plus the drained
/// rest, as multisets (count, sum and xor). Returns the problems found.
pub fn check_conservation<Q: ConcurrentPriorityQueue<u64>>(
    q: &Q,
    prefill: Digest,
    run: &LoopOutcome,
) -> Vec<String> {
    let mut errors = Vec::new();
    q.flush();
    let mut drained = Digest::default();
    let mut corrupt = run.corrupt;
    while let Some((p, v)) = q.extract_max() {
        corrupt += u64::from(p != v);
        drained.add(p);
    }
    let mut put = prefill;
    put.merge(run.inserted);
    let mut got = run.extracted;
    got.merge(drained);
    if put != got {
        errors.push(format!(
            "conservation: inserted {put:?} but extracted {got:?} ({} drained)",
            drained.count
        ));
    }
    if corrupt > 0 {
        errors.push(format!(
            "{corrupt} extractions returned a value not equal to its key"
        ));
    }
    errors
}

/// Rank errors of a single-threaded pass over `q`: the same prefill, then
/// `warmup` and `ops` more operations alternating inserts (key stream 1)
/// and extractions. The oracle follows every operation and ranks the
/// extractions after the warm-up, which mirrors the measured part of
/// [`closed_loop`]. Deterministic for a given seed when it is the
/// process's first use of the queue library. Returns the ranks, sorted,
/// and the number of failed extractions: a `None`, or a key the queue
/// does not hold.
pub fn rank_pass<Q: ConcurrentPriorityQueue<u64>>(
    q: &Q,
    seed: u64,
    prefill_n: usize,
    warmup: u64,
    ops: u64,
) -> (Vec<u32>, u64) {
    let mut oracle = RankOracle::new();
    let mut rng = DetRng::seed_from_u64(stream_seed(seed, 0));
    for _ in 0..prefill_n {
        oracle.insert(next_key(&mut rng));
    }
    let mut rng = DetRng::seed_from_u64(stream_seed(seed, 1));
    let mut ranks = Vec::with_capacity(ops as usize / 2);
    let mut failed = 0;
    for i in 0..(warmup + ops) / 2 {
        let k = next_key(&mut rng);
        q.insert(k, k);
        oracle.insert(k);
        match q.extract_max() {
            Some((p, _)) => match oracle.extract(p) {
                Some(rank) if i >= warmup / 2 => ranks.push(rank as u32),
                Some(_) => {}
                None => failed += 1,
            },
            None => failed += 1,
        }
    }
    ranks.sort_unstable();
    (ranks, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmsq::Zmsq;

    #[test]
    fn strict_queue_has_zero_rank_error() {
        let q: Zmsq<u64> = Zmsq::with_config(zmsq::ZmsqConfig::strict());
        prefill(&q, 3, 500);
        let (ranks, failed) = rank_pass(&q, 3, 500, 1_000, 2_000);
        assert_eq!(failed, 0);
        assert_eq!(ranks.len(), 1_000);
        assert!(ranks.iter().all(|&r| r == 0));
    }

    #[test]
    fn closed_loop_conserves_on_a_correct_queue() {
        let q: Zmsq<u64> = Zmsq::new();
        let pre = prefill(&q, 5, 1_000);
        let run = closed_loop(&q, 5, 2, 2_000, 20_000);
        // Budgets round up to whole chunks.
        assert_eq!(run.total_ops, 2_048 + 20_224);
        assert_eq!(run.ops, 20_224);
        assert!(run.elapsed > Duration::ZERO);
        assert_eq!(run.window_tput.len(), WINDOWS);
        assert!(run.window_tput.iter().all(|&t| t > 0.0));
        assert!(run.cpu_ns > 0);
        assert_eq!(run.failed, 0);
        assert!(check_conservation(&q, pre, &run).is_empty());
    }
}
