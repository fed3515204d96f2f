//! The `handoff` workload: an open-loop generator inserting at a fixed
//! rate into a blocking queue that one consumer drains with
//! `extract_max_blocking`.
//!
//! Latency runs from each item's due time to its extraction, so a stall
//! also charges the items queued behind it. The generator spins to each
//! due time (a sleeping generator adds timer slack larger than the
//! handoff it measures) and records how late it inserted.
//!
//! The two threads are pinned to two different CPUs when the process may
//! use two. Unpinned, about one run in eight on a 2-vCPU host had its p90
//! latency near 1 ms instead of ~12 µs over the whole run, with less
//! consumer CPU per item: the signature of the mostly-sleeping consumer
//! being woken on the spinning generator's CPU, a placement decision of
//! the kernel rather than a property of the queue.

use std::time::Instant;

use fault::DetRng;

use crate::mixed::{next_key, stream_seed};

/// The arrival plan of one run: item `i` is due `due_ns[i]` after the
/// start and carries priority `prio[i]`.
pub struct Schedule {
    pub due_ns: Vec<u64>,
    pub prio: Vec<u64>,
    pub segments: Vec<Segment>,
}

/// A stretch of items generated at one phase's rate.
pub struct Segment {
    /// 0 for the idle phase, 1 for the busy phase.
    pub phase: usize,
    pub items: std::ops::Range<usize>,
}

/// `rounds` alternations of the idle and busy phases, `secs` in total,
/// at `rates.0` and `rates.1` items per second, evenly spaced;
/// priorities come from the seed. Alternating short segments, rather
/// than one long stretch per phase, spreads both phases over the same
/// spells of host noise.
pub fn schedule(seed: u64, rates: (f64, f64), secs: f64, rounds: usize) -> Schedule {
    let seg_secs = secs / (2 * rounds.max(1)) as f64;
    let mut due_ns = Vec::new();
    let mut segments = Vec::new();
    let mut t = 0.0;
    for _ in 0..rounds.max(1) {
        for (phase, rate) in [(0, rates.0), (1, rates.1)] {
            let start = due_ns.len();
            let n = (rate * seg_secs) as usize;
            due_ns.extend((0..n).map(|i| ((t + i as f64 / rate) * 1e9) as u64));
            segments.push(Segment {
                phase,
                items: start..due_ns.len(),
            });
            t += seg_secs;
        }
    }
    let mut rng = DetRng::seed_from_u64(stream_seed(seed, 0));
    let prio = (0..due_ns.len()).map(|_| next_key(&mut rng)).collect();
    Schedule {
        due_ns,
        prio,
        segments,
    }
}

/// What one open-loop run observed.
pub struct Outcome {
    /// Per item: due time to extraction, in ns (`u64::MAX` if it never
    /// arrived).
    pub lat_ns: Vec<u64>,
    /// Per item: how late the generator inserted it, in ns.
    pub late_ns: Vec<u64>,
    /// Items extracted more than once, or never.
    pub duplicates: u64,
    pub missing: u64,
    /// CPU time of the consumer thread only.
    pub consumer_cpu_ns: u64,
    /// Allocator calls of the process during the run.
    pub allocs: u64,
    /// Wall time from the schedule's start to the consumer's last
    /// extraction, in ns.
    pub elapsed_ns: u64,
}

/// Run `sched`: one generator calling `insert(prio, seq)`, then `close()`;
/// one consumer calling `extract()` until it returns `None`.
pub fn run<I, E, C>(sched: &Schedule, insert: I, extract: E, close: C) -> Outcome
where
    I: Fn(u64, u64) + Sync,
    E: Fn() -> Option<(u64, u64)> + Sync,
    C: Fn() + Sync,
{
    let n = sched.due_ns.len();
    let a0 = crate::alloc::process_calls();
    // A short lead lets the consumer park before the first item is due.
    let start = Instant::now() + std::time::Duration::from_millis(20);
    let ns_since_start = || start.elapsed().as_nanos() as u64;
    let (late_ns, (lat_ns, duplicates, consumer_cpu_ns, elapsed_ns)) = std::thread::scope(|s| {
        let consumer = s.spawn(|| {
            pin_to_nth_cpu(1);
            let cpu0 = crate::report::thread_cpu_ns();
            let mut lat = vec![u64::MAX; n];
            let mut dups = 0u64;
            while let Some((_, seq)) = extract() {
                let now = ns_since_start();
                let slot = &mut lat[seq as usize];
                if *slot != u64::MAX {
                    dups += 1;
                }
                *slot = now.saturating_sub(sched.due_ns[seq as usize]);
            }
            let cpu_ns = crate::report::thread_cpu_ns() - cpu0;
            (lat, dups, cpu_ns, ns_since_start())
        });
        let generator = s.spawn(|| {
            pin_to_nth_cpu(0);
            let mut late = Vec::with_capacity(n);
            for i in 0..n {
                let due = sched.due_ns[i];
                let now = loop {
                    let now = ns_since_start();
                    if now >= due {
                        break now;
                    }
                    std::hint::spin_loop();
                };
                late.push(now - due);
                insert(sched.prio[i], i as u64);
            }
            close();
            late
        });
        let late = generator.join().expect("generator panicked");
        (late, consumer.join().expect("consumer panicked"))
    });
    let missing = lat_ns.iter().filter(|&&l| l == u64::MAX).count() as u64;
    Outcome {
        lat_ns,
        late_ns,
        duplicates,
        missing,
        consumer_cpu_ns,
        allocs: crate::alloc::process_calls() - a0,
        elapsed_ns,
    }
}

/// Pin the calling thread to the `nth` CPU of those it may run on.
/// Returns false, leaving the thread unpinned, if there is no such CPU or
/// the kernel refuses.
pub fn pin_to_nth_cpu(nth: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        const WORDS: usize = 16; // 1024 CPUs
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(cpu) = (0..WORDS * 64)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .nth(nth)
        else {
            return false;
        };
        let mut only = [0u64; WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = nth;
        false
    }
}

/// Latencies in microseconds of the items in `range`, ascending.
pub fn latencies_us(out: &Outcome, range: std::ops::Range<usize>) -> Vec<f64> {
    let mut v: Vec<f64> = out.lat_ns[range]
        .iter()
        .filter(|&&l| l != u64::MAX)
        .map(|&l| l as f64 / 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use zmsq::{Zmsq, ZmsqConfig};

    #[test]
    fn every_item_arrives_once() {
        let sched = schedule(9, (2_000.0, 20_000.0), 0.1, 2);
        assert_eq!(sched.due_ns.len(), 2 * (50 + 500));
        assert!(sched.due_ns.windows(2).all(|w| w[0] < w[1]));
        let phases: Vec<usize> = sched.segments.iter().map(|s| s.phase).collect();
        assert_eq!(phases, [0, 1, 0, 1]);
        assert_eq!(sched.segments[3].items, 600..1_100);
        let q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().blocking(true));
        let out = run(
            &sched,
            |p, s| q.insert(p, s),
            || q.extract_max_blocking(),
            || q.close(),
        );
        assert_eq!((out.missing, out.duplicates), (0, 0));
        assert_eq!(out.late_ns.len(), 1_100);
        assert!(out.consumer_cpu_ns > 0);
        assert!(out.elapsed_ns >= *sched.due_ns.last().unwrap());
    }

    #[test]
    fn pinning_keeps_the_thread_runnable() {
        std::thread::spawn(|| {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert!(pin_to_nth_cpu(0));
            assert_eq!(
                std::thread::available_parallelism().map_or(0, |n| n.get()),
                1
            );
            assert!(!pin_to_nth_cpu(cpus));
        })
        .join()
        .expect("pinned thread");
    }
}
