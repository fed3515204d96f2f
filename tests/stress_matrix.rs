//! Concurrent stress across the configuration matrix: every combination
//! of set representation, lock type/strategy, reclamation mode and batch
//! size survives a mixed workload with conservation and invariants
//! intact.

use std::sync::atomic::{AtomicU64, Ordering};

use zmsq::{
    ArraySet, DequeSet, ListSet, LockStrategy, NodeSet, OsLock, RawTryLock, Reclamation, TasLock,
    TatasLock, Zmsq, ZmsqConfig,
};

fn stress<S, L>(cfg: ZmsqConfig, label: &str)
where
    S: NodeSet<u64> + 'static,
    L: RawTryLock + 'static,
{
    const THREADS: u64 = 4;
    const PER: u64 = 6_000;
    let mut q: Zmsq<u64, S, L> = Zmsq::with_config(cfg);
    let extracted = AtomicU64::new(0);
    let sum_in = AtomicU64::new(0);
    let sum_out = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = &q;
            let (extracted, sum_in, sum_out) = (&extracted, &sum_in, &sum_out);
            s.spawn(move || {
                let mut x = 0xBEEF ^ (t << 17);
                for i in 0..PER {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let v = x | 1;
                    q.insert(x % 10_000, v);
                    sum_in.fetch_add(v, Ordering::Relaxed);
                    if i % 2 == 1 {
                        if let Some((_, v)) = q.extract_max() {
                            extracted.fetch_add(1, Ordering::Relaxed);
                            sum_out.fetch_add(v, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Drain and verify conservation by sum.
    while let Some((_, v)) = q.extract_max() {
        extracted.fetch_add(1, Ordering::Relaxed);
        sum_out.fetch_add(v, Ordering::Relaxed);
    }
    assert_eq!(
        extracted.into_inner(),
        THREADS * PER,
        "{label}: element count"
    );
    assert_eq!(
        sum_in.into_inner(),
        sum_out.into_inner(),
        "{label}: checksum"
    );
    q.validate_invariants()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn matrix_list_tatas() {
    for (batch, tl) in [(0, 8), (1, 2), (8, 12), (48, 72)] {
        stress::<ListSet<u64>, TatasLock>(
            ZmsqConfig::default().batch(batch).target_len(tl),
            &format!("list/tatas b={batch} t={tl}"),
        );
    }
}

#[test]
fn matrix_array_tatas() {
    for (batch, tl) in [(0, 8), (8, 12), (48, 72)] {
        stress::<ArraySet<u64>, TatasLock>(
            ZmsqConfig::default().batch(batch).target_len(tl),
            &format!("array/tatas b={batch} t={tl}"),
        );
    }
}

#[test]
fn matrix_deque_tatas() {
    for (batch, tl) in [(0, 8), (1, 2), (8, 12), (48, 72)] {
        stress::<DequeSet<u64>, TatasLock>(
            ZmsqConfig::default().batch(batch).target_len(tl),
            &format!("deque/tatas b={batch} t={tl}"),
        );
    }
}

#[test]
fn matrix_locks() {
    stress::<ListSet<u64>, TasLock>(ZmsqConfig::default().batch(16).target_len(24), "list/tas");
    stress::<ListSet<u64>, OsLock>(
        ZmsqConfig::default()
            .batch(16)
            .target_len(24)
            .lock_strategy(LockStrategy::Blocking),
        "list/mutex-blocking",
    );
    stress::<ArraySet<u64>, OsLock>(
        ZmsqConfig::default().batch(16).target_len(24),
        "array/mutex-tryrestart",
    );
}

#[test]
fn matrix_reclamation() {
    for mode in [
        Reclamation::Hazard,
        Reclamation::ConsumerWait,
        Reclamation::Leak,
    ] {
        stress::<ListSet<u64>, TatasLock>(
            ZmsqConfig::default()
                .batch(8)
                .target_len(16)
                .reclamation(mode),
            &format!("list/tatas {mode:?}"),
        );
        stress::<ArraySet<u64>, TatasLock>(
            ZmsqConfig::default()
                .batch(8)
                .target_len(16)
                .reclamation(mode),
            &format!("array/tatas {mode:?}"),
        );
    }
}

#[test]
fn matrix_pathological_sizes() {
    // target_len = 1: maximal splitting. batch clamped to 2*target_len.
    stress::<ListSet<u64>, TatasLock>(
        ZmsqConfig::default().batch(64).target_len(1),
        "list/tiny-target",
    );
    // Huge target_len: the tree rarely deepens.
    stress::<ListSet<u64>, TatasLock>(
        ZmsqConfig::default().batch(16).target_len(512),
        "list/huge-target",
    );
}

#[test]
fn adversarial_key_patterns() {
    use workloads::keys::{KeyDist, KeyStream};
    // Decreasing keys: the mound's worst case (§3.7); increasing keys:
    // everything lands at the root and splits downward.
    for dist in [
        KeyDist::Decreasing { start: u64::MAX },
        KeyDist::Increasing,
        KeyDist::UniformBits { bits: 3 },
    ] {
        let mut q: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(16).target_len(16));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let q = &q;
                let dist = dist.clone();
                s.spawn(move || {
                    let mut ks = KeyStream::new(dist, t);
                    for i in 0..5_000 {
                        q.insert(ks.next_key(), i);
                        if i % 2 == 0 {
                            q.extract_max();
                        }
                    }
                });
            }
        });
        q.validate_invariants().unwrap();
        q.drain_count();
        assert_eq!(q.extract_max(), None);
    }
}
