//! Property-based differential tests: ZMSQ against a reference model
//! under arbitrary operation sequences.

use std::collections::BinaryHeap;

use fault::DetRng;
use zmsq::{ArraySet, DequeSet, ListSet, Reclamation, TatasLock, Zmsq, ZmsqConfig};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Extract,
}

/// Seeded op sequence: 3 insert : 2 extract, 1..400 ops, keys below
/// `max_key`.
fn random_ops(rng: &mut DetRng, max_key: u64) -> Vec<Op> {
    let len = rng.random_range(1usize..400);
    (0..len)
        .map(|_| {
            if rng.random_range(0u32..5) < 3 {
                Op::Insert(rng.random_range(0..max_key))
            } else {
                Op::Extract
            }
        })
        .collect()
}

/// 64 seeded cases; prints the failing seed/case/ops for exact replay.
fn for_each_case(seed: u64, max_key: u64, mut f: impl FnMut(&[Op])) {
    let mut rng = DetRng::seed_from_u64(seed);
    for case in 0..64 {
        let ops = random_ops(&mut rng, max_key);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&ops)));
        if let Err(e) = r {
            panic!("seed {seed:#x} case {case} ops {ops:?}: {e:?}");
        }
    }
}

/// Strict mode is a drop-in for BinaryHeap: identical results, op by op.
fn strict_matches_heap<S: zmsq::NodeSet<u64>>(ops: &[Op], target_len: usize) {
    let q: Zmsq<u64, S, TatasLock> = Zmsq::with_config(ZmsqConfig::strict().target_len(target_len));
    let mut model: BinaryHeap<u64> = BinaryHeap::new();
    for op in ops {
        match op {
            Op::Insert(k) => {
                q.insert(*k, *k);
                model.push(*k);
            }
            Op::Extract => {
                assert_eq!(q.extract_max().map(|p| p.0), model.pop());
            }
        }
    }
    // Full drain must agree too.
    loop {
        let (a, b) = (q.extract_max().map(|p| p.0), model.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

/// Relaxed mode: a multiset bisimulation — contents always equal as
/// multisets, emptiness observations exact, and extracted keys are
/// always within the current top `batch + 1` ranks of the model.
fn relaxed_respects_bound(ops: &[Op], batch: usize, target_len: usize) {
    let mut q: Zmsq<u64> =
        Zmsq::with_config(ZmsqConfig::default().batch(batch).target_len(target_len));
    let mut model: Vec<u64> = Vec::new(); // kept sorted ascending
    for op in ops {
        match op {
            Op::Insert(k) => {
                q.insert(*k, *k);
                let pos = model.partition_point(|&x| x <= *k);
                model.insert(pos, *k);
            }
            Op::Extract => match q.extract_max() {
                None => assert!(
                    model.is_empty(),
                    "queue claimed empty with {} modeled elements",
                    model.len()
                ),
                Some((k, _)) => {
                    let pos = model
                        .iter()
                        .rposition(|&x| x == k)
                        .unwrap_or_else(|| panic!("extracted key {k} not in model"));
                    let rank = model.len() - pos; // 1 = maximum
                                                  // Quiescent single-threaded bound: served from the
                                                  // pool (filled with the best batch elements at fill
                                                  // time) or the root max. Elements inserted after a
                                                  // fill can push the pool's entries down by at most
                                                  // the number of subsequent inserts; allow that slack.
                    assert!(
                        rank <= batch + 1 + ops.len(),
                        "rank {rank} way beyond relaxation bound"
                    );
                    model.remove(pos);
                }
            },
        }
    }
    assert_eq!(q.drain_count(), model.len(), "final drain count");
    q.validate_invariants().unwrap();
}

#[test]
fn strict_list_matches_binaryheap() {
    for_each_case(0xD1F_0001, 1000, |ops| {
        strict_matches_heap::<ListSet<u64>>(ops, 8)
    });
}

#[test]
fn strict_array_matches_binaryheap() {
    for_each_case(0xD1F_0002, 1000, |ops| {
        strict_matches_heap::<ArraySet<u64>>(ops, 8)
    });
}

#[test]
fn strict_deque_matches_binaryheap() {
    for_each_case(0xD1F_000A, 1000, |ops| {
        strict_matches_heap::<DequeSet<u64>>(ops, 8)
    });
}

#[test]
fn strict_with_tiny_sets() {
    // target_len = 1 forces constant splitting — the stress case for
    // the split/swap machinery.
    for_each_case(0xD1F_0003, 50, |ops| {
        strict_matches_heap::<ListSet<u64>>(ops, 1)
    });
}

#[test]
fn relaxed_small_batch() {
    for_each_case(0xD1F_0004, 1000, |ops| relaxed_respects_bound(ops, 2, 4));
}

#[test]
fn relaxed_large_batch() {
    for_each_case(0xD1F_0005, 1000, |ops| relaxed_respects_bound(ops, 32, 48));
}

#[test]
fn relaxed_duplicate_heavy() {
    // Key space of 5: nearly everything is a duplicate.
    for_each_case(0xD1F_0006, 5, |ops| relaxed_respects_bound(ops, 4, 8));
}

#[test]
fn invariants_hold_for_any_config() {
    let mut cfg_rng = DetRng::seed_from_u64(0xD1F_0007);
    for_each_case(0xD1F_0008, 200, |ops| {
        let batch = cfg_rng.random_range(0usize..16);
        let target_len = cfg_rng.random_range(1usize..20);
        let mut q: Zmsq<u64> =
            Zmsq::with_config(ZmsqConfig::default().batch(batch).target_len(target_len));
        let mut inserted = 0u64;
        let mut extracted = 0u64;
        for op in ops {
            match op {
                Op::Insert(k) => {
                    q.insert(*k, *k);
                    inserted += 1;
                }
                Op::Extract => {
                    if q.extract_max().is_some() {
                        extracted += 1;
                    }
                }
            }
        }
        assert!(
            q.validate_invariants().is_ok(),
            "batch={batch} target_len={target_len}"
        );
        assert_eq!(q.drain_count() as u64, inserted - extracted);
    });
}

#[test]
fn leak_mode_equivalent_behaviour() {
    // Leak and Hazard modes must be observably identical in
    // single-threaded runs.
    for_each_case(0xD1F_0009, 500, |ops| {
        let qa: Zmsq<u64> = Zmsq::with_config(ZmsqConfig::default().batch(4).target_len(8));
        let qb: Zmsq<u64> = Zmsq::with_config(
            ZmsqConfig::default()
                .batch(4)
                .target_len(8)
                .reclamation(Reclamation::Leak),
        );
        for op in ops {
            match op {
                Op::Insert(k) => {
                    qa.insert(*k, *k);
                    qb.insert(*k, *k);
                }
                Op::Extract => {
                    // Both queues use thread-local RNG, so exact element
                    // equality isn't guaranteed — but emptiness must agree
                    // (it is structural, not random).
                    let (a, b) = (qa.extract_max(), qb.extract_max());
                    assert_eq!(a.is_some(), b.is_some());
                }
            }
        }
        assert_eq!(qa.drain_count(), qb.drain_count());
    });
}
