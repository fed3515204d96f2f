//! The conservation check can fail: a queue that silently drops one
//! insert in `N` is caught, and the same run on the real queue passes.

use std::sync::atomic::{AtomicU64, Ordering};

use perfbench::mixed::{check_conservation, closed_loop, prefill};
use pq_traits::ConcurrentPriorityQueue;
use zmsq::Zmsq;

/// Forwards to `inner`, except that every `every`-th insert is dropped.
struct Lossy<Q> {
    inner: Q,
    every: u64,
    inserts: AtomicU64,
}

impl<Q: ConcurrentPriorityQueue<u64>> ConcurrentPriorityQueue<u64> for Lossy<Q> {
    fn insert(&self, prio: u64, value: u64) {
        if !(self.inserts.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(self.every) {
            self.inner.insert(prio, value);
        }
    }

    fn extract_max(&self) -> Option<(u64, u64)> {
        self.inner.extract_max()
    }

    fn name(&self) -> String {
        format!("lossy-{}", self.inner.name())
    }
}

fn errors_with_loss(every: u64) -> Vec<String> {
    let q = Lossy {
        inner: Zmsq::<u64>::new(),
        every,
        inserts: AtomicU64::new(0),
    };
    let pre = prefill(&q, 21, 2_000);
    let run = closed_loop(&q, 21, 2, 1_000, 20_000);
    assert_eq!(run.failed, 0, "the prefill keeps the queue non-empty");
    check_conservation(&q, pre, &run)
}

#[test]
fn dropping_one_insert_in_n_fails_the_check() {
    let errors = errors_with_loss(1_000);
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].starts_with("conservation:"), "{errors:?}");
}

#[test]
fn losing_nothing_passes_the_check() {
    assert!(errors_with_loss(u64::MAX).is_empty());
}
