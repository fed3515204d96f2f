//! Unsorted array set — the "(array)" variant of the paper's evaluation.
//!
//! Elements live in a flat `Vec` in arbitrary order. Insertion is an O(1)
//! push with no per-element allocation; queries and removals scan. With
//! sets capped at `2 * targetLen` (≈ 100–150) elements the scans are a few
//! cache lines, which is why the paper finds this variant has the best
//! single-thread latency (§4.5.1: "the absence of pointer chasing makes
//! swap-set management fast").

use super::NodeSet;

/// A multiset as an unsorted vector.
pub struct ArraySet<V> {
    items: Vec<(u64, V)>,
}

impl<V> Default for ArraySet<V> {
    fn default() -> Self {
        Self { items: Vec::new() }
    }
}

impl<V> ArraySet<V> {
    fn max_index(&self) -> Option<usize> {
        self.items
            .iter()
            .enumerate()
            .max_by_key(|(_, (k, _))| *k)
            .map(|(i, _)| i)
    }

    fn min_index(&self) -> Option<usize> {
        self.items
            .iter()
            .enumerate()
            .min_by_key(|(_, (k, _))| *k)
            .map(|(i, _)| i)
    }
}

impl<V: Send> NodeSet<V> for ArraySet<V> {
    const KIND: &'static str = "array";

    #[inline]
    fn len(&self) -> usize {
        self.items.len()
    }

    fn max_key(&self) -> Option<u64> {
        self.items.iter().map(|&(k, _)| k).max()
    }

    fn min_key(&self) -> Option<u64> {
        self.items.iter().map(|&(k, _)| k).min()
    }

    #[inline]
    fn insert(&mut self, prio: u64, value: V) {
        self.items.push((prio, value));
    }

    fn remove_max(&mut self) -> Option<(u64, V)> {
        let i = self.max_index()?;
        Some(self.items.swap_remove(i))
    }

    fn remove_min(&mut self) -> Option<(u64, V)> {
        let i = self.min_index()?;
        Some(self.items.swap_remove(i))
    }

    fn drain_top(&mut self, n: usize, out: &mut Vec<(u64, V)>) {
        let take = n.min(self.items.len());
        if take == 0 {
            return;
        }
        // One partial ordering pass beats `take` independent scans: move
        // the `take` largest to the tail, then sort just that tail.
        let split = self.items.len() - take;
        if split > 0 {
            self.items
                .select_nth_unstable_by_key(split - 1, |&(k, _)| k);
        }
        let mut tail = self.items.split_off(split);
        tail.sort_unstable_by_key(|&(k, _)| k);
        out.extend(tail);
    }

    fn split_lower_half(&mut self) -> Vec<(u64, V)> {
        let remove = self.items.len() / 2;
        if remove == 0 {
            return Vec::new();
        }
        // Partition so the `remove` smallest occupy the head, then split.
        self.items
            .select_nth_unstable_by_key(remove - 1, |&(k, _)| k);
        let upper = self.items.split_off(remove);
        std::mem::replace(&mut self.items, upper)
    }

    fn drain_all(&mut self, out: &mut Vec<(u64, V)>) {
        out.append(&mut self.items);
    }
}

impl<V> std::fmt::Debug for ArraySet<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: Vec<u64> = self.items.iter().map(|&(k, _)| k).collect();
        f.debug_struct("ArraySet").field("keys", &keys).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_is_push() {
        let mut s = ArraySet::default();
        s.insert(3, "c");
        s.insert(1, "a");
        s.insert(2, "b");
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_key(), Some(3));
        assert_eq!(s.min_key(), Some(1));
    }

    #[test]
    fn drain_top_with_ties() {
        let mut s = ArraySet::default();
        for (k, v) in [(5u64, 0u64), (5, 1), (3, 2), (5, 3), (1, 4)] {
            s.insert(k, v);
        }
        let mut out = Vec::new();
        s.drain_top(3, &mut out);
        // The three largest are the three 5s, ascending order trivially.
        assert!(out.iter().all(|&(k, _)| k == 5));
        assert_eq!(s.max_key(), Some(3));
    }

    #[test]
    fn split_lower_half_partitions() {
        let mut s = ArraySet::default();
        for k in [9u64, 1, 8, 2, 7, 3] {
            s.insert(k, k);
        }
        let lower = s.split_lower_half();
        let mut low: Vec<u64> = lower.iter().map(|&(k, _)| k).collect();
        low.sort_unstable();
        assert_eq!(low, vec![1, 2, 3]);
        assert_eq!(s.min_key(), Some(7));
    }
}
