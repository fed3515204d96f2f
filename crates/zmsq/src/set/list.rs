//! Sorted singly-linked-list set — the paper's default representation.
//!
//! Nodes are kept in **descending** priority order, so `remove_max` (the
//! hot path during extraction and set swaps) is O(1) pointer surgery, at
//! the cost of an O(position) walk on insert. This mirrors the mound's
//! list-of-sorted-values and is what the unlabeled "ZMSQ" curves use.

use super::NodeSet;

struct Node<V> {
    prio: u64,
    value: V,
    next: Option<Box<Node<V>>>,
}

/// A multiset as a descending sorted singly linked list.
pub struct ListSet<V> {
    head: Option<Box<Node<V>>>,
    len: usize,
}

impl<V> Default for ListSet<V> {
    fn default() -> Self {
        Self { head: None, len: 0 }
    }
}

impl<V: Send> NodeSet<V> for ListSet<V> {
    const KIND: &'static str = "list";

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn max_key(&self) -> Option<u64> {
        self.head.as_ref().map(|n| n.prio)
    }

    fn min_key(&self) -> Option<u64> {
        let mut cur = self.head.as_deref()?;
        while let Some(next) = cur.next.as_deref() {
            cur = next;
        }
        Some(cur.prio)
    }

    fn insert(&mut self, prio: u64, value: V) {
        let mut cursor = &mut self.head;
        // Walk until the next node's priority is <= ours (descending order;
        // equal keys insert before their peers, which is irrelevant for a
        // multiset).
        while cursor.as_ref().is_some_and(|n| n.prio > prio) {
            cursor = &mut cursor.as_mut().unwrap().next;
        }
        let next = cursor.take();
        *cursor = Some(Box::new(Node { prio, value, next }));
        self.len += 1;
    }

    #[inline]
    fn remove_max(&mut self) -> Option<(u64, V)> {
        let head = self.head.take()?;
        self.head = head.next;
        self.len -= 1;
        Some((head.prio, head.value))
    }

    fn remove_min(&mut self) -> Option<(u64, V)> {
        self.head.as_ref()?;
        self.len -= 1;
        // Find the link whose node is last.
        let mut cursor = &mut self.head;
        while cursor.as_ref().unwrap().next.is_some() {
            cursor = &mut cursor.as_mut().unwrap().next;
        }
        let last = cursor.take().unwrap();
        Some((last.prio, last.value))
    }

    fn drain_top(&mut self, n: usize, out: &mut Vec<(u64, V)>) {
        let take = n.min(self.len);
        let start = out.len();
        for _ in 0..take {
            let head = self.head.take().unwrap();
            self.head = head.next;
            out.push((head.prio, head.value));
        }
        self.len -= take;
        // Heads came off in descending order; the contract is ascending.
        out[start..].reverse();
    }

    fn split_lower_half(&mut self) -> Vec<(u64, V)> {
        let remove = self.len / 2;
        if remove == 0 {
            return Vec::new();
        }
        let keep = self.len - remove;
        // Walk to the last kept node and detach its tail.
        let mut cursor = self.head.as_mut().unwrap();
        for _ in 1..keep {
            cursor = cursor.next.as_mut().unwrap();
        }
        let mut tail = cursor.next.take();
        self.len = keep;
        let mut out = Vec::with_capacity(remove);
        while let Some(node) = tail {
            out.push((node.prio, node.value));
            tail = node.next;
        }
        out
    }

    fn drain_all(&mut self, out: &mut Vec<(u64, V)>) {
        let mut cur = self.head.take();
        while let Some(node) = cur {
            out.push((node.prio, node.value));
            cur = node.next;
        }
        self.len = 0;
    }
}

impl<V> Drop for ListSet<V> {
    fn drop(&mut self) {
        // Iterative drop: the derived recursive drop would overflow the
        // stack on long lists (sets can transiently hold 2*targetLen+1
        // elements, but a defensive bound costs nothing).
        let mut cur = self.head.take();
        while let Some(mut node) = cur {
            cur = node.next.take();
        }
    }
}

impl<V> std::fmt::Debug for ListSet<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut keys = Vec::new();
        let mut cur = self.head.as_deref();
        while let Some(n) = cur {
            keys.push(n.prio);
            cur = n.next.as_deref();
        }
        f.debug_struct("ListSet").field("keys", &keys).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_descending_order() {
        let mut s = ListSet::default();
        for k in [5u64, 2, 8, 8, 1, 9] {
            s.insert(k, ());
        }
        let mut prev = u64::MAX;
        let mut cur = s.head.as_deref();
        while let Some(n) = cur {
            assert!(n.prio <= prev, "list must be descending");
            prev = n.prio;
            cur = n.next.as_deref();
        }
    }

    #[test]
    fn long_list_drop_does_not_overflow() {
        let mut s = ListSet::default();
        for k in 0..200_000u64 {
            s.insert(k, ()); // ascending inserts: each becomes the new head
        }
        drop(s);
    }

    #[test]
    fn split_preserves_order_of_kept_half() {
        let mut s = ListSet::default();
        for k in 1..=10u64 {
            s.insert(k, k);
        }
        let lower = s.split_lower_half();
        assert_eq!(lower.len(), 5);
        assert_eq!(s.remove_max(), Some((10, 10)));
        assert_eq!(s.remove_min(), Some((6, 6)));
    }
}
