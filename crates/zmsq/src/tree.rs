//! The level-indexed binary tree (§3.1).
//!
//! "In practice, the ZMSQ nodes field is an array of arrays of TNodes. In
//! nodes, the sub-array at position i stores 2^i TNodes. This
//! representation of a binary tree allows binary searches along the path
//! from any node to the root."
//!
//! Level arrays are allocated lazily (under a growth lock) and **never
//! freed until the queue drops**, so optimistic traversals need no memory
//! protection for tree nodes — the paper's hazard pointers are only needed
//! for the extraction pool, which *is* replaced dynamically.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use zmsq_sync::{RawTryLock, TatasLock};

use crate::set::NodeSet;
use crate::tnode::TNode;

/// Maximum tree depth. Level `MAX_LEVELS - 1` alone holds 2^25 nodes; with
/// any realistic `target_len` that is far beyond available memory before
/// it is ever reached.
pub(crate) const MAX_LEVELS: usize = 26;

/// Position of a node: `(level, slot)` with `slot < 2^level`.
pub(crate) type Pos = (usize, usize);

/// The array-of-arrays tree spine.
pub(crate) struct Tree<V, S, L> {
    levels: [AtomicPtr<TNode<V, S, L>>; MAX_LEVELS],
    leaf_level: AtomicUsize,
    grow_lock: TatasLock,
}

impl<V: Send, S: NodeSet<V>, L: RawTryLock> Tree<V, S, L> {
    /// Create a tree with levels `0..=initial_leaf` allocated.
    pub fn new(initial_leaf: usize) -> Self {
        assert!(initial_leaf < MAX_LEVELS);
        let tree = Self {
            levels: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            leaf_level: AtomicUsize::new(initial_leaf),
            grow_lock: TatasLock::default(),
        };
        for level in 0..=initial_leaf {
            tree.levels[level].store(Self::alloc_level(level), Ordering::Relaxed);
        }
        tree
    }

    fn alloc_level(level: usize) -> *mut TNode<V, S, L> {
        let n = 1usize << level;
        let mut nodes: Vec<TNode<V, S, L>> = Vec::with_capacity(n);
        nodes.resize_with(n, TNode::new);
        // Box<[T]> -> thin pointer to the first element; the length (2^level)
        // is implicit in the level index and restored in Drop.
        Box::into_raw(nodes.into_boxed_slice()).cast()
    }

    /// Current deepest allocated level.
    #[inline]
    pub fn leaf_level(&self) -> usize {
        self.leaf_level.load(Ordering::Acquire)
    }

    /// Borrow the node at `pos`. The level must be allocated, which holds
    /// for any level `<=` a previously observed `leaf_level()` (the
    /// level-pointer store happens-before the `leaf_level` bump).
    #[inline]
    pub fn node(&self, pos: Pos) -> &TNode<V, S, L> {
        let (level, slot) = pos;
        debug_assert!(level < MAX_LEVELS && slot < (1 << level));
        let base = self.levels[level].load(Ordering::Acquire);
        debug_assert!(!base.is_null(), "level {level} not allocated");
        // SAFETY: level arrays are allocated before becoming reachable,
        // never freed until Drop, and `slot` is in bounds.
        unsafe { &*base.add(slot) }
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> &TNode<V, S, L> {
        self.node((0, 0))
    }

    /// Parent position. Panics on the root in debug builds.
    #[inline]
    pub fn parent(pos: Pos) -> Pos {
        debug_assert!(pos.0 > 0);
        (pos.0 - 1, pos.1 / 2)
    }

    /// Children positions (which may be beyond the leaf level).
    #[inline]
    pub fn children(pos: Pos) -> (Pos, Pos) {
        ((pos.0 + 1, pos.1 * 2), (pos.0 + 1, pos.1 * 2 + 1))
    }

    /// Slot of the ancestor of `pos` at `level` (on the root path).
    #[inline]
    pub fn ancestor_slot(pos: Pos, level: usize) -> usize {
        debug_assert!(level <= pos.0);
        pos.1 >> (pos.0 - level)
    }

    /// Grow the tree by one level if `observed_leaf` is still current.
    /// Returns the (possibly already larger) new leaf level. Saturates at
    /// [`MAX_LEVELS`]`- 1` — callers must tolerate no progress (sets then
    /// simply exceed their target size; a quality loss, not an error).
    pub fn grow(&self, observed_leaf: usize) -> usize {
        let _g = self.grow_lock.guard();
        let cur = self.leaf_level.load(Ordering::Relaxed);
        if cur != observed_leaf {
            return cur; // someone else grew concurrently
        }
        let next = cur + 1;
        if next >= MAX_LEVELS {
            return cur; // saturated: 2^25 leaves already allocated
        }
        // Publish the array before the new leaf level becomes visible.
        self.levels[next].store(Self::alloc_level(next), Ordering::Release);
        self.leaf_level.store(next, Ordering::Release);
        next
    }

    /// Whether the tree can no longer deepen.
    pub fn is_saturated(&self) -> bool {
        self.leaf_level() + 1 >= MAX_LEVELS
    }

    /// Visit every allocated node (single-threaded use: drop, debug,
    /// invariant checks in tests).
    pub fn for_each_allocated(&self, mut f: impl FnMut(Pos, &TNode<V, S, L>)) {
        let leaf = self.leaf_level();
        for level in 0..=leaf {
            for slot in 0..(1usize << level) {
                f((level, slot), self.node((level, slot)));
            }
        }
    }
}

impl<V, S, L> Drop for Tree<V, S, L> {
    fn drop(&mut self) {
        for (level, ptr) in self.levels.iter_mut().enumerate() {
            let base = *ptr.get_mut();
            if base.is_null() {
                continue;
            }
            let n = 1usize << level;
            // SAFETY: `base` came from Box::into_raw of a boxed slice of
            // exactly `n` nodes; reconstructing with the same length.
            unsafe {
                drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(base, n)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{ListSet, NodeSet};
    use zmsq_sync::TatasLock;

    type T = Tree<u64, ListSet<u64>, TatasLock>;

    #[test]
    fn initial_levels_allocated() {
        let t = T::new(3);
        assert_eq!(t.leaf_level(), 3);
        for level in 0..=3 {
            for slot in 0..(1usize << level) {
                assert_eq!(t.node((level, slot)).count(), 0);
            }
        }
    }

    #[test]
    fn grow_adds_one_level() {
        let t = T::new(2);
        assert_eq!(t.grow(2), 3);
        assert_eq!(t.leaf_level(), 3);
        assert_eq!(t.node((3, 7)).count(), 0);
        // Stale observation is a no-op.
        assert_eq!(t.grow(2), 3);
        assert_eq!(t.leaf_level(), 3);
    }

    #[test]
    fn concurrent_grow_settles_on_one_level() {
        use std::sync::Arc;
        let t = Arc::new(T::new(2));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || t.grow(2)));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
        assert_eq!(t.leaf_level(), 3);
    }

    #[test]
    fn navigation_identities() {
        assert_eq!(T::parent((3, 5)), (2, 2));
        assert_eq!(T::children((2, 2)), ((3, 4), (3, 5)));
        for slot in 0..8usize {
            let (l, r) = T::children((2, slot % 4));
            assert_eq!(T::parent(l), (2, slot % 4));
            assert_eq!(T::parent(r), (2, slot % 4));
        }
        assert_eq!(T::ancestor_slot((4, 13), 0), 0);
        assert_eq!(T::ancestor_slot((4, 13), 2), 3);
        assert_eq!(T::ancestor_slot((4, 13), 4), 13);
    }

    #[test]
    fn drop_releases_elements() {
        // Tracked via a value type whose drop counts down.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        struct D(Arc<AtomicU64>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicU64::new(0));
        {
            let t: Tree<D, ListSet<D>, TatasLock> = Tree::new(2);
            let node = t.node((1, 0));
            node.lock();
            // SAFETY: lock held.
            unsafe {
                live.fetch_add(2, Ordering::SeqCst);
                node.set_mut().insert(1, D(Arc::clone(&live)));
                node.set_mut().insert(2, D(Arc::clone(&live)));
                node.refresh_cache();
            }
            node.unlock();
        }
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn for_each_visits_all() {
        let t = T::new(3);
        let mut n = 0;
        t.for_each_allocated(|_, _| n += 1);
        assert_eq!(n, 1 + 2 + 4 + 8);
    }
}
