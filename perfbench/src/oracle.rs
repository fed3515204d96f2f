//! Exact rank oracle: a Fenwick (binary indexed) tree of live-key counts
//! over the 20-bit key space.
//!
//! The rank of an extracted key is the number of live keys strictly
//! greater than it at the moment of extraction — 0 for a strict queue.
//! Each update and query is O(log 2^20) = 20 steps, so the oracle can
//! follow millions of operations in well under a second.

/// Number of bits in a benchmark key.
pub const KEY_BITS: u32 = 20;
const SIZE: usize = 1 << KEY_BITS;

/// Live-key multiset with O(log n) rank queries.
pub struct RankOracle {
    tree: Vec<u32>,
    live: u64,
}

impl Default for RankOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl RankOracle {
    /// An empty multiset.
    pub fn new() -> Self {
        Self {
            tree: vec![0; SIZE + 1],
            live: 0,
        }
    }

    fn add(&mut self, key: u64, delta: i32) {
        assert!(key < SIZE as u64, "key {key} outside the 20-bit space");
        let mut i = key as usize + 1;
        while i <= SIZE {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Live keys `<= key`.
    fn at_most(&self, key: u64) -> u64 {
        let mut i = key as usize + 1;
        let mut sum = 0u64;
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i &= i - 1;
        }
        sum
    }

    /// Record an inserted key.
    pub fn insert(&mut self, key: u64) {
        self.add(key, 1);
        self.live += 1;
    }

    /// Record the extraction of `key` and return its rank: the number of
    /// live keys strictly greater than it. `None` if `key` is not live
    /// (the queue returned a key it does not hold).
    pub fn extract(&mut self, key: u64) -> Option<u64> {
        if key >= SIZE as u64 {
            return None;
        }
        let at_most = self.at_most(key);
        let below = if key == 0 { 0 } else { self.at_most(key - 1) };
        if at_most == below {
            return None;
        }
        self.add(key, -1);
        let rank = self.live - at_most;
        self.live -= 1;
        Some(rank)
    }

    /// Number of live keys.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// Whether no key is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::DetRng;

    #[test]
    fn matches_brute_force_on_random_trace() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut oracle = RankOracle::new();
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            // Small key range so duplicates are common.
            if live.is_empty() || rng.random_range(0..3u32) < 2 {
                let k = if rng.random_bool(0.5) {
                    rng.random_range(0..64u64)
                } else {
                    rng.next_u64() >> (64 - KEY_BITS)
                };
                oracle.insert(k);
                live.push(k);
            } else {
                let idx = rng.random_range(0..live.len());
                let k = live.swap_remove(idx);
                let brute = live.iter().filter(|&&x| x > k).count() as u64;
                assert_eq!(oracle.extract(k), Some(brute));
            }
            assert_eq!(oracle.len(), live.len() as u64);
        }
    }

    #[test]
    fn extremes_of_the_key_space() {
        let mut o = RankOracle::new();
        let max = (1u64 << KEY_BITS) - 1;
        for k in [0, max, max, 0, 5] {
            o.insert(k);
        }
        // Equal keys do not count: only strictly greater ones do.
        assert_eq!(o.extract(max), Some(0));
        assert_eq!(o.extract(0), Some(2));
        assert_eq!(o.extract(0), Some(2));
        assert_eq!(o.extract(max), Some(0));
        assert_eq!(o.extract(5), Some(0));
        assert!(o.is_empty());
    }

    #[test]
    fn extracting_a_missing_key_is_refused() {
        let mut o = RankOracle::new();
        o.insert(3);
        assert_eq!(o.extract(4), None);
        assert_eq!(o.extract(1 << KEY_BITS), None);
        assert_eq!(o.extract(3), Some(0));
        assert_eq!(o.extract(3), None);
    }
}
