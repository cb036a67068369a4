//! Collection strategies: `vec` and `btree_map`.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Strategy for `Vec<T>` with a length drawn from `size`.
pub struct VecStrategy<S> {
    elem: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
        let n = if self.size.start + 1 >= self.size.end {
            self.size.start
        } else {
            rng.usize_in(self.size.start, self.size.end)
        };
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.elem.sample(rng)?);
        }
        Some(out)
    }
}

/// Generates a `Vec` whose elements come from `elem` and whose length is
/// drawn uniformly from `size`.
pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { elem, size }
}

/// Strategy for `BTreeMap<K, V>` with a target size drawn from `size`.
pub struct BTreeMapStrategy<K, V> {
    keys: K,
    values: V,
    size: Range<usize>,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;

    fn sample(&self, rng: &mut TestRng) -> Option<BTreeMap<K::Value, V::Value>> {
        let n = if self.size.start + 1 >= self.size.end {
            self.size.start
        } else {
            rng.usize_in(self.size.start, self.size.end)
        };
        let mut out = BTreeMap::new();
        // Key collisions shrink the map below its target; bounded extra
        // attempts get close without risking non-termination on tiny key
        // spaces.
        let mut attempts = n * 4 + 8;
        while out.len() < n && attempts > 0 {
            attempts -= 1;
            let k = self.keys.sample(rng)?;
            let v = self.values.sample(rng)?;
            out.insert(k, v);
        }
        Some(out)
    }
}

/// Generates a `BTreeMap` from key and value strategies with a size
/// drawn uniformly from `size` (possibly smaller on key collisions).
pub fn btree_map<K, V>(keys: K, values: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    V: Strategy,
    K::Value: Ord,
{
    BTreeMapStrategy { keys, values, size }
}

#[cfg(test)]
mod tests {
    use pcsi_sim::DetRng;

    use super::*;
    use crate::strategy::any;

    #[test]
    fn vec_respects_size_range() {
        let strat = vec(any::<u8>(), 3..7);
        for seed in 0..50 {
            let v = strat.sample(&mut TestRng(DetRng::seeded(seed))).unwrap();
            assert!((3..7).contains(&v.len()), "len {}", v.len());
        }
    }

    #[test]
    fn empty_range_start_is_used() {
        let strat = vec(any::<u8>(), 0..1);
        let v = strat.sample(&mut TestRng(DetRng::seeded(1))).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn btree_map_hits_target_size_with_wide_keyspace() {
        let strat = btree_map(any::<u64>(), any::<bool>(), 5..6);
        for seed in 0..20 {
            let m = strat.sample(&mut TestRng(DetRng::seeded(seed))).unwrap();
            assert_eq!(m.len(), 5);
        }
    }
}
