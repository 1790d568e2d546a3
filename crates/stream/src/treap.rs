//! An order-augmented treap over weighted real keys — the data structure
//! behind the incremental KS test (after dos Reis et al., *Fast
//! unsupervised online drift detection using incremental
//! Kolmogorov-Smirnov test*, KDD 2016, which the MOCHE paper cites as the
//! deployment context for failed-KS-test explanations).
//!
//! Each **distinct value** is one node carrying the *aggregated* integer
//! weight of every observation at that value (ties must collapse into one
//! node: the KS statistic evaluates ECDFs after absorbing all ties at a
//! value, so a prefix boundary between two tied observations would
//! overstate the deviation). The treap maintains, per subtree, the total
//! weight and the maximum/minimum prefix sum over the in-order traversal.
//!
//! With reference observations weighted `+m` and test observations
//! weighted `-n`, the prefix sum at value `x` equals
//! `n·m·(F_R(x) - F_T(x))`, so the KS statistic is
//! `max(max_prefix, -min_prefix) / (n·m)` — readable at the root in `O(1)`
//! after `O(log N)` expected-time weight updates.

/// Node arena index.
type Idx = u32;
const NIL: Idx = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    value: f64,
    /// Aggregated weight of all observations at this value.
    weight: i64,
    /// Number of live observations at this value (node is freed at 0).
    elems: u32,
    priority: u64,
    left: Idx,
    right: Idx,
    // Subtree aggregates over the in-order sequence of weights.
    sum: i64,
    max_prefix: i64, // maximum over non-empty prefixes
    min_prefix: i64, // minimum over non-empty prefixes
    count: u32,      // number of nodes (distinct values) in the subtree
}

/// A weighted treap keyed by distinct `f64` values, with prefix-sum
/// aggregates.
#[derive(Debug, Clone, Default)]
pub struct WeightedTreap {
    nodes: Vec<Node>,
    free: Vec<Idx>,
    root: Idx,
    rng_state: u64,
}

impl WeightedTreap {
    /// Creates an empty treap. `seed` randomizes priorities.
    pub fn new(seed: u64) -> Self {
        Self { nodes: Vec::new(), free: Vec::new(), root: NIL, rng_state: seed | 1 }
    }

    /// Removes every value, keeping the node arena's allocation for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
    }

    /// Number of distinct values stored.
    pub fn distinct_values(&self) -> usize {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].count as usize
        }
    }

    /// Whether the treap is empty.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Total weight of all elements.
    pub fn total_weight(&self) -> i64 {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].sum
        }
    }

    /// Maximum prefix sum over the sorted distinct values (including the
    /// empty prefix, so never negative).
    pub fn max_prefix(&self) -> i64 {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].max_prefix.max(0)
        }
    }

    /// Minimum prefix sum (including the empty prefix, so never positive).
    pub fn min_prefix(&self) -> i64 {
        if self.root == NIL {
            0
        } else {
            self.nodes[self.root as usize].min_prefix.min(0)
        }
    }

    /// The largest absolute prefix sum — `n·m·D` under the KS weighting.
    pub fn max_abs_prefix(&self) -> i64 {
        self.max_prefix().max(-self.min_prefix())
    }

    fn next_priority(&mut self) -> u64 {
        // SplitMix64.
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn alloc(&mut self, value: f64, weight: i64, elems: u32) -> Idx {
        let priority = self.next_priority();
        let node = Node {
            value,
            weight,
            elems,
            priority,
            left: NIL,
            right: NIL,
            sum: weight,
            max_prefix: weight,
            min_prefix: weight,
            count: 1,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as Idx
        }
    }

    fn pull(&mut self, idx: Idx) {
        let (l, r) = {
            let n = &self.nodes[idx as usize];
            (n.left, n.right)
        };
        let (lsum, lmax, lmin, lcnt) = if l == NIL {
            (0, i64::MIN, i64::MAX, 0)
        } else {
            let ln = &self.nodes[l as usize];
            (ln.sum, ln.max_prefix, ln.min_prefix, ln.count)
        };
        let (rsum, rmax, rmin, rcnt) = if r == NIL {
            (0, i64::MIN, i64::MAX, 0)
        } else {
            let rn = &self.nodes[r as usize];
            (rn.sum, rn.max_prefix, rn.min_prefix, rn.count)
        };
        let w = self.nodes[idx as usize].weight;
        let here = lsum + w; // prefix ending at this node
        let mut maxp = here;
        if lmax != i64::MIN {
            maxp = maxp.max(lmax);
        }
        if rmax != i64::MIN {
            maxp = maxp.max(here + rmax);
        }
        let mut minp = here;
        if lmin != i64::MAX {
            minp = minp.min(lmin);
        }
        if rmin != i64::MAX {
            minp = minp.min(here + rmin);
        }
        let n = &mut self.nodes[idx as usize];
        n.sum = lsum + w + rsum;
        n.max_prefix = maxp;
        n.min_prefix = minp;
        n.count = lcnt + 1 + rcnt;
    }

    /// Splits `t` into (< value, >= value).
    fn split_lt(&mut self, t: Idx, value: f64) -> (Idx, Idx) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].value.total_cmp(&value) == std::cmp::Ordering::Less {
            let right = self.nodes[t as usize].right;
            let (a, b) = self.split_lt(right, value);
            self.nodes[t as usize].right = a;
            self.pull(t);
            (t, b)
        } else {
            let left = self.nodes[t as usize].left;
            let (a, b) = self.split_lt(left, value);
            self.nodes[t as usize].left = b;
            self.pull(t);
            (a, t)
        }
    }

    /// Splits `t` into (<= value, > value).
    fn split_le(&mut self, t: Idx, value: f64) -> (Idx, Idx) {
        if t == NIL {
            return (NIL, NIL);
        }
        if self.nodes[t as usize].value.total_cmp(&value) != std::cmp::Ordering::Greater {
            let right = self.nodes[t as usize].right;
            let (a, b) = self.split_le(right, value);
            self.nodes[t as usize].right = a;
            self.pull(t);
            (t, b)
        } else {
            let left = self.nodes[t as usize].left;
            let (a, b) = self.split_le(left, value);
            self.nodes[t as usize].left = b;
            self.pull(t);
            (a, t)
        }
    }

    fn merge(&mut self, a: Idx, b: Idx) -> Idx {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].priority >= self.nodes[b as usize].priority {
            let ar = self.nodes[a as usize].right;
            let merged = self.merge(ar, b);
            self.nodes[a as usize].right = merged;
            self.pull(a);
            a
        } else {
            let bl = self.nodes[b as usize].left;
            let merged = self.merge(a, bl);
            self.nodes[b as usize].left = merged;
            self.pull(b);
            b
        }
    }

    /// Applies a weight/element-count delta at `value`, creating the node
    /// on first use and freeing it when its element count returns to zero.
    /// `-0.0` and `0.0` are the same key: they tie in an ECDF.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values, or if the element count would go
    /// negative (removing something never added).
    pub fn update(&mut self, value: f64, weight_delta: i64, elems_delta: i32) {
        assert!(value.is_finite(), "treap keys must be finite");
        let value = value + 0.0; // -0.0 + 0.0 == +0.0
        let root = self.root;
        let (a, bc) = self.split_lt(root, value);
        let (b, c) = self.split_le(bc, value);
        let b = if b == NIL {
            assert!(elems_delta > 0, "removing from a value that has no observations");
            self.alloc(value, weight_delta, elems_delta as u32)
        } else {
            debug_assert_eq!(self.nodes[b as usize].count, 1, "split isolated one value");
            let node = &mut self.nodes[b as usize];
            node.weight += weight_delta;
            let elems = node.elems as i64 + elems_delta as i64;
            assert!(elems >= 0, "element count underflow at value {value}");
            if elems == 0 {
                self.free.push(b);
                NIL
            } else {
                node.elems = elems as u32;
                self.pull(b);
                b
            }
        };
        let left = self.merge(a, b);
        self.root = self.merge(left, c);
    }

    /// In-order `(value, weight, elems)` triples (for tests and debugging).
    pub fn to_sorted_vec(&self) -> Vec<(f64, i64, u32)> {
        let mut out = Vec::with_capacity(self.distinct_values());
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            // lint:allow(panic): the outer loop condition (`cur != NIL ||
            // !stack.is_empty()`) plus the descent loop guarantee a frame
            let idx = stack.pop().unwrap();
            let n = &self.nodes[idx as usize];
            out.push((n.value, n.weight, n.elems));
            cur = n.right;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Oracle over a value -> (weight, elems) map.
    fn oracle(map: &BTreeMap<u64, (i64, i64)>) -> (i64, i64, i64) {
        let mut acc = 0i64;
        let mut maxp = 0i64;
        let mut minp = 0i64;
        let mut sum = 0i64;
        for &(w, _) in map.values() {
            acc += w;
            sum += w;
            maxp = maxp.max(acc);
            minp = minp.min(acc);
        }
        (sum, maxp, minp)
    }

    fn check(t: &WeightedTreap, map: &BTreeMap<u64, (i64, i64)>, ctx: &str) {
        let (sum, maxp, minp) = oracle(map);
        assert_eq!(t.total_weight(), sum, "{ctx}: sum");
        assert_eq!(t.max_prefix(), maxp, "{ctx}: max prefix");
        assert_eq!(t.min_prefix(), minp, "{ctx}: min prefix");
        assert_eq!(t.distinct_values(), map.len(), "{ctx}: distinct");
    }

    #[test]
    fn aggregates_match_oracle_under_mixed_updates() {
        let mut t = WeightedTreap::new(1);
        let mut map: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
        // Deterministic pseudo-random op sequence.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..500 {
            let value = (next() % 40) as f64 * 0.25;
            let bits = value.to_bits();
            let entry = map.entry(bits).or_insert((0, 0));
            let removing = entry.1 > 0 && next() % 3 == 0;
            if removing {
                let w = if next() % 2 == 0 { 7 } else { -5 };
                t.update(value, -w, -1);
                entry.0 -= w;
                entry.1 -= 1;
            } else {
                let w = if next() % 2 == 0 { 7 } else { -5 };
                t.update(value, w, 1);
                entry.0 += w;
                entry.1 += 1;
            }
            if entry.1 == 0 {
                map.remove(&bits);
            }
            check(&t, &map, &format!("step {step}"));
        }
    }

    #[test]
    fn ties_collapse_into_one_node() {
        let mut t = WeightedTreap::new(2);
        // +5 and -3 at the same value: one node of weight 2, so the prefix
        // never exposes the intermediate +5.
        t.update(1.0, 5, 1);
        t.update(1.0, -3, 1);
        assert_eq!(t.distinct_values(), 1);
        assert_eq!(t.max_prefix(), 2);
        assert_eq!(t.min_prefix(), 0);
    }

    #[test]
    fn node_freed_when_elems_reach_zero() {
        let mut t = WeightedTreap::new(3);
        t.update(4.0, 10, 1);
        t.update(4.0, 10, 1);
        assert_eq!(t.distinct_values(), 1);
        t.update(4.0, -10, -1);
        assert_eq!(t.distinct_values(), 1);
        t.update(4.0, -10, -1);
        assert!(t.is_empty());
        // The freed slot is reused.
        t.update(5.0, 1, 1);
        assert_eq!(t.nodes.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn removing_unknown_value_panics() {
        let mut t = WeightedTreap::new(4);
        t.update(1.0, -5, -1);
    }

    #[test]
    fn empty_treap_prefixes_are_zero() {
        let t = WeightedTreap::new(5);
        assert_eq!(t.max_prefix(), 0);
        assert_eq!(t.min_prefix(), 0);
        assert_eq!(t.max_abs_prefix(), 0);
        assert_eq!(t.total_weight(), 0);
    }

    #[test]
    fn sorted_vec_is_sorted_and_deduplicated() {
        let mut t = WeightedTreap::new(6);
        for i in 0..60u64 {
            t.update(((i * 29) % 17) as f64, 1, 1);
        }
        let v = t.to_sorted_vec();
        assert_eq!(v.len(), 17);
        for w in v.windows(2) {
            assert!(w[0].0 < w[1].0, "{w:?} out of order");
        }
        let total_elems: u32 = v.iter().map(|&(_, _, e)| e).sum();
        assert_eq!(total_elems, 60);
    }

    #[test]
    fn negative_and_positive_weights() {
        let mut t = WeightedTreap::new(8);
        t.update(1.0, -5, 1);
        t.update(2.0, 0, 1);
        t.update(3.0, 5, 1);
        assert_eq!(t.total_weight(), 0);
        assert_eq!(t.min_prefix(), -5);
        assert_eq!(t.max_prefix(), 0);
        assert_eq!(t.max_abs_prefix(), 5);
    }

    #[test]
    fn large_insert_remove_cycle_keeps_arena_bounded() {
        let mut t = WeightedTreap::new(9);
        for round in 0..5 {
            for i in 0..200u64 {
                t.update(i as f64, 3, 1);
            }
            for i in 0..200u64 {
                t.update(i as f64, -3, -1);
            }
            assert!(t.is_empty(), "round {round}");
        }
        assert!(t.nodes.len() <= 200, "arena grew to {}", t.nodes.len());
    }
}
