//! An order-augmented treap over weighted real keys — the data structure
//! behind [`crate::IncrementalKs`], the incremental KS test for samples of
//! any sizes (after dos Reis et al., *Fast unsupervised online drift
//! detection using incremental Kolmogorov-Smirnov test*, KDD 2016, which
//! the MOCHE paper cites as the deployment context for failed-KS-test
//! explanations). The drift monitor does not use it: its paired windows
//! of equal size are kept sorted and checked lazily instead.
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
//!
//! ## One descent per update
//!
//! [`WeightedTreap::update`] walks from the root to the value's node once:
//! an existing node has its weight and element count adjusted (and is
//! unlinked by merging its two children when the count reaches zero); a
//! missing value becomes a leaf that rotates up while its priority beats
//! its parent's. Only the nodes on that path have their aggregates
//! recomputed, each once, on the way back up.
//!
//! ## Node layout
//!
//! A node is 40 bytes: the `f64` key, two `u32` child indices into one
//! arena `Vec`, and six 32-bit fields — the `i32` weight, the `u32`
//! element count and priority, and the `i32` subtree sum and prefix
//! extremes. Weights and aggregates are exact `i32`s: the caller bounds
//! them ([`crate::IncrementalKs`]'s `+m`/`-n` weights by `n·m`) and
//! rejects larger samples with a typed error. Priorities come from a SplitMix64 stream whose seed is mixed
//! with a per-process random key, so a client that knows the seed a
//! caller passes still cannot order its values into a degenerate path.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// Node arena index.
type Idx = u32;
const NIL: Idx = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    value: f64,
    left: Idx,
    right: Idx,
    /// Aggregated weight of all observations at this value.
    weight: i32,
    /// Number of live observations at this value (node is freed at 0).
    elems: u32,
    priority: u32,
    // Subtree aggregates over the in-order sequence of weights. The prefix
    // extremes include the empty prefix (so `min_prefix <= 0 <= max_prefix`),
    // which makes an absent child the all-zero aggregate.
    sum: i32,
    max_prefix: i32,
    min_prefix: i32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 40);

/// A weighted treap keyed by distinct `f64` values, with prefix-sum
/// aggregates.
#[derive(Debug, Clone)]
pub struct WeightedTreap {
    nodes: Vec<Node>,
    free: Vec<Idx>,
    root: Idx,
    /// Number of live nodes (distinct values).
    distinct: u32,
    rng_state: u64,
}

/// A random key drawn once per process and mixed into every seed.
fn process_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0x1C5B_u64))
}

impl WeightedTreap {
    /// Creates an empty treap. `seed` randomizes priorities together with
    /// a per-process random key; the shape never changes an aggregate.
    pub fn new(seed: u64) -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            distinct: 0,
            rng_state: (seed ^ process_key()) | 1,
        }
    }

    /// Removes every value, keeping the node arena's allocation for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.distinct = 0;
    }

    /// Number of distinct values stored.
    pub fn distinct_values(&self) -> usize {
        self.distinct as usize
    }

    /// Whether the treap is empty.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// `(sum, max_prefix, min_prefix)` of the subtree at `t`.
    fn aggregates(&self, t: Idx) -> (i32, i32, i32) {
        if t == NIL {
            (0, 0, 0)
        } else {
            let n = &self.nodes[t as usize];
            (n.sum, n.max_prefix, n.min_prefix)
        }
    }

    /// Total weight of all elements.
    pub fn total_weight(&self) -> i64 {
        i64::from(self.aggregates(self.root).0)
    }

    /// Maximum prefix sum over the sorted distinct values (including the
    /// empty prefix, so never negative).
    pub fn max_prefix(&self) -> i64 {
        i64::from(self.aggregates(self.root).1)
    }

    /// Minimum prefix sum (including the empty prefix, so never positive).
    pub fn min_prefix(&self) -> i64 {
        i64::from(self.aggregates(self.root).2)
    }

    /// The largest absolute prefix sum — `n·m·D` under the KS weighting.
    pub fn max_abs_prefix(&self) -> i64 {
        self.max_prefix().max(-self.min_prefix())
    }

    fn next_priority(&mut self) -> u32 {
        // SplitMix64; the high half is the priority.
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 32) as u32
    }

    fn alloc(&mut self, value: f64, weight: i32, elems: u32) -> Idx {
        let priority = self.next_priority();
        let node = Node {
            value,
            left: NIL,
            right: NIL,
            weight,
            elems,
            priority,
            sum: weight,
            max_prefix: weight.max(0),
            min_prefix: weight.min(0),
        };
        self.distinct += 1;
        if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as Idx
        }
    }

    /// Recomputes the aggregates of `idx` from its children's.
    fn pull(&mut self, idx: Idx) {
        let (l, r) = {
            let n = &self.nodes[idx as usize];
            (n.left, n.right)
        };
        let (lsum, lmax, lmin) = self.aggregates(l);
        let (rsum, rmax, rmin) = self.aggregates(r);
        let n = &mut self.nodes[idx as usize];
        let here = lsum + n.weight; // prefix ending at this node
        n.sum = here + rsum;
        n.max_prefix = lmax.max(here + rmax);
        n.min_prefix = lmin.min(here + rmin);
    }

    /// Lifts the left child of `t` above it; returns the new subtree root.
    fn rotate_right(&mut self, t: Idx) -> Idx {
        let l = self.nodes[t as usize].left;
        self.nodes[t as usize].left = self.nodes[l as usize].right;
        self.nodes[l as usize].right = t;
        self.pull(t);
        self.pull(l);
        l
    }

    /// Lifts the right child of `t` above it; returns the new subtree root.
    fn rotate_left(&mut self, t: Idx) -> Idx {
        let r = self.nodes[t as usize].right;
        self.nodes[t as usize].right = self.nodes[r as usize].left;
        self.nodes[r as usize].left = t;
        self.pull(t);
        self.pull(r);
        r
    }

    /// Joins two subtrees whose keys are all ordered `a < b`.
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
    /// One descent from the root finds the value's node. An existing node
    /// takes the deltas in place (a node whose count reaches zero is
    /// unlinked by merging its children); a new value becomes a leaf and
    /// rotates up while its priority exceeds its parent's. Each node on
    /// the path recomputes its aggregates once, on the way back up.
    ///
    /// The caller keeps every node weight and every prefix sum within
    /// `i32`.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values, or if the element count would go
    /// negative (removing something never added).
    pub fn update(&mut self, value: f64, weight_delta: i32, elems_delta: i32) {
        assert!(value.is_finite(), "treap keys must be finite");
        let value = value + 0.0; // -0.0 + 0.0 == +0.0
        self.root = self.update_in(self.root, value, weight_delta, elems_delta);
    }

    /// [`update`](Self::update) inside the subtree at `t`; returns the
    /// subtree's new root.
    fn update_in(&mut self, t: Idx, value: f64, weight_delta: i32, elems_delta: i32) -> Idx {
        if t == NIL {
            assert!(elems_delta > 0, "removing from a value that has no observations");
            return self.alloc(value, weight_delta, elems_delta as u32);
        }
        let node = &self.nodes[t as usize];
        match value.total_cmp(&node.value) {
            Ordering::Less => {
                let child = self.update_in(node.left, value, weight_delta, elems_delta);
                self.nodes[t as usize].left = child;
                // Only a new leaf can outrank its parent.
                if child != NIL && self.outranks(child, t) {
                    return self.rotate_right(t);
                }
            }
            Ordering::Greater => {
                let child = self.update_in(node.right, value, weight_delta, elems_delta);
                self.nodes[t as usize].right = child;
                if child != NIL && self.outranks(child, t) {
                    return self.rotate_left(t);
                }
            }
            Ordering::Equal => {
                let elems = i64::from(node.elems) + i64::from(elems_delta);
                assert!(elems >= 0, "element count underflow at value {value}");
                if elems == 0 {
                    let (l, r) = (node.left, node.right);
                    self.free.push(t);
                    self.distinct -= 1;
                    return self.merge(l, r);
                }
                let node = &mut self.nodes[t as usize];
                node.weight += weight_delta;
                node.elems = elems as u32;
            }
        }
        self.pull(t);
        t
    }

    fn outranks(&self, a: Idx, b: Idx) -> bool {
        self.nodes[a as usize].priority > self.nodes[b as usize].priority
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
            out.push((n.value, i64::from(n.weight), n.elems));
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
                entry.0 -= i64::from(w);
                entry.1 -= 1;
            } else {
                let w = if next() % 2 == 0 { 7 } else { -5 };
                t.update(value, w, 1);
                entry.0 += i64::from(w);
                entry.1 += 1;
            }
            if entry.1 == 0 {
                map.remove(&bits);
            }
            check(&t, &map, &format!("step {step}"));
        }
    }

    /// Depth of the deepest node (an empty treap has depth 0).
    fn depth(t: &WeightedTreap) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(t.root, 1)];
        while let Some((idx, d)) = stack.pop() {
            if idx != NIL {
                deepest = deepest.max(d);
                let n = &t.nodes[idx as usize];
                stack.extend([(n.left, d + 1), (n.right, d + 1)]);
            }
        }
        deepest
    }

    /// The seed [`crate::IncrementalKs`] hands its treap. The treap mixes
    /// it with a per-process random key, and its shape never affects a
    /// result.
    const TREAP_SEED: u64 = 0x1C5B;

    #[test]
    fn values_ordered_by_the_seeds_priorities_keep_the_depth_logarithmic() {
        // A client that knows a caller's seed can replay the SplitMix64
        // stream a treap seeded with it alone would draw, and send the
        // i-th new value with the rank of the i-th priority. Key order
        // then equals priority order, which turns an unkeyed treap into a
        // single path of depth n.
        let n = 4096usize;
        let mut state = TREAP_SEED | 1;
        let priorities: Vec<u64> = (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .collect();
        let mut by_priority: Vec<usize> = (0..n).collect();
        by_priority.sort_by_key(|&i| priorities[i]);
        let mut rank = vec![0usize; n];
        for (r, &i) in by_priority.iter().enumerate() {
            rank[i] = r;
        }
        let mut t = WeightedTreap::new(TREAP_SEED);
        for &r in &rank {
            t.update(r as f64, 1, 1);
        }
        assert_eq!(t.distinct_values(), n);
        // A random treap of 4096 keys is about 36 deep at most; a path is 4096.
        let log2 = (usize::BITS - n.leading_zeros()) as usize;
        assert!(depth(&t) <= 4 * log2, "depth {} for {n} keys", depth(&t));
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
