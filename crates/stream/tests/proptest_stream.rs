//! Property-based tests of the streaming substrates: the incremental KS
//! statistic must equal the batch statistic after arbitrary operation
//! sequences, and the treap aggregates must match a naive oracle.

use moche_core::ks_statistic;
use moche_stream::{IncrementalKs, WeightedTreap};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    InsertRef(f64),
    InsertTest(f64),
    RemoveRef(usize),  // index into live reference handles (mod len)
    RemoveTest(usize), // index into live test handles (mod len)
    SlideTest(usize, f64),
    SlideRef(usize, f64),
    Check,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let val = (-50i32..50).prop_map(|v| f64::from(v) * 0.5);
    prop_oneof![
        val.clone().prop_map(Op::InsertRef),
        val.clone().prop_map(Op::InsertTest),
        (0usize..64).prop_map(Op::RemoveRef),
        (0usize..64).prop_map(Op::RemoveTest),
        ((0usize..64), val.clone()).prop_map(|(i, v)| Op::SlideTest(i, v)),
        ((0usize..64), val).prop_map(|(i, v)| Op::SlideRef(i, v)),
        Just(Op::Check),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_matches_batch_under_arbitrary_ops(
        ops in proptest::collection::vec(op_strategy(), 10..120),
    ) {
        let mut iks = IncrementalKs::new();
        let mut ref_items: Vec<(f64, moche_stream::ObsId)> = Vec::new();
        let mut test_items: Vec<(f64, moche_stream::ObsId)> = Vec::new();

        // Seed with a few points so checks are meaningful early.
        for i in 0..5 {
            let v = f64::from(i);
            ref_items.push((v, iks.insert_reference(v)));
            test_items.push((v + 0.5, iks.insert_test(v + 0.5)));
        }

        for op in ops {
            match op {
                Op::InsertRef(v) => ref_items.push((v, iks.insert_reference(v))),
                Op::InsertTest(v) => test_items.push((v, iks.insert_test(v))),
                Op::RemoveRef(i) => {
                    if ref_items.len() > 1 {
                        let (_, id) = ref_items.swap_remove(i % ref_items.len());
                        prop_assert!(iks.remove_reference(id));
                    }
                }
                Op::RemoveTest(i) => {
                    if test_items.len() > 1 {
                        let (_, id) = test_items.swap_remove(i % test_items.len());
                        prop_assert!(iks.remove_test(id));
                    }
                }
                Op::SlideTest(i, v) => {
                    if !test_items.is_empty() {
                        let slot = i % test_items.len();
                        let (_, old) = test_items[slot];
                        let new_id = iks.slide_test(old, v).expect("live handle");
                        test_items[slot] = (v, new_id);
                    }
                }
                Op::SlideRef(i, v) => {
                    if !ref_items.is_empty() {
                        let slot = i % ref_items.len();
                        let (_, old) = ref_items[slot];
                        let new_id = iks.slide_reference(old, v).expect("live handle");
                        ref_items[slot] = (v, new_id);
                    }
                }
                Op::Check => {}
            }
            // Verify after every op (the treap must never drift).
            let r: Vec<f64> = ref_items.iter().map(|&(v, _)| v).collect();
            let t: Vec<f64> = test_items.iter().map(|&(v, _)| v).collect();
            let inc = iks.statistic().unwrap();
            let batch = ks_statistic(&r, &t).unwrap();
            prop_assert!((inc - batch).abs() < 1e-9, "inc {} vs batch {}", inc, batch);
        }
    }

    #[test]
    fn treap_matches_oracle_under_updates(
        ops in proptest::collection::vec(((-2i32..30), (-9i32..10), 0u8..3), 1..200),
    ) {
        // Keys -2, -1 and 0 are `-0.0`, `0.0` and `0.0`: one oracle key,
        // because signed zeros tie in an ECDF.
        let mut treap = WeightedTreap::new(42);
        let mut map: BTreeMap<i32, (i64, i64)> = BTreeMap::new();
        for (key, weight, kind) in ops {
            let value = match key {
                -2 => -0.0,
                k => f64::from(k.max(0)) * 0.25,
            };
            let entry = map.entry(key.max(0)).or_insert((0, 0));
            match kind {
                1 if entry.1 > 0 => {
                    // Remove one element carrying an arbitrary weight delta; to
                    // keep the oracle consistent we remove weight `weight` too.
                    treap.update(value, -weight, -1);
                    entry.0 -= i64::from(weight);
                    entry.1 -= 1;
                }
                2 if entry.1 > 0 => {
                    // The monitor's promotion: a weight change on a live key
                    // with no element entering or leaving.
                    treap.update(value, weight, 0);
                    entry.0 += i64::from(weight);
                }
                _ => {
                    treap.update(value, weight, 1);
                    entry.0 += i64::from(weight);
                    entry.1 += 1;
                }
            }
            if entry.1 == 0 {
                map.remove(&key.max(0));
            }
            // Oracle prefix sums.
            let mut acc = 0i64;
            let mut maxp = 0i64;
            let mut minp = 0i64;
            for &(w, _) in map.values() {
                acc += w;
                maxp = maxp.max(acc);
                minp = minp.min(acc);
            }
            prop_assert_eq!(treap.total_weight(), acc);
            prop_assert_eq!(treap.max_prefix(), maxp);
            prop_assert_eq!(treap.min_prefix(), minp);
            prop_assert_eq!(treap.distinct_values(), map.len());
            let elems: u32 = treap.to_sorted_vec().iter().map(|&(_, _, e)| e).sum();
            prop_assert_eq!(i64::from(elems), map.values().map(|&(_, e)| e).sum::<i64>());
        }
    }
}
