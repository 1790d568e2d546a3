//! `PreferenceList::fill_from_scores_desc`/`_asc` against the comparison
//! sort they replaced, kept here as the oracle: indices ordered by score in
//! `f64::total_cmp` order (descending or ascending), ties by ascending
//! index. The radix ranking must reproduce it exactly on ties, signed
//! zeros, infinities and subnormals, at every length from 1 to 300 and at
//! 10k, and must still reject NaN at the first NaN's position.

use moche_core::error::PreferenceDefect;
use moche_core::{MocheError, PreferenceList};

fn oracle_desc(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_unstable_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order
}

fn oracle_asc(scores: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_unstable_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(a.cmp(&b)));
    order
}

/// SplitMix64 (public domain, Steele et al.).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Scores drawn from a small pool of awkward values (so ties are common)
/// or, one time in four, from arbitrary non-NaN bit patterns (so every
/// radix digit varies).
fn scores(len: usize, seed: u64) -> Vec<f64> {
    let pool = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        -f64::MAX,
        1.0,
        f64::from_bits(1.0f64.to_bits() + 1),
        -1.0,
        0.5,
    ];
    let mut state = seed;
    (0..len)
        .map(|_| {
            let r = splitmix(&mut state);
            if r.is_multiple_of(4) {
                let v = f64::from_bits(splitmix(&mut state));
                if v.is_nan() {
                    0.25
                } else {
                    v
                }
            } else {
                pool[(r >> 8) as usize % pool.len()]
            }
        })
        .collect()
}

fn check(recycled: &mut PreferenceList, scores: &[f64]) {
    let desc = oracle_desc(scores);
    let asc = oracle_asc(scores);
    let len = scores.len();
    recycled.fill_from_scores_desc(scores).unwrap();
    assert_eq!(recycled.as_order(), &desc[..], "desc, len {len}");
    assert_eq!(PreferenceList::from_scores_desc(scores).unwrap().as_order(), &desc[..]);
    recycled.fill_from_scores_asc(scores).unwrap();
    assert_eq!(recycled.as_order(), &asc[..], "asc, len {len}");
    assert_eq!(PreferenceList::from_scores_asc(scores).unwrap().as_order(), &asc[..]);
}

#[test]
fn radix_ranking_matches_the_comparator_at_every_small_length() {
    let mut recycled = PreferenceList::identity(0);
    for len in 1..=300 {
        for seed in 0..4u64 {
            check(&mut recycled, &scores(len, seed * 1_000 + len as u64));
        }
    }
}

#[test]
fn radix_ranking_matches_the_comparator_at_10k() {
    let mut recycled = PreferenceList::identity(0);
    check(&mut recycled, &scores(10_000, 7));
    // All tied: every radix pass is skipped and the order is the identity.
    check(&mut recycled, &[-0.0; 10_000]);
    // Distinct, near-sorted and reversed runs of a smooth signal.
    let smooth: Vec<f64> = (0..10_000).map(|i| (f64::from(i) * 0.01).sin()).collect();
    check(&mut recycled, &smooth);
}

#[test]
fn nan_is_rejected_at_its_first_position() {
    let nan_neg = -f64::NAN;
    let quiet_payload = f64::from_bits(0x7FF8_0000_0000_0001);
    let cases: [(&[f64], usize); 4] = [
        (&[f64::NAN], 0),
        (&[1.0, nan_neg, 2.0, f64::NAN], 1),
        (&[f64::INFINITY, -0.0, 3.0, quiet_payload], 3),
        (&[0.0, 0.0, f64::NAN, f64::NAN, f64::NAN], 2),
    ];
    let mut recycled = PreferenceList::identity(3);
    for (scores, first) in cases {
        let expected =
            MocheError::InvalidPreference { reason: PreferenceDefect::NonFiniteScore(first) };
        assert_eq!(recycled.fill_from_scores_desc(scores).unwrap_err(), expected);
        assert_eq!(recycled.fill_from_scores_asc(scores).unwrap_err(), expected);
        assert_eq!(PreferenceList::from_scores_desc(scores).unwrap_err(), expected);
        assert_eq!(PreferenceList::from_scores_asc(scores).unwrap_err(), expected);
        // A rejected ranking leaves the list as it was.
        assert_eq!(recycled, PreferenceList::identity(3));
    }
}
