//! # moche-core
//!
//! A faithful, production-quality implementation of **MOCHE** — *MOst
//! CompreHensible Explanation* — from
//!
//! > Zicun Cong, Lingyang Chu, Yu Yang, Jian Pei.
//! > *Comprehensible Counterfactual Explanation on Kolmogorov-Smirnov Test.*
//! > PVLDB 14(1), VLDB 2021.
//!
//! Given a reference set `R` and a test set `T` that **fail** the two-sample
//! Kolmogorov-Smirnov test at significance level `α`, MOCHE finds the
//! smallest subset `I ⊆ T` whose removal makes the test pass, and among all
//! such smallest subsets returns the one most consistent with a
//! user-supplied preference order — the unique *most comprehensible
//! counterfactual explanation* (for `α ≤ 2/e²`).
//!
//! Where a naive search would enumerate an exponential number of subsets and
//! KS-test each one, MOCHE runs in `O(m (n + m))` worst-case time and is
//! typically dominated by an `O((n + m) log m)` Phase 1.
//!
//! ## Quick start
//!
//! ```
//! use moche_core::{Moche, PreferenceList};
//!
//! let reference = vec![14.0, 14.0, 14.0, 14.0, 20.0, 20.0, 20.0, 20.0];
//! let test = vec![13.0, 13.0, 12.0, 20.0];
//!
//! // Prefer later points first (the paper's Example 6).
//! let preference = PreferenceList::new(vec![3, 2, 1, 0]).unwrap();
//!
//! let moche = Moche::new(0.3).unwrap();
//! let explanation = moche.explain(&reference, &test, &preference).unwrap();
//!
//! assert_eq!(explanation.size(), 2);          // the minimum removal size
//! assert!(explanation.outcome_after.passes()); // removal reverses the test
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`ks`] | §3.1 | two-sample KS test, critical values, [`ks::KsConfig`] |
//! | [`ecdf`] | §3.1 | empirical CDFs and the RMSE effectiveness metric |
//! | [`base_vector`] | §4.2 | base vector `V`, cumulative counts `C_R`, `C_T` |
//! | [`cumulative`] | §4.2 | cumulative vectors of subsets and multiplicity counts |
//! | [`bounds`] | §4.3 | Ω/Γ/M, the `l`/`u` recursions, Theorems 1–2 |
//! | [`phase1`] | §4.3–4.4 | explanation-size search and the `k̂` lower bound |
//! | [`phase2`] | §5 | Algorithm 1, Theorem-3 partial-explanation checks |
//! | [`preference`] | §3.3 | preference lists and lexicographic comparison |
//! | [`brute_force`] | §3.5 | set-enumeration-tree oracle |
//! | [`moche`] | all | the high-level [`Moche`] API |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod base_vector;
pub mod batch;
pub mod bounds;
pub mod brute_force;
pub mod cumulative;
pub mod ecdf;
pub mod engine;
pub mod error;
pub mod fault;
pub mod ks;
pub mod moche;
pub mod phase1;
pub mod phase2;
pub mod pipeline;
pub mod preference;
mod radix;
pub mod ref_index;
pub mod streaming;

pub use arena::ExplanationArena;
pub use base_vector::{BaseVector, SortedReference};
pub use batch::{BatchExplainer, ReferenceMode, ScoreFn, ScoreIntoFn, WindowPreferences};
pub use bounds::{BoundsContext, BoundsWorkspace};
pub use cumulative::{CumulativeVector, SubsetCounts};
pub use ecdf::Ecdf;
pub use engine::ExplainEngine;
pub use error::MocheError;
pub use ks::{ks_statistic, ks_test, KsConfig, KsOutcome, ALPHA_EXISTENCE_GUARANTEE};
pub use moche::{ConstructionStrategy, Explanation, Moche, SizeSearchStrategy};
pub use phase1::SizeSearch;
pub use preference::PreferenceList;
pub use ref_index::{IncrementalRefIndex, RankSource, ReferenceIndex};
pub use streaming::{
    StreamMode, StreamResult, StreamSummary, StreamingBatchExplainer, WindowReport, WindowSource,
};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::arena::ExplanationArena;
    pub use crate::base_vector::{BaseVector, SortedReference};
    pub use crate::batch::BatchExplainer;
    pub use crate::bounds::BoundsContext;
    pub use crate::ecdf::Ecdf;
    pub use crate::engine::ExplainEngine;
    pub use crate::error::MocheError;
    pub use crate::ks::{ks_test, KsConfig, KsOutcome};
    pub use crate::moche::{Explanation, Moche};
    pub use crate::preference::PreferenceList;
    pub use crate::ref_index::ReferenceIndex;
    pub use crate::streaming::StreamingBatchExplainer;
}
