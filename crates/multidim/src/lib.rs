//! # moche-multidim
//!
//! A working prototype of the MOCHE paper's declared future work
//! (Section 7): interpreting failed Kolmogorov-Smirnov tests on
//! **multidimensional** data.
//!
//! * [`ks2d`] — the two-sample 2-D KS test of Fasano & Franceschini
//!   (MNRAS 1987; reference \[18\] of the paper): quadrant-based statistic
//!   plus the Press et al. significance approximation.
//! * [`explain2d`] — heuristic counterfactual explainers over the 2-D
//!   test. The 1-D optimality machinery (cumulative-vector bounds) relies
//!   on the real line's total order and does not transfer; these explainers
//!   guarantee *soundness* (the returned set always reverses the test) and
//!   *irreducibility* (for [`GreedyImpact2d`]) but not minimality — the
//!   open problem the paper leaves behind.
//! * [`rank_index`] — the production statistic path: [`RankIndex2d`] caches
//!   per-origin quadrant counts of the reference, and [`Scratch2d`]
//!   maintains the test-side counts incrementally under removals, making
//!   each greedy candidate evaluation `O(n + m)` instead of `O((n + m)²)`
//!   while staying bit-identical to the naive statistic.
//! * [`engine2d`] — [`Explain2dEngine`] + [`Explanation2dArena`], the 2-D
//!   analogue of `moche_core::MocheEngine` + `ExplanationArena`: a warm
//!   engine/arena pair explains a window with zero marginal heap
//!   allocations and byte-identical output to [`GreedyImpact2d`].
//! * [`stream2d`] — [`Stream2dExplainer`], the bounded-memory streaming
//!   front end of `moche_core::pipeline` over a shared [`RankIndex2d`]:
//!   the same worker pipeline, per-window error isolation and in-order
//!   delivery as 1-D. It serves every multi-window 2-D job, resident or
//!   read from a file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine2d;
pub mod explain2d;
pub mod ks2d;
pub mod point2;
pub mod rank_index;
pub mod stream2d;

pub use engine2d::{Explain2dEngine, Explanation2dArena};
pub use explain2d::{Explanation2d, GreedyImpact2d, GreedyPrefix2d};
pub use ks2d::{ks2d_statistic, ks2d_test, pearson_r, Ks2dConfig, Ks2dOutcome};
pub use point2::{points_from_xy, Point2};
pub use rank_index::{ks2d_statistic_indexed, RankIndex2d, Scratch2d};
pub use stream2d::{Score2dFn, Stream2dExplainer, Stream2dResult, Window2dSource};
