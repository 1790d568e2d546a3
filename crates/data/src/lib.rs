//! # moche-data
//!
//! Synthetic dataset generators and the sliding-window drift harness for
//! the MOCHE reproduction. The paper evaluates on the BC CDC COVID-19 case
//! lists and the Numenta Anomaly Benchmark (NAB) repository; neither is
//! redistributable here, so this crate provides seeded synthetic twins
//! calibrated to everything the paper reports about them (see `DESIGN.md`
//! §5 for each substitution's rationale):
//!
//! | Module | Contents |
//! |---|---|
//! | [`covid`] | the COVID-19 case study data (age groups × health authorities) |
//! | [`nab`] | the six NAB families of Table 1, with ground-truth anomalies |
//! | [`drift`] | Kifer-style synthetic drift pairs (Figure 5b's workload) |
//! | [`sliding`] | the sliding-window KS harness that extracts failed tests |
//! | [`dist`] | distribution samplers (normal, Poisson, ...) over any RNG |
//! | [`rng`] | deterministic seeding helpers |
//!
//! Everything is deterministic given a seed, so every experiment table in
//! `moche-bench` is exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod covid;
pub mod dist;
pub mod drift;
pub mod nab;
pub mod rng;
pub mod sliding;

pub use covid::{CovidCase, CovidDataset, CovidParams, HealthAuthority};
pub use drift::{failing_kifer_pair, DriftPair};
pub use nab::{generate_all, generate_family, NabFamily, NabSeries};
pub use sliding::{failed_windows, paper_failed_tests, sample_failed, FailedTest};
