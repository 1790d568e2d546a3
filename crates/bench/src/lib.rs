//! # moche-bench
//!
//! The experiment harness regenerating every table and figure of the MOCHE
//! paper's evaluation (Section 6):
//!
//! | Paper artifact | Regenerator binary | Module |
//! |---|---|---|
//! | Table 1 (dataset statistics) | `table1_datasets` | [`experiments::table1`] |
//! | Figure 1 (COVID overview) | `fig1_covid_overview` | [`experiments::covid`] |
//! | Figure 2 (average ISE) | `fig2_ise` | [`experiments::effectiveness`] |
//! | Table 2 (reverse factor) | `table2_reverse_factor` | [`experiments::effectiveness`] |
//! | Figure 3 (average RMSE) | `fig3_rmse` | [`experiments::effectiveness`] |
//! | Figure 4 (COVID case study) | `fig4_covid_case_study` | [`experiments::covid`] |
//! | Figure 5a (runtime vs size, TWT) | `fig5a_runtime_twt` | [`experiments::runtime`] |
//! | Figure 5b (runtime, synthetic) | `fig5b_runtime_synthetic` | [`experiments::runtime`] |
//! | Figure 6 (estimation error) | `fig6_estimation_error` | [`experiments::estimation`] |
//! | everything | `run_all` | all |
//!
//! Every binary accepts `--full` for the paper-scale sweep (hours) and
//! defaults to a quick configuration (minutes) that preserves each
//! experiment's *shape*; `--seed N` overrides the master seed.
//!
//! One Criterion bench, `phase1` (`cargo bench -p moche-bench --bench
//! phase1`), sweeps the Phase-1 size search over window sizes, including
//! the `MOCHE_ns` ablation. Figure 5's runtimes come from
//! `fig5a_runtime_twt` and `fig5b_runtime_synthetic`; the hot-path timings
//! and allocation counts come from `run_all --bench-json` ([`perf`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod metrics;
pub mod perf;
pub mod report;
pub mod runner;
pub mod scale;

pub use runner::{paper_roster, run_case, run_cases, CaseResult, MethodResult};
pub use scale::ExperimentScale;
