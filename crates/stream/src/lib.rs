//! # moche-stream
//!
//! Streaming substrate for the MOCHE reproduction: an incremental
//! two-sample Kolmogorov-Smirnov test (treap-based, after dos Reis et al.,
//! KDD 2016 — reference \[17\] of the paper) and a push-based
//! [`DriftMonitor`] over paired sliding windows that answers each alarm
//! with a MOCHE explanation.
//!
//! The paper's experiments run the KS test over paired sliding windows
//! (Section 6.1.1); this crate makes that deployment shape first-class:
//!
//! * [`treap`] — an order-augmented treap whose root exposes the maximum
//!   absolute prefix sum of weighted elements;
//! * [`incremental`] — weights `+m` / `-n` turn that prefix sum into
//!   `n·m·D(R, T)`, giving `O(log N)` KS updates for samples of any sizes;
//! * [`monitor`] — paired sliding windows of equal size `w`, kept as one
//!   arrival-order ring plus both windows sorted; the sorted windows are
//!   checked only when a push could cross the rejection threshold, so a
//!   push is `O(1)` until then and a check `O(w)`; MOCHE explanations on
//!   every drift alarm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod incremental;
pub mod monitor;
pub mod snapshot;
pub mod treap;
mod windows;

pub use fleet::{
    shard_of, ExplainedAlarm, FleetConfig, FleetPush, FleetShard, FleetShardSnapshot, FleetStats,
    FleetStatsView, MonitorFleet, SeriesStats,
};
pub use incremental::{IncrementalKs, ObsId};
pub use monitor::{
    DriftMonitor, MonitorConfig, MonitorEvent, MonitorScratch, MonitorState, WindowCapture,
};
pub use snapshot::{MonitorSnapshot, SnapshotError};
pub use treap::WeightedTreap;
