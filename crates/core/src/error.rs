//! Error types for the MOCHE core library.

use std::fmt;

/// Which input multiset a validation error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetKind {
    /// The reference set `R`.
    Reference,
    /// The test set `T`.
    Test,
}

impl fmt::Display for SetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetKind::Reference => f.write_str("reference set"),
            SetKind::Test => f.write_str("test set"),
        }
    }
}

/// Errors surfaced by the MOCHE core library.
#[derive(Debug, Clone, PartialEq)]
pub enum MocheError {
    /// The reference set is empty; the KS test is undefined.
    EmptyReference,
    /// The test set is empty; the KS test is undefined.
    EmptyTest,
    /// An input value is NaN or infinite.
    NonFiniteValue {
        /// Which multiset contained the offending value.
        which: SetKind,
        /// Index of the offending value in the caller's slice.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A streamed observation is NaN or infinite (rejected by
    /// `moche_stream::DriftMonitor::try_push` with the monitor state
    /// untouched). Unlike [`NonFiniteValue`](Self::NonFiniteValue) there
    /// is no caller-held slice to index into; the position is the
    /// monitor's accepted-observation count.
    NonFiniteObservation {
        /// How many observations had been accepted when this one was
        /// rejected (its position in the accepted stream).
        accepted: u64,
        /// The offending value.
        value: f64,
    },
    /// The significance level is outside the open interval `(0, 1)`.
    InvalidAlpha {
        /// The rejected significance level.
        alpha: f64,
    },
    /// The KS test between `R` and `T` already passes at the configured
    /// significance level, so there is nothing to explain.
    TestAlreadyPasses {
        /// The observed KS statistic `D(R, T)`.
        statistic: f64,
        /// The decision threshold (target p-value) at the configured `alpha`.
        threshold: f64,
    },
    /// No subset of `T` reverses the failed test. By Proposition 1 of the
    /// paper this can only happen when `alpha > 2/e^2 ≈ 0.2707`.
    NoExplanation {
        /// The significance level for which no explanation exists.
        alpha: f64,
    },
    /// The preference list is not a permutation of `0..m`.
    InvalidPreference {
        /// Human-readable description of the defect.
        reason: PreferenceDefect,
    },
    /// A resource limit (for the brute-force reference implementation) was
    /// exceeded before an answer was found.
    LimitExceeded {
        /// Number of subsets checked before giving up.
        checks: usize,
    },
    /// The preference list length does not match the test set size.
    PreferenceLengthMismatch {
        /// Expected length (`|T|`).
        expected: usize,
        /// Actual length supplied.
        actual: usize,
    },
    /// A sliding-window size is too small to form the paired windows a
    /// streaming consumer needs (see `moche_stream::DriftMonitor`).
    WindowTooSmall {
        /// The rejected window size.
        window: usize,
        /// The smallest acceptable window size.
        min: usize,
    },
    /// The samples are too large for the streaming KS tests' 32-bit size
    /// bound. `moche_stream::IncrementalKs` needs `n·m <= i32::MAX` (its
    /// treap's `+m`/`-n` prefix sums reach `n·m`);
    /// `moche_stream::MonitorState` caps its window `w` at `i32::MAX`, the
    /// same bound on one side of a sample pair.
    SamplesTooLarge {
        /// Reference sample size (the window size for a monitor).
        n: usize,
        /// Test sample size (the window size for a monitor).
        m: usize,
    },
    /// A batch call supplied a different number of preference lists than
    /// windows, so no window/preference pairing exists. Every result slot
    /// of that call carries this error (the inputs are unusable as a
    /// whole, but the `Vec<Result<..>>` shape is preserved for callers
    /// that tally per-window outcomes).
    PreferenceCountMismatch {
        /// Number of windows submitted.
        windows: usize,
        /// Number of preference lists supplied.
        preferences: usize,
    },
    /// A worker thread (or the sequential fallback path) panicked while
    /// explaining one window. The panic is caught and isolated: only this
    /// window's result carries the error, every other window in the run is
    /// unaffected, and the worker's scratch state is rebuilt.
    WorkerPanicked {
        /// Index of the window whose job panicked.
        window: usize,
        /// The panic payload's message, when it was a string.
        message: String,
    },
    /// Phase 2 could not grow a partial explanation to the target size.
    /// This indicates a numerical inconsistency between the Phase-1 size
    /// certificate and the Phase-2 checks and should not occur in practice;
    /// it is surfaced as an error rather than a panic so callers can recover.
    ConstructionIncomplete {
        /// Number of points selected before the scan was exhausted.
        built: usize,
        /// The target explanation size.
        k: usize,
    },
}

/// Specific ways a preference list can fail validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreferenceDefect {
    /// An index appears more than once.
    DuplicateIndex(usize),
    /// An index is out of range for the test set.
    OutOfRange(usize),
    /// A score used to build the list was NaN.
    NonFiniteScore(usize),
}

impl fmt::Display for PreferenceDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreferenceDefect::DuplicateIndex(i) => {
                write!(f, "test index {i} appears more than once")
            }
            PreferenceDefect::OutOfRange(i) => write!(f, "test index {i} is out of range"),
            PreferenceDefect::NonFiniteScore(i) => write!(f, "score at position {i} is not finite"),
        }
    }
}

impl fmt::Display for MocheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MocheError::EmptyReference => f.write_str("reference set must not be empty"),
            MocheError::EmptyTest => f.write_str("test set must not be empty"),
            MocheError::NonFiniteValue { which, index, value } => {
                write!(f, "{which} contains non-finite value {value} at index {index}")
            }
            MocheError::NonFiniteObservation { accepted, value } => {
                write!(
                    f,
                    "non-finite observation {value} rejected \
                     (after {accepted} accepted observations)"
                )
            }
            MocheError::InvalidAlpha { alpha } => {
                write!(f, "significance level {alpha} is outside (0, 1)")
            }
            MocheError::TestAlreadyPasses { statistic, threshold } => write!(
                f,
                "KS test already passes (D = {statistic:.6} <= threshold {threshold:.6}); \
                 nothing to explain"
            ),
            MocheError::NoExplanation { alpha } => write!(
                f,
                "no subset of the test set reverses the failed KS test at alpha = {alpha} \
                 (existence is only guaranteed for alpha <= 2/e^2)"
            ),
            MocheError::InvalidPreference { reason } => {
                write!(f, "invalid preference list: {reason}")
            }
            MocheError::LimitExceeded { checks } => {
                write!(f, "search limit exceeded after checking {checks} subsets")
            }
            MocheError::PreferenceLengthMismatch { expected, actual } => write!(
                f,
                "preference list has length {actual} but the test set has {expected} points"
            ),
            MocheError::PreferenceCountMismatch { windows, preferences } => write!(
                f,
                "{preferences} preference lists supplied for {windows} windows; \
                 one preference list per window is required"
            ),
            MocheError::WorkerPanicked { window, message } => {
                write!(f, "worker panicked while explaining window {window}: {message}")
            }
            MocheError::WindowTooSmall { window, min } => {
                write!(f, "window size {window} is too small (minimum {min})")
            }
            MocheError::SamplesTooLarge { n, m } => write!(
                f,
                "samples of {n} and {m} observations exceed the streaming KS tests' \
                 32-bit size bound"
            ),
            MocheError::ConstructionIncomplete { built, k } => write!(
                f,
                "phase 2 selected only {built} of {k} points; \
                 please report this as a numerical-consistency bug"
            ),
        }
    }
}

impl std::error::Error for MocheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MocheError::NonFiniteValue { which: SetKind::Test, index: 3, value: f64::NAN };
        let s = e.to_string();
        assert!(s.contains("test set"));
        assert!(s.contains("index 3"));
    }

    #[test]
    fn non_finite_observation_names_the_stream_position() {
        let e = MocheError::NonFiniteObservation { accepted: 5000, value: f64::NAN };
        let s = e.to_string();
        assert!(s.contains("non-finite observation NaN"), "{s}");
        assert!(s.contains("5000 accepted"), "{s}");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(MocheError::EmptyReference);
        assert_eq!(e.to_string(), "reference set must not be empty");
    }

    #[test]
    fn preference_defects_display() {
        assert!(PreferenceDefect::DuplicateIndex(7).to_string().contains('7'));
        assert!(PreferenceDefect::OutOfRange(9).to_string().contains('9'));
        assert!(PreferenceDefect::NonFiniteScore(1).to_string().contains("finite"));
    }

    #[test]
    fn worker_panicked_names_window_and_message() {
        let e = MocheError::WorkerPanicked { window: 7, message: "boom".to_string() };
        let s = e.to_string();
        assert!(s.contains("window 7"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn preference_count_mismatch_names_both_counts() {
        let e = MocheError::PreferenceCountMismatch { windows: 4, preferences: 2 };
        let s = e.to_string();
        assert!(s.contains("2 preference lists"), "{s}");
        assert!(s.contains("4 windows"), "{s}");
    }

    #[test]
    fn errors_compare_equal() {
        assert_eq!(
            MocheError::InvalidAlpha { alpha: 1.5 },
            MocheError::InvalidAlpha { alpha: 1.5 }
        );
        assert_ne!(MocheError::EmptyReference, MocheError::EmptyTest);
    }
}
