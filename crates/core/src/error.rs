//! Typed recoverable errors for the per-slot solve pipeline.
//!
//! The paper-faithful hot path treats malformed inputs as programmer error
//! and panics; the fault-tolerant path ([`crate::robust`]) must instead
//! *degrade* — a corrupt observation or a transient numeric failure becomes
//! a [`SolveError`] the caller recovers from (substitute last-known-good
//! state, retry, or fall back down the degradation ladder). Invariant
//! violations that can only come from bugs stay as assertions.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;

/// A recoverable failure detected while solving one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// A value that must be finite (and positive where noted) was not —
    /// NaN, ±Inf, zero, or negative where the model forbids it.
    NonFinite {
        /// Which quantity was malformed (e.g. `"task_cycles"`,
        /// `"compute_share"`).
        context: &'static str,
        /// Index of the offending entry (device, server, or station).
        index: usize,
    },
    /// A vector's length disagrees with the system's shape.
    ShapeMismatch {
        /// Which vector was mis-sized.
        context: &'static str,
        /// Length the system requires.
        expected: usize,
        /// Length actually observed.
        actual: usize,
    },
    /// Masking left a device with no allowed strategy even after the
    /// best-effort widening — the instance cannot serve this device.
    NoAllowedStrategy {
        /// The device that cannot be placed.
        device: usize,
    },
    /// A P2-A solver was handed an availability mask it cannot honour (the
    /// baselines solve the unmasked game only).
    FilterUnsupported {
        /// The solver's report name, e.g. `"ROPT"`.
        solver: &'static str,
    },
    /// The solver could not produce any finite candidate within its retry
    /// budget; the caller should fall back to the last feasible decision.
    RetriesExhausted {
        /// Retries attempted before giving up.
        attempts: u32,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFinite { context, index } => {
                write!(f, "non-finite or out-of-model {context} at index {index}")
            }
            Self::ShapeMismatch { context, expected, actual } => {
                write!(f, "{context}: expected length {expected}, got {actual}")
            }
            Self::NoAllowedStrategy { device } => {
                write!(f, "device {device} has no allowed strategy under the availability mask")
            }
            Self::FilterUnsupported { solver } => {
                write!(f, "the {solver} solver cannot honour an availability mask")
            }
            Self::RetriesExhausted { attempts } => {
                write!(f, "no finite solve candidate after {attempts} retries")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = SolveError::NonFinite { context: "task_cycles", index: 3 };
        assert!(e.to_string().contains("task_cycles"));
        assert!(e.to_string().contains('3'));
        let e = SolveError::ShapeMismatch { context: "freqs_hz", expected: 4, actual: 2 };
        assert!(e.to_string().contains("freqs_hz"));
        let e = SolveError::NoAllowedStrategy { device: 7 };
        assert!(e.to_string().contains('7'));
        let e = SolveError::RetriesExhausted { attempts: 2 };
        assert!(e.to_string().contains('2'));
    }
}
