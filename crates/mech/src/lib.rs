//! # tcdp-mech — traditional differential privacy substrate
//!
//! The building blocks that the paper's analysis wraps: the "traditional DP
//! mechanism" whose leakage under temporal correlations `tcdp-core`
//! quantifies. Everything here is standard (pre-paper) machinery,
//! implemented from scratch:
//!
//! * [`budget`] — the privacy budget `ε` as a validated type, per-time
//!   budget schedules ([`BudgetSchedule`], with the paper's Theorem 3
//!   sequential composition as their total), and shareable
//!   observed-budget timelines ([`BudgetTimeline`]);
//! * [`laplace`] — the Laplace distribution and the Laplace mechanism of
//!   Dwork et al. (the paper's Theorem 1);
//! * [`query`] — snapshot databases `D^t = {l^t_1, …, l^t_|U|}`, count and
//!   histogram queries, and their L1 sensitivities;
//! * [`stream`] — the continual-observation release pipeline: at each time
//!   `t` a mechanism `M^t` independently perturbs the aggregates of `D^t`
//!   with the budget assigned to that time point (the paper's Section II-C
//!   problem setting);
//! * [`group`] — the "direct method" baseline from the paper's
//!   introduction: protecting temporally correlated points as a group by
//!   inflating the sensitivity (and hence the noise) by the group size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod group;
pub mod laplace;
pub mod query;
pub mod stream;

pub use budget::{BudgetSchedule, BudgetTimeline, Epsilon};
pub use laplace::{Laplace, LaplaceMechanism};
pub use query::{Database, HistogramQuery};

/// Errors produced by the mechanism layer.
#[derive(Debug, Clone, PartialEq)]
pub enum MechError {
    /// A privacy budget must be a positive, finite real.
    InvalidEpsilon(f64),
    /// A scale or sensitivity parameter must be positive and finite.
    InvalidParameter {
        /// Which parameter was invalid.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A user's value is outside the declared domain.
    ValueOutOfDomain {
        /// The offending value.
        value: usize,
        /// The domain size.
        domain: usize,
    },
    /// Mismatched dimensions (e.g. schedule length vs. stream length).
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Found length.
        found: usize,
    },
    /// The stream has ended or the operation is out of order.
    StreamState(&'static str),
}

impl std::fmt::Display for MechError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechError::InvalidEpsilon(v) => write!(f, "invalid privacy budget epsilon = {v}"),
            MechError::InvalidParameter { what, value } => {
                write!(f, "invalid {what}: {value}")
            }
            MechError::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} outside domain of size {domain}")
            }
            MechError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MechError::StreamState(msg) => write!(f, "stream state error: {msg}"),
        }
    }
}

impl std::error::Error for MechError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MechError>;
