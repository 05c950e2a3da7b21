//! # tcdp-core — temporal privacy leakage quantification
//!
//! The primary contribution of *Quantifying Differential Privacy under
//! Temporal Correlations* (Cao, Yoshikawa, Xiao, Xiong — ICDE 2017),
//! implemented in full:
//!
//! * [`adversary`] — the adversary model `A^T_i(P^B_i, P^F_i)` of
//!   Definition 4: a traditional DP adversary augmented with backward
//!   and/or forward temporal correlations.
//! * [`alg1`] — **Algorithm 1**: the polynomial-time solution of the
//!   linear-fractional program (18)–(20) that evaluates the backward and
//!   forward temporal loss functions `L^B`/`L^F` (Equations 23/24) using
//!   Theorem 4 and Corollary 2 — one serial pruned, warm-started sweep
//!   over a precomputed pair index — plus a brute-force
//!   vertex-enumeration reference (via Lemma 3) and adapters to the
//!   generic LP baselines in `tcdp-lp`.
//! * [`loss`] — [`TemporalLossFunction`], the reusable `α ↦ L(α)` object
//!   built from one transition matrix.
//! * [`accountant`] — [`TplAccountant`]: the BPL recursion (Equation 13),
//!   the FPL recursion (Equation 15, re-evaluated backward whenever a new
//!   release arrives), and TPL (Equation 10) for a whole release
//!   timeline, cached behind a release-count version stamp so any number
//!   of queries share one O(T) series pass (streaming-service hot path).
//! * [`supremum`] — **Theorem 5**: the four-case supremum of BPL/FPL over
//!   an infinite horizon, its fixed-point characterization, and the
//!   inversion `ε = α − L(α)` used by the release algorithms.
//! * [`composition`] — **Theorem 2** (sequential composition under
//!   temporal correlations), Corollary 1 (user-level guarantee `Σ ε_k`),
//!   and the Table II privacy-guarantee summary.
//! * [`release`] — **Algorithms 2 and 3**: converting any traditional DP
//!   mechanism into one satisfying α-DP_T by allocating calibrated
//!   budgets (uniform with a supremum bound, or boosted-endpoint exact
//!   quantification), plus the end-to-end [`release::DptReleaser`].
//! * [`personalized`] — the Section III-D observation that leakage is
//!   personal: per-user accounting (sharded by distinct adversary and
//!   fanned out across threads) and per-user budget plans compatible
//!   with personalized DP.
//! * [`checkpoint`] — versioned checkpoints of [`TplAccountant`] and
//!   [`personalized::PopulationAccountant`] state (budgets, BPL, cached
//!   FPL/TPL series, warm witnesses) so very long audits can stop and
//!   resume mid-timeline with bit-identical results: a zero-copy binary
//!   envelope of raw `f64` sections plus an append-only delta log whose
//!   records cost `O(appended)` bytes instead of `O(T)` per stop point.
//!
//! Verified extensions grounded in the paper's discussion:
//!
//! * [`adaptive`] — Algorithm 3's exactness for *unknown* horizons
//!   (boosted first release, balanced middle, boosted final release on
//!   `finalize`);
//! * [`wevent`] — w-event α-DP_T planning by inverting the Theorem 2
//!   window guarantee;
//! * [`sparse`] — leakage of subsampled (every k-th step) release via the
//!   k-step correlation `P^k`;
//! * [`inference`] — the empirical Bayesian adversary (forward–backward
//!   posterior over the victim's trajectory), validating the analytic
//!   leakage ordering.
//!
//! ## The core recurrences
//!
//! For a mechanism `M^t` that is ε_t-DP at each time point and an adversary
//! knowing `P^B` and `P^F`:
//!
//! ```text
//! BPL(t) = L^B(BPL(t−1)) + ε_t          (BPL(1) = ε_1)
//! FPL(t) = L^F(FPL(t+1)) + ε_t          (FPL(T) = ε_T)
//! TPL(t) = BPL(t) + FPL(t) − ε_t
//! ```
//!
//! where `L(α) = max_{q,d rows} log (q(e^α−1)+1)/(d(e^α−1)+1)` with `q, d`
//! the sums of the active coefficient subsets found by Algorithm 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountant;
pub mod adaptive;
pub mod adversary;
pub mod alg1;
pub mod checkpoint;
pub mod composition;
pub mod inference;
pub mod loss;
pub mod personalized;
pub mod release;
pub mod shared;
pub mod sparse;
pub mod supremum;
pub mod wevent;

pub use accountant::{TplAccountant, TplReport};
pub use adaptive::AdaptiveReleaser;
pub use adversary::AdversaryT;
pub use alg1::{temporal_loss, LossWitness};
pub use checkpoint::{
    CheckpointDelta, CheckpointKind, DeltaCursor, SavedState, CHECKPOINT_VERSION,
};
pub use loss::{LossEvaluator, TemporalLossFunction};
pub use release::{quantified_plan, upper_bound_plan, DptReleaser, ReleasePlan};
pub use shared::{
    AccountantReader, AccountantWriter, PopulationReader, PopulationWriter, Snapshot, Versioned,
};
pub use supremum::{
    epsilon_for_supremum, supremum_of_evaluator, supremum_of_loss, supremum_of_loss_many,
    supremum_of_matrix, Supremum,
};
pub use tcdp_mech::budget::BudgetTimeline;
pub use wevent::{w_event_plan, WEventPlan};

/// Errors produced by the temporal-privacy layer.
#[derive(Debug, Clone, PartialEq)]
pub enum TplError {
    /// A leakage value `α` must be finite, non-negative and at most
    /// [`MAX_ALPHA`].
    InvalidAlpha(f64),
    /// A privacy budget `ε` must be finite and strictly positive.
    InvalidEpsilon(f64),
    /// The two correlation matrices (or matrix and accountant state) have
    /// different domain sizes.
    DimensionMismatch {
        /// Expected domain size.
        expected: usize,
        /// Found domain size.
        found: usize,
    },
    /// A transition matrix entry is not a finite non-negative number.
    /// Unreachable through [`tcdp_markov::TransitionMatrix`]'s validating
    /// constructors; guards data of uncertain provenance (e.g. a
    /// deserialized envelope) before it can silently mis-prune the
    /// [`alg1::PairIndex`].
    InvalidMatrix {
        /// Row holding the offending entry.
        row: usize,
        /// The offending entry (NaN, infinite, or negative).
        value: f64,
    },
    /// The correlation is too strong to bound over an unbounded horizon
    /// (Theorem 5 cases 3–4: the supremum does not exist for any positive
    /// per-step budget).
    UnboundableCorrelation,
    /// The requested privacy level cannot be met (e.g. α too small for the
    /// numerical search to resolve a positive budget).
    TargetUnreachable {
        /// The α-DP_T level that was requested.
        alpha: f64,
    },
    /// A release horizon of at least this many steps is required.
    HorizonTooShort {
        /// Minimum supported horizon.
        minimum: usize,
    },
    /// A w-event window length must satisfy `1 ≤ w ≤ T`.
    InvalidWindow {
        /// The rejected window length.
        w: usize,
    },
    /// A time index points outside the observed timeline.
    TimeOutOfRange {
        /// The rejected time index (0-based).
        t: usize,
        /// Number of releases observed.
        len: usize,
    },
    /// A window `[t, t + w)` reaches beyond the observed timeline.
    WindowOutOfRange {
        /// Window start (0-based).
        t: usize,
        /// Window length.
        w: usize,
        /// Number of releases observed.
        len: usize,
    },
    /// A positional query points behind the fold horizon: the exact
    /// per-step history before `live_start` has been folded into the
    /// constant-size summary and only bounded (not exact) answers remain.
    FoldedHistory {
        /// The rejected time index (0-based).
        t: usize,
        /// Global index of the first still-live entry.
        live_start: usize,
    },
    /// No releases have been observed yet; the requested statistic is
    /// undefined.
    EmptyTimeline,
    /// A personalized budget assignment failed validation: its user
    /// ranges must be disjoint, non-empty, and cover every user exactly
    /// once.
    BudgetAssignment(String),
    /// A checkpoint was written by an incompatible format version.
    CheckpointVersion {
        /// Version stamped into the checkpoint file.
        found: u32,
        /// Version this build reads and writes
        /// ([`checkpoint::CHECKPOINT_VERSION`]).
        supported: u32,
    },
    /// A checkpoint failed structural validation (bad magic, a retired
    /// JSON envelope, wrong kind, missing sections, or internally
    /// inconsistent state).
    CorruptCheckpoint(String),
    /// A checkpoint file could not be read or written.
    CheckpointIo(String),
    /// The zero-copy (mmap) checkpoint view cannot serve this request —
    /// unsupported platform, refused mapping, misaligned section, or a
    /// cached section the snapshot does not carry. The copying resume
    /// path can still read the same file.
    ZeroCopyUnavailable(String),
    /// A delta checkpoint cannot chain from the given cursor; the
    /// message names the shard class that diverged. The caller falls
    /// back to a fresh full snapshot.
    DeltaUnchained(String),
    /// An error bubbled up from the generic LP baseline solvers.
    Lp(tcdp_lp::LpError),
    /// An error bubbled up from the Markov substrate.
    Markov(tcdp_markov::MarkovError),
    /// An error bubbled up from the mechanism substrate.
    Mech(tcdp_mech::MechError),
}

impl std::fmt::Display for TplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TplError::InvalidAlpha(v) => write!(f, "invalid leakage value alpha = {v}"),
            TplError::InvalidEpsilon(v) => write!(f, "invalid privacy budget epsilon = {v}"),
            TplError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            TplError::InvalidMatrix { row, value } => {
                write!(
                    f,
                    "invalid transition matrix: row {row} holds non-probability entry {value}"
                )
            }
            TplError::UnboundableCorrelation => write!(
                f,
                "temporal correlation is deterministic-strength; leakage grows without bound \
                 for any positive per-step budget"
            ),
            TplError::TargetUnreachable { alpha } => {
                write!(f, "cannot achieve {alpha}-DP_T with a positive budget")
            }
            TplError::HorizonTooShort { minimum } => {
                write!(f, "release horizon must be at least {minimum}")
            }
            TplError::InvalidWindow { w } => {
                write!(
                    f,
                    "invalid w-event window length w = {w} (need 1 <= w <= T)"
                )
            }
            TplError::TimeOutOfRange { t, len } => {
                write!(
                    f,
                    "time index {t} is outside the observed timeline of length {len}"
                )
            }
            TplError::WindowOutOfRange { t, w, len } => {
                write!(
                    f,
                    "window [t, t + w) with t = {t}, w = {w} reaches beyond the observed \
                     timeline of length {len}"
                )
            }
            TplError::FoldedHistory { t, live_start } => {
                write!(
                    f,
                    "time index {t} precedes the fold horizon; history before index \
                     {live_start} was folded into the constant-size summary"
                )
            }
            TplError::EmptyTimeline => write!(f, "no releases observed yet"),
            TplError::BudgetAssignment(reason) => {
                write!(f, "invalid personalized budget assignment: {reason}")
            }
            TplError::CheckpointVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint version {found} is not supported (this build reads version \
                     {supported})"
                )
            }
            TplError::CorruptCheckpoint(reason) => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            TplError::CheckpointIo(reason) => write!(f, "checkpoint io error: {reason}"),
            TplError::ZeroCopyUnavailable(reason) => {
                write!(
                    f,
                    "zero-copy checkpoint view unavailable ({reason}); use the copying resume path"
                )
            }
            TplError::DeltaUnchained(reason) => {
                write!(
                    f,
                    "delta checkpoint cannot chain from this cursor: {reason}"
                )
            }
            TplError::Lp(e) => write!(f, "LP baseline error: {e}"),
            TplError::Markov(e) => write!(f, "markov substrate error: {e}"),
            TplError::Mech(e) => write!(f, "mechanism substrate error: {e}"),
        }
    }
}

impl std::error::Error for TplError {}

impl From<tcdp_lp::LpError> for TplError {
    fn from(e: tcdp_lp::LpError) -> Self {
        TplError::Lp(e)
    }
}

impl From<tcdp_markov::MarkovError> for TplError {
    fn from(e: tcdp_markov::MarkovError) -> Self {
        TplError::Markov(e)
    }
}

impl From<tcdp_mech::MechError> for TplError {
    fn from(e: tcdp_mech::MechError) -> Self {
        TplError::Mech(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, TplError>;

/// The largest leakage value `α` the loss functions accept: the largest
/// `f64` whose `e^α − 1` is finite (`≈ ln f64::MAX`). Algorithm 1 works
/// on `e^α − 1`, and past this value it is `+∞`, the discard test
/// evaluates `∞·0 = NaN`, every candidate set empties and `L(α)` would
/// read 0 — a silent under-report of the leakage, so such α are rejected
/// with [`TplError::InvalidAlpha`] instead.
pub const MAX_ALPHA: f64 = 709.782712893384;

pub(crate) fn check_alpha(alpha: f64) -> Result<()> {
    if !(0.0..=MAX_ALPHA).contains(&alpha) {
        return Err(TplError::InvalidAlpha(alpha));
    }
    Ok(())
}

pub(crate) fn check_epsilon(eps: f64) -> Result<()> {
    if !eps.is_finite() || eps <= 0.0 {
        return Err(TplError::InvalidEpsilon(eps));
    }
    Ok(())
}
