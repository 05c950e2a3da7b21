//! The temporal privacy leakage accountant — a streaming engine.
//!
//! Tracks a continual release against one adversary and evaluates the
//! paper's three leakage quantities at every time point:
//!
//! * **BPL** (Definition 6, Equation 13) — computed *incrementally* as
//!   releases arrive: `BPL(t) = L^B(BPL(t−1)) + ε_t`;
//! * **FPL** (Definition 7, Equation 15) — computed *backward over the
//!   whole timeline*, because (as Example 3 stresses) every new release
//!   updates the FPL of all earlier time points:
//!   `FPL(t) = L^F(FPL(t+1)) + ε_t`, anchored at `FPL(T) = ε_T`;
//! * **TPL** (Equation 10) — `TPL(t) = BPL(t) + FPL(t) − ε_t`.
//!
//! A mechanism timeline satisfies α-DP_T (Definition 8) iff
//! [`TplAccountant::max_tpl`] never exceeds α.
//!
//! # The budget timeline
//!
//! The observed ε trail lives in a shared [`BudgetTimeline`]
//! (`tcdp-mech::budget`): the accountant holds it through an `Arc`, so a
//! coordinator tracking many users — [`crate::personalized::PopulationAccountant`]
//! — can give every accountant on the *same* budget sequence one
//! timeline object, record each shared release exactly once, and split
//! timelines copy-on-write the moment two users' budgets diverge. A solo
//! accountant owns its timeline exclusively and behaves exactly as
//! before. [`TplAccountant::sync_with_timeline`] absorbs entries a
//! coordinator appended on the shared object into this accountant's BPL
//! recursion.
//!
//! # Caching and complexity
//!
//! The FPL/TPL series and their maximum are cached behind the timeline's
//! revision stamp: observing a new release bumps the revision and
//! invalidates the cache once, and then *any* number of queries
//! — [`TplAccountant::tpl_series`], [`TplAccountant::tpl_at`],
//! [`TplAccountant::max_tpl`], [`TplAccountant::fpl_at`], the Theorem 2
//! window guarantees in [`crate::composition`] — share a single `O(T)`
//! recomputation (one backward pass through a checked-out
//! [`crate::loss::LossEvaluator`]); window budget sums come from the
//! timeline's own prefix sums. A full w-event audit therefore
//! performs `O(T)` loss-function evaluations instead of the `O(T²)` a
//! per-window recompute costs; [`TplAccountant::loss_eval_count`] is the
//! test hook asserting exactly that. The cache is behaviorally
//! invisible: every cached value is bit-identical to a fresh recompute
//! (warm-started Algorithm 1 results are bit-identical to cold ones),
//! and it is excluded from `PartialEq`-free equality semantics and
//! `Clone` sharing alike.

use crate::adversary::AdversaryT;
use crate::loss::TemporalLossFunction;
use crate::supremum::{supremum_of_loss, Supremum};
use crate::{check_epsilon, Result, TplError};
use parking_lot::Mutex;
use serde::Value;
use std::sync::Arc;
use tcdp_markov::TransitionMatrix;
use tcdp_mech::budget::BudgetTimeline;

/// Snapshot of the leakage at the moment a release happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TplReport {
    /// Time index of the release (0-based).
    pub t: usize,
    /// Budget ε_t spent by this release.
    pub epsilon: f64,
    /// Backward privacy leakage at time `t` (final — BPL never changes
    /// once computed).
    pub backward: f64,
    /// Forward privacy leakage at time `t` *as of now* (no future releases
    /// yet, so this equals ε_t; it grows as later releases arrive).
    pub forward: f64,
    /// Temporal privacy leakage at time `t` as of now.
    pub total: f64,
}

/// Leakage accountant for one adversary over one release timeline.
///
/// Serializable: a long-running service can persist the accountant
/// between releases and resume with the full leakage history intact (the
/// BPL recursion cannot be reconstructed from budgets alone without
/// replaying every release).
///
/// ```
/// use tcdp_core::TplAccountant;
/// use tcdp_markov::TransitionMatrix;
///
/// // Figure 3(a)(ii): BPL accumulates 0.10, 0.18, 0.25, ...
/// let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap();
/// let mut acc = TplAccountant::backward_only(p).unwrap();
/// acc.observe_uniform(0.1, 3).unwrap();
/// let bpl = acc.bpl_series();
/// assert!((bpl[1] - 0.18).abs() < 0.005);
/// assert!((bpl[2] - 0.25).abs() < 0.005);
/// ```
#[derive(Debug)]
pub struct TplAccountant {
    backward: Option<Arc<TemporalLossFunction>>,
    forward: Option<Arc<TemporalLossFunction>>,
    /// The observed ε trail — possibly shared with other accountants on
    /// the same budget sequence (see the module docs).
    timeline: Arc<BudgetTimeline>,
    /// BPL of the live window (global indices `folded.len..`); entries
    /// behind the timeline's fold are absorbed into `folded`.
    bpl: Vec<f64>,
    /// `BPL(t) − ε_t` of the live window, maintained alongside `bpl` at
    /// absorption time — the per-step summand of the TPL bound. Kept
    /// always (folded or not) because the timeline drops folded ε values
    /// on push, before this accountant folds its own mirror.
    bpl_less_eps: Vec<f64>,
    /// Closed summary of the BPL history already folded away.
    folded: FoldState,
    /// Tracked w-event windows: `(w, base)` pairs where `base` is the
    /// running maximum of the w-event guarantee over every window that
    /// *started* in the folded prefix (`NEG_INFINITY` until one folds;
    /// `INFINITY` when a window overran the live mirror — see
    /// [`Self::track_w_event`]). Updated at fold time, before the
    /// entries are dropped, so a folded sweep can still report the
    /// all-time maximum.
    wevent: Vec<(usize, f64)>,
    /// Version-stamped derived series; see the module docs.
    cache: Mutex<SeriesCache>,
    /// Memoized FPL supremum bound for folded-history queries, keyed on
    /// the `eps_sup` bits it was computed for.
    fold_sup: Mutex<Option<(u64, f64)>>,
}

/// Relative inflation applied to the finite Theorem 5 supremum when it
/// serves as the folded-history FPL bound. The float iterates of the
/// Equation 15 recursion can land a few ulps above the analytically
/// computed fixed point after thousands of steps; `1e-12` (~4500 ulps)
/// keeps the served value a true upper bound on the discarded series
/// while staying far below any leakage scale the paper reports.
const FOLD_SUP_GUARD: f64 = 1e-12;

/// Relative inflation applied to a w-event window's folded base value.
/// Windows of length `w ≥ 3` reconstruct their interior ε terms as
/// `BPL(m) − (BPL(m) − ε_m)` from the two mirrors, which can differ from
/// the raw ε by one ulp of `BPL(m)` per term; padding by `1e-13` of the
/// window's total BPL mass (≫ the `2⁻⁵²`-scale reconstruction error)
/// keeps the pre-folded maximum a true upper bound on the exact sweep.
const WEVENT_PAD: f64 = 1e-13;

/// Relative inflation applied to the cheap `max_tpl` upper bound served
/// by [`TplAccountant::max_tpl_hint`]. The bound sums `max (BPL − ε)`
/// and `sup FPL`, whose rounding differs from the cached
/// `max ((BPL + FPL) − ε)` by a few ulps per term; `1e-12` dominates
/// that discrepancy so a pruned shard provably cannot hold the scan's
/// maximum. A looser bound only costs skipped pruning, never
/// correctness.
const MAX_TPL_BOUND_GUARD: f64 = 1e-12;

/// [`TplAccountant::max_tpl_hint`]'s answer: the exact maximum when it
/// was already cached, or a proven upper bound when computing the exact
/// value would cost a series rebuild.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MaxTplHint {
    /// The exact `max_tpl` (the series cache was fresh).
    Exact(f64),
    /// An upper bound: the true `max_tpl` is `<=` this value.
    Bound(f64),
}

/// The constant-size summary a folded accountant keeps about the history
/// it dropped: enough to answer every folded-history query with a proven
/// upper bound (BPL is bounded by its folded maximum because BPL values
/// are final; TPL by `max_t (BPL(t) − ε_t)` plus the FPL supremum).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldState {
    /// Number of leading entries folded (global index of the first live
    /// entry) — always equal to the timeline's `live_start` after a sync.
    pub(crate) len: usize,
    /// Max BPL over the folded entries (`NEG_INFINITY` when none).
    pub(crate) bpl_max: f64,
    /// Max `BPL(t) − ε_t` over the folded entries (`NEG_INFINITY` when
    /// none).
    pub(crate) bpl_less_eps_max: f64,
}

impl FoldState {
    pub(crate) fn empty() -> Self {
        FoldState {
            len: 0,
            bpl_max: f64::NEG_INFINITY,
            bpl_less_eps_max: f64::NEG_INFINITY,
        }
    }
}

/// The derived series shared by every post-observation query. Valid iff
/// `revision` equals the timeline's current revision stamp (every push
/// bumps it, so a cache built at one revision can never serve a longer
/// or swapped trail).
#[derive(Debug, Clone)]
struct SeriesCache {
    revision: u64,
    /// FPL series (Equation 15).
    fpl: Vec<f64>,
    /// TPL series (Equation 10).
    tpl: Vec<f64>,
    /// Maximum of `tpl` (`−∞` when empty).
    max_tpl: f64,
}

impl SeriesCache {
    fn empty() -> Self {
        SeriesCache {
            revision: 0,
            fpl: Vec::new(),
            tpl: Vec::new(),
            max_tpl: f64::NEG_INFINITY,
        }
    }
}

impl TplAccountant {
    /// Build an accountant for the given adversary.
    pub fn new(adversary: &AdversaryT) -> Self {
        Self::with_shared_losses(
            adversary.backward_loss().map(Arc::new),
            adversary.forward_loss().map(Arc::new),
        )
    }

    /// Build an accountant over *shared* loss functions. Accountants
    /// built from the same `Arc`s share one pruning index and one
    /// warm-witness cache (both behaviorally invisible), which is how
    /// [`crate::personalized::PopulationAccountant`] avoids rebuilding
    /// identical Algorithm 1 state for every user with the same
    /// adversary.
    pub fn with_shared_losses(
        backward: Option<Arc<TemporalLossFunction>>,
        forward: Option<Arc<TemporalLossFunction>>,
    ) -> Self {
        Self {
            backward,
            forward,
            timeline: Arc::new(BudgetTimeline::new()),
            bpl: Vec::new(),
            bpl_less_eps: Vec::new(),
            folded: FoldState::empty(),
            wevent: Vec::new(),
            cache: Mutex::new(SeriesCache::empty()),
            fold_sup: Mutex::new(None),
        }
    }

    /// Build an accountant over an existing (possibly shared, possibly
    /// non-empty) [`BudgetTimeline`]: the BPL recursion is replayed over
    /// every entry already on the timeline, so the accountant joins the
    /// stream exactly where the timeline stands.
    pub fn with_timeline(adversary: &AdversaryT, timeline: Arc<BudgetTimeline>) -> Result<Self> {
        let mut acc = Self::with_shared_losses(
            adversary.backward_loss().map(Arc::new),
            adversary.forward_loss().map(Arc::new),
        );
        acc.timeline = timeline;
        acc.sync_with_timeline()?;
        Ok(acc)
    }

    /// As [`Self::with_shared_losses`], but joining an existing timeline
    /// (the population accountant's shard constructor).
    pub(crate) fn with_shared_losses_and_timeline(
        backward: Option<Arc<TemporalLossFunction>>,
        forward: Option<Arc<TemporalLossFunction>>,
        timeline: Arc<BudgetTimeline>,
    ) -> Result<Self> {
        let mut acc = Self::with_shared_losses(backward, forward);
        acc.timeline = timeline;
        acc.sync_with_timeline()?;
        Ok(acc)
    }

    /// Adversary type `A^T_i(P^B)`: backward correlation only.
    pub fn backward_only(pb: TransitionMatrix) -> Result<Self> {
        Ok(Self::new(&AdversaryT::with_backward(pb)))
    }

    /// Adversary type `A^T_i(P^F)`: forward correlation only.
    pub fn forward_only(pf: TransitionMatrix) -> Result<Self> {
        Ok(Self::new(&AdversaryT::with_forward(pf)))
    }

    /// Adversary type `A^T_i(P^B, P^F)`.
    pub fn with_both(pb: TransitionMatrix, pf: TransitionMatrix) -> Result<Self> {
        Ok(Self::new(&AdversaryT::with_both(pb, pf)?))
    }

    /// The traditional adversary (leakage degenerates to ε_t everywhere).
    pub fn traditional() -> Self {
        Self::new(&AdversaryT::traditional())
    }

    /// Number of releases observed so far.
    pub fn len(&self) -> usize {
        self.timeline.len()
    }

    /// Whether no release has been observed.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
    }

    /// A snapshot of the budgets observed so far. For zero-copy access
    /// use [`Self::with_budgets`] or [`Self::timeline`].
    pub fn budgets(&self) -> Vec<f64> {
        self.timeline.values()
    }

    /// Run `f` over the observed budget trail without copying it. The
    /// timeline's shared lock is held for the duration of `f`; do not
    /// call accountant methods from inside.
    pub fn with_budgets<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        self.timeline.with_values(f)
    }

    /// The budget timeline this accountant observes. Accountants built
    /// over one shared timeline (see [`Self::with_timeline`] and the
    /// population accountant) return the same object here.
    pub fn timeline(&self) -> &Arc<BudgetTimeline> {
        &self.timeline
    }

    /// Record a release of budget `eps` at the next time point.
    ///
    /// The budget is appended to the (possibly shared) timeline; any
    /// other accountant on the same timeline observes it at its next
    /// [`Self::sync_with_timeline`].
    pub fn observe_release(&mut self, eps: f64) -> Result<TplReport> {
        check_epsilon(eps)?;
        self.timeline.push(eps)?;
        self.sync_with_timeline()?;
        let t = self.timeline.len() - 1;
        // The newest release is always live (a fold horizon keeps at
        // least H ≥ 1 live entries), so `last()` is its BPL.
        let bpl_t = self.bpl.last().copied().unwrap_or(eps);
        Ok(TplReport {
            t,
            epsilon: eps,
            backward: bpl_t,
            forward: eps,
            total: bpl_t,
        })
    }

    /// Advance the BPL recursion (Equation 13) over timeline entries not
    /// yet absorbed — the ones a coordinator sharing this accountant's
    /// timeline appended since the last observation — then fold this
    /// accountant's mirror up to the timeline's fold point. A no-op when
    /// the accountant is already caught up.
    pub fn sync_with_timeline(&mut self) -> Result<()> {
        let t_len = self.timeline.len();
        if self.folded.len + self.bpl.len() < t_len {
            let backward = &self.backward;
            let bpl = &mut self.bpl;
            let bpl_less_eps = &mut self.bpl_less_eps;
            let folded_len = self.folded.len;
            self.timeline.with_values(|live| {
                let live_start = t_len - live.len();
                let mut global = folded_len + bpl.len();
                if global < live_start {
                    // Entries this accountant never absorbed were folded
                    // away on the shared timeline: the recursion cannot
                    // be continued exactly.
                    return Err(TplError::FoldedHistory {
                        t: global,
                        live_start,
                    });
                }
                while global < t_len {
                    let eps = live[global - live_start];
                    let bpl_t = match backward {
                        Some(l) => match bpl.last() {
                            Some(&prev) => l.eval(prev)? + eps,
                            None if global == 0 => eps,
                            // The previous BPL was folded out from under
                            // an accountant that never absorbed it.
                            None => {
                                return Err(TplError::FoldedHistory {
                                    t: global,
                                    live_start,
                                })
                            }
                        },
                        None => eps, // no backward correlation known
                    };
                    bpl.push(bpl_t);
                    bpl_less_eps.push(bpl_t - eps);
                    global += 1;
                }
                Ok(())
            })?;
        }
        self.fold_to_timeline()?;
        debug_assert!(self.folded.len + self.bpl.len() >= self.timeline.len());
        Ok(())
    }

    /// Fold this accountant's BPL mirror up to the timeline's current
    /// fold point, absorbing the dropped entries' maxima into
    /// [`FoldState`]. O(k) for the k entries folded (k ≤ 1 on the
    /// steady-state release path).
    fn fold_to_timeline(&mut self) -> Result<()> {
        let live_start = self.timeline.live_start();
        if live_start <= self.folded.len {
            return Ok(());
        }
        let k = live_start - self.folded.len;
        if k > self.bpl.len() {
            // The timeline folded past entries this accountant never
            // absorbed (it was left unsynced across folds).
            return Err(TplError::FoldedHistory {
                t: self.folded.len + self.bpl.len(),
                live_start,
            });
        }
        // Pre-fold every tracked w-event window that *starts* at one of
        // the k entries about to be dropped, while both mirrors still
        // hold the values. The BPL part of the paper's w-event bound
        // (Theorem 4 / `sequence_guarantee`'s middle term) over window
        // `[i, i+w)` is
        //   BPL(i) + Σ_{m=i+1}^{i+w−2} ε_m        (w ≥ 3)
        //   BPL(i)                                 (w ∈ {1, 2}, where the
        //                                           w = 1 case is the TPL
        //                                           summand BPL(i) − ε_i)
        // with the interior ε reconstructed as `bpl[m] − bpl_less_eps[m]`
        // (padded by [`WEVENT_PAD`] — see its docs). A window that runs
        // past the live mirror (only possible when `w` exceeds the fold
        // horizon) poisons the base to `+∞`: its exact value is about to
        // become unknowable.
        if !self.wevent.is_empty() {
            for (w, base) in &mut self.wevent {
                let w = *w;
                for i in 0..k {
                    if i + w > self.bpl.len() {
                        *base = f64::INFINITY;
                        break;
                    }
                    let (raw, mass) = match w {
                        1 => (self.bpl_less_eps[i], self.bpl[i]),
                        2 => (self.bpl[i], self.bpl[i]),
                        _ => {
                            let mut raw = self.bpl[i];
                            let mut mass = self.bpl[i];
                            for m in i + 1..i + w - 1 {
                                raw += self.bpl[m] - self.bpl_less_eps[m];
                                mass += self.bpl[m];
                            }
                            (raw, mass)
                        }
                    };
                    *base = base.max(raw + mass * WEVENT_PAD);
                }
            }
        }
        for i in 0..k {
            self.folded.bpl_max = self.folded.bpl_max.max(self.bpl[i]);
            self.folded.bpl_less_eps_max = self.folded.bpl_less_eps_max.max(self.bpl_less_eps[i]);
        }
        self.bpl.drain(..k);
        self.bpl_less_eps.drain(..k);
        self.folded.len = live_start;
        Ok(())
    }

    /// Arm (or disarm, with `None`) the fold horizon `H ≥ 1` on this
    /// accountant's timeline and fold any excess history immediately —
    /// see [`BudgetTimeline::set_horizon`]. After folding, per-release
    /// cost and resident state are O(H) instead of O(T); queries at live
    /// time points stay bit-identical to an unfolded accountant, queries
    /// behind the fold answer with documented upper bounds (see
    /// [`Self::bpl_at`] / [`Self::fpl_at`] / [`Self::tpl_at`]).
    ///
    /// When this accountant shares its timeline with others (population
    /// shards), arm the horizon through the coordinator
    /// (`PopulationAccountant::set_horizon`) so every sharer folds its
    /// mirror in the same step.
    pub fn set_horizon(&mut self, horizon: Option<usize>) -> Result<()> {
        self.timeline.set_horizon(horizon)?;
        self.sync_with_timeline()
    }

    /// Global index of the first live (exactly-answerable) time point —
    /// 0 until a fold horizon trims history.
    pub fn live_start(&self) -> usize {
        self.folded.len
    }

    /// Start tracking the all-time w-event maximum for window length
    /// `w ≥ 1`: at every fold, the windows about to leave the live
    /// mirror contribute their (padded) guarantee to a running maximum,
    /// so [`Self::folded_w_event_bound`] can report an upper bound on
    /// the whole-history sweep even after the early windows folded away.
    ///
    /// Must be armed **before** the first fold (`live_start() == 0`) —
    /// windows already folded cannot be reconstructed — and tracking is
    /// exact-cost O(w) per folded entry. Tracking the same `w` twice is
    /// a no-op.
    pub fn track_w_event(&mut self, w: usize) -> Result<()> {
        if w == 0 {
            return Err(TplError::InvalidWindow { w });
        }
        if self.live_start() > 0 {
            return Err(TplError::FoldedHistory {
                t: 0,
                live_start: self.live_start(),
            });
        }
        if !self.wevent.iter().any(|&(tw, _)| tw == w) {
            self.wevent.push((w, f64::NEG_INFINITY));
        }
        Ok(())
    }

    /// The pre-folded w-event bound for a tracked window length: an
    /// upper bound on `max` of Theorem 2 over every window that started
    /// in the **folded** prefix. Returns:
    ///
    /// - `Ok(None)` — `w` is not tracked, or nothing has folded yet
    ///   (the live sweep alone is exact);
    /// - `Ok(Some(v))` — finite bound: the padded folded BPL part plus
    ///   the Theorem 5 FPL supremum (any window's FPL endpoint is ≤ it);
    /// - `Ok(Some(∞))` — a tracked window overran the live mirror (only
    ///   possible when `w` exceeds the fold horizon), so no finite bound
    ///   exists.
    ///
    /// `crate::composition::w_event_guarantee` joins this with the live
    /// sweep to serve whole-history audits on folded accountants.
    pub fn folded_w_event_bound(&self, w: usize) -> Result<Option<f64>> {
        if w == 0 {
            return Err(TplError::InvalidWindow { w });
        }
        let base = match self.wevent.iter().find(|&&(tw, _)| tw == w) {
            Some(&(_, base)) => base,
            None => return Ok(None),
        };
        if base == f64::NEG_INFINITY {
            return Ok(None);
        }
        if base == f64::INFINITY {
            return Ok(Some(f64::INFINITY));
        }
        Ok(Some(base + self.fold_fpl_bound()?))
    }

    /// The tracked w-event `(w, base)` pairs — checkpoint snapshot hook.
    pub(crate) fn wevent_pairs(&self) -> &[(usize, f64)] {
        &self.wevent
    }

    /// Install checkpointed w-event pairs — checkpoint restore hook,
    /// called right after [`Self::from_restored_parts`] (kept separate
    /// so that constructor's signature stays stable).
    pub(crate) fn restore_wevent(&mut self, pairs: Vec<(usize, f64)>) {
        self.wevent = pairs;
    }

    /// Number of resident `f64`s held by this accountant and its
    /// timeline (live budgets, prefix sums, BPL mirror, and cached
    /// FPL/TPL series) — the flat-memory witness: O(H) once a fold
    /// horizon is armed, O(T) otherwise.
    pub fn resident_f64s(&self) -> usize {
        let cache = self.cache.lock();
        self.timeline.resident_len()
            + self.bpl.len()
            + self.bpl_less_eps.len()
            + cache.fpl.len()
            + cache.tpl.len()
    }

    /// Record `t_len` releases with the same budget.
    pub fn observe_uniform(&mut self, eps: f64, t_len: usize) -> Result<()> {
        for _ in 0..t_len {
            self.observe_release(eps)?;
        }
        Ok(())
    }

    /// The BPL series (Equation 13) over the **live window** — one value
    /// per still-live release (index 0 is global time
    /// [`Self::live_start`]; the whole timeline when unfolded); values
    /// are final.
    pub fn bpl_series(&self) -> &[f64] {
        &self.bpl
    }

    /// Run `f` over the (validated) series cache, rebuilding it first if
    /// the timeline's revision moved since the last query — the single
    /// `O(T)` recomputation every query shares.
    fn with_cache<R>(&self, f: impl FnOnce(&SeriesCache) -> R) -> Result<R> {
        let mut cache = self.cache.lock();
        if cache.revision != self.timeline.revision() {
            self.rebuild(&mut cache)?;
        }
        Ok(f(&cache))
    }

    /// One backward FPL pass (through a checked-out evaluator, so the
    /// `O(T)` evaluations share one scratch set and warm chain), then the
    /// derived TPL/extremum series.
    fn rebuild(&self, cache: &mut SeriesCache) -> Result<()> {
        let revision = self.timeline.revision();
        let live_start = self.timeline.live_start();
        let forward = &self.forward;
        let bpl = &self.bpl;
        let folded_len = self.folded.len;
        let (fpl, tpl) = self.timeline.with_values(|budgets| {
            // The series covers the live window only; the FPL backward
            // pass over it is *exact* (it is anchored at the current
            // end, and folded history is strictly earlier).
            let t_len = budgets.len();
            if bpl.len() != t_len || folded_len != live_start {
                // A coordinator pushed to (or folded) the shared
                // timeline without syncing this accountant — report it
                // instead of zipping a truncated TPL series.
                return Err(TplError::DimensionMismatch {
                    expected: t_len,
                    found: bpl.len(),
                });
            }
            let mut fpl = vec![0.0; t_len];
            if t_len > 0 {
                fpl[t_len - 1] = budgets[t_len - 1];
                match forward {
                    Some(l) => {
                        let mut ev = l.evaluator();
                        for t in (0..t_len - 1).rev() {
                            fpl[t] = ev.eval(fpl[t + 1])? + budgets[t];
                        }
                    }
                    None => fpl[..t_len - 1].copy_from_slice(&budgets[..t_len - 1]),
                }
            }
            let tpl: Vec<f64> = bpl
                .iter()
                .zip(&fpl)
                .zip(budgets)
                .map(|((b, f), e)| b + f - e)
                .collect();
            Ok((fpl, tpl))
        })?;
        Self::install_series(cache, revision, fpl, tpl);
        Ok(())
    }

    /// Install a complete `(fpl, tpl)` pair into the cache, deriving the
    /// maximum. Shared by [`Self::rebuild`] and the checkpoint-restore
    /// path, so a restored cache is bit-identical to a rebuilt one by
    /// construction (same fold, same order).
    fn install_series(cache: &mut SeriesCache, revision: u64, fpl: Vec<f64>, tpl: Vec<f64>) {
        cache.max_tpl = tpl.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        cache.fpl = fpl;
        cache.tpl = tpl;
        cache.revision = revision;
    }

    /// Map a time index to [`TplError::EmptyTimeline`] (nothing observed)
    /// or [`TplError::TimeOutOfRange`] (observed, but `t` is past the end).
    fn index_error(&self, t: usize) -> TplError {
        let len = self.timeline.len();
        if len == 0 {
            TplError::EmptyTimeline
        } else {
            TplError::TimeOutOfRange { t, len }
        }
    }

    /// The FPL series (Equation 15) over the **live window** given
    /// everything observed so far (index 0 is global time
    /// [`Self::live_start`]; the whole timeline when unfolded); earlier
    /// entries grow as more releases arrive. Served from the shared
    /// cache (recomputed at most once per release).
    pub fn fpl_series(&self) -> Result<Vec<f64>> {
        self.with_cache(|c| c.fpl.clone())
    }

    /// The TPL series (Equation 10) over the **live window**:
    /// `BPL + FPL − ε` per time point (index 0 is global time
    /// [`Self::live_start`]).
    pub fn tpl_series(&self) -> Result<Vec<f64>> {
        self.with_cache(|c| c.tpl.clone())
    }

    /// The upper bound served for folded-history FPL queries: the
    /// Theorem 5 supremum of the forward recursion at the largest budget
    /// ever observed (FPL is monotone in the per-step budgets, so the
    /// supremum at `max ε` dominates every true folded FPL value).
    /// `+∞` when the supremum diverges (Theorem 5 cases 3–4). Memoized
    /// per `eps_sup`; `eps_sup` itself is an O(live) scan.
    ///
    /// The finite supremum is inflated by [`FOLD_SUP_GUARD`]: the
    /// floating-point iterates of the Equation 15 recursion converge to
    /// the analytic fixed point but can round a few ulps *past* it over
    /// thousands of steps, and the bound must dominate what an unfolded
    /// accountant would actually have computed, not just the exact limit.
    fn fold_fpl_bound(&self) -> Result<f64> {
        let folded_max = self.timeline.folded_eps_max().unwrap_or(f64::NEG_INFINITY);
        let live_max = self.with_budgets(|b| b.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        let eps_sup = folded_max.max(live_max);
        let Some(forward) = &self.forward else {
            // No forward correlation: FPL(t) = ε_t ≤ eps_sup exactly.
            return Ok(eps_sup);
        };
        let mut memo = self.fold_sup.lock();
        if let Some((bits, bound)) = *memo {
            if bits == eps_sup.to_bits() {
                return Ok(bound);
            }
        }
        let bound = match supremum_of_loss(forward, eps_sup)? {
            Supremum::Finite(v) => v * (1.0 + FOLD_SUP_GUARD),
            Supremum::Divergent => f64::INFINITY,
        };
        *memo = Some((eps_sup.to_bits(), bound));
        Ok(bound)
    }

    /// BPL at a single time point (`O(1)` — BPL values are final). For
    /// `t` behind the fold horizon, returns the **upper bound**
    /// `max BPL` over the folded entries (exact values are folded away;
    /// the max dominates each of them because BPL values are final).
    pub fn bpl_at(&self, t: usize) -> Result<f64> {
        if t < self.folded.len {
            return Ok(self.folded.bpl_max);
        }
        self.bpl
            .get(t - self.folded.len)
            .copied()
            .ok_or_else(|| self.index_error(t))
    }

    /// FPL at a single time point (`O(1)` amortized from the cache). For
    /// `t` behind the fold horizon, returns the **upper bound** from
    /// [`Self::fold_fpl_bound`] (`+∞` when the Theorem 5 supremum
    /// diverges).
    pub fn fpl_at(&self, t: usize) -> Result<f64> {
        if t < self.folded.len {
            return self.fold_fpl_bound();
        }
        let k = t - self.folded.len;
        self.with_cache(|c| c.fpl.get(k).copied())?
            .ok_or_else(|| self.index_error(t))
    }

    /// TPL at a single time point (`O(1)` amortized from the cache). For
    /// `t` behind the fold horizon, returns the **upper bound**
    /// `max_folded (BPL − ε) + sup FPL` — both summands dominate their
    /// true folded counterparts, so the sum dominates the true TPL
    /// (never NaN: the folded `BPL − ε` max is finite whenever anything
    /// is folded).
    pub fn tpl_at(&self, t: usize) -> Result<f64> {
        if t < self.folded.len {
            return Ok(self.folded.bpl_less_eps_max + self.fold_fpl_bound()?);
        }
        let k = t - self.folded.len;
        self.with_cache(|c| c.tpl.get(k).copied())?
            .ok_or_else(|| self.index_error(t))
    }

    /// `Σ ε_k` over the window `[t, t + w)` of observed budgets, from the
    /// timeline's prefix sums (`O(1)`; the result may differ from a
    /// naive slice sum in the last ulp, as any prefix-difference does).
    /// Windows starting behind the fold horizon error with
    /// [`TplError::FoldedHistory`]; windows reaching beyond the end with
    /// [`TplError::WindowOutOfRange`] naming the actual `(t, w)` pair.
    pub fn window_budget_sum(&self, t: usize, w: usize) -> Result<f64> {
        let t_len = self.timeline.len();
        if t_len == 0 {
            return Err(TplError::EmptyTimeline);
        }
        if w == 0 || w > t_len {
            return Err(TplError::InvalidWindow { w });
        }
        let live_start = self.timeline.live_start();
        if t < live_start {
            return Err(TplError::FoldedHistory { t, live_start });
        }
        self.timeline
            .window_sum(t, w)
            .ok_or(TplError::WindowOutOfRange { t, w, len: t_len })
    }

    /// The worst TPL across the timeline — the α for which the observed
    /// mechanism sequence currently satisfies α-DP_T at event level.
    /// `O(1)` amortized from the cache. Bit-identical to an unfolded
    /// accountant until history folds; afterwards an **upper bound**
    /// (the live maximum joined with the folded-history TPL bound).
    pub fn max_tpl(&self) -> Result<f64> {
        if self.timeline.is_empty() {
            return Err(TplError::EmptyTimeline);
        }
        let live = self.with_cache(|c| c.max_tpl)?;
        if self.folded.len == 0 {
            return Ok(live);
        }
        Ok(live.max(self.folded.bpl_less_eps_max + self.fold_fpl_bound()?))
    }

    /// What this shard can say about its [`Self::max_tpl`] *without*
    /// paying a series rebuild: the exact value when the cache is
    /// already fresh for the current revision, otherwise a cheap upper
    /// bound — `max(BPL − ε)` over live and folded entries (maintained
    /// mirrors, no loss evaluations) plus the memoized Theorem 5 FPL
    /// supremum, inflated by [`MAX_TPL_BOUND_GUARD`]. The population
    /// `most_exposed_user` scan uses it to skip shards whose bound
    /// cannot beat the incumbent.
    pub(crate) fn max_tpl_hint(&self) -> Result<MaxTplHint> {
        if self.timeline.is_empty() {
            return Err(TplError::EmptyTimeline);
        }
        let cached = {
            let cache = self.cache.lock();
            (cache.revision == self.timeline.revision()).then_some(cache.max_tpl)
        };
        if let Some(live) = cached {
            return Ok(MaxTplHint::Exact(if self.folded.len == 0 {
                live
            } else {
                live.max(self.folded.bpl_less_eps_max + self.fold_fpl_bound()?)
            }));
        }
        let ble = self
            .bpl_less_eps
            .iter()
            .copied()
            .fold(self.folded.bpl_less_eps_max, f64::max);
        let raw = ble + self.fold_fpl_bound()?;
        Ok(MaxTplHint::Bound(raw + raw.abs() * MAX_TPL_BOUND_GUARD))
    }

    /// Corollary 1: the user-level guarantee of the whole timeline is the
    /// plain sequential-composition sum `Σ ε_k` — temporal correlations do
    /// not worsen user-level privacy. Exact (bit-identical to the
    /// unfolded left fold) even after history folds: the timeline's
    /// prefix sums carry the absolute running total across the fold.
    pub fn user_level(&self) -> f64 {
        self.timeline.total()
    }

    /// Total Algorithm 1 evaluations performed by this accountant's loss
    /// functions — the complexity test hook (e.g. a w-event audit of a
    /// T-step timeline must stay `O(T)`). Counts are shared with any
    /// other accountant holding the same loss `Arc`s.
    pub fn loss_eval_count(&self) -> u64 {
        self.backward.as_ref().map_or(0, |l| l.eval_count())
            + self.forward.as_ref().map_or(0, |l| l.eval_count())
    }

    /// The backward loss function, if any ([`crate::checkpoint`] hook).
    pub(crate) fn backward_loss_fn(&self) -> Option<&Arc<TemporalLossFunction>> {
        self.backward.as_ref()
    }

    /// The forward loss function, if any ([`crate::checkpoint`] hook).
    pub(crate) fn forward_loss_fn(&self) -> Option<&Arc<TemporalLossFunction>> {
        self.forward.as_ref()
    }

    /// The cached derived series `(fpl, tpl)` — `Some` only if the cache
    /// is valid for the current timeline revision ([`crate::checkpoint`]
    /// snapshots it so a resumed audit does not pay the `O(T)` rebuild).
    pub(crate) fn series_snapshot(&self) -> Option<(Vec<f64>, Vec<f64>)> {
        let cache = self.cache.lock();
        (cache.revision == self.timeline.revision() && !self.timeline.is_empty())
            .then(|| (cache.fpl.clone(), cache.tpl.clone()))
    }

    /// Restore a checkpointed `(fpl, tpl)` pair into the series cache.
    /// The caller ([`crate::checkpoint`]) has validated the lengths
    /// against the budget trail; [`Self::install_series`] re-derives the
    /// maximum with the exact fold `rebuild` uses, so the restored cache
    /// is bit-identical to one the accountant would have computed itself.
    pub(crate) fn restore_series(&self, fpl: Vec<f64>, tpl: Vec<f64>) {
        let mut cache = self.cache.lock();
        Self::install_series(&mut cache, self.timeline.revision(), fpl, tpl);
    }

    /// Build an accountant directly from restored state — the
    /// checkpoint-restore constructor ([`crate::checkpoint`] has already
    /// validated every part; the series cache starts cold and is filled
    /// by `restore_series` when the checkpoint carried one).
    pub(crate) fn from_restored_parts(
        backward: Option<Arc<TemporalLossFunction>>,
        forward: Option<Arc<TemporalLossFunction>>,
        timeline: Arc<BudgetTimeline>,
        bpl: Vec<f64>,
        folded: FoldState,
    ) -> Self {
        // `BPL(t) − ε_t` is recomputed from the restored live series with
        // the exact operands the live run subtracted, so the rebuilt
        // mirror is bit-identical to the checkpointed one.
        let bpl_less_eps =
            timeline.with_values(|b| bpl.iter().zip(b).map(|(l, e)| l - e).collect());
        Self {
            backward,
            forward,
            timeline,
            bpl,
            bpl_less_eps,
            folded,
            wevent: Vec::new(),
            cache: Mutex::new(SeriesCache::empty()),
            fold_sup: Mutex::new(None),
        }
    }

    /// The folded-BPL summary stats `(bpl_max, bpl_less_eps_max)` — the
    /// [`crate::checkpoint`] snapshot hook.
    pub(crate) fn fold_state(&self) -> FoldState {
        self.folded
    }

    /// Splice a delta checkpoint's `(budgets, BPL)` tail onto the
    /// recursion state — the values were computed by the identical
    /// recursion in the saved run, so installing them verbatim is
    /// bit-identical to replaying it (without re-paying the loss
    /// evaluations the saved run already performed), then fold the
    /// mirror up to the timeline's fold point. The caller
    /// ([`crate::checkpoint`]) has validated the tail and already
    /// appended the matching budgets to the timeline.
    pub(crate) fn extend_bpl(&mut self, budgets: &[f64], bpl: &[f64]) -> Result<()> {
        self.bpl.extend_from_slice(bpl);
        self.bpl_less_eps
            .extend(bpl.iter().zip(budgets).map(|(l, e)| l - e));
        self.fold_to_timeline()?;
        debug_assert_eq!(self.folded.len + self.bpl.len(), self.timeline.len());
        Ok(())
    }

    /// Swap the timeline object without touching the absorbed BPL state —
    /// the copy-on-write seam. The caller guarantees the new timeline's
    /// first `bpl.len()` entries are bit-identical to the old one's
    /// (population splits push diverging budgets only *past* that point;
    /// checkpoint resume re-shares bitwise-equal trails).
    pub(crate) fn set_timeline(&mut self, timeline: Arc<BudgetTimeline>) {
        self.timeline = timeline;
    }

    /// Clone everything except the timeline, which is taken from the
    /// caller — the shard-split/clone primitive of
    /// [`crate::personalized::PopulationAccountant`]. Subject to
    /// [`Self::set_timeline`]'s prefix-consistency contract.
    ///
    /// Never waits on a reader: a query holds the series cache for a
    /// whole FPL rebuild and the supremum memo for a whole Theorem 5
    /// search, on the same published snapshot a writer clones. Each
    /// cache is copied only when its lock is free; otherwise the clone
    /// starts it cold. Both are behaviorally invisible, so the clone
    /// answers every query identically either way.
    pub(crate) fn clone_with_timeline(&self, timeline: Arc<BudgetTimeline>) -> Self {
        let cache = self
            .cache
            .try_lock()
            .map_or_else(SeriesCache::empty, |c| c.clone());
        let fold_sup = self.fold_sup.try_lock().and_then(|memo| *memo);
        Self {
            backward: self.backward.clone(),
            forward: self.forward.clone(),
            timeline,
            bpl: self.bpl.clone(),
            bpl_less_eps: self.bpl_less_eps.clone(),
            folded: self.folded,
            wevent: self.wevent.clone(),
            cache: Mutex::new(cache),
            fold_sup: Mutex::new(fold_sup),
        }
    }

    /// Whether two accountants hold bit-identical *observable* state:
    /// BPL mirrors, fold summaries, and tracked w-event bases all equal
    /// bit for bit. Derived caches are ignored (they rebuild to the
    /// same bits from equal state), as are the loss-function objects
    /// (the caller compares adversaries). Together with timeline
    /// equality this makes two accountants answer every future query
    /// identically — the merge precondition of
    /// [`crate::personalized::PopulationAccountant::remerge_converged`].
    pub(crate) fn state_eq(&self, other: &Self) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.folded.len == other.folded.len
            && self.folded.bpl_max.to_bits() == other.folded.bpl_max.to_bits()
            && self.folded.bpl_less_eps_max.to_bits() == other.folded.bpl_less_eps_max.to_bits()
            && bits_eq(&self.bpl, &other.bpl)
            && bits_eq(&self.bpl_less_eps, &other.bpl_less_eps)
            && self.wevent.len() == other.wevent.len()
            && self
                .wevent
                .iter()
                .zip(&other.wevent)
                .all(|((w1, b1), (w2, b2))| w1 == w2 && b1.to_bits() == b2.to_bits())
    }
}

impl Clone for TplAccountant {
    /// Cloning shares the loss functions (their caches are behaviorally
    /// invisible) and *deep-copies* the budget timeline — a clone never
    /// observes the original's future releases — plus the current series
    /// cache.
    fn clone(&self) -> Self {
        self.clone_with_timeline(Arc::new((*self.timeline).clone()))
    }
}

/// Encode tracked w-event pairs for a checkpoint: a sequence of
/// `[w, base]` pairs where `base` is `null` for `−∞` (tracked, nothing
/// folded yet) and the string `"inf"` for `+∞` (a window overran the
/// live mirror) — neither JSON nor the binary META map carries
/// infinities as numbers.
pub(crate) fn wevent_to_value(pairs: &[(usize, f64)]) -> Value {
    Value::Seq(
        pairs
            .iter()
            .map(|&(w, base)| {
                let base = if base == f64::NEG_INFINITY {
                    Value::Null
                } else if base == f64::INFINITY {
                    Value::Str("inf".to_string())
                } else {
                    Value::Num(base)
                };
                Value::Seq(vec![Value::Num(w as f64), base])
            })
            .collect(),
    )
}

/// Decode [`wevent_to_value`]'s encoding, refusing malformed shapes with
/// a message the checkpoint layer wraps into its corruption error.
pub(crate) fn wevent_from_value(v: &Value) -> std::result::Result<Vec<(usize, f64)>, String> {
    let Value::Seq(items) = v else {
        return Err("expected a sequence of [w, base] pairs".to_string());
    };
    let mut pairs: Vec<(usize, f64)> = Vec::with_capacity(items.len());
    for item in items {
        let pair = match item {
            Value::Seq(pair) if pair.len() == 2 => pair,
            _ => return Err("expected a two-element [w, base] pair".to_string()),
        };
        let w = match &pair[0] {
            Value::Num(n) if *n >= 1.0 && n.fract() == 0.0 => *n as usize,
            _ => return Err("window length must be a positive integer".to_string()),
        };
        let base = match &pair[1] {
            Value::Null => f64::NEG_INFINITY,
            Value::Str(s) if s == "inf" => f64::INFINITY,
            Value::Num(n) if n.is_finite() => *n,
            _ => return Err(format!("window {w} carries a non-decodable base value")),
        };
        if pairs.iter().any(|&(tw, _)| tw == w) {
            return Err(format!("window {w} is tracked twice"));
        }
        pairs.push((w, base));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theorem 5's case-1 root near its case boundary: forward-only
    /// `[[q, 1 − q], [d, 1 − d]]` with tiny `d` and ε just below
    /// `ln(1/q)`, where `b = d + q·e^ε − 1 < 0` and the textbook root
    /// `(√disc + b)/(2d)` cancelled, landing a folded FPL bound up to
    /// ~1e-8 below the fixed point its recursion reaches. Every folded
    /// answer is documented as an upper bound on the unfolded one, and
    /// the unrebuilt `max_tpl` hint as one on the exact value.
    #[test]
    fn folded_bounds_dominate_near_theorem5_case_boundary() {
        use rand::{Rng, SeedableRng};
        const RELEASES: usize = 20_000;
        for seed in 0..48u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let q: f64 = rng.gen_range(0.5..0.99);
            let d = 10f64.powf(-rng.gen_range(3.0..12.0));
            let eps = rng.gen_range(0.9..1.0) * (1.0 / q).ln();
            let pf = TransitionMatrix::from_rows(vec![vec![q, 1.0 - q], vec![d, 1.0 - d]]).unwrap();
            let ctx = format!("seed {seed}: q={q} d={d:e} eps={eps}");
            let mut unfolded = TplAccountant::forward_only(pf.clone()).unwrap();
            unfolded.observe_uniform(eps, RELEASES).unwrap();
            let mut folded = TplAccountant::forward_only(pf).unwrap();
            folded.set_horizon(Some(64)).unwrap();
            folded.observe_uniform(eps, RELEASES).unwrap();
            let MaxTplHint::Bound(hint) = unfolded.max_tpl_hint().unwrap() else {
                panic!("{ctx}: a stale cache gives a bound");
            };
            let exact = unfolded.max_tpl().unwrap();
            assert!(hint >= exact, "{ctx}: hint {hint} < max_tpl {exact}");
            let (fpl, fpl_folded) = (unfolded.fpl_at(0).unwrap(), folded.fpl_at(0).unwrap());
            assert!(fpl_folded >= fpl, "{ctx}: folded fpl {fpl_folded} < {fpl}");
            let max_folded = folded.max_tpl().unwrap();
            assert!(
                max_folded >= exact,
                "{ctx}: folded max_tpl {max_folded} < {exact}"
            );
        }
    }

    fn fig3_matrix() -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap()
    }

    /// Paper Figure 3(a)(ii): the BPL series of Lap(1/0.1) under the
    /// moderate backward correlation, to the two decimals printed there.
    #[test]
    fn figure3_bpl_series_matches_paper() {
        let expected = [0.10, 0.18, 0.25, 0.30, 0.35, 0.39, 0.42, 0.45, 0.48, 0.50];
        let mut acc = TplAccountant::backward_only(fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 10).unwrap();
        for (t, &e) in expected.iter().enumerate() {
            let got = acc.bpl_series()[t];
            assert!(
                (got - e).abs() < 0.005,
                "t={}: got {got}, paper says {e}",
                t + 1
            );
        }
    }

    /// Paper Figure 3(b)(ii): FPL is the same series reversed.
    #[test]
    fn figure3_fpl_series_matches_paper() {
        let expected = [0.50, 0.48, 0.45, 0.42, 0.39, 0.35, 0.30, 0.25, 0.18, 0.10];
        let mut acc = TplAccountant::forward_only(fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 10).unwrap();
        let fpl = acc.fpl_series().unwrap();
        for (t, &e) in expected.iter().enumerate() {
            assert!(
                (fpl[t] - e).abs() < 0.005,
                "t={}: got {}, paper says {e}",
                t + 1,
                fpl[t]
            );
        }
    }

    /// Paper Figure 3(c)(ii): TPL = BPL + FPL − ε, peaking mid-timeline.
    #[test]
    fn figure3_tpl_series_matches_paper() {
        let expected = [0.50, 0.56, 0.60, 0.62, 0.64, 0.64, 0.62, 0.60, 0.56, 0.50];
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 10).unwrap();
        let tpl = acc.tpl_series().unwrap();
        for (t, &e) in expected.iter().enumerate() {
            assert!(
                (tpl[t] - e).abs() < 0.005,
                "t={}: got {}, paper says {e}",
                t + 1,
                tpl[t]
            );
        }
        assert!((acc.max_tpl().unwrap() - 0.64).abs() < 0.005);
        // Symmetric because P^B = P^F here.
        for t in 0..5 {
            assert!((tpl[t] - tpl[9 - t]).abs() < 1e-9);
        }
    }

    /// Figure 3 extreme (i): strongest correlation makes BPL linear in t
    /// and TPL constant at T·ε = 1.0.
    #[test]
    fn figure3_strongest_correlation() {
        let ident = TransitionMatrix::identity(2).unwrap();
        let mut acc = TplAccountant::with_both(ident.clone(), ident).unwrap();
        acc.observe_uniform(0.1, 10).unwrap();
        let bpl = acc.bpl_series();
        for (t, b) in bpl.iter().enumerate() {
            assert!((b - 0.1 * (t + 1) as f64).abs() < 1e-9);
        }
        let tpl = acc.tpl_series().unwrap();
        for v in &tpl {
            assert!(
                (v - 1.0).abs() < 1e-9,
                "event-level TPL equals user-level Tε"
            );
        }
        assert!((acc.user_level() - 1.0).abs() < 1e-12);
    }

    /// Figure 3 extreme (iii): traditional adversary sees only ε each step.
    #[test]
    fn traditional_adversary_leaks_epsilon_only() {
        let mut acc = TplAccountant::traditional();
        acc.observe_uniform(0.1, 10).unwrap();
        assert!(acc.bpl_series().iter().all(|&b| (b - 0.1).abs() < 1e-12));
        let tpl = acc.tpl_series().unwrap();
        assert!(tpl.iter().all(|&v| (v - 0.1).abs() < 1e-12));
        assert!((acc.user_level() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backward_only_adversary_has_no_fpl_amplification() {
        let mut acc = TplAccountant::backward_only(fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 10).unwrap();
        let fpl = acc.fpl_series().unwrap();
        assert!(fpl.iter().all(|&v| (v - 0.1).abs() < 1e-12));
        // TPL = BPL for this adversary.
        let tpl = acc.tpl_series().unwrap();
        for (tv, bv) in tpl.iter().zip(acc.bpl_series()) {
            assert!((tv - bv).abs() < 1e-12);
        }
    }

    #[test]
    fn new_release_updates_all_fpl() {
        // Example 3: "When r^11 is released, all FPL at time t in [1,10]
        // will be updated."
        let mut acc = TplAccountant::forward_only(fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 10).unwrap();
        let before = acc.fpl_series().unwrap();
        acc.observe_release(0.1).unwrap();
        let after = acc.fpl_series().unwrap();
        for t in 0..10 {
            assert!(after[t] > before[t], "t={t}: {} !> {}", after[t], before[t]);
        }
        // And BPL history is untouched.
        assert_eq!(acc.bpl_series().len(), 11);
    }

    #[test]
    fn report_snapshot_semantics() {
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        let r0 = acc.observe_release(0.1).unwrap();
        assert_eq!(r0.t, 0);
        assert_eq!(r0.forward, 0.1, "no future yet");
        assert!((r0.total - 0.1).abs() < 1e-12);
        let r1 = acc.observe_release(0.2).unwrap();
        assert_eq!(r1.t, 1);
        assert!(r1.backward > 0.2, "accumulated from t=0");
    }

    #[test]
    fn variable_budgets_supported() {
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        for eps in [1.0, 0.1, 0.1, 0.8] {
            acc.observe_release(eps).unwrap();
        }
        assert_eq!(acc.len(), 4);
        assert!((acc.user_level() - 2.0).abs() < 1e-12);
        assert!(acc.max_tpl().unwrap() > 1.0);
    }

    #[test]
    fn empty_timeline_errors() {
        let acc = TplAccountant::traditional();
        assert!(acc.is_empty());
        assert_eq!(acc.max_tpl().unwrap_err(), TplError::EmptyTimeline);
        assert_eq!(acc.tpl_at(0).unwrap_err(), TplError::EmptyTimeline);
        assert_eq!(
            acc.window_budget_sum(0, 1).unwrap_err(),
            TplError::EmptyTimeline
        );
        assert!(acc.fpl_series().unwrap().is_empty());
    }

    #[test]
    fn out_of_range_time_is_reported_honestly() {
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 3).unwrap();
        for query in [
            TplAccountant::tpl_at,
            TplAccountant::fpl_at,
            TplAccountant::bpl_at,
        ] {
            assert!(query(&acc, 2).is_ok());
            assert_eq!(
                query(&acc, 3).unwrap_err(),
                TplError::TimeOutOfRange { t: 3, len: 3 }
            );
        }
        assert!(acc.window_budget_sum(0, 3).is_ok());
        assert_eq!(
            acc.window_budget_sum(0, 4).unwrap_err(),
            TplError::InvalidWindow { w: 4 }
        );
        // The error names the actual requested window, not a derived
        // index (which saturating arithmetic used to misreport for
        // adversarial t/w near usize::MAX).
        assert_eq!(
            acc.window_budget_sum(2, 2).unwrap_err(),
            TplError::WindowOutOfRange { t: 2, w: 2, len: 3 }
        );
        assert_eq!(
            acc.window_budget_sum(usize::MAX - 1, 1).unwrap_err(),
            TplError::WindowOutOfRange {
                t: usize::MAX - 1,
                w: 1,
                len: 3
            }
        );
    }

    #[test]
    fn folded_accountant_is_bit_identical_inside_horizon() {
        let mut folded = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        folded.set_horizon(Some(4)).unwrap();
        let mut reference = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        for t in 0..12 {
            let eps = 0.05 + 0.01 * (t % 3) as f64;
            folded.observe_release(eps).unwrap();
            reference.observe_release(eps).unwrap();
            let ls = folded.live_start();
            assert_eq!(folded.len(), reference.len());
            assert_eq!(
                folded.user_level().to_bits(),
                reference.user_level().to_bits()
            );
            for q in ls..folded.len() {
                assert_eq!(
                    folded.bpl_at(q).unwrap().to_bits(),
                    reference.bpl_at(q).unwrap().to_bits()
                );
                assert_eq!(
                    folded.fpl_at(q).unwrap().to_bits(),
                    reference.fpl_at(q).unwrap().to_bits()
                );
                assert_eq!(
                    folded.tpl_at(q).unwrap().to_bits(),
                    reference.tpl_at(q).unwrap().to_bits()
                );
                for w in 1..=(folded.len() - q) {
                    assert_eq!(
                        folded.window_budget_sum(q, w).unwrap().to_bits(),
                        reference.window_budget_sum(q, w).unwrap().to_bits()
                    );
                }
            }
        }
        assert_eq!(folded.live_start(), 8);
        assert_eq!(folded.bpl_series().len(), 4);
    }

    #[test]
    fn folded_queries_bound_the_true_values() {
        let mut folded = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        folded.set_horizon(Some(3)).unwrap();
        let mut reference = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        for t in 0..10 {
            let eps = 0.08 + 0.02 * (t % 2) as f64;
            folded.observe_release(eps).unwrap();
            reference.observe_release(eps).unwrap();
        }
        // Behind the fold every leakage query answers with an upper
        // bound on the true (unfolded) value.
        for q in 0..folded.live_start() {
            assert!(folded.bpl_at(q).unwrap() >= reference.bpl_at(q).unwrap());
            assert!(folded.fpl_at(q).unwrap() >= reference.fpl_at(q).unwrap());
            assert!(folded.tpl_at(q).unwrap() >= reference.tpl_at(q).unwrap());
            // ... and positional budget sums decline honestly.
            assert_eq!(
                folded.window_budget_sum(q, 1).unwrap_err(),
                TplError::FoldedHistory {
                    t: q,
                    live_start: folded.live_start()
                }
            );
        }
        // max_tpl dominates the unfolded maximum.
        assert!(folded.max_tpl().unwrap() >= reference.max_tpl().unwrap());
        assert!(folded.max_tpl().unwrap().is_finite());
        // Past-the-end queries still report out-of-range, not a bound.
        assert_eq!(
            folded.tpl_at(10).unwrap_err(),
            TplError::TimeOutOfRange { t: 10, len: 10 }
        );
        // A horizon of zero is rejected as a typed error.
        assert!(matches!(
            folded.set_horizon(Some(0)),
            Err(TplError::Mech(_))
        ));
    }

    /// Round-trip through a binary snapshot, the only way saved state
    /// re-enters the process.
    fn snapshot_round_trip(acc: &TplAccountant) -> TplAccountant {
        match crate::checkpoint::resume_bytes(&acc.checkpoint_binary(), None).unwrap() {
            crate::checkpoint::SavedState::Tpl(back) => back,
            other => panic!("expected a solo accountant, got {:?}", other.kind()),
        }
    }

    #[test]
    fn folded_snapshot_round_trip_preserves_fold() {
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        acc.set_horizon(Some(3)).unwrap();
        acc.observe_uniform(0.1, 8).unwrap();
        let mut back = snapshot_round_trip(&acc);
        assert_eq!(back.len(), 8);
        assert_eq!(back.live_start(), 5);
        assert_eq!(back.user_level().to_bits(), acc.user_level().to_bits());
        assert_eq!(back.bpl_series(), acc.bpl_series());
        assert_eq!(
            back.tpl_at(3).unwrap().to_bits(),
            acc.tpl_at(3).unwrap().to_bits(),
            "folded-history bound survives the round trip"
        );
        // The restored accountant keeps folding as the stream continues.
        back.observe_release(0.1).unwrap();
        acc.observe_release(0.1).unwrap();
        assert_eq!(back.live_start(), acc.live_start());
        assert_eq!(
            back.bpl_series().last().unwrap().to_bits(),
            acc.bpl_series().last().unwrap().to_bits()
        );
    }

    #[test]
    fn resident_state_is_flat_under_a_horizon() {
        let mut folded = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        folded.set_horizon(Some(16)).unwrap();
        folded.observe_uniform(0.1, 100).unwrap();
        folded.max_tpl().unwrap();
        let at_100 = folded.resident_f64s();
        folded.observe_uniform(0.1, 400).unwrap();
        folded.max_tpl().unwrap();
        assert_eq!(folded.resident_f64s(), at_100, "resident state is O(H)");
        let mut unfolded = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        unfolded.observe_uniform(0.1, 500).unwrap();
        unfolded.max_tpl().unwrap();
        assert!(unfolded.resident_f64s() > 5 * at_100, "unfolded is O(T)");
    }

    #[test]
    fn cached_series_stay_fresh_across_interleaved_queries() {
        // The streaming invariant: query, observe, query again — every
        // answer matches a from-scratch accountant bit for bit.
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        for t in 0..20 {
            acc.observe_release(0.05 + 0.01 * (t % 3) as f64).unwrap();
            let mut fresh = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
            for &e in &acc.budgets() {
                fresh.observe_release(e).unwrap();
            }
            assert_eq!(acc.tpl_series().unwrap(), fresh.tpl_series().unwrap());
            assert_eq!(acc.fpl_series().unwrap(), fresh.fpl_series().unwrap());
            assert_eq!(
                acc.max_tpl().unwrap().to_bits(),
                fresh.max_tpl().unwrap().to_bits()
            );
            assert_eq!(acc.tpl_at(t).unwrap(), fresh.tpl_at(t).unwrap());
        }
    }

    #[test]
    fn one_recomputation_is_shared_by_many_queries() {
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 50).unwrap();
        acc.tpl_series().unwrap();
        let after_first_query = acc.loss_eval_count();
        // Fifty further queries must not evaluate the loss again.
        for t in 0..50 {
            acc.tpl_at(t).unwrap();
            acc.max_tpl().unwrap();
            acc.fpl_at(t).unwrap();
        }
        acc.tpl_series().unwrap();
        assert_eq!(acc.loss_eval_count(), after_first_query);
        // A new release invalidates once: the next query pays one O(T)
        // pass, the ones after it are free again.
        acc.observe_release(0.1).unwrap();
        acc.max_tpl().unwrap();
        let after_rebuild = acc.loss_eval_count();
        acc.tpl_series().unwrap();
        assert_eq!(acc.loss_eval_count(), after_rebuild);
    }

    #[test]
    fn snapshot_round_trip_preserves_state() {
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        acc.observe_uniform(0.1, 5).unwrap();
        let mut back = snapshot_round_trip(&acc);
        assert_eq!(back.len(), 5);
        assert_eq!(back.bpl_series(), acc.bpl_series());
        // The restored accountant continues the recursion seamlessly.
        back.observe_release(0.1).unwrap();
        acc.observe_release(0.1).unwrap();
        assert!((back.bpl_series()[5] - acc.bpl_series()[5]).abs() < 1e-15);
    }

    /// Clone `acc` on a spawned thread while the calling thread holds
    /// `guard`, failing unless the clone arrives within the timeout.
    /// The guard is released before the verdict, so a clone that did
    /// wait finishes and the scope can join it.
    fn clone_while_holding<G>(acc: &TplAccountant, guard: G) -> TplAccountant {
        use std::sync::mpsc;
        use std::time::Duration;
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            s.spawn(move || {
                let _ = tx.send(acc.clone());
            });
            let clone = rx.recv_timeout(Duration::from_secs(5));
            drop(guard);
            clone.expect("the clone waited for a lock a reader holds")
        })
    }

    #[test]
    fn clone_does_not_wait_for_a_reader_holding_a_cache() {
        // A reader holds the series cache for a whole FPL rebuild and the
        // supremum memo for a whole Theorem 5 search, on the snapshot a
        // writer clones to admit its next release.
        let mut acc = TplAccountant::with_both(fig3_matrix(), fig3_matrix()).unwrap();
        acc.set_horizon(Some(3)).unwrap();
        acc.observe_uniform(0.1, 10).unwrap();
        let expected = acc.max_tpl().unwrap();
        assert!(acc.series_snapshot().is_some() && acc.fold_sup.lock().is_some());

        let warm = clone_while_holding(&acc, ());
        assert!(warm.series_snapshot().is_some() && warm.fold_sup.lock().is_some());

        let cold_series = clone_while_holding(&acc, acc.cache.lock());
        assert!(cold_series.series_snapshot().is_none());
        assert!(cold_series.fold_sup.lock().is_some());

        let cold_memo = clone_while_holding(&acc, acc.fold_sup.lock());
        assert!(cold_memo.series_snapshot().is_some());
        assert!(cold_memo.fold_sup.lock().is_none());

        // Either way the clone answers exactly as the original does.
        for clone in [warm, cold_series, cold_memo] {
            assert_eq!(clone.max_tpl().unwrap().to_bits(), expected.to_bits());
            assert_eq!(clone.tpl_series().unwrap(), acc.tpl_series().unwrap());
        }
    }

    #[test]
    fn invalid_budget_rejected() {
        let mut acc = TplAccountant::traditional();
        assert!(acc.observe_release(0.0).is_err());
        assert!(acc.observe_release(-0.5).is_err());
        assert!(acc.observe_release(f64::NAN).is_err());
        assert!(acc.is_empty(), "failed observation must not be recorded");
    }
}
