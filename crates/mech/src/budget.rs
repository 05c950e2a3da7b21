//! Privacy budgets, schedules, timelines, and composition accounting.
//!
//! The budget `ε` is the paper's measure of privacy leakage for a single
//! release (Definition 2: `M` satisfies ε-DP iff `PL0(M) ≤ ε`). A
//! [`BudgetSchedule`] assigns one `ε_t` to each time point of a continual
//! release — the object that the paper's Algorithms 2 and 3 compute. A
//! [`BudgetTimeline`] is the *observed* counterpart: the ε trail a
//! mechanism has actually spent, growing release by release, shareable
//! between accountants. On independent data a combined mechanism spends
//! the *sum* of its parts (sequential composition, the paper's
//! Theorem 3): [`Epsilon::compose`] for two budgets,
//! [`BudgetSchedule::sequential_total`] for a schedule.

use crate::{MechError, Result};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A validated privacy budget: a finite, strictly positive real.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Construct a budget, rejecting non-positive or non-finite values.
    pub fn new(value: f64) -> Result<Self> {
        if !value.is_finite() || value <= 0.0 {
            return Err(MechError::InvalidEpsilon(value));
        }
        Ok(Self(value))
    }

    /// The raw budget value.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Sequential composition with another budget (Theorem 3): ε₁ + ε₂.
    pub fn compose(self, other: Epsilon) -> Epsilon {
        Epsilon(self.0 + other.0)
    }

    /// Split the budget evenly over `k ≥ 1` releases.
    pub fn split(self, k: usize) -> Result<Epsilon> {
        if k == 0 {
            return Err(MechError::InvalidParameter {
                what: "split count",
                value: 0.0,
            });
        }
        Epsilon::new(self.0 / k as f64)
    }
}

impl std::fmt::Display for Epsilon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

/// A per-time-point budget assignment for a continual release of length `T`
/// (possibly open-ended, via [`BudgetSchedule::budget_at`]'s repetition of
/// the final middle budget).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSchedule {
    budgets: Vec<Epsilon>,
}

impl BudgetSchedule {
    /// A uniform schedule: the same `ε` at each of `t_len` time points.
    pub fn uniform(eps: Epsilon, t_len: usize) -> Result<Self> {
        if t_len == 0 {
            return Err(MechError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        Ok(Self {
            budgets: vec![eps; t_len],
        })
    }

    /// An explicit schedule from raw values.
    pub fn from_values(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(MechError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        let budgets = values
            .iter()
            .map(|&v| Epsilon::new(v))
            .collect::<Result<_>>()?;
        Ok(Self { budgets })
    }

    /// The paper's Algorithm 3 shape: a boosted first budget, a constant
    /// middle budget, and a boosted final budget.
    pub fn first_middle_last(
        first: Epsilon,
        middle: Epsilon,
        last: Epsilon,
        t_len: usize,
    ) -> Result<Self> {
        if t_len < 2 {
            return Err(MechError::DimensionMismatch {
                expected: 2,
                found: t_len,
            });
        }
        let mut budgets = Vec::with_capacity(t_len);
        budgets.push(first);
        for _ in 1..t_len - 1 {
            budgets.push(middle);
        }
        budgets.push(last);
        Ok(Self { budgets })
    }

    /// Number of scheduled time points.
    pub fn len(&self) -> usize {
        self.budgets.len()
    }

    /// Whether the schedule is empty (never true for validated schedules).
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }

    /// Budget at time index `t` (0-based). Out-of-range indices repeat the
    /// final budget, supporting open-ended streams whose tail behaves like
    /// the scheduled "middle".
    pub fn budget_at(&self, t: usize) -> Epsilon {
        *self.budgets.get(t).unwrap_or_else(|| {
            self.budgets
                .last()
                // tcdp-lint: allow(panic-path) — `budgets` is private and
                // every constructor rejects empty schedules, so `last()`
                // cannot fail; an `Epsilon` cannot be fabricated here
                // because no in-range default exists.
                .expect("schedules are non-empty by construction")
        })
    }

    /// All budgets as raw values.
    pub fn values(&self) -> Vec<f64> {
        self.budgets.iter().map(|e| e.value()).collect()
    }

    /// Total budget under sequential composition (Theorem 3): the
    /// *user-level* guarantee of the whole schedule on independent data.
    pub fn sequential_total(&self) -> f64 {
        self.budgets.iter().map(|e| e.value()).sum()
    }

    /// Largest total over any window of `w` consecutive time points — the
    /// w-event guarantee of Kellaris et al. discussed next to Table II.
    pub fn w_event_total(&self, w: usize) -> f64 {
        if w == 0 {
            return 0.0;
        }
        let vals = self.values();
        let w = w.min(vals.len());
        let mut window: f64 = vals[..w].iter().sum();
        let mut best = window;
        for i in w..vals.len() {
            window += vals[i] - vals[i - w];
            best = best.max(window);
        }
        best
    }
}

/// The state behind a [`BudgetTimeline`]: the live tail of the observed ε
/// trail plus its incrementally maintained prefix sums and, when a fold
/// horizon is armed, the closed summary of everything already folded away.
#[derive(Debug, Clone)]
struct TimelineInner {
    /// The **live** tail of the trail: global indices `folded..folded+len`.
    /// Without a horizon this is the whole trail.
    budgets: Vec<f64>,
    /// Absolute prefix sums over the *global* trail, restricted to the
    /// live window: `prefix[k] = Σ global budgets[..folded + k]`
    /// (`budgets.len() + 1` entries), maintained one addition per push —
    /// the same left fold a from-scratch scan performs, so prefix values
    /// are bit-identical to a fresh recomputation at any point. Folding
    /// drains entries but never rewrites the survivors, so window sums
    /// over live indices stay bit-identical to the unfolded trail.
    prefix: Vec<f64>,
    /// Bumped by every mutation; the version stamp consumers key derived
    /// series caches on. Append-only timelines keep `revision == len`.
    revision: u64,
    /// Number of leading entries folded into the summary — the global
    /// index of the first live entry. 0 until a horizon trims history.
    folded: usize,
    /// Fold horizon `H`: when set, only the most recent `H` entries stay
    /// live; older ones are absorbed into `folded` / `folded_eps_max` /
    /// `prefix[0]`. `None` keeps the full trail (the default).
    horizon: Option<usize>,
    /// Largest single ε among the folded entries (`NEG_INFINITY` when
    /// nothing is folded) — the witness consumers feed to
    /// supremum-of-loss bounds for queries behind the fold.
    folded_eps_max: f64,
}

impl TimelineInner {
    fn push_unchecked(&mut self, eps: f64) {
        let run = self.prefix.last().copied().unwrap_or(0.0);
        self.budgets.push(eps);
        self.prefix.push(run + eps);
        self.revision += 1;
        self.fold_excess();
    }

    /// Fold entries beyond the horizon into the summary. O(k) for the `k`
    /// entries folded; on the steady-state push path `k = 1`, keeping the
    /// per-release cost O(H). Absolute prefix values are preserved (only
    /// drained, never recomputed), so every surviving window sum is
    /// bit-identical to the unfolded trail's.
    fn fold_excess(&mut self) {
        let Some(h) = self.horizon else { return };
        if self.budgets.len() <= h {
            return;
        }
        let k = self.budgets.len() - h;
        for &v in &self.budgets[..k] {
            self.folded_eps_max = self.folded_eps_max.max(v);
        }
        self.budgets.drain(..k);
        self.prefix.drain(..k);
        self.folded += k;
    }

    fn global_len(&self) -> usize {
        self.folded + self.budgets.len()
    }
}

/// A per-user (or per-shard) release budget timeline: the ε sequence a
/// mechanism has actually *spent*, one entry per observed release.
///
/// This is the observed-trail counterpart of [`BudgetSchedule`] (a
/// schedule is the plan fixed ahead of time; [`BudgetTimeline::from_schedule`]
/// seeds a timeline from one). The timeline is **append-only** and
/// interior-mutable behind an `RwLock`, so several accountants can hold
/// one timeline through an `Arc` and a shared release is recorded
/// exactly once for all of them: readers take the shared lock
/// ([`BudgetTimeline::with_values`] and the query surface), the
/// appending coordinator takes the exclusive lock briefly per
/// [`BudgetTimeline::push`]. Besides the raw trail it maintains the
/// prefix sums (O(1) window budget totals) and a [`BudgetTimeline::revision`]
/// stamp that derived-series caches key on.
#[derive(Debug)]
pub struct BudgetTimeline {
    inner: RwLock<TimelineInner>,
}

impl BudgetTimeline {
    /// An empty timeline (no releases observed yet).
    pub fn new() -> Self {
        BudgetTimeline {
            inner: RwLock::new(TimelineInner {
                budgets: Vec::new(),
                prefix: vec![0.0],
                revision: 0,
                folded: 0,
                horizon: None,
                folded_eps_max: f64::NEG_INFINITY,
            }),
        }
    }

    /// A timeline seeded with an explicit trail; every entry is validated
    /// as a budget ([`Epsilon::new`]'s rules).
    pub fn from_values(values: &[f64]) -> Result<Self> {
        let timeline = BudgetTimeline::new();
        for &v in values {
            timeline.push(v)?;
        }
        Ok(timeline)
    }

    /// A timeline that has already spent every budget of `schedule`
    /// (valid by the schedule's own construction).
    pub fn from_schedule(schedule: &BudgetSchedule) -> Self {
        let timeline = BudgetTimeline::new();
        {
            let mut inner = timeline.write();
            for v in schedule.values() {
                inner.push_unchecked(v);
            }
        }
        timeline
    }

    /// Rebuild a timeline from a raw trail **without budget validation**
    /// — the checkpoint-restore hook (consumers such as `tcdp-core`'s
    /// checkpoint layer validate entries and report in their own error
    /// vocabulary). The prefix sums are re-derived entry by entry, the
    /// same left fold [`BudgetTimeline::push`] performs, so a restored
    /// timeline is bit-identical to one built push by push.
    pub fn from_raw_trail(values: &[f64]) -> Self {
        let timeline = BudgetTimeline::new();
        {
            let mut inner = timeline.write();
            for &v in values {
                inner.push_unchecked(v);
            }
        }
        timeline
    }

    fn read(&self) -> parking_lot::RwLockReadGuard<'_, TimelineInner> {
        self.inner.read()
    }

    fn write(&self) -> parking_lot::RwLockWriteGuard<'_, TimelineInner> {
        self.inner.write()
    }

    /// Append one release's budget; returns the new (global) length.
    /// Rejects non-finite or non-positive budgets, leaving the trail
    /// untouched. When a fold horizon is armed, entries pushed beyond it
    /// are folded out of the live window in the same critical section
    /// (one revision bump covers both).
    pub fn push(&self, eps: f64) -> Result<usize> {
        if !eps.is_finite() || eps <= 0.0 {
            return Err(MechError::InvalidEpsilon(eps));
        }
        let mut inner = self.write();
        inner.push_unchecked(eps);
        Ok(inner.global_len())
    }

    /// Number of releases recorded over the timeline's whole life,
    /// including entries already folded into the summary.
    pub fn len(&self) -> usize {
        self.read().global_len()
    }

    /// Whether no release has been recorded.
    pub fn is_empty(&self) -> bool {
        self.read().global_len() == 0
    }

    /// The revision stamp: bumped by every push and by
    /// [`BudgetTimeline::set_horizon`]. Derived-series caches compare
    /// their recorded revision against this to decide validity.
    pub fn revision(&self) -> u64 {
        self.read().revision
    }

    /// Arm (or disarm, with `None`) the fold horizon `H ≥ 1`: only the
    /// most recent `H` entries stay live; older ones fold into a closed
    /// summary ([`BudgetTimeline::folded_total`] /
    /// [`BudgetTimeline::folded_eps_max`]). Any existing excess is folded
    /// immediately. Folding is one-way: disarming stops further folds but
    /// does not resurrect folded entries. Bumps the revision so derived
    /// caches resynchronize.
    pub fn set_horizon(&self, horizon: Option<usize>) -> Result<()> {
        if horizon == Some(0) {
            return Err(MechError::InvalidParameter {
                what: "fold horizon",
                value: 0.0,
            });
        }
        let mut inner = self.write();
        inner.horizon = horizon;
        inner.fold_excess();
        inner.revision += 1;
        Ok(())
    }

    /// The armed fold horizon, if any.
    pub fn horizon(&self) -> Option<usize> {
        self.read().horizon
    }

    /// Global index of the first live entry — 0 until a horizon folds
    /// history, afterwards the number of folded entries.
    pub fn live_start(&self) -> usize {
        self.read().folded
    }

    /// `Σ ε_k` over the folded entries, exactly as the sequential left
    /// fold produced it (0.0 when nothing is folded).
    pub fn folded_total(&self) -> f64 {
        self.read().prefix.first().copied().unwrap_or(0.0)
    }

    /// Largest single ε among the folded entries, or `None` when nothing
    /// is folded.
    pub fn folded_eps_max(&self) -> Option<f64> {
        let inner = self.read();
        (inner.folded > 0).then_some(inner.folded_eps_max)
    }

    /// Number of resident `f64`s (live budgets plus prefix sums) — the
    /// flat-memory witness for folded timelines.
    pub fn resident_len(&self) -> usize {
        let inner = self.read();
        inner.budgets.len() + inner.prefix.len()
    }

    /// Checkpoint-restore hook: reinstate a fold summary onto a timeline
    /// rebuilt from its live trail ([`BudgetTimeline::from_raw_trail`]).
    /// Mutates in place so `Arc`-sharing consumers keep their handles.
    /// The prefix sums are rebuilt seeded with `eps_total` and re-folded
    /// left to right — the exact additions the live run performed, so the
    /// restored timeline is bit-identical to the one checkpointed.
    /// Idempotent: re-applying the same summary (population shards repeat
    /// their class's fold fields) is a no-op; a *different* nonzero fold
    /// is rejected. Sets the revision to the global length.
    pub fn restore_fold(
        &self,
        folded: usize,
        eps_total: f64,
        eps_max: f64,
        horizon: Option<usize>,
    ) -> Result<()> {
        if horizon == Some(0) {
            return Err(MechError::InvalidParameter {
                what: "fold horizon",
                value: 0.0,
            });
        }
        let mut inner = self.write();
        if inner.folded == folded {
            // Already applied (shared-class timeline): just (re)arm the
            // horizon; nothing else can differ for an equal fold point.
            inner.horizon = horizon;
            inner.revision = inner.global_len() as u64;
            return Ok(());
        }
        if inner.folded != 0 {
            return Err(MechError::InvalidParameter {
                what: "fold restore point",
                value: folded as f64,
            });
        }
        inner.folded = folded;
        inner.horizon = horizon;
        inner.folded_eps_max = if folded > 0 {
            eps_max
        } else {
            f64::NEG_INFINITY
        };
        let mut prefix = Vec::with_capacity(inner.budgets.len() + 1);
        let mut run = eps_total;
        prefix.push(run);
        for &v in &inner.budgets {
            run += v;
            prefix.push(run);
        }
        inner.prefix = prefix;
        inner.revision = inner.global_len() as u64;
        Ok(())
    }

    /// Budget at global time index `t` (0-based), if recorded and still
    /// live. `None` for indices behind the fold as well as beyond the end.
    pub fn budget_at(&self, t: usize) -> Option<f64> {
        let inner = self.read();
        let k = t.checked_sub(inner.folded)?;
        inner.budgets.get(k).copied()
    }

    /// A snapshot copy of the live trail (the whole trail when no history
    /// has been folded).
    pub fn values(&self) -> Vec<f64> {
        self.read().budgets.clone()
    }

    /// Run `f` over the live trail without copying it (the whole trail
    /// when no history has been folded; indices into the slice are global
    /// indices minus [`BudgetTimeline::live_start`]). The shared lock is
    /// held for the duration of `f`; do not push from inside.
    pub fn with_values<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        f(&self.read().budgets)
    }

    /// The trail entries from global index `start` on — the append-cursor
    /// read behind incremental (delta) checkpoints: a consumer that
    /// recorded `len()` at its last snapshot fetches exactly what was
    /// appended since. Returns `None` when `start` exceeds the current
    /// length (a stale cursor — e.g. the timeline object was swapped) or
    /// precedes the fold (the entries no longer exist), and an empty
    /// vector when nothing was appended.
    pub fn tail_from(&self, start: usize) -> Option<Vec<f64>> {
        let inner = self.read();
        let k = start.checked_sub(inner.folded)?;
        inner.budgets.get(k..).map(<[f64]>::to_vec)
    }

    /// `Σ ε_k` over the window `[t, t + w)` (global indices) from the
    /// prefix sums, or `None` when the window does not fit the live trail
    /// — including windows reaching behind the fold. O(1); the result may
    /// differ from a naive slice sum in the last ulp, as any
    /// prefix-difference does, but is bit-identical to the same window on
    /// the unfolded trail (absolute prefix values survive folding).
    pub fn window_sum(&self, t: usize, w: usize) -> Option<f64> {
        let inner = self.read();
        let k = t.checked_sub(inner.folded)?;
        let end = k.checked_add(w)?;
        if end >= inner.prefix.len() {
            return None;
        }
        Some(inner.prefix[end] - inner.prefix[k])
    }

    /// Total spent budget `Σ ε_k` over the whole life of the timeline,
    /// folded history included — the user-level sequential-composition
    /// guarantee of the whole trail (Theorem 3 / the paper's Corollary 1).
    pub fn total(&self) -> f64 {
        let inner = self.read();
        // `prefix` is seeded with a zeroth entry of 0.0 at construction,
        // so the fallback is both unreachable and the correct empty total.
        inner.prefix.last().copied().unwrap_or(0.0)
    }

    /// Whether two timelines hold bit-identical trails — the equivalence
    /// the population accountant's copy-on-write sharing is keyed on.
    /// Folded timelines compare the fold point, the folded total (bit
    /// for bit), and the live entries.
    pub fn series_eq(&self, other: &BudgetTimeline) -> bool {
        if std::ptr::eq(self, other) {
            // Same object: a second read of the same RwLock on this
            // thread could deadlock against a queued writer.
            return true;
        }
        let a = self.read();
        let b = other.read();
        a.folded == b.folded
            && a.budgets.len() == b.budgets.len()
            && a.prefix.first().copied().unwrap_or(0.0).to_bits()
                == b.prefix.first().copied().unwrap_or(0.0).to_bits()
            && a.budgets
                .iter()
                .zip(&b.budgets)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Whether two timeline *objects* are interchangeable, i.e. one can
    /// replace the other without any future query or fold behaving
    /// differently: bitwise-equal trails ([`Self::series_eq`]) plus an
    /// equal armed horizon (so future folds trigger identically) and an
    /// equal folded-ε maximum (it feeds folded-history FPL bounds).
    /// This is the re-sharing test the population accountant's
    /// re-merge pass keys on.
    pub fn merge_eq(&self, other: &BudgetTimeline) -> bool {
        if std::ptr::eq(self, other) {
            // Same object: trivially interchangeable (and a second read
            // of the same lock on this thread could deadlock against a
            // queued writer).
            return true;
        }
        if !self.series_eq(other) {
            return false;
        }
        let a = self.read();
        let b = other.read();
        a.horizon == b.horizon
            && (a.folded > 0) == (b.folded > 0)
            && (a.folded == 0 || a.folded_eps_max.to_bits() == b.folded_eps_max.to_bits())
    }
}

impl Default for BudgetTimeline {
    fn default() -> Self {
        BudgetTimeline::new()
    }
}

impl Clone for BudgetTimeline {
    /// A deep snapshot: the clone shares nothing with the original (the
    /// copy-on-write seam population accounting splits timelines along).
    fn clone(&self) -> Self {
        BudgetTimeline {
            inner: RwLock::new(self.read().clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_validation() {
        assert!(Epsilon::new(0.1).is_ok());
        assert!(Epsilon::new(0.0).is_err());
        assert!(Epsilon::new(-1.0).is_err());
        assert!(Epsilon::new(f64::NAN).is_err());
        assert!(Epsilon::new(f64::INFINITY).is_err());
    }

    #[test]
    fn epsilon_compose_and_split() {
        let e = Epsilon::new(1.0).unwrap();
        assert_eq!(e.compose(Epsilon::new(0.5).unwrap()).value(), 1.5);
        assert_eq!(e.split(4).unwrap().value(), 0.25);
        assert!(e.split(0).is_err());
    }

    #[test]
    fn uniform_schedule_totals() {
        let e = Epsilon::new(0.1).unwrap();
        let s = BudgetSchedule::uniform(e, 10).unwrap();
        assert_eq!(s.len(), 10);
        assert!((s.sequential_total() - 1.0).abs() < 1e-12);
        // T*eps on user level, w*eps on w-event level (Table II row 1/2).
        assert!((s.w_event_total(3) - 0.3).abs() < 1e-12);
        assert_eq!(s.w_event_total(0), 0.0);
        assert!((s.w_event_total(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_middle_last_shape() {
        let f = Epsilon::new(1.0).unwrap();
        let m = Epsilon::new(0.1).unwrap();
        let l = Epsilon::new(0.8).unwrap();
        let s = BudgetSchedule::first_middle_last(f, m, l, 5).unwrap();
        assert_eq!(s.values(), vec![1.0, 0.1, 0.1, 0.1, 0.8]);
        assert!(BudgetSchedule::first_middle_last(f, m, l, 1).is_err());
        // T = 2 degenerates to [first, last].
        let s2 = BudgetSchedule::first_middle_last(f, m, l, 2).unwrap();
        assert_eq!(s2.values(), vec![1.0, 0.8]);
    }

    #[test]
    fn w_event_finds_worst_window() {
        let s = BudgetSchedule::from_values(&[0.1, 0.9, 0.9, 0.1]).unwrap();
        assert!((s.w_event_total(2) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn budget_at_repeats_tail() {
        let s = BudgetSchedule::from_values(&[0.5, 0.2]).unwrap();
        assert_eq!(s.budget_at(0).value(), 0.5);
        assert_eq!(s.budget_at(1).value(), 0.2);
        assert_eq!(s.budget_at(100).value(), 0.2);
    }

    #[test]
    fn schedule_validation() {
        assert!(BudgetSchedule::from_values(&[]).is_err());
        assert!(BudgetSchedule::from_values(&[0.1, 0.0]).is_err());
        assert!(BudgetSchedule::uniform(Epsilon::new(0.1).unwrap(), 0).is_err());
    }

    #[test]
    fn timeline_push_and_prefix_sums() {
        let t = BudgetTimeline::new();
        assert!(t.is_empty());
        assert_eq!(t.revision(), 0);
        assert_eq!(t.push(0.5).unwrap(), 1);
        assert_eq!(t.push(0.2).unwrap(), 2);
        assert_eq!(t.push(0.3).unwrap(), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.revision(), 3);
        assert_eq!(t.budget_at(1), Some(0.2));
        assert_eq!(t.budget_at(3), None);
        assert_eq!(t.values(), vec![0.5, 0.2, 0.3]);
        // Prefix-sum windows match the sequential left fold bit for bit.
        let manual: f64 = 0.5 + 0.2;
        assert_eq!(t.window_sum(0, 2).unwrap().to_bits(), manual.to_bits());
        assert_eq!(t.window_sum(1, 2), Some(t.total() - 0.5));
        assert_eq!(t.window_sum(2, 2), None);
        assert_eq!(t.window_sum(usize::MAX, 2), None);
        assert!((t.total() - 1.0).abs() < 1e-12);
        assert_eq!(t.with_values(|b| b.len()), 3);
    }

    #[test]
    fn window_sum_survives_adversarial_widths() {
        // `t + w` near `usize::MAX` must not overflow (panic in debug,
        // wrap to a bogus `Some` in release): `checked_add` turns every
        // such window into an honest `None`.
        let t = BudgetTimeline::from_values(&[0.1, 0.2, 0.3]).unwrap();
        assert_eq!(t.window_sum(1, usize::MAX), None);
        assert_eq!(t.window_sum(usize::MAX, usize::MAX), None);
        assert_eq!(t.window_sum(usize::MAX - 1, 2), None);
        assert_eq!(t.window_sum(0, usize::MAX), None);
        // The largest window that fits still works.
        assert!(t.window_sum(0, 3).is_some());
        assert_eq!(t.window_sum(0, 4), None);
    }

    #[test]
    fn timeline_tail_cursor_reads_appends_only() {
        let t = BudgetTimeline::from_values(&[0.1, 0.2]).unwrap();
        let cursor = t.len();
        assert_eq!(t.tail_from(cursor), Some(vec![]));
        t.push(0.3).unwrap();
        t.push(0.4).unwrap();
        assert_eq!(t.tail_from(cursor), Some(vec![0.3, 0.4]));
        assert_eq!(t.tail_from(0), Some(vec![0.1, 0.2, 0.3, 0.4]));
        // A cursor past the end is stale, not a panic.
        assert_eq!(t.tail_from(5), None);
    }

    #[test]
    fn raw_trail_restore_is_bit_identical_to_pushes() {
        let values = [0.1, 0.25, 0.3, 0.05];
        let pushed = BudgetTimeline::from_values(&values).unwrap();
        let raw = BudgetTimeline::from_raw_trail(&values);
        assert!(raw.series_eq(&pushed));
        assert_eq!(raw.revision(), pushed.revision());
        assert_eq!(
            raw.window_sum(1, 3).unwrap().to_bits(),
            pushed.window_sum(1, 3).unwrap().to_bits()
        );
    }

    #[test]
    fn timeline_rejects_invalid_budgets() {
        let t = BudgetTimeline::new();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(t.push(bad).is_err());
        }
        assert!(t.is_empty(), "failed pushes must not be recorded");
        assert!(BudgetTimeline::from_values(&[0.1, 0.0]).is_err());
        assert_eq!(BudgetTimeline::from_values(&[0.1]).unwrap().len(), 1);
    }

    #[test]
    fn timeline_sharing_and_snapshots() {
        use std::sync::Arc;
        let shared = Arc::new(BudgetTimeline::from_values(&[0.1, 0.2]).unwrap());
        let view = Arc::clone(&shared);
        shared.push(0.3).unwrap();
        // The Arc-shared view sees the push; a clone taken before does not.
        assert_eq!(view.len(), 3);
        let snapshot = (*shared).clone();
        shared.push(0.4).unwrap();
        assert_eq!(snapshot.len(), 3);
        assert_eq!(shared.len(), 4);
        assert!(!snapshot.series_eq(&shared));
        let twin = BudgetTimeline::from_values(&[0.1, 0.2, 0.3]).unwrap();
        assert!(snapshot.series_eq(&twin));
        assert!(snapshot.series_eq(&snapshot));
    }

    #[test]
    fn timeline_from_schedule_and_raw_trail() {
        let s = BudgetSchedule::from_values(&[0.5, 0.1, 0.4]).unwrap();
        let t = BudgetTimeline::from_schedule(&s);
        assert_eq!(t.values(), s.values());
        assert_eq!(t.revision(), 3);
        let back = BudgetTimeline::from_raw_trail(&t.values());
        assert!(back.series_eq(&t));
        assert_eq!(back.revision(), 3);
        assert_eq!(
            back.window_sum(0, 3).unwrap().to_bits(),
            t.window_sum(0, 3).unwrap().to_bits()
        );
    }

    #[test]
    fn horizon_folds_history_but_preserves_live_window_bits() {
        let folded = BudgetTimeline::new();
        folded.set_horizon(Some(3)).unwrap();
        let reference = BudgetTimeline::new();
        let trail = [0.5, 0.2, 0.3, 0.1, 0.4, 0.25, 0.15];
        for &e in &trail {
            assert_eq!(folded.push(e).unwrap(), reference.push(e).unwrap());
        }
        // Global length and totals are unchanged by folding.
        assert_eq!(folded.len(), trail.len());
        assert_eq!(folded.total().to_bits(), reference.total().to_bits());
        assert_eq!(folded.live_start(), trail.len() - 3);
        assert_eq!(folded.resident_len(), 3 + 4);
        // Folded summary matches a scan of the dropped prefix.
        assert_eq!(
            folded.folded_total().to_bits(),
            reference.window_sum(0, 4).unwrap().to_bits()
        );
        assert_eq!(folded.folded_eps_max(), Some(0.5));
        assert_eq!(reference.folded_eps_max(), None);
        // Live-window queries are bit-identical to the unfolded trail.
        for t in folded.live_start()..trail.len() {
            assert_eq!(
                folded.budget_at(t).unwrap().to_bits(),
                reference.budget_at(t).unwrap().to_bits()
            );
            for w in 1..=(trail.len() - t) {
                assert_eq!(
                    folded.window_sum(t, w).unwrap().to_bits(),
                    reference.window_sum(t, w).unwrap().to_bits(),
                    "window ({t}, {w})"
                );
            }
        }
        // Behind the fold every positional read honestly declines.
        assert_eq!(folded.budget_at(0), None);
        assert_eq!(folded.window_sum(0, 2), None);
        assert_eq!(folded.tail_from(0), None);
        assert_eq!(
            folded.tail_from(folded.live_start()),
            Some(vec![0.4, 0.25, 0.15])
        );
    }

    #[test]
    fn horizon_zero_is_rejected_and_exact_horizon_is_inclusive() {
        let t = BudgetTimeline::new();
        assert!(matches!(
            t.set_horizon(Some(0)),
            Err(MechError::InvalidParameter { .. })
        ));
        t.set_horizon(Some(2)).unwrap();
        t.push(0.1).unwrap();
        t.push(0.2).unwrap();
        // Exactly H entries: nothing folds yet.
        assert_eq!(t.live_start(), 0);
        t.push(0.3).unwrap();
        assert_eq!(t.live_start(), 1);
        // Arming after the fact folds immediately and bumps the revision.
        let late = BudgetTimeline::from_values(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        let rev = late.revision();
        late.set_horizon(Some(2)).unwrap();
        assert_eq!(late.live_start(), 2);
        assert_eq!(late.revision(), rev + 1);
        assert_eq!(late.horizon(), Some(2));
        // Disarming stops folding but keeps folded history folded.
        late.set_horizon(None).unwrap();
        late.push(0.5).unwrap();
        assert_eq!(late.live_start(), 2);
        assert_eq!(late.values(), vec![0.3, 0.4, 0.5]);
    }

    #[test]
    fn restore_fold_is_bit_identical_and_idempotent() {
        let live = BudgetTimeline::new();
        live.set_horizon(Some(3)).unwrap();
        for e in [0.5, 0.2, 0.3, 0.1, 0.4, 0.25] {
            live.push(e).unwrap();
        }
        // Restore path: rebuild from the live trail, reapply the summary.
        let restored = BudgetTimeline::from_raw_trail(&live.values());
        restored
            .restore_fold(
                live.live_start(),
                live.folded_total(),
                live.folded_eps_max().unwrap(),
                live.horizon(),
            )
            .unwrap();
        assert!(restored.series_eq(&live));
        assert_eq!(restored.len(), live.len());
        assert_eq!(restored.revision(), live.len() as u64);
        assert_eq!(restored.total().to_bits(), live.total().to_bits());
        for t in live.live_start()..live.len() {
            for w in 1..=(live.len() - t) {
                assert_eq!(
                    restored.window_sum(t, w).map(f64::to_bits),
                    live.window_sum(t, w).map(f64::to_bits)
                );
            }
        }
        // Re-applying the same summary is a no-op (shared-class restores).
        restored
            .restore_fold(
                live.live_start(),
                live.folded_total(),
                live.folded_eps_max().unwrap(),
                live.horizon(),
            )
            .unwrap();
        assert!(restored.series_eq(&live));
        // A different nonzero fold point is rejected.
        assert!(restored.restore_fold(1, 0.5, 0.5, None).is_err());
    }
}
