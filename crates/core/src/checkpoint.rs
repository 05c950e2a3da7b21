//! Versioned, resumable audit checkpoints — binary snapshots plus an
//! append-only delta log.
//!
//! A continual release over a very long timeline (`T` in the millions)
//! cannot assume the auditing process survives end to end: the service
//! restarts, the batch job is preempted, the compliance review happens
//! on another machine. This module serializes the complete state of a
//! [`TplAccountant`] or a [`PopulationAccountant`] so an audit can stop
//! mid-timeline and continue later with results **bit-identical** to an
//! uninterrupted run:
//!
//! * the observed budget trail and the final BPL recursion state
//!   (the paper's Equation 13 values — they cannot be reconstructed
//!   from budgets without replaying every release);
//! * the cached FPL/TPL series, when valid at save time, so the resumed
//!   accountant serves its first queries without re-paying the `O(T)`
//!   rebuild;
//! * each loss function's warm [`LossWitness`], so the resumed
//!   recursion re-enters Algorithm 1's warm-start fast path exactly
//!   where the saved run left off (a restored witness is re-validated
//!   against Theorem 4 before every use, so staleness is impossible by
//!   construction);
//! * for populations, the shard structure (distinct `(adversary,
//!   timeline)` classes and their member lists) of
//!   [`PopulationAccountant`] — each distinct budget timeline is
//!   serialized **once** (never per user), and on resume shards with
//!   bit-identical trails are re-pointed at one shared timeline object,
//!   restoring the copy-on-write sharing the saved population had.
//!
//! # Encodings
//!
//! There is one encoding: the **binary envelope** (`CHECKPOINT_VERSION`
//! 3, see [`format`]), a fixed-width, length-prefixed little-endian
//! container — an 8-byte magic, the version, a section table — whose
//! series and timeline sections are raw `f64` arrays at 8-byte-aligned
//! offsets, laid out for zero-copy (mmap-friendly) reads. Writing a
//! snapshot copies the arrays instead of formatting floats, which is
//! what makes checkpointing a `T` in the hundreds of millions practical.
//! [`TplAccountant::checkpoint_binary`] /
//! [`PopulationAccountant::checkpoint_binary`] write it; [`resume_bytes`]
//! and [`resume_file`] are the only way checkpointed state re-enters
//! the process, and both run every semantic check below before any
//! state is restored.
//!
//! Earlier builds also wrote a JSON envelope (`{"format":
//! "tcdp-checkpoint", ...}`). It is no longer read: [`resume_file`]
//! refuses such a file with a [`TplError::CorruptCheckpoint`] that says
//! so, and the audit has to be re-run from its budget trail to write a
//! binary snapshot.
//!
//! # Incremental (delta) checkpoints
//!
//! A full snapshot costs `O(T)` per save. For a long-running audit that
//! stops every `N` releases, [`TplAccountant::checkpoint_delta`] /
//! [`PopulationAccountant::checkpoint_delta`] instead write only the
//! state **appended since a [`DeltaCursor`]** — the budget and BPL
//! tails per shard, plus the current warm witnesses — as a record that
//! [`CheckpointDelta::append_to`] appends to an append-only log
//! (`<snapshot>.delta`, see [`delta_log_path`]). [`resume_file`] /
//! [`resume_bytes`] replay snapshot + deltas to a state bit-identical
//! (series *and* loss-evaluation counts) to the live accountant at the
//! moment the last delta was written: BPL tails are installed verbatim
//! (the saved run already paid those evaluations), and population
//! timeline forks are re-applied copy-on-write in the same first-seen
//! order the live fork used.
//!
//! ## SPLIT records
//!
//! When a personalized release **splits** a shard (diverging budgets
//! within one user group — see
//! `PopulationAccountant::observe_release_personalized`), the delta
//! grammar describes the topology change instead of forcing a full
//! `O(T)` re-snapshot: the record carries an *origin map* (the
//! cursor-time parent of every current shard) and the member partition
//! of each split parent. This is always derivable because shards only
//! ever split — members never merge or migrate — so each current
//! group's parent is the cursor-time owner of its members. Replay
//! applies the partition copy-on-write in first-seen order *before*
//! the tails: every part starts from a clone of its parent's
//! cursor-time state and shares the parent's timeline object, and the
//! tail replay then forks timelines by appended-budget bits exactly as
//! the live fork did — so a resumed split population is bit-identical
//! (series, loss-evaluation counts, and timeline-sharing topology) to
//! the live one, with **zero** intervening full snapshots. The
//! remaining cases where `checkpoint_delta` refuses (returns `None`) —
//! wrong kind, a changed user set, a state shorter than the cursor, a
//! fold horizon that passed the cursor — are explained by
//! [`TplAccountant::checkpoint_delta_explained`] /
//! [`PopulationAccountant::checkpoint_delta_explained`], whose
//! [`TplError::DeltaUnchained`] message names the diverged shard class
//! so an operator knows *which* users forced the snapshot.
//!
//! ## Compaction
//!
//! An append-only log grows without bound; [`compact`] folds it back
//! into its base: it replays snapshot + log to the last stop point,
//! re-encodes one fresh full snapshot, atomically renames it over the
//! old one ([`write_atomic`] — a crash mid-compaction can never leave a
//! truncated snapshot), and removes the log. The rewritten snapshot has
//! a **new generation id**, so any record of the old log that survives
//! a crash between the rename and the log removal is recognized as
//! stale on the next resume and skipped, never double-applied. The CLI
//! exposes this as `--compact-after N` (fold the log back every `N`
//! appended records).
//!
//! ## Zero-copy resume
//!
//! [`resume_file`] memory-maps a binary snapshot ([`MappedSnapshot`],
//! backed by the `memmap2` stand-in in `crates/compat/`) and decodes
//! its `f64` sections *borrowed* (`Cow::Borrowed` straight into the
//! map) wherever alignment allows, materializing each section exactly
//! once at restore — never an intermediate copy per section. Read-only
//! audits skip materialization entirely via
//! [`format::SnapshotView`], which serves section slices in place and
//! refuses with [`TplError::ZeroCopyUnavailable`] (rather than
//! silently copying) when the platform cannot view them. Mapping is
//! safe against concurrent writers because snapshots are only ever
//! *rename-replaced* ([`write_atomic`]): the mapped inode is never
//! rewritten in place. When mapping fails, [`resume_file`] falls back
//! to the buffered read path — same bytes, same state, bit-identical.
//!
//! ## Generation ids
//!
//! Every delta record is stamped with the **generation id** of the
//! snapshot its cursor was taken against: [`snapshot_generation`], a
//! deterministic 64-bit FNV-1a hash of the snapshot bytes. On resume,
//! a stamped record whose generation does not match the snapshot being
//! resumed is from a *superseded* snapshot (the snapshot was rewritten
//! but the old log survived): the record is **skipped with a warning**
//! on stderr — its releases are already part of the newer snapshot, so
//! replaying it would double-count and failing on it would block a
//! state that is perfectly recoverable. Legacy records without a stamp
//! (generation 0, written before stamping existed) cannot be told
//! apart from genuine continuations, so they keep the strict chaining
//! behavior below.
//!
//! Failure honesty over silent recovery: a delta log record that does
//! not chain onto its snapshot (a crash between rewriting the snapshot
//! and truncating the log, or a log truncated mid-append) and is not
//! recognizably from a superseded generation is a hard
//! [`TplError::CorruptCheckpoint`] naming the mismatch — never a
//! silent resume at an earlier stop point, which would under-report
//! every release the lost records carried. The recovery is explicit:
//! delete (or truncate, at the byte offset the error names) the stale
//! log and resume from the snapshot.
//!
//! ## Folded accountants
//!
//! An accountant with a fold horizon armed (see
//! `TplAccountant::set_horizon`) holds only the live window plus a
//! constant-size fold summary, and its snapshots are O(w) rather than
//! O(T): the timeline and BPL sections carry the live window, and a
//! `FOLDED_SUMMARY` section (tag 8) carries
//! the fold point, the folded Σε and max ε, the horizon, and the folded
//! BPL maxima. Restore reinstates the summary onto the rebuilt live
//! trail via `BudgetTimeline::restore_fold`, which re-derives the
//! absolute prefix sums with the exact additions the live run
//! performed — so a resumed folded accountant is bit-identical to the
//! saved one for every live-window query and serves the same documented
//! bounds behind the fold. Unfolded snapshots (no such section)
//! restore exactly as before.
//!
//! Corrupt or version-mismatched input — truncated containers, foreign
//! magic, doctored section lengths, out-of-range witness indices,
//! non-chaining delta records — is reported through honest error
//! variants ([`TplError::CorruptCheckpoint`] and
//! [`TplError::CheckpointVersion`]), never a panic: payload shapes,
//! series lengths, budget finiteness, and the population's shard
//! partition are all validated before any state is restored.
//!
//! # Example
//!
//! ```
//! use tcdp_core::checkpoint::{resume_bytes, SavedState};
//! use tcdp_core::TplAccountant;
//! use tcdp_markov::TransitionMatrix;
//!
//! let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
//! let mut acc = TplAccountant::with_both(p.clone(), p).unwrap();
//! acc.observe_uniform(0.1, 5).unwrap();
//!
//! // Stop: persist the audit...
//! let snapshot = acc.checkpoint_binary();
//!
//! // ...and continue elsewhere, bit-identically.
//! let SavedState::Tpl(mut resumed) = resume_bytes(&snapshot, None).unwrap() else {
//!     unreachable!()
//! };
//! resumed.observe_release(0.1).unwrap();
//! acc.observe_release(0.1).unwrap();
//! assert_eq!(resumed.tpl_series().unwrap(), acc.tpl_series().unwrap());
//!
//! // A delta record carries a later stop point in O(appended) bytes.
//! let snapshot = acc.checkpoint_binary();
//! let cursor = acc.delta_cursor();
//! acc.observe_release(0.2).unwrap();
//! let delta = acc.checkpoint_delta(&cursor).unwrap().to_bytes();
//! let SavedState::Tpl(resumed) = resume_bytes(&snapshot, Some(&delta)).unwrap() else {
//!     unreachable!()
//! };
//! assert_eq!(resumed.tpl_series().unwrap(), acc.tpl_series().unwrap());
//! ```

pub mod format;

use crate::accountant::{FoldState, TplAccountant};
use crate::adversary::AdversaryT;
use crate::alg1::LossWitness;
use crate::loss::TemporalLossFunction;
use crate::personalized::PopulationAccountant;
use crate::{Result, TplError};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tcdp_mech::budget::BudgetTimeline;

/// The checkpoint format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 3;

/// What kind of accountant a checkpoint holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// A single-adversary [`TplAccountant`].
    TplAccountant,
    /// A sharded [`PopulationAccountant`].
    PopulationAccountant,
}

impl CheckpointKind {
    fn tag(self) -> &'static str {
        match self {
            CheckpointKind::TplAccountant => "tpl-accountant",
            CheckpointKind::PopulationAccountant => "population-accountant",
        }
    }
}

fn corrupt(reason: impl Into<String>) -> TplError {
    TplError::CorruptCheckpoint(reason.into())
}

/// Atomically install `bytes` at `path`: the content goes to a
/// *uniquely named* sibling temp file first (pid + per-boot nonce + a
/// process-wide counter, so concurrent saves to the same target can
/// never clobber each other's temp file) and is renamed over the
/// target — a crash mid-write, the exact failure checkpoints exist to
/// survive (including `--resume X --checkpoint X` overwriting the file
/// being resumed), can never leave a truncated checkpoint. On any error
/// the temp file is removed best-effort before the honest
/// [`TplError::CheckpointIo`] surfaces, so a failed save leaves no
/// `.tmp` litter either.
///
/// The nonce guards the cross-*process* race pid+counter alone cannot:
/// two processes can share a pid (pid namespaces, or rapid
/// restart reusing the id — the audit daemon snapshots on a timer and
/// is exactly the rapid-restart case) and both start their counter at
/// 0, so their temp names would collide. The nonce is drawn once per
/// boot, so every process epoch names a disjoint temp family.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = temp_sibling(
        path,
        std::process::id(),
        boot_nonce(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    );
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            TplError::CheckpointIo(format!("{}: {e}", path.display()))
        })
}

/// The random component of this process epoch's temp-file names, drawn
/// once on first use. See [`write_atomic`] for why pid alone is not a
/// sufficient process identity.
fn boot_nonce() -> u64 {
    use rand::Rng;
    static NONCE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *NONCE.get_or_init(|| rand::thread_rng().gen::<u64>())
}

/// The sibling temp-file name [`write_atomic`] stages into:
/// `<path>.<pid>.<nonce>.<seq>.tmp`. Pure so the naming discipline —
/// in particular that two process epochs sharing a pid and a counter
/// value still get distinct names — is testable without racing real
/// processes.
fn temp_sibling(path: &Path, pid: u32, nonce: u64, seq: u64) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{pid}.{nonce:016x}.{seq}.tmp"));
    PathBuf::from(tmp)
}

/// A decoded `(FPL, TPL)` cached-series pair, borrowed when zero-copy
/// decoding allows.
pub(crate) type RawSeries<'a> = (Cow<'a, [f64]>, Cow<'a, [f64]>);

/// One accountant's full state decoded from a snapshot, *before*
/// validation — the input of [`restore_accountant`].
///
/// The `f64` series are [`Cow`]s: the decoder borrows them straight
/// from the (typically memory-mapped) source buffer, and the restore
/// path materializes each exactly once.
pub(crate) struct RawAccountantState<'a> {
    pub backward: Option<TemporalLossFunction>,
    pub forward: Option<TemporalLossFunction>,
    /// The budget trail, already wrapped as a timeline object. Decoders
    /// that know about sharing (the binary population reader, whose
    /// snapshot stores each distinct timeline once) hand the *same*
    /// `Arc` to every shard of a class, so restoring never copies a
    /// trail per shard and [`restore_population`] can recover the
    /// sharing classes by pointer identity instead of `O(T)` bit
    /// comparisons.
    pub timeline: Arc<BudgetTimeline>,
    pub bpl: Cow<'a, [f64]>,
    pub series: Option<RawSeries<'a>>,
    pub warm_backward: Option<Value>,
    pub warm_forward: Option<Value>,
    /// The fold summary, when the saved accountant had a horizon armed
    /// (`None` for unfolded snapshots, which restore exactly as before).
    pub fold: Option<RawFold>,
}

/// The decoded `FOLDED_SUMMARY` of one accountant: everything needed to
/// reinstate a fold onto the live trail the snapshot carries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawFold {
    /// Entries folded away (global index of the first live entry).
    pub folded_len: usize,
    /// Σε over the folded entries, exactly as the left fold produced it.
    pub eps_total: f64,
    /// Max single ε among the folded entries (0.0 when none folded yet).
    pub eps_max: f64,
    /// The armed horizon (`None` if folding was later disarmed).
    pub horizon: Option<usize>,
    /// Max BPL over the folded entries.
    pub bpl_max: f64,
    /// Max `BPL − ε` over the folded entries.
    pub bpl_less_eps_max: f64,
    /// Tracked pre-fold w-event maxima, `(w, base)` pairs (empty when
    /// the saved accountant tracked none).
    pub wevent: Vec<(usize, f64)>,
}

/// A population's full state decoded from a snapshot: the user
/// count and, per shard in group order, the member list and accountant
/// state.
pub(crate) struct RawPopulationState<'a> {
    pub num_users: usize,
    pub shards: Vec<(Vec<usize>, RawAccountantState<'a>)>,
}

/// The witness slot of one correlation side, as a serialized [`Value`]
/// (`None` when no warm witness was cached at save time).
fn witness_value(l: Option<&Arc<TemporalLossFunction>>) -> Value {
    match l.and_then(|l| l.cached_witness()) {
        Some(w) => w.to_value(),
        None => Value::Null,
    }
}

/// The non-series half of one accountant's state — the loss functions
/// (wrapping the adversary's correlation matrices) and the warm
/// witnesses — as one JSON-serializable map, which the binary format
/// stores as a compact meta section next to the raw `f64` sections.
pub(crate) fn tpl_meta_value(acc: &TplAccountant) -> Value {
    let side = |l: Option<&Arc<TemporalLossFunction>>| match l {
        Some(l) => l.to_value(),
        None => Value::Null,
    };
    Value::Map(vec![
        ("backward".to_string(), side(acc.backward_loss_fn())),
        ("forward".to_string(), side(acc.forward_loss_fn())),
        (
            "warm_backward".to_string(),
            witness_value(acc.backward_loss_fn()),
        ),
        (
            "warm_forward".to_string(),
            witness_value(acc.forward_loss_fn()),
        ),
    ])
}

/// Validate a deserialized witness against its loss function's domain
/// and seed the warm cache. Out-of-range row/subset indices are corrupt
/// (they would index past matrix rows); a *behaviorally* stale witness
/// is fine — Theorem 4 revalidation runs before every use.
fn restore_witness(
    loss: Option<&Arc<TemporalLossFunction>>,
    v: Option<&Value>,
    field: &str,
) -> Result<()> {
    let Some(v) = v else { return Ok(()) };
    if matches!(v, Value::Null) {
        return Ok(());
    }
    let w = LossWitness::from_value(v).map_err(|e| corrupt(format!("{field}: {e}")))?;
    let Some(loss) = loss else {
        return Err(corrupt(format!(
            "{field}: witness present but the correlation side is absent"
        )));
    };
    let n = loss.n();
    if w.q_row >= n || w.d_row >= n || w.active.iter().any(|&j| j >= n) {
        return Err(corrupt(format!("{field}: witness indices out of range")));
    }
    if !(w.q_sum.is_finite() && w.d_sum.is_finite() && w.value.is_finite()) {
        return Err(corrupt(format!("{field}: non-finite witness sums")));
    }
    loss.restore_warm(Some(w));
    Ok(())
}

/// Rebuild one accountant from raw state, validating everything the
/// type system cannot — the single path by which a saved accountant
/// re-enters the process. Borrowed (zero-copy) sections are validated
/// in place and materialized exactly once, here.
pub(crate) fn restore_accountant(raw: RawAccountantState<'_>) -> Result<TplAccountant> {
    let RawAccountantState {
        backward,
        forward,
        timeline,
        bpl,
        series,
        warm_backward,
        warm_forward,
        fold,
    } = raw;
    if timeline.with_values(|b| b.iter().any(|&e| !(e.is_finite() && e > 0.0))) {
        return Err(corrupt(
            "budget trail contains non-positive or non-finite entries",
        ));
    }
    // Re-apply the FOLDED_SUMMARY before any length arithmetic: the
    // decoded trail holds only the live window, and `restore_fold`
    // shifts it to its global offset (bit-identically reseeding the
    // prefix sums from the folded Σε).
    let (folded, wevent) = if let Some(f) = fold {
        if !(f.eps_total.is_finite() && f.eps_total >= 0.0 && f.eps_max.is_finite()) {
            return Err(corrupt("fold summary has non-finite budget totals"));
        }
        if f.folded_len > 0 && !(f.bpl_max.is_finite() && f.bpl_less_eps_max.is_finite()) {
            return Err(corrupt("fold summary has non-finite BPL maxima"));
        }
        timeline
            .restore_fold(f.folded_len, f.eps_total, f.eps_max, f.horizon)
            .map_err(|e| corrupt(format!("fold summary rejected: {e}")))?;
        let state = if f.folded_len > 0 {
            FoldState {
                len: f.folded_len,
                bpl_max: f.bpl_max,
                bpl_less_eps_max: f.bpl_less_eps_max,
            }
        } else {
            FoldState::empty()
        };
        (state, f.wevent)
    } else {
        (FoldState::empty(), Vec::new())
    };
    // `timeline.len()` is global; `bpl` covers only the live window.
    if folded.len + bpl.len() != timeline.len() {
        return Err(corrupt(format!(
            "bpl length {} plus folded prefix {} does not match budget trail length {}",
            bpl.len(),
            folded.len,
            timeline.len()
        )));
    }
    // BPL values are fed back into `L(α)` as α, which must be finite and
    // non-negative — reject state that would understate leakage now and
    // fail the next observation later.
    if bpl.iter().any(|v| !(v.is_finite() && *v >= 0.0)) {
        return Err(corrupt(
            "bpl series contains negative or non-finite entries",
        ));
    }
    for &(w, _) in &wevent {
        if w == 0 {
            return Err(corrupt("fold summary tracks a zero-length w-event window"));
        }
    }
    let live_len = bpl.len();
    let mut acc = TplAccountant::from_restored_parts(
        backward.map(Arc::new),
        forward.map(Arc::new),
        timeline,
        bpl.into_owned(),
        folded,
    );
    acc.restore_wevent(wevent);
    if let Some((fpl, tpl)) = series {
        if fpl.len() != live_len || tpl.len() != live_len {
            return Err(corrupt(format!(
                "cached series lengths ({}, {}) do not match the live window ({})",
                fpl.len(),
                tpl.len(),
                live_len
            )));
        }
        if fpl.iter().chain(tpl.iter()).any(|v| !v.is_finite()) {
            return Err(corrupt("cached series contain non-finite entries"));
        }
        acc.restore_series(fpl.into_owned(), tpl.into_owned());
    }
    restore_witness(
        acc.backward_loss_fn(),
        warm_backward.as_ref(),
        "warm_backward",
    )?;
    restore_witness(acc.forward_loss_fn(), warm_forward.as_ref(), "warm_forward")?;
    Ok(acc)
}

impl TplAccountant {
    /// Snapshot this accountant as a version-3 **binary** envelope (see
    /// [`format`]): the timeline, BPL, and cached FPL/TPL series are
    /// raw little-endian `f64` sections. Restore with [`resume_bytes`]
    /// or [`resume_file`]; the resumed accountant continues the stream
    /// bit-identically to the saved one: same budgets, same BPL state,
    /// same cached series, same warm-start seed.
    pub fn checkpoint_binary(&self) -> Vec<u8> {
        format::write_tpl_snapshot(self)
    }

    /// The cursor a later [`Self::checkpoint_delta`] measures appends
    /// against — take it at the moment a snapshot (or delta) is
    /// written.
    pub fn delta_cursor(&self) -> DeltaCursor {
        DeltaCursor {
            kind: CheckpointKind::TplAccountant,
            num_users: 0,
            num_groups: 1,
            len: self.len(),
            generation: 0,
            members: Vec::new(),
        }
    }

    /// The state appended since `cursor` — budgets, BPL values, and the
    /// current warm witnesses — as an `O(appended)`-sized record for
    /// the delta log. Returns `None` when the cursor does not chain
    /// (wrong kind, or the state is shorter than the cursor); write a
    /// fresh full snapshot instead. [`Self::checkpoint_delta_explained`]
    /// reports *why* a cursor refused.
    pub fn checkpoint_delta(&self, cursor: &DeltaCursor) -> Option<CheckpointDelta> {
        self.checkpoint_delta_explained(cursor).ok()
    }

    /// Like [`Self::checkpoint_delta`], but a refusal is an honest
    /// [`TplError::DeltaUnchained`] naming the reason.
    pub fn checkpoint_delta_explained(&self, cursor: &DeltaCursor) -> Result<CheckpointDelta> {
        let unchained = |reason: String| TplError::DeltaUnchained(reason);
        if cursor.kind != CheckpointKind::TplAccountant {
            return Err(unchained(format!(
                "cursor was taken from a {}, this is a {}",
                cursor.kind.tag(),
                CheckpointKind::TplAccountant.tag()
            )));
        }
        if cursor.len > self.len() {
            return Err(unchained(format!(
                "cursor is at T = {} but the state is at T = {} — the accountant moved backwards",
                cursor.len,
                self.len()
            )));
        }
        let shard = delta_shard_explained(self, cursor.len, 0, None)?;
        Ok(CheckpointDelta {
            kind: CheckpointKind::TplAccountant,
            base_len: cursor.len,
            generation: cursor.generation,
            shards: vec![shard],
            splits: None,
        })
    }
}

impl PopulationAccountant {
    /// Snapshot the population as a version-3 **binary** envelope (see
    /// [`format`]): per shard, its member indices and its accountant's
    /// full state (the adversary matrices ride along inside the
    /// accountant's loss functions); each distinct budget timeline is
    /// written once as a raw `f64` section, and shards reference their
    /// timeline by class index. Restore with [`resume_bytes`] or
    /// [`resume_file`], which validate that the shards partition the
    /// user set and agree on the number of observed releases.
    pub fn checkpoint_binary(&self) -> Vec<u8> {
        format::write_population_snapshot(self)
    }

    /// The cursor a later [`Self::checkpoint_delta`] measures appends
    /// against; besides the release count it records the shard topology
    /// (user/group counts *and* per-shard member lists), so a later
    /// delta can describe shard **splits** as an origin map over the
    /// cursor-time groups.
    pub fn delta_cursor(&self) -> DeltaCursor {
        DeltaCursor {
            kind: CheckpointKind::PopulationAccountant,
            num_users: self.num_users(),
            num_groups: self.num_groups(),
            len: self.num_releases(),
            generation: 0,
            members: self.parts().map(|(_, m, _)| m.to_vec()).collect(),
        }
    }

    /// The state appended since `cursor`, per shard in group order.
    /// Returns `None` when the cursor does not chain; write a fresh
    /// full snapshot instead. [`Self::checkpoint_delta_explained`]
    /// reports *why* — see there for the cases. Timeline *forks*
    /// (diverging budgets) and shard **splits** since the cursor are
    /// both described incrementally: the record carries each current
    /// shard's own tail, plus (for splits) the origin map and member
    /// partition the replay re-applies copy-on-write.
    pub fn checkpoint_delta(&self, cursor: &DeltaCursor) -> Option<CheckpointDelta> {
        self.checkpoint_delta_explained(cursor).ok()
    }

    /// Like [`Self::checkpoint_delta`], but a refusal is an honest
    /// [`TplError::DeltaUnchained`] naming the shard class that cannot
    /// chain — the remaining refusals are a wrong checkpoint kind, a
    /// changed user set, a state shorter than the cursor, a shard whose
    /// fold horizon passed the cursor, or (impossible in a live run,
    /// but validated) members that merged or migrated across shards.
    pub fn checkpoint_delta_explained(&self, cursor: &DeltaCursor) -> Result<CheckpointDelta> {
        let unchained = |reason: String| TplError::DeltaUnchained(reason);
        if cursor.kind != CheckpointKind::PopulationAccountant {
            return Err(unchained(format!(
                "cursor was taken from a {}, this is a {}",
                cursor.kind.tag(),
                CheckpointKind::PopulationAccountant.tag()
            )));
        }
        if cursor.num_users != self.num_users() {
            return Err(unchained(format!(
                "cursor saw {} users, the population now has {} — user-set changes cannot be \
                 described incrementally",
                cursor.num_users,
                self.num_users()
            )));
        }
        if cursor.len > self.num_releases() {
            return Err(unchained(format!(
                "cursor is at T = {} but the population is at T = {} — the state moved backwards",
                cursor.len,
                self.num_releases()
            )));
        }
        // Derive the split description (identity when nothing split):
        // each current shard's parent is the cursor-time owner of its
        // members. Owners are well defined because shards only split.
        let splits = if cursor.num_groups == self.num_groups() {
            None
        } else {
            if self.num_groups() < cursor.num_groups {
                return Err(unchained(format!(
                    "cursor saw {} shards, the population now has {} — shards never merge, so \
                     this cursor is from a different population",
                    cursor.num_groups,
                    self.num_groups()
                )));
            }
            if cursor.members.len() != cursor.num_groups {
                return Err(unchained(format!(
                    "cursor records {} member lists for {} shards — it predates split-aware \
                     cursors and cannot describe the topology change",
                    cursor.members.len(),
                    cursor.num_groups
                )));
            }
            let mut owner = vec![usize::MAX; self.num_users()];
            for (p, members) in cursor.members.iter().enumerate() {
                for &u in members {
                    if u >= self.num_users() {
                        return Err(unchained(format!(
                            "cursor shard {p} lists user {u}, outside this population of {}",
                            self.num_users()
                        )));
                    }
                    owner[u] = p;
                }
            }
            let mut origin = Vec::with_capacity(self.num_groups());
            let mut children = vec![0usize; cursor.num_groups];
            for (g, (_, members, _)) in self.parts().enumerate() {
                let first = members[0];
                let p = owner[first];
                if p == usize::MAX {
                    return Err(unchained(format!(
                        "shard {g} (first user {first}) has no cursor-time owner — the cursor \
                         does not cover this population"
                    )));
                }
                if let Some(&stray) = members.iter().find(|&&u| owner[u] != p) {
                    return Err(unchained(format!(
                        "shard {g} (first user {first}) mixes users from cursor shards {p} and \
                         {} (user {stray}) — members merged or migrated, which only a full \
                         snapshot can describe",
                        owner[stray]
                    )));
                }
                origin.push(p);
                children[p] += 1;
            }
            if let Some(orphan) = children.iter().position(|&c| c == 0) {
                return Err(unchained(format!(
                    "cursor shard {orphan} has no descendant in the current population — \
                     members merged away, which only a full snapshot can describe"
                )));
            }
            let members: Vec<Option<Vec<usize>>> = self
                .parts()
                .enumerate()
                .map(|(g, (_, m, _))| (children[origin[g]] > 1).then(|| m.to_vec()))
                .collect();
            Some(DeltaSplits { origin, members })
        };
        let mut shards = Vec::with_capacity(self.num_groups());
        for (g, (_, members, acc)) in self.parts().enumerate() {
            shards.push(delta_shard_explained(acc, cursor.len, g, Some(members[0]))?);
        }
        Ok(CheckpointDelta {
            kind: CheckpointKind::PopulationAccountant,
            base_len: cursor.len,
            generation: cursor.generation,
            shards,
            splits,
        })
    }
}

/// Rebuild a population from raw state — the single path by which a
/// saved population re-enters the process. Validates the shard partition, the
/// group ordering invariant, per-shard accountant state, and the
/// equal-release-count invariant, then re-shares bitwise-equal budget
/// trails copy-on-write.
pub(crate) fn restore_population(raw: RawPopulationState<'_>) -> Result<PopulationAccountant> {
    let RawPopulationState { num_users, shards } = raw;
    if num_users == 0 {
        return Err(corrupt("population checkpoint with zero users"));
    }
    if shards.is_empty() {
        return Err(corrupt("population checkpoint with no shards"));
    }
    let mut seen = vec![false; num_users];
    let mut parts = Vec::with_capacity(shards.len());
    let mut prev_min: Option<usize> = None;
    for (g, (members, state)) in shards.into_iter().enumerate() {
        if members.is_empty() {
            return Err(corrupt(format!("groups[{g}]: empty member list")));
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt(format!(
                "groups[{g}]: member list must be strictly ascending"
            )));
        }
        // Group order must be ascending in minimum member index —
        // the invariant `most_exposed_user`'s documented
        // lowest-index tie-break relies on; a reordered checkpoint
        // would silently flip exact-tie winners.
        if let Some(prev) = prev_min {
            if members[0] <= prev {
                return Err(corrupt(format!(
                    "groups[{g}]: shards must be ordered by ascending first member \
                     ({} after {prev})",
                    members[0]
                )));
            }
        }
        prev_min = Some(members[0]);
        for &i in &members {
            if i >= num_users {
                return Err(corrupt(format!(
                    "groups[{g}]: member index {i} out of range for {num_users} users"
                )));
            }
            if seen[i] {
                return Err(corrupt(format!(
                    "groups[{g}]: user {i} appears in more than one shard"
                )));
            }
            seen[i] = true;
        }
        let acc = restore_accountant(state)?;
        let adversary = adversary_of(&acc)?;
        parts.push((adversary, members, acc));
    }
    if let Some(missing) = seen.iter().position(|s| !s) {
        return Err(corrupt(format!("user {missing} is assigned to no shard")));
    }
    // Timelines are per-shard (personalized budgets may diverge), but
    // every user has observed the same *number* of releases: unequal
    // lengths mean the population was not saved atomically.
    if let Some((_, _, first)) = parts.first() {
        let reference = first.len();
        for (g, (_, _, acc)) in parts.iter().enumerate().skip(1) {
            if acc.len() != reference {
                return Err(corrupt(format!(
                    "groups[{g}]: budget trail has {} releases where shard 0 has \
                     {reference} — every user observes each release exactly once",
                    acc.len()
                )));
            }
        }
    }
    // Restore copy-on-write sharing: shards whose trails are
    // bit-identical re-join one timeline object (first such shard in
    // group order is the class representative), so the resumed
    // population records shared releases once per distinct timeline,
    // exactly as the saved one did. Shards already pointing at a
    // representative object (the binary decoder hands one `Arc` per
    // class) are recognized by pointer identity first, so the `O(T)`
    // bit comparison only runs once per *class*, not once per shard.
    let mut reps: Vec<Arc<BudgetTimeline>> = Vec::new();
    let mut rep_bits: Vec<Vec<u64>> = Vec::new();
    for (_, _, acc) in parts.iter_mut() {
        if reps.iter().any(|r| Arc::ptr_eq(r, acc.timeline())) {
            continue;
        }
        // Fingerprint the fold prefix too: live windows can coincide
        // while the folded histories differ, and those shards must NOT
        // re-join one timeline.
        let mut bits: Vec<u64> = vec![
            acc.timeline().live_start() as u64,
            acc.timeline().folded_total().to_bits(),
        ];
        acc.with_budgets(|b| bits.extend(b.iter().map(|v| v.to_bits())));
        match rep_bits.iter().position(|k| *k == bits) {
            Some(i) => acc.set_timeline(Arc::clone(&reps[i])),
            None => {
                reps.push(Arc::clone(acc.timeline()));
                rep_bits.push(bits);
            }
        }
    }
    Ok(PopulationAccountant::from_parts(parts, num_users))
}

/// Recover the adversary model from a restored accountant's loss
/// functions (they wrap exactly the correlation matrices).
fn adversary_of(acc: &TplAccountant) -> Result<AdversaryT> {
    let matrix = |l: Option<&Arc<TemporalLossFunction>>| l.map(|l| l.matrix().clone());
    Ok(
        match (
            matrix(acc.backward_loss_fn()),
            matrix(acc.forward_loss_fn()),
        ) {
            (Some(pb), Some(pf)) => {
                AdversaryT::with_both(pb, pf).map_err(|e| corrupt(e.to_string()))?
            }
            (Some(pb), None) => AdversaryT::with_backward(pb),
            (None, Some(pf)) => AdversaryT::with_forward(pf),
            (None, None) => AdversaryT::traditional(),
        },
    )
}

// ---------------------------------------------------------------------------
// Incremental (delta) checkpoints
// ---------------------------------------------------------------------------

/// Where an accountant's state stood when a snapshot or delta was last
/// written — the cursor [`TplAccountant::checkpoint_delta`] /
/// [`PopulationAccountant::checkpoint_delta`] measure appends against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaCursor {
    kind: CheckpointKind,
    /// Population topology at cursor time (0 / 1 for a solo accountant).
    num_users: usize,
    num_groups: usize,
    /// Releases observed at cursor time.
    len: usize,
    /// Generation id of the snapshot this cursor (and the deltas taken
    /// from it) chain onto — see [`snapshot_generation`]. Zero means
    /// unstamped (legacy logs without generation chaining).
    generation: u64,
    /// Per-group member lists at cursor time (empty for a solo
    /// accountant) — what lets a later delta describe shard *splits*
    /// as an origin map over these groups.
    members: Vec<Vec<usize>>,
}

impl DeltaCursor {
    /// Releases observed when the cursor was taken.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cursor was taken before any release.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The snapshot generation this cursor chains onto (0 = unstamped).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamp this cursor with the generation id of the snapshot it was
    /// taken against (see [`snapshot_generation`]). Deltas written from
    /// a stamped cursor are skipped — with a warning — by
    /// [`resume_bytes`] / [`resume_file`] when the snapshot has since
    /// been superseded, instead of corrupting the resume.
    pub fn stamped(self, generation: u64) -> DeltaCursor {
        DeltaCursor { generation, ..self }
    }
}

/// The generation id of a binary snapshot: a deterministic 64-bit
/// content hash (FNV-1a) of the envelope bytes. Stamp delta cursors
/// with it ([`DeltaCursor::stamped`]) so a stale delta log — one left
/// behind by an earlier run whose snapshot was overwritten — is
/// recognized and ignored on resume rather than replayed onto the
/// wrong base state.
pub fn snapshot_generation(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

/// FNV-1a, 64-bit — stable across platforms and runs (no randomized
/// hasher state), which is what generation chaining needs.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One shard's contribution to a delta record: the budget and BPL tails
/// appended since the cursor, plus the shard's current warm witnesses
/// (serialized; the last record's witnesses win on replay).
#[derive(Debug, Clone)]
pub(crate) struct DeltaShard {
    pub budgets: Vec<f64>,
    pub bpl: Vec<f64>,
    pub warm_backward: Option<Value>,
    pub warm_forward: Option<Value>,
}

/// The topology change a SPLIT delta record describes: for every
/// current shard `j`, `origin[j]` is its cursor-time parent, and
/// `members[j]` is its post-split member list exactly when that parent
/// split into more than one part (`None` for shards that inherit the
/// parent's list verbatim).
#[derive(Debug, Clone)]
pub(crate) struct DeltaSplits {
    pub origin: Vec<usize>,
    pub members: Vec<Option<Vec<usize>>>,
}

/// The state appended since a [`DeltaCursor`] — an `O(appended)`-sized
/// record for the append-only delta log next to a binary snapshot.
/// Replayed in order by [`resume_bytes`] / [`resume_file`], each record
/// chains onto the previous state (`base_len` must equal the state's
/// release count) and restores it bit-identically to the live
/// accountant at the moment the record was written.
#[derive(Debug, Clone)]
pub struct CheckpointDelta {
    kind: CheckpointKind,
    base_len: usize,
    /// Generation id of the snapshot this record chains onto (0 when
    /// the cursor was never stamped — legacy strict-chaining mode).
    generation: u64,
    shards: Vec<DeltaShard>,
    /// `Some` exactly when the shard topology changed since the cursor
    /// (a SPLIT record); replay applies it before the tails.
    splits: Option<DeltaSplits>,
}

impl CheckpointDelta {
    /// What kind of accountant this delta extends.
    pub fn kind(&self) -> CheckpointKind {
        self.kind
    }

    /// The release count this record chains from.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// The snapshot generation this record chains onto (0 = unstamped).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Releases appended by this record.
    pub fn appended(&self) -> usize {
        self.shards.first().map_or(0, |s| s.budgets.len())
    }

    /// Whether the record appends nothing (skip writing it).
    pub fn is_empty(&self) -> bool {
        self.appended() == 0
    }

    /// Encode as one binary delta-log record (see [`format`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        format::write_delta(self)
    }

    /// Append this record to the delta log at `path` (created if
    /// absent). Appending is `O(appended)` in both I/O and encoding —
    /// the whole point of incremental checkpoints.
    pub fn append_to(&self, path: &Path) -> Result<()> {
        use std::io::Write as _;
        let io_err = |e: std::io::Error| TplError::CheckpointIo(format!("{}: {e}", path.display()));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        f.write_all(&self.to_bytes()).map_err(io_err)
    }

    /// Whether this is a SPLIT record (the shard topology changed since
    /// the cursor).
    pub fn is_split(&self) -> bool {
        self.splits.is_some()
    }

    pub(crate) fn from_parts(
        kind: CheckpointKind,
        base_len: usize,
        generation: u64,
        shards: Vec<DeltaShard>,
        splits: Option<DeltaSplits>,
    ) -> Self {
        CheckpointDelta {
            kind,
            base_len,
            generation,
            shards,
            splits,
        }
    }

    pub(crate) fn shards(&self) -> &[DeltaShard] {
        &self.shards
    }

    pub(crate) fn splits(&self) -> Option<&DeltaSplits> {
        self.splits.as_ref()
    }
}

/// One shard's delta tail: everything appended to `acc` since `from`.
/// A refusal is [`TplError::DeltaUnchained`] naming the shard class
/// (`g`, plus its first member when the caller is a population) so an
/// operator knows which shard forced a full snapshot.
fn delta_shard_explained(
    acc: &TplAccountant,
    from: usize,
    g: usize,
    first_member: Option<usize>,
) -> Result<DeltaShard> {
    let who = match first_member {
        Some(u) => format!("shard {g} (users {u}…)"),
        None => format!("shard {g}"),
    };
    // `from` is a global release index; the BPL series holds only the
    // live window. A cursor older than the fold point cannot chain (the
    // folded BPL values are gone).
    let unfoldable = || {
        TplError::DeltaUnchained(format!(
            "{who}: the fold horizon passed the cursor (cursor at T = {from}, live window \
             starts at {}) — the appended BPL values were folded away; write a full snapshot",
            acc.live_start()
        ))
    };
    let budgets = acc.timeline().tail_from(from).ok_or_else(unfoldable)?;
    let k = from.checked_sub(acc.live_start()).ok_or_else(unfoldable)?;
    let bpl = acc.bpl_series().get(k..).ok_or_else(unfoldable)?.to_vec();
    if budgets.len() != bpl.len() {
        return Err(TplError::DeltaUnchained(format!(
            "{who}: budget tail has {} entries but the BPL tail has {} — the accountant is \
             mid-sync; observe or sync before taking a delta",
            budgets.len(),
            bpl.len()
        )));
    }
    Ok(DeltaShard {
        budgets,
        bpl,
        warm_backward: Some(witness_value(acc.backward_loss_fn())),
        warm_forward: Some(witness_value(acc.forward_loss_fn())),
    })
}

/// Semantic validation of one delta shard (the same rules the snapshot
/// restore applies to trails and BPL series).
fn validate_delta_shard(s: &DeltaShard, g: usize) -> Result<()> {
    if s.budgets.iter().any(|&e| !(e.is_finite() && e > 0.0)) {
        return Err(corrupt(format!(
            "delta shard {g}: budget tail contains non-positive or non-finite entries"
        )));
    }
    if s.bpl.len() != s.budgets.len() {
        return Err(corrupt(format!(
            "delta shard {g}: bpl tail length {} does not match budget tail length {}",
            s.bpl.len(),
            s.budgets.len()
        )));
    }
    if s.bpl.iter().any(|v| !(v.is_finite() && *v >= 0.0)) {
        return Err(corrupt(format!(
            "delta shard {g}: bpl tail contains negative or non-finite entries"
        )));
    }
    Ok(())
}

/// Replay one delta record onto a resumed state.
fn apply_delta(state: &mut SavedState, delta: &CheckpointDelta) -> Result<()> {
    match state {
        SavedState::Tpl(acc) => {
            if delta.kind != CheckpointKind::TplAccountant {
                return Err(corrupt("delta kind does not match the snapshot kind"));
            }
            let [shard] = delta.shards.as_slice() else {
                return Err(corrupt(format!(
                    "delta for a solo accountant carries {} shards",
                    delta.shards.len()
                )));
            };
            if delta.base_len != acc.len() {
                return Err(corrupt(format!(
                    "delta record chains from T = {} but the state is at T = {}",
                    delta.base_len,
                    acc.len()
                )));
            }
            validate_delta_shard(shard, 0)?;
            for &b in &shard.budgets {
                acc.timeline()
                    .push(b)
                    .map_err(|e| corrupt(format!("delta budget: {e}")))?;
            }
            acc.extend_bpl(&shard.budgets, &shard.bpl)
                .map_err(|e| corrupt(format!("delta bpl tail: {e}")))?;
            restore_witness(
                acc.backward_loss_fn(),
                shard.warm_backward.as_ref(),
                "delta warm_backward",
            )?;
            restore_witness(
                acc.forward_loss_fn(),
                shard.warm_forward.as_ref(),
                "delta warm_forward",
            )?;
        }
        SavedState::Population(pop) => {
            if delta.kind != CheckpointKind::PopulationAccountant {
                return Err(corrupt("delta kind does not match the snapshot kind"));
            }
            if delta.base_len != pop.num_releases() {
                return Err(corrupt(format!(
                    "delta record chains from T = {} but the population is at T = {}",
                    delta.base_len,
                    pop.num_releases()
                )));
            }
            // A SPLIT record first re-partitions the cursor-time groups
            // copy-on-write (each part cloning its parent's state and
            // sharing the parent's timeline object); the tail replay
            // below then forks timelines exactly as the live run did.
            if let Some(splits) = &delta.splits {
                if splits.origin.len() != delta.shards.len()
                    || splits.members.len() != delta.shards.len()
                {
                    return Err(corrupt(format!(
                        "SPLIT delta: origin map covers {} shards, member partition {}, but \
                         the record carries {}",
                        splits.origin.len(),
                        splits.members.len(),
                        delta.shards.len()
                    )));
                }
                pop.apply_checkpoint_splits(&splits.origin, &splits.members)
                    .map_err(corrupt)?;
            }
            for (g, shard) in delta.shards.iter().enumerate() {
                validate_delta_shard(shard, g)?;
            }
            let tails: Vec<(Vec<f64>, Vec<f64>)> = delta
                .shards
                .iter()
                .map(|s| (s.budgets.clone(), s.bpl.clone()))
                .collect();
            pop.apply_checkpoint_tails(&tails).map_err(corrupt)?;
            for ((_, _, acc), shard) in pop.parts().zip(&delta.shards) {
                restore_witness(
                    acc.backward_loss_fn(),
                    shard.warm_backward.as_ref(),
                    "delta warm_backward",
                )?;
                restore_witness(
                    acc.forward_loss_fn(),
                    shard.warm_forward.as_ref(),
                    "delta warm_forward",
                )?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Format-agnostic loading
// ---------------------------------------------------------------------------

/// A resumed accountant of either kind — what [`resume_file`] and
/// [`resume_bytes`] yield.
#[derive(Debug)]
pub enum SavedState {
    /// A single-adversary accountant.
    Tpl(TplAccountant),
    /// A sharded population.
    Population(PopulationAccountant),
}

impl SavedState {
    /// The checkpoint kind this state was restored from.
    pub fn kind(&self) -> CheckpointKind {
        match self {
            SavedState::Tpl(_) => CheckpointKind::TplAccountant,
            SavedState::Population(_) => CheckpointKind::PopulationAccountant,
        }
    }
}

/// Resume from a version-3 binary snapshot, then replay an optional
/// delta log (concatenated [`CheckpointDelta`] records) over it. The
/// result is bit-identical to the live accountant at the moment the
/// last delta (or, with no log, the snapshot) was written.
/// Generation-stamped records ([`DeltaCursor::stamped`]) whose id does
/// not match this snapshot's [`snapshot_generation`] are *skipped* with
/// a warning on stderr — they belong to a superseded snapshot that was
/// since overwritten, and replaying them would graft another run's tail
/// onto this base. Unstamped (generation-0, legacy) records keep the
/// strict `base_len` chaining contract: a mismatch is a hard
/// [`TplError::CorruptCheckpoint`], as is a retired JSON envelope.
pub fn resume_bytes(snapshot: &[u8], delta_log: Option<&[u8]>) -> Result<SavedState> {
    resume_bytes_counted(snapshot, delta_log).map(|(state, _, _)| state)
}

/// [`resume_bytes`] plus replay accounting: `(state, replayed records,
/// skipped stale records)` — what [`compact`] reports.
fn resume_bytes_counted(
    snapshot: &[u8],
    delta_log: Option<&[u8]>,
) -> Result<(SavedState, usize, usize)> {
    refuse_json_envelope(snapshot)?;
    let generation = snapshot_generation(snapshot);
    let mut state = match format::read_snapshot(snapshot)? {
        format::RawState::Tpl(raw) => SavedState::Tpl(restore_accountant(*raw)?),
        format::RawState::Population(raw) => SavedState::Population(restore_population(raw)?),
    };
    let (mut replayed, mut skipped) = (0usize, 0usize);
    if let Some(log) = delta_log {
        for delta in format::read_delta_log(log)? {
            if delta.generation != 0 && delta.generation != generation {
                eprintln!(
                    "warning: skipping stale delta record (T = {}..{}): written against \
                     snapshot generation {:016x}, but the snapshot on disk is {:016x}",
                    delta.base_len(),
                    delta.base_len() + delta.appended(),
                    delta.generation,
                    generation
                );
                skipped += 1;
                continue;
            }
            apply_delta(&mut state, &delta)?;
            replayed += 1;
        }
    }
    Ok((state, replayed, skipped))
}

/// Earlier builds wrote a JSON envelope by default, so such files exist;
/// name them precisely instead of reporting bad magic. The BPL values
/// they hold cannot be rebuilt without re-running Algorithm 1 over every
/// release, so the only honest recovery is re-running the audit.
fn refuse_json_envelope(bytes: &[u8]) -> Result<()> {
    if bytes.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{') {
        return Err(corrupt(
            "this is a JSON checkpoint envelope, and JSON envelopes are no longer read — \
             re-run the audit from its budget trail to write a binary (v3) snapshot",
        ));
    }
    Ok(())
}

/// The sibling delta-log path of a binary snapshot: `<path>.delta`.
pub fn delta_log_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".delta");
    PathBuf::from(p)
}

/// A memory-mapped binary snapshot — the zero-copy source for
/// [`resume_bytes`] (sections decoded `Cow::Borrowed` straight from
/// the map) and for read-only audits via [`Self::view`].
///
/// Mapping a snapshot is safe against concurrent checkpointing because
/// snapshots are only ever **rename-replaced** ([`write_atomic`]): a
/// later save installs a new inode at the path, and this map keeps the
/// old inode's bytes alive and unchanged until dropped — the file at
/// `path` is never rewritten in place.
#[derive(Debug)]
pub struct MappedSnapshot {
    map: memmap2::Mmap,
}

impl MappedSnapshot {
    /// Map the file at `path` read-only. A file that cannot be opened
    /// is [`TplError::CheckpointIo`]; one that cannot be *mapped*
    /// (empty, or an unsupported platform) is
    /// [`TplError::ZeroCopyUnavailable`] — callers fall back to the
    /// buffered read path.
    pub fn open(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path)
            .map_err(|e| TplError::CheckpointIo(format!("{}: {e}", path.display())))?;
        let map = memmap2::Mmap::map(&file).map_err(|e| {
            TplError::ZeroCopyUnavailable(format!("cannot map {}: {e}", path.display()))
        })?;
        Ok(MappedSnapshot { map })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.map
    }

    /// Parse the mapped bytes as a snapshot container and return the
    /// zero-copy audit view over them.
    pub fn view(&self) -> Result<format::SnapshotView<'_>> {
        format::SnapshotView::parse(&self.map)
    }
}

/// What [`compact`] did: the folded log's replay accounting and the
/// rewritten snapshot's identity.
#[derive(Debug, Clone, Copy)]
pub struct Compaction {
    /// Generation id of the snapshot now on disk (new when records were
    /// folded in; unchanged on a no-op).
    pub generation: u64,
    /// Delta records folded into the snapshot.
    pub replayed: usize,
    /// Stale records (superseded generation) discarded with the log.
    pub skipped: usize,
    /// Size of the snapshot now on disk, in bytes.
    pub snapshot_bytes: usize,
}

/// Fold the sibling delta log into the binary snapshot at `path`:
/// replay snapshot + log to the last stop point, atomically rename a
/// fresh full snapshot over the old one, and remove the log. The result
/// resumes bit-identically to replaying the log — but in one `O(T)`
/// read instead of a snapshot plus an unbounded record chain — and
/// carries a **new generation id**, so a crash between the rename and
/// the log removal is benign: the leftover records are recognized as
/// stale on the next resume (or the next `compact`) and skipped, never
/// double-applied. With no log (or an empty one) this is a no-op that
/// reports the current generation.
pub fn compact(path: &Path) -> Result<Compaction> {
    let snapshot = std::fs::read(path)
        .map_err(|e| TplError::CheckpointIo(format!("{}: {e}", path.display())))?;
    if !snapshot.starts_with(format::MAGIC) {
        return Err(corrupt(
            "only binary (v3) snapshots carry a delta log — nothing to compact",
        ));
    }
    let log_path = delta_log_path(path);
    let log = match std::fs::read(&log_path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(TplError::CheckpointIo(format!(
                "{}: {e}",
                log_path.display()
            )))
        }
    };
    if log.is_empty() {
        return Ok(Compaction {
            generation: snapshot_generation(&snapshot),
            replayed: 0,
            skipped: 0,
            snapshot_bytes: snapshot.len(),
        });
    }
    let (state, replayed, skipped) = resume_bytes_counted(&snapshot, Some(&log))?;
    // Re-encode as-is — deliberately without warming the series cache
    // first, so resuming the compacted snapshot costs exactly the same
    // loss evaluations as resuming snapshot + log would have.
    let bytes = match &state {
        SavedState::Tpl(acc) => acc.checkpoint_binary(),
        SavedState::Population(pop) => pop.checkpoint_binary(),
    };
    write_atomic(path, &bytes)?;
    match std::fs::remove_file(&log_path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(TplError::CheckpointIo(format!(
                "{}: {e}",
                log_path.display()
            )))
        }
    }
    Ok(Compaction {
        generation: snapshot_generation(&bytes),
        replayed,
        skipped,
        snapshot_bytes: bytes.len(),
    })
}

/// Read the sibling delta log of a binary snapshot, `None` when absent.
fn read_sibling_log(path: &Path) -> Result<Option<Vec<u8>>> {
    let log_path = delta_log_path(path);
    match std::fs::read(&log_path) {
        Ok(b) => Ok(Some(b)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(TplError::CheckpointIo(format!(
            "{}: {e}",
            log_path.display()
        ))),
    }
}

/// Resume from a binary snapshot file, replaying its sibling
/// `<path>.delta` log when present. The snapshot is memory-mapped and
/// decoded zero-copy ([`MappedSnapshot`]); when mapping is unavailable
/// the buffered read below restores the identical state.
pub fn resume_file(path: &Path) -> Result<SavedState> {
    if let Ok(mapped) = MappedSnapshot::open(path) {
        let log = read_sibling_log(path)?;
        return resume_bytes(mapped.bytes(), log.as_deref());
    }
    let bytes = std::fs::read(path)
        .map_err(|e| TplError::CheckpointIo(format!("{}: {e}", path.display())))?;
    let log = read_sibling_log(path)?;
    resume_bytes(&bytes, log.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcdp_markov::TransitionMatrix;

    fn matrix() -> TransitionMatrix {
        TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap()
    }

    fn tpl_of(state: SavedState) -> TplAccountant {
        match state {
            SavedState::Tpl(acc) => acc,
            other => panic!("expected a solo accountant, got {:?}", other.kind()),
        }
    }

    #[test]
    fn tpl_round_trip_preserves_series_and_witness() {
        let mut acc = TplAccountant::with_both(matrix(), matrix()).unwrap();
        acc.observe_uniform(0.1, 8).unwrap();
        acc.tpl_series().unwrap(); // fill the cache and warm witnesses
        let state = resume_bytes(&acc.checkpoint_binary(), None).unwrap();
        assert_eq!(state.kind(), CheckpointKind::TplAccountant);
        let resumed = tpl_of(state);
        // The cached series was restored: first query costs zero evals.
        let before = resumed.loss_eval_count();
        assert_eq!(resumed.tpl_series().unwrap(), acc.tpl_series().unwrap());
        assert_eq!(resumed.loss_eval_count(), before);
        // The warm witness came along too.
        assert_eq!(
            resumed.forward_loss_fn().unwrap().cached_witness(),
            acc.forward_loss_fn().unwrap().cached_witness()
        );
    }

    #[test]
    fn temp_names_differ_across_boots_sharing_a_pid() {
        // Regression: pid + counter alone collide when two process
        // epochs share a pid (pid namespaces, rapid restart). The
        // per-boot nonce must keep the temp families disjoint even at
        // equal pid and equal counter value.
        let target = Path::new("/tmp/audit.ckpt");
        let boot_a = temp_sibling(target, 42, 0xdead_beef, 0);
        let boot_b = temp_sibling(target, 42, 0xfeed_face, 0);
        assert_ne!(boot_a, boot_b);
        // Within one boot the counter still separates concurrent saves.
        assert_ne!(boot_a, temp_sibling(target, 42, 0xdead_beef, 1));
        // The name stays a sibling of the target (same parent dir) and
        // keeps the `.tmp` suffix crash-janitors look for.
        assert_eq!(boot_a.parent(), target.parent());
        assert!(boot_a.extension().is_some_and(|e| e == "tmp"));
        // And the live path uses a drawn nonce that is stable per boot.
        assert_eq!(boot_nonce(), boot_nonce());
    }

    #[test]
    fn torn_delta_tail_classifies_truncation_but_not_corruption() {
        let mut acc = TplAccountant::with_both(matrix(), matrix()).unwrap();
        acc.observe_uniform(0.1, 4).unwrap();
        let cursor = acc.delta_cursor();
        acc.observe_uniform(0.2, 3).unwrap();
        let first = acc.checkpoint_delta(&cursor).unwrap().to_bytes();
        let cursor = acc.delta_cursor();
        acc.observe_uniform(0.3, 2).unwrap();
        let second = acc.checkpoint_delta(&cursor).unwrap().to_bytes();
        let mut log = first.clone();
        log.extend_from_slice(&second);

        // A fully intact log has nothing to repair.
        assert_eq!(format::torn_delta_tail(&log), None);
        // Any strict prefix of the trailing record is a torn append —
        // including cuts inside the magic and inside the header.
        for cut in [1, 4, format::MAGIC.len(), 20, second.len() / 2] {
            assert_eq!(
                format::torn_delta_tail(&log[..first.len() + cut]),
                Some(first.len()),
                "cut {cut} bytes into the trailing record"
            );
        }
        // A torn very-first append leaves an empty durable prefix.
        assert_eq!(format::torn_delta_tail(&first[..9]), Some(0));
        // Bad magic on the tail is corruption, not truncation.
        let mut bad = log.clone();
        bad[first.len()] ^= 0xff;
        assert_eq!(format::torn_delta_tail(&bad[..first.len() + 9]), None);
        // So is a complete-length record that merely fails to decode:
        // a mid-log flip must never trigger the tail repair.
        let mut mid = log;
        mid[0] ^= 0xff;
        assert_eq!(format::torn_delta_tail(&mid), None);
    }

    #[test]
    fn kind_mismatch_is_reported() {
        // A population's delta record replayed onto a solo snapshot.
        let mut acc = TplAccountant::with_both(matrix(), matrix()).unwrap();
        acc.observe_uniform(0.1, 3).unwrap();
        let adversary = AdversaryT::with_both(matrix(), matrix()).unwrap();
        let mut pop = PopulationAccountant::new(&[adversary.clone(), adversary]).unwrap();
        let cursor = pop.delta_cursor();
        pop.observe_release(0.1).unwrap();
        let delta = pop.checkpoint_delta(&cursor).unwrap().to_bytes();
        match resume_bytes(&acc.checkpoint_binary(), Some(&delta)) {
            Err(TplError::CorruptCheckpoint(reason)) => {
                assert!(
                    reason.contains("does not match the snapshot kind"),
                    "{reason}"
                )
            }
            other => panic!("expected a kind mismatch, got {other:?}"),
        }
    }

    #[test]
    fn failed_save_leaves_no_temp_litter() {
        let dir = std::env::temp_dir().join(format!("tcdp_save_litter_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The target is a directory: the rename must fail, the error be
        // honest, and the uniquely named temp file be cleaned up.
        let target = dir.join("occupied");
        std::fs::create_dir_all(&target).unwrap();
        let mut acc = TplAccountant::with_both(matrix(), matrix()).unwrap();
        acc.observe_uniform(0.1, 2).unwrap();
        assert!(matches!(
            write_atomic(&target, &acc.checkpoint_binary()),
            Err(TplError::CheckpointIo(_))
        ));
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(litter.is_empty(), "temp litter left behind: {litter:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_collide() {
        // With a fixed `<path>.tmp` sibling, two concurrent saves race
        // on one temp file: one of the renames finds it already gone.
        // Unique temp names make every save succeed and the final file
        // a valid checkpoint.
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tcdp_concurrent_saves_{}.bin", std::process::id()));
        let mut acc = TplAccountant::with_both(matrix(), matrix()).unwrap();
        acc.observe_uniform(0.1, 3).unwrap();
        let snapshot = acc.checkpoint_binary();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let snapshot = &snapshot;
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..25 {
                        write_atomic(path, snapshot).expect("concurrent save must not collide");
                    }
                });
            }
        });
        let resumed = tpl_of(resume_file(&path).unwrap());
        assert_eq!(resumed.len(), 3);
        std::fs::remove_file(&path).ok();
    }
}
