//! The version-3 binary checkpoint envelope.
//!
//! # Wire layout
//!
//! Every file is one or more **containers**. A snapshot file is exactly
//! one snapshot container; a delta log is a concatenation of delta
//! containers, each appended in `O(appended)` bytes. All integers are
//! little-endian; all sections start at 8-byte-aligned offsets, so the
//! `f64` series sections can be read zero-copy from an mmap'd file.
//!
//! ```text
//! container header (32 bytes):
//!   0..8    magic            b"TCDPCKPT"
//!   8..12   version  u32     CHECKPOINT_VERSION (3)
//!   12..16  role     u32     0 = snapshot, 1 = delta record
//!   16..20  kind     u32     1 = tpl-accountant, 2 = population-accountant
//!   20..24  sections u32     number of section-table entries
//!   24..32  total    u64     container length in bytes (header + table
//!                            + sections + padding) — the length prefix
//!                            a log reader skips by
//! section table (24 bytes per entry):
//!   tag u32 · shard u32 · offset u64 · length u64
//! sections: raw bytes, each zero-padded to the next 8-byte boundary
//! ```
//!
//! Section tags (the `shard` field selects the shard — or, for
//! population `TIMELINE` sections, the timeline *class* — the section
//! belongs to; 0 for a solo accountant):
//!
//! | tag | name         | payload                                        |
//! |-----|--------------|------------------------------------------------|
//! | 1   | `META`       | container-level JSON (losses + witnesses for a solo snapshot; `num_users`/`class_of` for a population; `base_len`/`shards`/`generation`/optional `origin` for a delta) |
//! | 2   | `TIMELINE`   | raw `f64` budget trail (per timeline class) or delta budget tail (per shard) |
//! | 3   | `BPL`        | raw `f64` BPL series / delta tail (per shard)  |
//! | 4   | `FPL`        | raw `f64` cached FPL series (optional)         |
//! | 5   | `TPL`        | raw `f64` cached TPL series (optional)         |
//! | 6   | `MEMBERS`    | raw `u64` ascending member indices (per shard; in a **delta** record, present exactly for the shards of a SPLIT partition) |
//! | 7   | `SHARD_META` | per-shard JSON (losses + witnesses; delta witnesses) |
//! | 8   | `FOLDED_SUMMARY` | per-shard JSON fold summary (optional): `len` (folded releases), `eps_total` (folded Σε), `eps_max` (max folded ε), `horizon`, `bpl_max`, `bpl_less_eps_max`, optional `wevent` (tracked pre-fold w-event maxima) |
//!
//! The large state — budget timelines, BPL/FPL/TPL series — is stored
//! as raw arrays (each distinct population timeline exactly once, with
//! shards referencing it by class index), so writing a snapshot copies
//! the floats instead of formatting them, and a delta record's size is
//! proportional to what was appended, not to `T`.
//!
//! # SPLIT delta records
//!
//! A delta record whose META carries an `"origin"` array is a **SPLIT**
//! record: the shard topology changed since the cursor because
//! `observe_release_personalized` diverged a shard's budgets.
//! `origin[j]` names the cursor-time parent shard of new shard `j`
//! (shards only ever *split* — never merge or migrate members — so the
//! origin map plus the member partition describes the whole change).
//! Each shard of a split parent additionally carries a `MEMBERS`
//! section with its post-split member list; shards whose parent did not
//! split carry none and inherit the parent's list verbatim. Replay
//! applies the partition copy-on-write **before** the budget/BPL tails:
//! every part of a split parent starts from a clone of the parent's
//! cursor-time state and the parent's shared timeline object, and the
//! tail replay then forks timelines by appended-budget bits in
//! first-seen group order — reproducing the live fork's sharing
//! topology bit-identically. SPLIT records are generation-stamped like
//! every other record, so a stale one is skipped, never misapplied.
//!
//! # Zero-copy reads
//!
//! Sections start 8-byte-aligned, so on a little-endian platform the
//! raw `f64` sections of a snapshot can be *viewed in place* — no
//! `Vec<f64>` per section. [`SnapshotView`] is the read-only audit
//! surface over a borrowed (typically memory-mapped) snapshot, and the
//! snapshot decoder borrows sections as `Cow<[f64]>` so a resume
//! materializes each section at most once. Both revalidate alignment
//! and bounds against the section table; when the base pointer is
//! misaligned or the platform is big-endian, the decoder falls back to
//! the copying path and [`SnapshotView`] refuses with the honest
//! [`TplError::ZeroCopyUnavailable`] instead of serving wrong floats.
//!
//! Under a fold horizon the `TIMELINE`/`BPL`/`FPL`/`TPL` sections hold
//! only the **live window**, so snapshots are `O(w)` no matter how long
//! the stream ran; the `FOLDED_SUMMARY` section carries everything the
//! restore path needs to re-anchor the window at its global offset
//! (`BudgetTimeline::restore_fold` reseeds the prefix sums from
//! `eps_total`, bit-identically to the live run). Envelopes written
//! before folding existed simply lack the section and restore as
//! before. Delta META JSON additionally carries an optional
//! `generation` hex id — see the generation-id section of
//! [`crate::checkpoint`]'s module docs.
//!
//! # Corruption handling
//!
//! Every read is bounds-checked before any state is touched: a short
//! header, a container whose claimed length exceeds the file, a section
//! reaching past the container, an `f64` section whose length is not a
//! multiple of 8, bad magic, or an unknown role/kind/tag shape is an
//! honest [`TplError::CorruptCheckpoint`]; a version other than
//! [`CHECKPOINT_VERSION`] is [`TplError::CheckpointVersion`]. The
//! decoded state then passes through the semantic validation of
//! [`crate::checkpoint`] before any of it is restored.

use super::{
    corrupt, tpl_meta_value, CheckpointDelta, CheckpointKind, DeltaShard, DeltaSplits,
    RawAccountantState, RawFold, RawPopulationState, CHECKPOINT_VERSION,
};
use crate::accountant::{wevent_from_value, wevent_to_value, TplAccountant};
use crate::loss::TemporalLossFunction;
use crate::personalized::PopulationAccountant;
use crate::{Result, TplError};
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::sync::Arc;
use tcdp_mech::budget::BudgetTimeline;

/// The 8-byte magic every binary container opens with.
pub const MAGIC: &[u8; 8] = b"TCDPCKPT";

const ROLE_SNAPSHOT: u32 = 0;
const ROLE_DELTA: u32 = 1;

const KIND_TPL: u32 = 1;
const KIND_POPULATION: u32 = 2;

const HEADER_LEN: usize = 32;
const ENTRY_LEN: usize = 24;

const TAG_META: u32 = 1;
const TAG_TIMELINE: u32 = 2;
const TAG_BPL: u32 = 3;
const TAG_FPL: u32 = 4;
const TAG_TPL: u32 = 5;
const TAG_MEMBERS: u32 = 6;
const TAG_SHARD_META: u32 = 7;
const TAG_FOLDED: u32 = 8;

fn kind_code(kind: CheckpointKind) -> u32 {
    match kind {
        CheckpointKind::TplAccountant => KIND_TPL,
        CheckpointKind::PopulationAccountant => KIND_POPULATION,
    }
}

fn kind_of_code(code: u32) -> Result<CheckpointKind> {
    match code {
        KIND_TPL => Ok(CheckpointKind::TplAccountant),
        KIND_POPULATION => Ok(CheckpointKind::PopulationAccountant),
        other => Err(corrupt(format!("unknown checkpoint kind code {other}"))),
    }
}

fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Collects sections, then lays the container out in one pass.
struct Builder {
    role: u32,
    kind: u32,
    sections: Vec<(u32, u32, Vec<u8>)>,
}

impl Builder {
    fn new(role: u32, kind: u32) -> Self {
        Builder {
            role,
            kind,
            sections: Vec::new(),
        }
    }

    fn bytes(&mut self, tag: u32, shard: u32, bytes: Vec<u8>) {
        self.sections.push((tag, shard, bytes));
    }

    fn json(&mut self, tag: u32, shard: u32, v: &Value) {
        // tcdp-lint: allow(panic-path) — serializing an in-memory `Value`
        // tree is total (no I/O, no foreign types); the error arm is dead.
        let text = serde_json::to_string(v).expect("value serialization is total");
        self.bytes(tag, shard, text.into_bytes());
    }

    fn f64s(&mut self, tag: u32, shard: u32, values: &[f64]) {
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        self.bytes(tag, shard, out);
    }

    fn u64s(&mut self, tag: u32, shard: u32, values: &[usize]) {
        let mut out = Vec::with_capacity(values.len() * 8);
        for &v in values {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
        self.bytes(tag, shard, out);
    }

    fn finish(self) -> Vec<u8> {
        let table_len = self.sections.len() * ENTRY_LEN;
        let mut offset = align8(HEADER_LEN + table_len);
        let placements: Vec<usize> = self
            .sections
            .iter()
            .map(|(_, _, bytes)| {
                let at = offset;
                offset = align8(offset + bytes.len());
                at
            })
            .collect();
        let total = offset;
        let mut buf = vec![0u8; total];
        buf[0..8].copy_from_slice(MAGIC);
        buf[8..12].copy_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        buf[12..16].copy_from_slice(&self.role.to_le_bytes());
        buf[16..20].copy_from_slice(&self.kind.to_le_bytes());
        buf[20..24].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        buf[24..32].copy_from_slice(&(total as u64).to_le_bytes());
        for (i, ((tag, shard, bytes), at)) in self.sections.iter().zip(&placements).enumerate() {
            let entry = HEADER_LEN + i * ENTRY_LEN;
            buf[entry..entry + 4].copy_from_slice(&tag.to_le_bytes());
            buf[entry + 4..entry + 8].copy_from_slice(&shard.to_le_bytes());
            buf[entry + 8..entry + 16].copy_from_slice(&(*at as u64).to_le_bytes());
            buf[entry + 16..entry + 24].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
            buf[*at..*at + bytes.len()].copy_from_slice(bytes);
        }
        buf
    }
}

fn shard_u32(g: usize) -> u32 {
    // tcdp-lint: allow(panic-path) — shard/class counts are bounded by
    // the number of user groups; 2^32 shards cannot be materialized, and
    // a silent truncation here would corrupt the section table.
    u32::try_from(g).expect("shard/class count fits the section table")
}

/// Push one accountant's sections (meta, BPL, optional series) under
/// shard index `g`; the timeline section is the caller's business (a
/// solo snapshot writes it directly, a population writes one per
/// distinct class).
fn push_accountant_sections(b: &mut Builder, g: usize, meta_tag: u32, acc: &TplAccountant) {
    b.json(meta_tag, shard_u32(g), &tpl_meta_value(acc));
    b.f64s(TAG_BPL, shard_u32(g), acc.bpl_series());
    if let Some((fpl, tpl)) = acc.series_snapshot() {
        b.f64s(TAG_FPL, shard_u32(g), &fpl);
        b.f64s(TAG_TPL, shard_u32(g), &tpl);
    }
    let timeline = acc.timeline();
    let wevent = acc.wevent_pairs();
    if acc.live_start() > 0 || timeline.horizon().is_some() || !wevent.is_empty() {
        let folded = acc.fold_state();
        // With a horizon armed but nothing folded yet the BPL maxima
        // are still NEG_INFINITY — written as 0.0 (JSON has no
        // infinities) and ignored on restore (`len == 0`).
        let stat = |v: f64| Value::Num(if folded.len == 0 { 0.0 } else { v });
        let mut map = vec![
            ("len".to_string(), folded.len.to_value()),
            ("eps_total".to_string(), Value::Num(timeline.folded_total())),
            (
                "eps_max".to_string(),
                Value::Num(timeline.folded_eps_max().unwrap_or(0.0)),
            ),
            ("horizon".to_string(), timeline.horizon().to_value()),
            ("bpl_max".to_string(), stat(folded.bpl_max)),
            (
                "bpl_less_eps_max".to_string(),
                stat(folded.bpl_less_eps_max),
            ),
        ];
        if !wevent.is_empty() {
            map.push(("wevent".to_string(), wevent_to_value(wevent)));
        }
        b.json(TAG_FOLDED, shard_u32(g), &Value::Map(map));
    }
}

/// Encode a solo accountant as one snapshot container.
pub(crate) fn write_tpl_snapshot(acc: &TplAccountant) -> Vec<u8> {
    let mut b = Builder::new(ROLE_SNAPSHOT, KIND_TPL);
    push_accountant_sections(&mut b, 0, TAG_META, acc);
    acc.with_budgets(|trail| b.f64s(TAG_TIMELINE, 0, trail));
    b.finish()
}

/// Encode a population as one snapshot container: each distinct
/// timeline object once (keyed by `Arc` identity — the copy-on-write
/// invariant), shards referencing their class by index.
pub(crate) fn write_population_snapshot(pop: &PopulationAccountant) -> Vec<u8> {
    let mut b = Builder::new(ROLE_SNAPSHOT, KIND_POPULATION);
    let mut reps: Vec<Arc<BudgetTimeline>> = Vec::new();
    let mut class_of: Vec<usize> = Vec::new();
    for (_, _, acc) in pop.parts() {
        let timeline = acc.timeline();
        let c = match reps.iter().position(|r| Arc::ptr_eq(r, timeline)) {
            Some(c) => c,
            None => {
                reps.push(Arc::clone(timeline));
                reps.len() - 1
            }
        };
        class_of.push(c);
    }
    b.json(
        TAG_META,
        0,
        &Value::Map(vec![
            ("num_users".to_string(), pop.num_users().to_value()),
            ("class_of".to_string(), class_of.to_value()),
        ]),
    );
    for (c, rep) in reps.iter().enumerate() {
        rep.with_values(|trail| b.f64s(TAG_TIMELINE, shard_u32(c), trail));
    }
    for (g, (_, members, acc)) in pop.parts().enumerate() {
        b.u64s(TAG_MEMBERS, shard_u32(g), members);
        push_accountant_sections(&mut b, g, TAG_SHARD_META, acc);
    }
    b.finish()
}

/// Encode one delta record as a delta container.
pub(crate) fn write_delta(delta: &CheckpointDelta) -> Vec<u8> {
    let mut b = Builder::new(ROLE_DELTA, kind_code(delta.kind()));
    let mut meta = vec![
        ("base_len".to_string(), delta.base_len().to_value()),
        ("shards".to_string(), delta.shards().len().to_value()),
        // A u64 id does not round-trip through an f64 JSON number,
        // so the generation travels as a fixed-width hex string.
        (
            "generation".to_string(),
            Value::Str(format!("{:016x}", delta.generation())),
        ),
    ];
    if let Some(splits) = delta.splits() {
        // SPLIT record: origin[j] is the cursor-time parent of shard j.
        meta.push(("origin".to_string(), splits.origin.to_value()));
    }
    b.json(TAG_META, 0, &Value::Map(meta));
    for (g, shard) in delta.shards().iter().enumerate() {
        b.f64s(TAG_TIMELINE, shard_u32(g), &shard.budgets);
        b.f64s(TAG_BPL, shard_u32(g), &shard.bpl);
        if let Some(members) = delta
            .splits()
            .and_then(|s| s.members.get(g))
            .and_then(|m| m.as_ref())
        {
            // Post-split member list — present exactly for the shards
            // whose parent split.
            b.u64s(TAG_MEMBERS, shard_u32(g), members);
        }
        let w = |v: &Option<Value>| v.clone().unwrap_or(Value::Null);
        b.json(
            TAG_SHARD_META,
            shard_u32(g),
            &Value::Map(vec![
                ("warm_backward".to_string(), w(&shard.warm_backward)),
                ("warm_forward".to_string(), w(&shard.warm_forward)),
            ]),
        );
    }
    b.finish()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One parsed container: validated header plus bounds-checked section
/// slices.
struct Container<'a> {
    role: u32,
    kind: u32,
    total_len: usize,
    sections: Vec<(u32, u32, &'a [u8])>,
}

fn parse_container(bytes: &[u8]) -> Result<Container<'_>> {
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "truncated binary checkpoint: {} bytes, header needs {HEADER_LEN}",
            bytes.len()
        )));
    }
    if &bytes[0..8] != MAGIC {
        return Err(corrupt("bad magic — not a tcdp binary checkpoint"));
    }
    // tcdp-lint: allow(panic-path) — `try_into` on a slice of literal
    // length 4 is infallible; the bound is part of the slice expression.
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    // tcdp-lint: allow(panic-path) — same: literal length 8 slice.
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let version = u32_at(8);
    if version != CHECKPOINT_VERSION {
        return Err(TplError::CheckpointVersion {
            found: version,
            supported: CHECKPOINT_VERSION,
        });
    }
    let role = u32_at(12);
    if role != ROLE_SNAPSHOT && role != ROLE_DELTA {
        return Err(corrupt(format!("unknown container role {role}")));
    }
    let kind = u32_at(16);
    let section_count = u32_at(20) as usize;
    let total_len = usize::try_from(u64_at(24))
        .map_err(|_| corrupt("container length does not fit this platform"))?;
    let table_end =
        HEADER_LEN
            .checked_add(section_count.checked_mul(ENTRY_LEN).ok_or_else(|| {
                corrupt(format!("section count {section_count} overflows the table"))
            })?)
            .ok_or_else(|| corrupt("section table overflows the container"))?;
    if total_len < table_end {
        return Err(corrupt(format!(
            "container claims {total_len} bytes but its section table needs {table_end}"
        )));
    }
    if total_len > bytes.len() {
        return Err(corrupt(format!(
            "truncated binary checkpoint: container claims {total_len} bytes, {} available",
            bytes.len()
        )));
    }
    let mut sections = Vec::with_capacity(section_count);
    for i in 0..section_count {
        let entry = HEADER_LEN + i * ENTRY_LEN;
        let tag = u32_at(entry);
        let shard = u32_at(entry + 4);
        let offset = usize::try_from(u64_at(entry + 8))
            .map_err(|_| corrupt("section offset does not fit this platform"))?;
        let len = usize::try_from(u64_at(entry + 16))
            .map_err(|_| corrupt("section length does not fit this platform"))?;
        let end = offset
            .checked_add(len)
            .ok_or_else(|| corrupt(format!("section {i}: offset + length overflows")))?;
        if offset < table_end || end > total_len {
            return Err(corrupt(format!(
                "section {i} (tag {tag}, shard {shard}) reaches outside the container \
                 ({offset}..{end} of {total_len})"
            )));
        }
        sections.push((tag, shard, &bytes[offset..end]));
    }
    Ok(Container {
        role,
        kind,
        total_len,
        sections,
    })
}

impl<'a> Container<'a> {
    fn get(&self, tag: u32, shard: u32) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(t, s, _)| *t == tag && *s == shard)
            .map(|(_, _, b)| *b)
    }

    fn require(&self, tag: u32, shard: u32, what: &str) -> Result<&'a [u8]> {
        self.get(tag, shard)
            .ok_or_else(|| corrupt(format!("missing {what} section (tag {tag}, shard {shard})")))
    }

    fn f64s(&self, tag: u32, shard: u32, what: &str) -> Result<Vec<f64>> {
        decode_f64s(self.require(tag, shard, what)?, what)
    }

    fn cow_f64s(&self, tag: u32, shard: u32, what: &str) -> Result<Cow<'a, [f64]>> {
        cow_f64s(self.require(tag, shard, what)?, what)
    }

    fn view_f64s(&self, tag: u32, shard: u32, what: &str) -> Result<&'a [f64]> {
        view_f64s(self.require(tag, shard, what)?, what)
    }

    fn json(&self, tag: u32, shard: u32, what: &str) -> Result<Value> {
        let bytes = self.require(tag, shard, what)?;
        let text = std::str::from_utf8(bytes)
            .map_err(|_| corrupt(format!("{what} section is not UTF-8")))?;
        serde_json::from_str(text).map_err(|e| corrupt(format!("{what} section: bad JSON: {e}")))
    }
}

fn decode_f64s(bytes: &[u8], what: &str) -> Result<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(corrupt(format!(
            "{what} section length {} is not a multiple of 8",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        // tcdp-lint: allow(panic-path) — `chunks_exact(8)` yields slices
        // of exactly 8 bytes, so this `try_into` is infallible.
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

/// Borrow an 8-byte-aligned little-endian `f64` section in place,
/// falling back to the copying decode when the cast refuses (misaligned
/// base pointer, big-endian platform). A length that is not a multiple
/// of 8 still errors honestly via the fallback.
fn cow_f64s<'a>(bytes: &'a [u8], what: &str) -> Result<Cow<'a, [f64]>> {
    #[cfg(target_endian = "little")]
    if let Ok(s) = bytemuck::try_cast_slice::<u8, f64>(bytes) {
        return Ok(Cow::Borrowed(s));
    }
    decode_f64s(bytes, what).map(Cow::Owned)
}

/// Strictly borrow an `f64` section in place — the [`SnapshotView`]
/// path, which promises no per-section allocation and therefore refuses
/// (with [`TplError::ZeroCopyUnavailable`]) instead of copying.
fn view_f64s<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [f64]> {
    #[cfg(target_endian = "little")]
    {
        if !bytes.len().is_multiple_of(8) {
            return Err(corrupt(format!(
                "{what} section length {} is not a multiple of 8",
                bytes.len()
            )));
        }
        bytemuck::try_cast_slice::<u8, f64>(bytes).map_err(|e| {
            TplError::ZeroCopyUnavailable(format!("{what} section cannot be viewed in place: {e}"))
        })
    }
    #[cfg(not(target_endian = "little"))]
    {
        let _ = bytes;
        Err(TplError::ZeroCopyUnavailable(format!(
            "{what} section holds little-endian floats; this platform is big-endian"
        )))
    }
}

fn decode_usizes(bytes: &[u8], what: &str) -> Result<Vec<usize>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(corrupt(format!(
            "{what} section length {} is not a multiple of 8",
            bytes.len()
        )));
    }
    bytes
        .chunks_exact(8)
        .map(|c| {
            // tcdp-lint: allow(panic-path) — `chunks_exact(8)` yields
            // slices of exactly 8 bytes; this inner `try_into` is
            // infallible (the usize conversion above it is checked).
            usize::try_from(u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .map_err(|_| corrupt(format!("{what} section: index does not fit this platform")))
        })
        .collect()
}

/// Raw decoded snapshot state, restored by the shared validation path
/// in the parent module. Borrows `f64` sections from the source buffer
/// (typically an mmap) where alignment allows; restore materializes
/// each borrowed section exactly once.
pub(crate) enum RawState<'a> {
    Tpl(Box<RawAccountantState<'a>>),
    Population(RawPopulationState<'a>),
}

/// Decode the meta JSON (losses + witnesses) plus the per-shard raw
/// sections into one accountant's raw state.
fn read_accountant_raw<'a>(
    c: &Container<'a>,
    g: u32,
    meta: &Value,
    timeline: Arc<BudgetTimeline>,
) -> Result<RawAccountantState<'a>> {
    let side = |k: &str| -> Result<Option<TemporalLossFunction>> {
        let v = meta
            .get(k)
            .ok_or_else(|| corrupt(format!("meta missing `{k}`")))?;
        Option::<TemporalLossFunction>::from_value(v).map_err(|e| corrupt(format!("meta.{k}: {e}")))
    };
    let witness = |k: &str| meta.get(k).filter(|v| !matches!(v, Value::Null)).cloned();
    let bpl = c.cow_f64s(TAG_BPL, g, "bpl")?;
    let fpl = c.get(TAG_FPL, g);
    let tpl = c.get(TAG_TPL, g);
    let series = match (fpl, tpl) {
        (None, None) => None,
        (Some(fpl), Some(tpl)) => Some((cow_f64s(fpl, "fpl")?, cow_f64s(tpl, "tpl")?)),
        _ => {
            return Err(corrupt(
                "cached series must carry both fpl and tpl sections or neither",
            ))
        }
    };
    let fold = if c.get(TAG_FOLDED, g).is_some() {
        let fv = c.json(TAG_FOLDED, g, "fold summary")?;
        let sub = |k: &str| {
            fv.get(k)
                .ok_or_else(|| corrupt(format!("fold summary missing `{k}`")))
        };
        let num = |k: &str| -> Result<f64> {
            f64::from_value(sub(k)?).map_err(|e| corrupt(format!("fold summary.{k}: {e}")))
        };
        let wevent = match fv.get("wevent") {
            None => Vec::new(),
            Some(v) => {
                wevent_from_value(v).map_err(|e| corrupt(format!("fold summary.wevent: {e}")))?
            }
        };
        Some(RawFold {
            folded_len: usize::from_value(sub("len")?)
                .map_err(|e| corrupt(format!("fold summary.len: {e}")))?,
            eps_total: num("eps_total")?,
            eps_max: num("eps_max")?,
            horizon: Option::<usize>::from_value(sub("horizon")?)
                .map_err(|e| corrupt(format!("fold summary.horizon: {e}")))?,
            bpl_max: num("bpl_max")?,
            bpl_less_eps_max: num("bpl_less_eps_max")?,
            wevent,
        })
    } else {
        None
    };
    Ok(RawAccountantState {
        backward: side("backward")?,
        forward: side("forward")?,
        timeline,
        bpl,
        series,
        warm_backward: witness("warm_backward"),
        warm_forward: witness("warm_forward"),
        fold,
    })
}

/// Decode one snapshot container into raw state.
pub(crate) fn read_snapshot(bytes: &[u8]) -> Result<RawState<'_>> {
    let c = parse_container(bytes)?;
    if c.role != ROLE_SNAPSHOT {
        return Err(corrupt(
            "expected a snapshot container, found a delta record",
        ));
    }
    if c.total_len != bytes.len() {
        return Err(corrupt(format!(
            "trailing bytes after the snapshot container ({} of {})",
            c.total_len,
            bytes.len()
        )));
    }
    match kind_of_code(c.kind)? {
        CheckpointKind::TplAccountant => {
            let meta = c.json(TAG_META, 0, "meta")?;
            let timeline = Arc::new(BudgetTimeline::from_raw_trail(&c.cow_f64s(
                TAG_TIMELINE,
                0,
                "timeline",
            )?));
            Ok(RawState::Tpl(Box::new(read_accountant_raw(
                &c, 0, &meta, timeline,
            )?)))
        }
        CheckpointKind::PopulationAccountant => {
            let meta = c.json(TAG_META, 0, "population meta")?;
            let num_users = meta
                .get("num_users")
                .ok_or_else(|| corrupt("population meta missing `num_users`"))
                .and_then(|v| {
                    usize::from_value(v).map_err(|e| corrupt(format!("num_users: {e}")))
                })?;
            let class_of = meta
                .get("class_of")
                .ok_or_else(|| corrupt("population meta missing `class_of`"))
                .and_then(|v| {
                    Vec::<usize>::from_value(v).map_err(|e| corrupt(format!("class_of: {e}")))
                })?;
            let num_classes = class_of.iter().max().map_or(0, |m| m + 1);
            // One timeline *object* per class: every shard of the class
            // shares the same `Arc`, so decoding never copies a trail
            // per shard and the restore path recovers the sharing by
            // pointer identity.
            let classes: Vec<Arc<BudgetTimeline>> = (0..num_classes)
                .map(|ci| {
                    c.cow_f64s(TAG_TIMELINE, shard_u32(ci), "class timeline")
                        .map(|t| Arc::new(BudgetTimeline::from_raw_trail(&t)))
                })
                .collect::<Result<_>>()?;
            let mut shards = Vec::with_capacity(class_of.len());
            for (g, &ci) in class_of.iter().enumerate() {
                let g32 = shard_u32(g);
                let members = decode_usizes(c.require(TAG_MEMBERS, g32, "members")?, "members")?;
                let shard_meta = c.json(TAG_SHARD_META, g32, "shard meta")?;
                let timeline = classes[ci].clone();
                shards.push((
                    members,
                    read_accountant_raw(&c, g32, &shard_meta, timeline)?,
                ));
            }
            Ok(RawState::Population(RawPopulationState {
                num_users,
                shards,
            }))
        }
    }
}

/// Decode a delta log — a concatenation of delta containers — into its
/// records, in order. A truncated trailing record is an honest
/// [`TplError::CorruptCheckpoint`] — deliberately a hard error rather
/// than a silent end-of-log, because quietly resuming at an earlier
/// stop point would under-report every release the lost record carried;
/// the message names the byte offset of the last complete record so an
/// operator can truncate the log there and resume honestly.
pub(crate) fn read_delta_log(bytes: &[u8]) -> Result<Vec<CheckpointDelta>> {
    let mut out = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let consumed = bytes.len() - rest.len();
        let c = parse_container(rest).map_err(|e| match e {
            TplError::CorruptCheckpoint(reason) => corrupt(format!(
                "delta log record at byte {consumed}: {reason} (a crash mid-append? the log \
                 is valid up to byte {consumed}; truncate it there to resume from the last \
                 complete record)"
            )),
            other => other,
        })?;
        if c.role != ROLE_DELTA {
            return Err(corrupt("snapshot container inside a delta log"));
        }
        out.push(read_delta(&c)?);
        rest = &rest[c.total_len..];
    }
    Ok(out)
}

/// Classify a delta log's trailing bytes as a **torn append** — the
/// artifact of a crash (`kill -9`, power loss) midway through
/// [`CheckpointDelta::append_to`](super::CheckpointDelta::append_to).
///
/// Returns `Some(prefix_len)` when `bytes` is a sequence of complete
/// delta containers followed by a strict prefix of one more record:
/// either fewer bytes than a container header (what was written still
/// matches the magic), or a well-formed delta header whose claimed
/// length exceeds what is on disk. Appends write a record's bytes in
/// order, so a torn fragment is always such a prefix and can never
/// contain a complete record — truncating the log at the returned
/// offset drops only bytes whose append never finished.
///
/// Returns `None` when the log is fully intact, or when the trailing
/// bytes are *not* recognizably a torn append (bad magic, a snapshot
/// container, an internally inconsistent header): those are genuine
/// corruption and keep [`read_delta_log`]'s hard-error contract.
pub fn torn_delta_tail(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    loop {
        if rest.is_empty() {
            return None; // fully intact — nothing to repair
        }
        match parse_container(rest) {
            Ok(c) if c.role == ROLE_DELTA => rest = &rest[c.total_len..],
            Ok(_) => return None, // a snapshot container inside a log
            Err(_) => {
                let consumed = bytes.len() - rest.len();
                if rest.len() < HEADER_LEN {
                    // Header incomplete: torn iff the bytes that did
                    // land are the start of a record (appends write the
                    // magic first).
                    let n = rest.len().min(MAGIC.len());
                    return (rest[..n] == MAGIC[..n]).then_some(consumed);
                }
                // tcdp-lint: allow(panic-path) — literal length 4 slice; `HEADER_LEN` checked above
                let version = u32::from_le_bytes(rest[8..12].try_into().expect("4 bytes"));
                // tcdp-lint: allow(panic-path) — same: literal length 4 slice in the checked header
                let role = u32::from_le_bytes(rest[12..16].try_into().expect("4 bytes"));
                // tcdp-lint: allow(panic-path) — same: literal length 8 slice in the checked header
                let claimed = u64::from_le_bytes(rest[24..32].try_into().expect("8 bytes"));
                let header_is_sound = &rest[0..MAGIC.len()] == MAGIC
                    && version == CHECKPOINT_VERSION
                    && role == ROLE_DELTA;
                // A sound header claiming more bytes than remain is the
                // signature of an append cut short; anything else is
                // corruption, not truncation.
                let claims_more = claimed > rest.len() as u64;
                return (header_is_sound && claims_more).then_some(consumed);
            }
        }
    }
}

fn read_delta(c: &Container<'_>) -> Result<CheckpointDelta> {
    let kind = kind_of_code(c.kind)?;
    let meta = c.json(TAG_META, 0, "delta meta")?;
    let field = |k: &str| -> Result<usize> {
        meta.get(k)
            .ok_or_else(|| corrupt(format!("delta meta missing `{k}`")))
            .and_then(|v| usize::from_value(v).map_err(|e| corrupt(format!("delta meta.{k}: {e}"))))
    };
    let base_len = field("base_len")?;
    let num_shards = field("shards")?;
    // Absent in records written before generation chaining: 0 keeps the
    // legacy strict `base_len` contract.
    let generation = match meta.get("generation") {
        None => 0,
        Some(v) => {
            let s = String::from_value(v)
                .map_err(|e| corrupt(format!("delta meta.generation: {e}")))?;
            u64::from_str_radix(&s, 16)
                .map_err(|_| corrupt(format!("delta meta.generation `{s}` is not a hex id")))?
        }
    };
    // Bound the claimed shard count by what the container can actually
    // hold (every shard needs its own budget/bpl/witness sections)
    // before allocating anything from it — a doctored count must be an
    // honest error, not an allocator abort.
    if num_shards > c.sections.len() {
        return Err(corrupt(format!(
            "delta claims {num_shards} shards but the container has only {} sections",
            c.sections.len()
        )));
    }
    let origin = match meta.get("origin") {
        None => None,
        Some(v) => Some(
            Vec::<usize>::from_value(v).map_err(|e| corrupt(format!("delta meta.origin: {e}")))?,
        ),
    };
    if let Some(origin) = &origin {
        if origin.len() != num_shards {
            return Err(corrupt(format!(
                "SPLIT delta: origin names {} shards but the record carries {num_shards}",
                origin.len()
            )));
        }
    }
    let mut shards = Vec::with_capacity(num_shards);
    let mut members: Vec<Option<Vec<usize>>> = Vec::with_capacity(num_shards);
    for g in 0..num_shards {
        let g32 = shard_u32(g);
        let budgets = c.f64s(TAG_TIMELINE, g32, "delta budgets")?;
        let bpl = c.f64s(TAG_BPL, g32, "delta bpl")?;
        let witnesses = c.json(TAG_SHARD_META, g32, "delta witnesses")?;
        let witness = |k: &str| {
            witnesses
                .get(k)
                .filter(|v| !matches!(v, Value::Null))
                .cloned()
        };
        members.push(match c.get(TAG_MEMBERS, g32) {
            Some(bytes) => {
                if origin.is_none() {
                    return Err(corrupt(format!(
                        "delta shard {g} carries a member partition but the record has no \
                         origin map — truncated SPLIT meta?"
                    )));
                }
                Some(decode_usizes(bytes, "split members")?)
            }
            None => None,
        });
        shards.push(DeltaShard {
            budgets,
            bpl,
            warm_backward: witness("warm_backward"),
            warm_forward: witness("warm_forward"),
        });
    }
    let splits = origin.map(|origin| DeltaSplits { origin, members });
    Ok(CheckpointDelta::from_parts(
        kind, base_len, generation, shards, splits,
    ))
}

// ---------------------------------------------------------------------------
// Zero-copy audit view
// ---------------------------------------------------------------------------

/// A read-only, zero-copy view over one snapshot container.
///
/// Every `f64` accessor returns a slice borrowed straight from the
/// source buffer — typically a [`crate::checkpoint::MappedSnapshot`] —
/// so auditing a checkpoint (max cached TPL, BPL spot checks, series
/// scans) allocates nothing proportional to `T`. Offsets, lengths, and
/// alignment are revalidated against the section table at parse time
/// and again per access; a section that cannot be viewed in place is an
/// honest [`TplError::ZeroCopyUnavailable`], never a copy — callers
/// that can afford materialization use [`crate::checkpoint::resume_bytes`].
pub struct SnapshotView<'a> {
    container: Container<'a>,
    kind: CheckpointKind,
}

impl<'a> SnapshotView<'a> {
    /// Parse a snapshot container without materializing any section.
    pub fn parse(bytes: &'a [u8]) -> Result<Self> {
        let container = parse_container(bytes)?;
        if container.role != ROLE_SNAPSHOT {
            return Err(corrupt(
                "expected a snapshot container, found a delta record",
            ));
        }
        if container.total_len != bytes.len() {
            return Err(corrupt(format!(
                "trailing bytes after the snapshot container ({} of {})",
                container.total_len,
                bytes.len()
            )));
        }
        let kind = kind_of_code(container.kind)?;
        Ok(SnapshotView { container, kind })
    }

    /// Which accountant wrote this snapshot.
    pub fn kind(&self) -> CheckpointKind {
        self.kind
    }

    /// Number of shards (user groups; 1 for a solo accountant) —
    /// counted from the BPL sections every shard must carry.
    pub fn num_shards(&self) -> usize {
        self.container
            .sections
            .iter()
            .filter(|(t, _, _)| *t == TAG_BPL)
            .count()
    }

    /// Number of distinct timeline classes stored in the snapshot.
    pub fn num_timeline_classes(&self) -> usize {
        self.container
            .sections
            .iter()
            .filter(|(t, _, _)| *t == TAG_TIMELINE)
            .count()
    }

    /// The raw budget trail of timeline class `class`, viewed in place.
    pub fn timeline(&self, class: usize) -> Result<&'a [f64]> {
        self.container
            .view_f64s(TAG_TIMELINE, shard_u32(class), "timeline")
    }

    /// Shard `g`'s BPL series (live window under a fold horizon),
    /// viewed in place.
    pub fn bpl(&self, g: usize) -> Result<&'a [f64]> {
        self.container.view_f64s(TAG_BPL, shard_u32(g), "bpl")
    }

    /// Shard `g`'s cached `(FPL, TPL)` series, viewed in place —
    /// `Ok(None)` when the snapshot carries no cached series for it.
    pub fn series(&self, g: usize) -> Result<Option<(&'a [f64], &'a [f64])>> {
        let g32 = shard_u32(g);
        match (
            self.container.get(TAG_FPL, g32),
            self.container.get(TAG_TPL, g32),
        ) {
            (None, None) => Ok(None),
            (Some(fpl), Some(tpl)) => Ok(Some((view_f64s(fpl, "fpl")?, view_f64s(tpl, "tpl")?))),
            _ => Err(corrupt(
                "cached series must carry both fpl and tpl sections or neither",
            )),
        }
    }

    /// Maximum over every cached TPL section — the audit headline —
    /// without materializing a single `Vec`. `Ok(None)` when no shard
    /// cached its series (the writer was mid-stream).
    pub fn max_cached_tpl(&self) -> Result<Option<f64>> {
        let mut worst: Option<f64> = None;
        for (tag, _, bytes) in &self.container.sections {
            if *tag != TAG_TPL {
                continue;
            }
            for &v in view_f64s(bytes, "tpl")? {
                worst = Some(worst.map_or(v, |w: f64| w.max(v)));
            }
        }
        Ok(worst)
    }
}
