//! Integration tests for the resumable-audit checkpoint subsystem: a
//! stopped-and-resumed accountant must be indistinguishable — bit for
//! bit, and in loss-evaluation behavior — from one that never stopped.

use tcdp::core::checkpoint::{
    delta_log_path, resume_bytes, resume_file, write_atomic, CheckpointKind, SavedState,
    CHECKPOINT_VERSION,
};
use tcdp::core::personalized::PopulationAccountant;
use tcdp::core::{AdversaryT, TplAccountant, TplError};
use tcdp::markov::TransitionMatrix;

fn moderate() -> TransitionMatrix {
    TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap()
}

fn mixed() -> TransitionMatrix {
    TransitionMatrix::from_rows(vec![vec![0.85, 0.15], vec![0.1, 0.9]]).unwrap()
}

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tpl_of(state: SavedState) -> TplAccountant {
    match state {
        SavedState::Tpl(acc) => acc,
        other => panic!("expected a solo accountant, got {:?}", other.kind()),
    }
}

fn pop_of(state: SavedState) -> PopulationAccountant {
    match state {
        SavedState::Population(pop) => pop,
        other => panic!("expected a population, got {:?}", other.kind()),
    }
}

/// Observe `budgets[..cut]`, checkpoint through a binary snapshot,
/// resume, observe the rest — then compare against the uninterrupted run.
fn stop_and_resume(budgets: &[f64], cut: usize) -> (TplAccountant, TplAccountant) {
    let mut uninterrupted = TplAccountant::with_both(moderate(), mixed()).unwrap();
    let mut first_half = TplAccountant::with_both(moderate(), mixed()).unwrap();
    for &b in &budgets[..cut] {
        first_half.observe_release(b).unwrap();
        uninterrupted.observe_release(b).unwrap();
    }
    // Query both so the checkpoint carries a warm cache — and the
    // uninterrupted accountant is in the same cache state.
    if cut > 0 {
        first_half.tpl_series().unwrap();
        uninterrupted.tpl_series().unwrap();
    }
    let mut resumed = tpl_of(resume_bytes(&first_half.checkpoint_binary(), None).unwrap());
    for &b in &budgets[cut..] {
        resumed.observe_release(b).unwrap();
        uninterrupted.observe_release(b).unwrap();
    }
    (resumed, uninterrupted)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// The offset of section `(tag, shard)`'s entry in a v3 container's
/// section table: 24-byte entries `tag u32 · shard u32 · offset u64 ·
/// length u64` after the 32-byte header, whose bytes 20..24 hold the
/// entry count (see `tcdp::core::checkpoint::format`).
fn entry(bytes: &[u8], tag: u32, shard: u32) -> usize {
    (0..u32_at(bytes, 20) as usize)
        .map(|i| 32 + 24 * i)
        .find(|&e| u32_at(bytes, e) == tag && u32_at(bytes, e + 4) == shard)
        .unwrap_or_else(|| panic!("snapshot has no section (tag {tag}, shard {shard})"))
}

/// The byte range of section `(tag, shard)`.
fn section(bytes: &[u8], tag: u32, shard: u32) -> std::ops::Range<usize> {
    let e = entry(bytes, tag, shard);
    u64_at(bytes, e + 8)..u64_at(bytes, e + 8) + u64_at(bytes, e + 16)
}

const TAG_META: u32 = 1;
const TAG_TIMELINE: u32 = 2;
const TAG_BPL: u32 = 3;
const TAG_MEMBERS: u32 = 6;

/// Overwrite the same-length `needle` inside section `(tag, shard)`.
fn doctor_json(bytes: &mut [u8], tag: u32, shard: u32, needle: &str, replacement: &str) {
    assert_eq!(
        needle.len(),
        replacement.len(),
        "doctoring keeps the length"
    );
    let range = section(bytes, tag, shard);
    let at = bytes[range.clone()]
        .windows(needle.len())
        .position(|w| w == needle.as_bytes())
        .unwrap_or_else(|| panic!("section (tag {tag}) holds {needle}"))
        + range.start;
    bytes[at..at + needle.len()].copy_from_slice(replacement.as_bytes());
}

/// Overwrite the first `f64` of section `(tag, shard)`.
fn doctor_first_f64(bytes: &mut [u8], tag: u32, shard: u32, value: f64) {
    let at = section(bytes, tag, shard).start;
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

fn corrupt_reason(state: tcdp::core::Result<SavedState>) -> String {
    match state {
        Err(TplError::CorruptCheckpoint(reason)) => reason,
        other => panic!("expected a corrupt-checkpoint error, got {other:?}"),
    }
}

#[test]
fn resume_mid_timeline_is_bit_identical() {
    let budgets = [0.3, 0.1, 0.2, 0.1, 0.25, 0.15, 0.05, 0.4];
    for cut in [0, 3, budgets.len()] {
        let (resumed, uninterrupted) = stop_and_resume(&budgets, cut);
        assert_eq!(resumed.len(), uninterrupted.len(), "cut={cut}");
        assert_eq!(
            to_bits(resumed.bpl_series()),
            to_bits(uninterrupted.bpl_series()),
            "cut={cut}"
        );
        assert_eq!(
            to_bits(&resumed.tpl_series().unwrap()),
            to_bits(&uninterrupted.tpl_series().unwrap()),
            "cut={cut}"
        );
        assert_eq!(
            to_bits(&resumed.fpl_series().unwrap()),
            to_bits(&uninterrupted.fpl_series().unwrap()),
            "cut={cut}"
        );
        assert_eq!(
            resumed.max_tpl().unwrap().to_bits(),
            uninterrupted.max_tpl().unwrap().to_bits(),
            "cut={cut}"
        );
    }
}

#[test]
fn resume_preserves_loss_eval_count_behavior() {
    let budgets = [0.1, 0.2, 0.1, 0.15, 0.1, 0.3];
    let cut = 4;

    // Uninterrupted: record how many evaluations the continuation costs.
    let mut uninterrupted = TplAccountant::with_both(moderate(), mixed()).unwrap();
    for &b in &budgets[..cut] {
        uninterrupted.observe_release(b).unwrap();
    }
    uninterrupted.tpl_series().unwrap();
    let uninterrupted_before = uninterrupted.loss_eval_count();
    for &b in &budgets[cut..] {
        uninterrupted.observe_release(b).unwrap();
    }
    uninterrupted.tpl_series().unwrap();
    uninterrupted.max_tpl().unwrap();
    let uninterrupted_delta = uninterrupted.loss_eval_count() - uninterrupted_before;

    // Stopped and resumed: the restored cache and warm witnesses mean
    // the continuation costs *exactly* the same number of evaluations.
    let mut saved = TplAccountant::with_both(moderate(), mixed()).unwrap();
    for &b in &budgets[..cut] {
        saved.observe_release(b).unwrap();
    }
    saved.tpl_series().unwrap();
    let mut resumed = tpl_of(resume_bytes(&saved.checkpoint_binary(), None).unwrap());

    // First: queries on the restored state are free (the series cache
    // came back with the checkpoint).
    resumed.tpl_series().unwrap();
    resumed.max_tpl().unwrap();
    assert_eq!(
        resumed.loss_eval_count(),
        0,
        "restored cache must serve queries without re-evaluation"
    );

    for &b in &budgets[cut..] {
        resumed.observe_release(b).unwrap();
    }
    resumed.tpl_series().unwrap();
    resumed.max_tpl().unwrap();
    assert_eq!(resumed.loss_eval_count(), uninterrupted_delta);
}

#[test]
fn checkpoint_survives_file_round_trip() {
    let mut acc = TplAccountant::with_both(moderate(), mixed()).unwrap();
    acc.observe_uniform(0.1, 12).unwrap();
    acc.tpl_series().unwrap();
    let path = std::env::temp_dir().join(format!(
        "tcdp_checkpoint_roundtrip_{}.bin",
        std::process::id()
    ));
    write_atomic(&path, &acc.checkpoint_binary()).unwrap();
    let resumed = tpl_of(resume_file(&path).unwrap());
    assert_eq!(
        to_bits(&resumed.tpl_series().unwrap()),
        to_bits(&acc.tpl_series().unwrap())
    );
    assert!(matches!(
        resume_file(std::path::Path::new("/nonexistent/tcdp.bin")),
        Err(TplError::CheckpointIo(_))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn population_checkpoint_round_trips_with_shards() {
    let adversaries = vec![
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::traditional(),
        AdversaryT::with_both(moderate(), moderate()).unwrap(), // same shard as 0
        AdversaryT::with_backward(mixed()),
        AdversaryT::with_forward(mixed()),
    ];
    let mut pop = PopulationAccountant::new(&adversaries).unwrap();
    let mut uninterrupted = PopulationAccountant::new(&adversaries).unwrap();
    let budgets = [0.3, 0.1, 0.2, 0.15];
    for &b in &budgets[..2] {
        pop.observe_release(b).unwrap();
        uninterrupted.observe_release(b).unwrap();
    }
    pop.tpl_series().unwrap();
    let state = resume_bytes(&pop.checkpoint_binary(), None).unwrap();
    assert_eq!(state.kind(), CheckpointKind::PopulationAccountant);
    let mut resumed = pop_of(state);
    assert_eq!(resumed.num_users(), 5);
    assert_eq!(resumed.num_groups(), 4);
    for &b in &budgets[2..] {
        resumed.observe_release(b).unwrap();
        uninterrupted.observe_release(b).unwrap();
    }
    assert_eq!(
        to_bits(&resumed.tpl_series().unwrap()),
        to_bits(&uninterrupted.tpl_series().unwrap())
    );
    assert_eq!(
        resumed.max_tpl().unwrap().to_bits(),
        uninterrupted.max_tpl().unwrap().to_bits()
    );
    assert_eq!(
        resumed.most_exposed_user().unwrap(),
        uninterrupted.most_exposed_user().unwrap()
    );
    // Per-user views too.
    for i in 0..5 {
        assert_eq!(
            to_bits(&resumed.user(i).unwrap().tpl_series().unwrap()),
            to_bits(&uninterrupted.user(i).unwrap().tpl_series().unwrap()),
            "user {i}"
        );
    }
}

#[test]
fn corrupt_checkpoints_error_honestly() {
    // Garbage.
    corrupt_reason(resume_bytes(b"][ garbage", None));
    // JSON envelopes as earlier builds wrote them (v1, v2 and v3, solo
    // and population), and JSON that is no checkpoint at all, are
    // refused with the reason and the way out.
    let json = [
        r#"{"format":"tcdp-checkpoint","version":1,"kind":"tpl-accountant",
            "payload":{"accountant":{"backward":null,"forward":null,
                       "budgets":[0.1,0.1],"bpl":[0.1,0.1]},
                       "series":null,"warm_backward":null,"warm_forward":null}}"#,
        r#"  {"format":"tcdp-checkpoint","version":2.0,"kind":"tpl-accountant",
            "payload":{"accountant":{"backward":null,"forward":null,
                       "timeline":[0.1],"bpl":[0.1]}}}"#,
        "{\n  \"format\": \"tcdp-checkpoint\",\n  \"version\": 3.0,\n  \
         \"kind\": \"population-accountant\",\n  \"payload\": {\"num_users\": 1.0, \
         \"groups\": []}\n}\n",
        r#"{"format":"other","version":2,"kind":"tpl-accountant"}"#,
    ];
    for text in json {
        let reason = corrupt_reason(resume_bytes(text.as_bytes(), None));
        assert!(
            reason.contains("JSON envelopes are no longer read"),
            "{reason}"
        );
        assert!(
            reason.contains("re-run the audit from its budget trail"),
            "{reason}"
        );
    }
    let mut acc = TplAccountant::with_both(moderate(), mixed()).unwrap();
    acc.observe_uniform(0.1, 3).unwrap();
    let good = acc.checkpoint_binary();
    // Unsupported version.
    let mut future = good.clone();
    future[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 7).to_le_bytes());
    match resume_bytes(&future, None) {
        Err(TplError::CheckpointVersion { found, supported }) => {
            assert_eq!(found, CHECKPOINT_VERSION + 7);
            assert_eq!(supported, CHECKPOINT_VERSION);
        }
        other => panic!("expected version mismatch, got {other:?}"),
    }
    // Unknown kind.
    let mut mystery = good.clone();
    mystery[16..20].copy_from_slice(&9u32.to_le_bytes());
    corrupt_reason(resume_bytes(&mystery, None));
    // Structurally valid container, hollow payload: a bare header that
    // declares no sections.
    let mut hollow = good[..32].to_vec();
    hollow[20..24].copy_from_slice(&0u32.to_le_bytes());
    hollow[24..32].copy_from_slice(&32u64.to_le_bytes());
    let reason = corrupt_reason(resume_bytes(&hollow, None));
    assert!(reason.contains("missing meta section"), "{reason}");
}

#[test]
fn doctored_payloads_are_rejected_not_panicked() {
    let mut acc = TplAccountant::with_both(moderate(), mixed()).unwrap();
    acc.observe_uniform(0.1, 4).unwrap();
    acc.tpl_series().unwrap();
    let good = acc.checkpoint_binary();
    assert!(resume_bytes(&good, None).is_ok());

    // A witness pointing past the matrix rows must be rejected (it
    // would otherwise index out of bounds inside Algorithm 1). The META
    // section stores the warm witnesses as JSON; a 2-state row index is
    // `0.0` or `1.0`, and `9.0` keeps the section length.
    let meta = String::from_utf8_lossy(&good[section(&good, TAG_META, 0)]).into_owned();
    let rows: Vec<&str> = ["\"q_row\":0.0", "\"q_row\":1.0"]
        .into_iter()
        .filter(|row| meta.contains(row))
        .collect();
    assert!(!rows.is_empty(), "the META section carries a warm witness");
    for row in rows {
        let mut doctored = good.clone();
        doctor_json(&mut doctored, TAG_META, 0, row, "\"q_row\":9.0");
        let reason = corrupt_reason(resume_bytes(&doctored, None));
        assert!(reason.contains("out of range"), "{reason}");
    }

    // A negative budget smuggled into the trail is rejected.
    let mut doctored = good.clone();
    doctor_first_f64(&mut doctored, TAG_TIMELINE, 0, -0.1);
    let reason = corrupt_reason(resume_bytes(&doctored, None));
    assert!(reason.contains("non-positive"), "{reason}");

    // A negative BPL value is rejected too: it would be fed back into
    // `L(α)` as α and understate leakage until then.
    let mut doctored = good.clone();
    doctor_first_f64(&mut doctored, TAG_BPL, 0, -0.1);
    let reason = corrupt_reason(resume_bytes(&doctored, None));
    assert!(reason.contains("negative"), "{reason}");

    // A BPL series shorter than its budget trail is rejected: shrink
    // the BPL section's length field in the table by one float.
    let e = entry(&good, TAG_BPL, 0);
    let shorter = (section(&good, TAG_BPL, 0).len() - 8) as u64;
    let mut doctored = good.clone();
    doctored[e + 16..e + 24].copy_from_slice(&shorter.to_le_bytes());
    let reason = corrupt_reason(resume_bytes(&doctored, None));
    assert!(
        reason.contains("does not match budget trail length"),
        "{reason}"
    );
}

#[test]
fn population_partition_is_validated() {
    let adversaries = vec![
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::traditional(),
    ];
    let mut pop = PopulationAccountant::new(&adversaries).unwrap();
    pop.observe_release(0.2).unwrap();
    let good = pop.checkpoint_binary();
    assert!(resume_bytes(&good, None).is_ok());
    // Claiming one more user than the shards cover must fail.
    let mut doctored = good.clone();
    doctor_json(
        &mut doctored,
        TAG_META,
        0,
        "\"num_users\":2.0",
        "\"num_users\":3.0",
    );
    let reason = corrupt_reason(resume_bytes(&doctored, None));
    assert!(reason.contains("no shard"), "{reason}");

    // Reordering the shards would silently flip the documented
    // lowest-index tie-break of `most_exposed_user`; resume rejects it.
    // Swap the two one-member MEMBERS sections.
    let (first, second) = (
        section(&good, TAG_MEMBERS, 0),
        section(&good, TAG_MEMBERS, 1),
    );
    let mut swapped = good.clone();
    swapped[first.clone()].copy_from_slice(&good[second.clone()]);
    swapped[second].copy_from_slice(&good[first]);
    let reason = corrupt_reason(resume_bytes(&swapped, None));
    assert!(reason.contains("ascending first member"), "{reason}");
}

// ---------------------------------------------------------------------------
// Snapshot restore equivalence, the corruption matrix, and delta replay
// ---------------------------------------------------------------------------

/// A binary snapshot restores the very state it was taken from:
/// identical series bits, identical (zero) eval cost for the first
/// queries, identical continuation.
#[test]
fn binary_snapshot_restores_identically() {
    let mut acc = TplAccountant::with_both(moderate(), mixed()).unwrap();
    for &b in &[0.3, 0.1, 0.2, 0.1, 0.25] {
        acc.observe_release(b).unwrap();
    }
    let live = acc.tpl_series().unwrap(); // warm cache + witnesses ride along
    let mut from_bin = tpl_of(resume_bytes(&acc.checkpoint_binary(), None).unwrap());
    // Restored series serve without evaluations.
    assert_eq!(from_bin.loss_eval_count(), 0);
    assert_eq!(to_bits(&from_bin.tpl_series().unwrap()), to_bits(&live));
    assert_eq!(from_bin.loss_eval_count(), 0);
    // The continuation agrees bit for bit with the live accountant.
    for &b in &[0.15, 0.05] {
        acc.observe_release(b).unwrap();
        from_bin.observe_release(b).unwrap();
    }
    assert_eq!(
        to_bits(&from_bin.tpl_series().unwrap()),
        to_bits(&acc.tpl_series().unwrap())
    );
}

#[test]
fn binary_population_round_trips_with_sharing() {
    let adversaries = vec![
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::traditional(),
        AdversaryT::with_backward(mixed()),
        AdversaryT::with_both(moderate(), moderate()).unwrap(), // same shard as 0
    ];
    let mut pop = PopulationAccountant::new(&adversaries).unwrap();
    let mut uninterrupted = PopulationAccountant::new(&adversaries).unwrap();
    pop.observe_release(0.1).unwrap();
    uninterrupted.observe_release(0.1).unwrap();
    // Fork timelines along the shard boundary so the snapshot carries
    // two distinct classes.
    pop.observe_release_personalized(&[(0..2, 0.05), (2..4, 0.3)])
        .unwrap();
    uninterrupted
        .observe_release_personalized(&[(0..2, 0.05), (2..4, 0.3)])
        .unwrap();
    pop.tpl_series().unwrap();
    let mut resumed = pop_of(resume_bytes(&pop.checkpoint_binary(), None).unwrap());
    assert_eq!(resumed.num_users(), 4);
    assert_eq!(resumed.num_groups(), pop.num_groups());
    assert_eq!(
        resumed.num_timelines(),
        pop.num_timelines(),
        "copy-on-write sharing survives the binary round trip"
    );
    resumed.observe_release(0.2).unwrap();
    uninterrupted.observe_release(0.2).unwrap();
    assert_eq!(
        to_bits(&resumed.tpl_series().unwrap()),
        to_bits(&uninterrupted.tpl_series().unwrap())
    );
    assert_eq!(
        resumed.most_exposed_user().unwrap(),
        uninterrupted.most_exposed_user().unwrap()
    );
}

/// The corruption matrix: every byte-level way a binary checkpoint can
/// be damaged yields an honest error, never a panic or silent state.
#[test]
fn binary_corruption_matrix_errors_honestly() {
    let mut acc = TplAccountant::with_both(moderate(), mixed()).unwrap();
    acc.observe_uniform(0.1, 6).unwrap();
    acc.tpl_series().unwrap();
    let good = acc.checkpoint_binary();
    assert!(resume_bytes(&good, None).is_ok());

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        resume_bytes(&bad, None),
        Err(TplError::CorruptCheckpoint(_))
    ));

    // Version skew (future version) is a version error, not corruption.
    let mut skewed = good.clone();
    skewed[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        resume_bytes(&skewed, None),
        Err(TplError::CheckpointVersion {
            found: 99,
            supported: CHECKPOINT_VERSION
        })
    ));

    // Truncations: mid-header, mid-table, mid-section.
    for cut in [4usize, 16, 40, good.len() / 2, good.len() - 1] {
        assert!(
            matches!(
                resume_bytes(&good[..cut], None),
                Err(TplError::CorruptCheckpoint(_))
            ),
            "truncation at {cut} must be corrupt"
        );
    }

    // Doctored section length: the first table entry's length field is
    // inflated past the container.
    let mut doctored = good.clone();
    let len_at = 32 + 16; // first entry's length field
    doctored[len_at..len_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    assert!(matches!(
        resume_bytes(&doctored, None),
        Err(TplError::CorruptCheckpoint(_))
    ));

    // Unknown kind code.
    let mut unknown = good.clone();
    unknown[16..20].copy_from_slice(&77u32.to_le_bytes());
    assert!(matches!(
        resume_bytes(&unknown, None),
        Err(TplError::CorruptCheckpoint(_))
    ));

    // Trailing garbage after the one snapshot container.
    let mut trailing = good.clone();
    trailing.extend_from_slice(b"junk");
    assert!(matches!(
        resume_bytes(&trailing, None),
        Err(TplError::CorruptCheckpoint(_))
    ));

    // A delta log whose record chains from the wrong base.
    let cursor = acc.delta_cursor();
    acc.observe_release(0.1).unwrap();
    let delta = acc.checkpoint_delta(&cursor).unwrap();
    let mut log = delta.to_bytes();
    // Applying to the snapshot taken *before* the cursor is fine...
    assert!(resume_bytes(&good, Some(&log)).is_ok());
    // ...but a doubled record no longer chains.
    let twice: Vec<u8> = [log.clone(), log.clone()].concat();
    assert!(matches!(
        resume_bytes(&good, Some(&twice)),
        Err(TplError::CorruptCheckpoint(_))
    ));
    // A doctored delta shard count is an honest error, not an
    // allocator abort (the claimed count is bounded by the container's
    // section table before anything is allocated from it).
    let needle = b"\"shards\":1.0";
    let at = log
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("delta meta holds the shard count");
    let mut counted = log.clone();
    counted[at..at + needle.len()].copy_from_slice(b"\"shards\":9.0");
    assert!(matches!(
        resume_bytes(&good, Some(&counted)),
        Err(TplError::CorruptCheckpoint(_))
    ));
    // A truncated trailing record is honest corruption.
    log.truncate(log.len() - 3);
    assert!(matches!(
        resume_bytes(&good, Some(&log)),
        Err(TplError::CorruptCheckpoint(_))
    ));
    // A snapshot container inside the delta log is rejected.
    assert!(matches!(
        resume_bytes(&good, Some(&good)),
        Err(TplError::CorruptCheckpoint(_))
    ));
}

/// The SPLIT-record corruption matrix: byte damage to a split delta's
/// origin map or member partition is an honest refusal, never a panic
/// or a silently mis-sharded population.
#[test]
fn split_record_corruption_errors_honestly() {
    let adversaries = vec![
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::traditional(),
    ];
    let mut pop = PopulationAccountant::new(&adversaries).unwrap();
    pop.observe_release(0.1).unwrap();
    let snapshot = pop.checkpoint_binary();
    let cursor = pop.delta_cursor();
    pop.observe_release_personalized(&[(0..1, 0.05), (1..3, 0.3)])
        .unwrap();
    let delta = pop.checkpoint_delta(&cursor).expect("split delta chains");
    assert!(delta.is_split());
    let log = delta.to_bytes();
    assert!(resume_bytes(&snapshot, Some(&log)).is_ok());

    // Truncated split partition: cutting into the record's trailing
    // MEMBERS section leaves a section table that promises more bytes
    // than the log holds.
    for cut in [1usize, 4, 9] {
        assert!(
            matches!(
                resume_bytes(&snapshot, Some(&log[..log.len() - cut])),
                Err(TplError::CorruptCheckpoint(_))
            ),
            "split record truncated by {cut} bytes must be corrupt"
        );
    }

    // A doctored origin map: pointing shard 2 at parent 0 leaves cursor
    // shard 1 with no descendant (and parent 0 with a three-way split
    // whose partitions don't line up) — refused, not mis-applied.
    let needle = b"\"origin\":[0.0,0.0,1.0]";
    let at = log
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("split meta holds the origin map");
    let mut doctored = log.clone();
    doctored[at..at + needle.len()].copy_from_slice(b"\"origin\":[0.0,0.0,0.0]");
    assert!(matches!(
        resume_bytes(&snapshot, Some(&doctored)),
        Err(TplError::CorruptCheckpoint(_))
    ));

    // A split record applied to the wrong base (the post-split state
    // re-used as base) no longer chains.
    let post = pop.checkpoint_binary();
    assert!(matches!(
        resume_bytes(&post, Some(&log)),
        Err(TplError::CorruptCheckpoint(_))
    ));
}

/// The compaction acceptance bar: folding a 1000-record delta log into
/// the base snapshot resumes bit-identically to replaying the log —
/// series, continuation, and loss-evaluation behavior alike — and
/// generation stamping keeps leftover records benign.
#[test]
fn compaction_of_thousand_record_log_is_bit_identical() {
    use tcdp::core::checkpoint::{compact, snapshot_generation};
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tcdp_compact_{}.bin", std::process::id()));

    let mut live = TplAccountant::with_both(moderate(), mixed()).unwrap();
    live.observe_uniform(0.01, 3).unwrap();
    let snapshot = live.checkpoint_binary();
    write_atomic(&path, &snapshot).unwrap();
    let generation = snapshot_generation(&snapshot);
    let mut cursor = live.delta_cursor().stamped(generation);
    for _ in 0..1000 {
        live.observe_release(0.01).unwrap();
        let delta = live.checkpoint_delta(&cursor).expect("cursor chains");
        delta.append_to(&delta_log_path(&path)).unwrap();
        cursor = live.delta_cursor().stamped(generation);
    }

    let reference = tpl_of(resume_file(&path).unwrap());
    let done = compact(&path).unwrap();
    assert_eq!(done.replayed, 1000);
    assert_eq!(done.skipped, 0);
    assert_ne!(
        done.generation, generation,
        "compaction renews the generation"
    );
    assert!(!delta_log_path(&path).exists(), "the folded log is removed");
    let compacted = tpl_of(resume_file(&path).unwrap());
    assert_eq!(compacted.len(), reference.len());
    assert_eq!(
        to_bits(compacted.bpl_series()),
        to_bits(reference.bpl_series())
    );
    assert_eq!(
        to_bits(&compacted.tpl_series().unwrap()),
        to_bits(&reference.tpl_series().unwrap())
    );
    assert_eq!(
        compacted.user_level().to_bits(),
        reference.user_level().to_bits()
    );
    // Loss-eval parity: the compacted resume pays exactly what the
    // snapshot+log resume pays for its first full query (the compactor
    // deliberately does not warm caches the log replay would not have).
    reference.tpl_series().unwrap();
    compacted.tpl_series().unwrap();
    assert_eq!(compacted.loss_eval_count(), reference.loss_eval_count());

    // Generation mismatch after compaction: a leftover record stamped
    // with the superseded generation (a crash between the rename and
    // the log removal) is skipped, never double-applied...
    live.observe_release(0.01).unwrap();
    let stale = live
        .checkpoint_delta(&cursor) // the cursor still carries the OLD generation
        .expect("the in-memory cursor still chains");
    stale.append_to(&delta_log_path(&path)).unwrap();
    let after = tpl_of(resume_file(&path).unwrap());
    assert_eq!(
        after.len(),
        compacted.len(),
        "stale-generation records must be skipped"
    );
    // ...and a second compact() discards it the same way.
    let done2 = compact(&path).unwrap();
    assert_eq!(done2.replayed, 0);
    assert_eq!(done2.skipped, 1);
    assert!(!delta_log_path(&path).exists());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(delta_log_path(&path));
}

/// Zero-copy reads: mapping a snapshot file shorter than its section
/// table promises is an honest corruption error through both the view
/// and the resume path, and an unmappable (empty) file refuses with
/// the typed zero-copy error.
#[test]
fn mmap_of_short_or_empty_file_errors_honestly() {
    use tcdp::core::checkpoint::MappedSnapshot;
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tcdp_mmap_short_{}.bin", std::process::id()));

    let mut acc = TplAccountant::with_both(moderate(), mixed()).unwrap();
    acc.observe_uniform(0.1, 8).unwrap();
    acc.tpl_series().unwrap();
    let good = acc.checkpoint_binary();

    // Cut the file mid-section: the header and table parse, but a
    // section's promised bytes run past the mapping.
    write_atomic(&path, &good[..good.len() - 24]).unwrap();
    let mapped = MappedSnapshot::open(&path).unwrap();
    assert!(matches!(mapped.view(), Err(TplError::CorruptCheckpoint(_))));
    drop(mapped);
    assert!(matches!(
        resume_file(&path),
        Err(TplError::CorruptCheckpoint(_))
    ));
    // Cut mid-table: even the section table itself is short.
    write_atomic(&path, &good[..40]).unwrap();
    assert!(matches!(
        resume_file(&path),
        Err(TplError::CorruptCheckpoint(_))
    ));
    // An empty file cannot be mapped at all — the typed refusal, and
    // the copying fallback then reports it as corrupt, not a panic.
    write_atomic(&path, &[]).unwrap();
    assert!(matches!(
        MappedSnapshot::open(&path),
        Err(TplError::ZeroCopyUnavailable(_))
    ));
    assert!(resume_file(&path).is_err());

    let _ = std::fs::remove_file(&path);
}

/// Incremental resume: snapshot + delta log replays to a state
/// bit-identical to the uninterrupted run — series, continuation, and
/// loss-evaluation behavior alike.
#[test]
fn delta_resume_is_bit_identical_and_eval_preserving() {
    let budgets = [0.3, 0.1, 0.2, 0.1, 0.25, 0.15, 0.05, 0.4];
    let mut live = TplAccountant::with_both(moderate(), mixed()).unwrap();
    // Snapshot after 3, deltas after 5 and 8.
    for &b in &budgets[..3] {
        live.observe_release(b).unwrap();
    }
    let snapshot = live.checkpoint_binary();
    let mut cursor = live.delta_cursor();
    let mut log = Vec::new();
    for &b in &budgets[3..5] {
        live.observe_release(b).unwrap();
    }
    let d1 = live.checkpoint_delta(&cursor).unwrap();
    assert_eq!(d1.appended(), 2);
    log.extend_from_slice(&d1.to_bytes());
    cursor = live.delta_cursor();
    for &b in &budgets[5..] {
        live.observe_release(b).unwrap();
    }
    let d2 = live.checkpoint_delta(&cursor).unwrap();
    assert_eq!(d2.base_len(), 5);
    log.extend_from_slice(&d2.to_bytes());

    let resumed = tpl_of(resume_bytes(&snapshot, Some(&log)).unwrap());
    assert_eq!(resumed.len(), live.len());
    assert_eq!(to_bits(resumed.bpl_series()), to_bits(live.bpl_series()));
    assert_eq!(resumed.loss_eval_count(), 0, "no evaluation was replayed");
    assert_eq!(
        to_bits(&resumed.tpl_series().unwrap()),
        to_bits(&live.tpl_series().unwrap())
    );

    // Eval-count equivalence of the first post-resume query: the live
    // accountant pays one O(T) FPL pass at its next query after
    // observing; the resumed accountant pays exactly the same.
    let mut live2 = TplAccountant::with_both(moderate(), mixed()).unwrap();
    for &b in &budgets {
        live2.observe_release(b).unwrap();
    }
    let live_before = live2.loss_eval_count();
    live2.tpl_series().unwrap();
    let live_cost = live2.loss_eval_count() - live_before;
    let resumed2 = tpl_of(resume_bytes(&snapshot, Some(&log)).unwrap());
    resumed2.tpl_series().unwrap();
    assert_eq!(resumed2.loss_eval_count(), live_cost);

    // An empty delta is detectable and skippable.
    let noop = live.checkpoint_delta(&live.delta_cursor()).unwrap();
    assert!(noop.is_empty());
}

/// Population deltas: shared timelines push once, forks replay
/// copy-on-write, and a shard *split* rides the delta as a SPLIT
/// record — no full snapshot needed.
#[test]
fn population_delta_replays_forks_and_splits() {
    let adversaries = vec![
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::traditional(),
    ];
    let mut live = PopulationAccountant::new(&adversaries).unwrap();
    live.observe_release(0.1).unwrap();
    live.observe_release(0.2).unwrap();
    let snapshot = live.checkpoint_binary();
    let cursor = live.delta_cursor();
    // A uniform release and a fork along the shard boundary (no split:
    // group count is unchanged, timelines diverge).
    live.observe_release(0.15).unwrap();
    live.observe_release_personalized(&[(0..1, 0.05), (1..2, 0.3)])
        .unwrap();
    assert_eq!(live.num_groups(), 2);
    assert_eq!(live.num_timelines(), 2);
    let delta = live
        .checkpoint_delta(&cursor)
        .expect("no split happened, the delta must chain");
    let resumed = pop_of(resume_bytes(&snapshot, Some(&delta.to_bytes())).unwrap());
    assert_eq!(
        resumed.num_timelines(),
        2,
        "the fork replayed copy-on-write"
    );
    assert_eq!(
        to_bits(&resumed.tpl_series().unwrap()),
        to_bits(&live.tpl_series().unwrap())
    );
    for i in 0..2 {
        assert_eq!(
            resumed.user(i).unwrap().budgets(),
            live.user(i).unwrap().budgets(),
            "user {i}"
        );
    }

    // Now force a *split*: the budget cut crosses shard 0's members.
    // The delta grammar expresses it as a SPLIT record, and further
    // deltas keep chaining — zero full snapshots after the first.
    let adversaries = vec![
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::traditional(),
    ];
    let mut split = PopulationAccountant::new(&adversaries).unwrap();
    split.observe_release(0.1).unwrap();
    let snapshot = split.checkpoint_binary();
    let cursor = split.delta_cursor();
    split
        .observe_release_personalized(&[(0..1, 0.05), (1..3, 0.3)])
        .unwrap();
    assert!(split.num_groups() > 2, "the shard split");
    let delta = split
        .checkpoint_delta(&cursor)
        .expect("a split now rides the delta grammar");
    assert!(delta.is_split(), "the record is stamped as a SPLIT");
    let mut log = delta.to_bytes();
    // Chain two more deltas past the split (one uniform, one forking
    // the post-split shards further apart) without re-snapshotting.
    let cursor = split.delta_cursor();
    split.observe_release(0.2).unwrap();
    let tail = split
        .checkpoint_delta(&cursor)
        .expect("the post-split cursor chains");
    assert!(!tail.is_split());
    log.extend_from_slice(&tail.to_bytes());
    let cursor = split.delta_cursor();
    split
        .observe_release_personalized(&[(0..2, 0.07), (2..3, 0.4)])
        .unwrap();
    log.extend_from_slice(&split.checkpoint_delta(&cursor).unwrap().to_bytes());

    let resumed = pop_of(resume_bytes(&snapshot, Some(&log)).unwrap());
    assert_eq!(resumed.num_groups(), split.num_groups());
    assert_eq!(resumed.num_timelines(), split.num_timelines());
    assert_eq!(resumed.num_users(), split.num_users());
    for i in 0..3 {
        assert_eq!(
            resumed.user(i).unwrap().budgets(),
            split.user(i).unwrap().budgets(),
            "user {i}"
        );
    }
    // Bit-identical series at bit-identical loss-evaluation cost: the
    // replayed split re-created the live sharing topology, so the
    // first full query pays exactly the live number of evaluations.
    let evals = |pop: &PopulationAccountant| -> Vec<u64> {
        (0..3)
            .map(|i| pop.user(i).unwrap().loss_eval_count())
            .collect()
    };
    let live_before = evals(&split);
    let live_series = split.tpl_series().unwrap();
    let live_cost: Vec<u64> = evals(&split)
        .iter()
        .zip(&live_before)
        .map(|(a, b)| a - b)
        .collect();
    let resumed_before = evals(&resumed);
    assert_eq!(
        to_bits(&resumed.tpl_series().unwrap()),
        to_bits(&live_series)
    );
    let resumed_cost: Vec<u64> = evals(&resumed)
        .iter()
        .zip(&resumed_before)
        .map(|(a, b)| a - b)
        .collect();
    assert_eq!(resumed_cost, live_cost);
}

/// Satellite of the SPLIT grammar: the refusals that *remain* are
/// honest typed errors naming the shard and the reason — here, a fold
/// horizon that swallowed the cursor point.
#[test]
fn delta_refusal_names_shard_and_fold_point() {
    let adversaries = vec![
        AdversaryT::with_both(moderate(), moderate()).unwrap(),
        AdversaryT::traditional(),
    ];
    let mut live = PopulationAccountant::new(&adversaries).unwrap();
    for _ in 0..4 {
        live.observe_release(0.1).unwrap();
    }
    let cursor = live.delta_cursor();
    live.observe_release(0.2).unwrap();
    live.observe_release(0.2).unwrap();
    // Horizon 1 at T = 6 folds up to t = 5, strictly past the cursor
    // (T = 4): the appended BPL values are gone, the delta must refuse.
    live.set_horizon(Some(1)).unwrap();
    assert!(live.checkpoint_delta(&cursor).is_none());
    let err = live.checkpoint_delta_explained(&cursor).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("shard 0 (users 0…)"),
        "the refusal names the shard and its first member: {msg}"
    );
    assert!(
        msg.contains("fold horizon passed the cursor"),
        "the refusal names the reason: {msg}"
    );
    assert!(
        msg.contains("cursor at T = 4"),
        "the refusal names the cursor point: {msg}"
    );
}

/// `resume_file` replays the sibling delta log of a binary snapshot and
/// tells a retired JSON envelope apart from it.
#[test]
fn resume_file_sniffs_format_and_replays_log() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tcdp_resume_file_{}.bin", std::process::id()));
    let mut live = TplAccountant::with_both(moderate(), mixed()).unwrap();
    live.observe_uniform(0.1, 4).unwrap();
    write_atomic(&path, &live.checkpoint_binary()).unwrap();
    let cursor = live.delta_cursor();
    live.observe_release(0.2).unwrap();
    live.checkpoint_delta(&cursor)
        .unwrap()
        .append_to(&delta_log_path(&path))
        .unwrap();
    let resumed = tpl_of(resume_file(&path).unwrap());
    assert_eq!(resumed.len(), 5);
    assert_eq!(
        to_bits(&resumed.tpl_series().unwrap()),
        to_bits(&live.tpl_series().unwrap())
    );
    // The same path holding a JSON envelope is refused, not misread.
    std::fs::write(
        &path,
        r#"{"format":"tcdp-checkpoint","version":3,"kind":"tpl-accountant","payload":{}}"#,
    )
    .unwrap();
    let reason = corrupt_reason(resume_file(&path));
    assert!(
        reason.contains("JSON envelopes are no longer read"),
        "{reason}"
    );
    std::fs::remove_file(delta_log_path(&path)).ok();
    std::fs::remove_file(&path).ok();
}
