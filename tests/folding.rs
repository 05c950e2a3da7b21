//! Acceptance tests for history folding (the O(w) accountant): resident
//! state and binary snapshots must stay *flat* as the stream grows an
//! order of magnitude, while every query inside the horizon stays
//! bit-identical to the unfolded reference.

use tcdp::core::checkpoint::{
    delta_log_path, resume_bytes, resume_file, snapshot_generation, write_atomic, SavedState,
};
use tcdp::core::composition::{sequence_guarantee, w_event_guarantee};
use tcdp::core::TplAccountant;
use tcdp::markov::TransitionMatrix;

const EPS: f64 = 0.01;
const HORIZON: usize = 64;

fn matrix() -> TransitionMatrix {
    TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap()
}

fn folded_stream(t_len: usize) -> TplAccountant {
    let mut acc = TplAccountant::with_both(matrix(), matrix()).unwrap();
    acc.set_horizon(Some(HORIZON)).unwrap();
    acc.observe_uniform(EPS, t_len).unwrap();
    acc
}

/// The tentpole acceptance bar: from T = 10^4 to T = 10^5 the folded
/// accountant's resident state and its v3 snapshot do not grow AT ALL
/// (the live window is pinned at the horizon), while the unfolded
/// reference grows linearly.
#[test]
fn resident_state_and_snapshot_stay_flat_from_1e4_to_1e5() {
    let small = folded_stream(10_000);
    let large = folded_stream(100_000);
    assert_eq!(small.live_start(), 10_000 - HORIZON);
    assert_eq!(large.live_start(), 100_000 - HORIZON);
    assert_eq!(
        small.resident_f64s(),
        large.resident_f64s(),
        "resident state must not grow with T under a horizon"
    );
    let small_snap = small.checkpoint_binary();
    let large_snap = large.checkpoint_binary();
    // The only T-dependent bytes are the decimal digits of the folded
    // length and Σε inside the FOLDED_SUMMARY JSON — one align8 step of
    // slack, not a function of T.
    assert!(
        large_snap.len() <= small_snap.len() + 16,
        "v3 snapshots must stay flat as T grows 10x ({} B -> {} B)",
        small_snap.len(),
        large_snap.len()
    );

    // The unfolded reference at the *small* T is already bigger than
    // the folded state at the *large* T — the gap the fold buys.
    let mut unfolded = TplAccountant::with_both(matrix(), matrix()).unwrap();
    unfolded.observe_uniform(EPS, 10_000).unwrap();
    assert!(
        unfolded.resident_f64s() >= 10_000,
        "unfolded resident state tracks T ({} f64s at T = 10^4)",
        unfolded.resident_f64s()
    );
    assert!(
        unfolded.resident_f64s() > 10 * large.resident_f64s(),
        "fold must shrink resident state by more than 10x \
         (unfolded@1e4 = {}, folded@1e5 = {})",
        unfolded.resident_f64s(),
        large.resident_f64s()
    );
    assert!(
        unfolded.checkpoint_binary().len() > 10 * large_snap.len(),
        "fold must shrink snapshots by more than 10x"
    );
}

/// Inside the horizon the folded accountant answers every query
/// bit-identically to the unfolded reference; beyond it, the summary
/// bounds dominate the true (discarded) values.
#[test]
fn folded_queries_match_unfolded_inside_the_horizon() {
    let t_len = 3_000;
    let folded = folded_stream(t_len);
    let mut unfolded = TplAccountant::with_both(matrix(), matrix()).unwrap();
    unfolded.observe_uniform(EPS, t_len).unwrap();

    assert_eq!(folded.len(), unfolded.len());
    assert_eq!(
        folded.user_level().to_bits(),
        unfolded.user_level().to_bits()
    );
    let live = folded.live_start();
    for t in live..t_len {
        assert_eq!(
            folded.bpl_at(t).unwrap().to_bits(),
            unfolded.bpl_at(t).unwrap().to_bits(),
            "BPL at t = {t}"
        );
        assert_eq!(
            folded.fpl_at(t).unwrap().to_bits(),
            unfolded.fpl_at(t).unwrap().to_bits(),
            "FPL at t = {t}"
        );
        assert_eq!(
            folded.tpl_at(t).unwrap().to_bits(),
            unfolded.tpl_at(t).unwrap().to_bits(),
            "TPL at t = {t}"
        );
    }
    for w in [1usize, 7, HORIZON] {
        for t in live..=(t_len - w) {
            assert_eq!(
                folded.window_budget_sum(t, w).unwrap().to_bits(),
                unfolded.window_budget_sum(t, w).unwrap().to_bits(),
                "window sum at t = {t}, w = {w}"
            );
        }
        // The folded sweep maximizes over the live subset of windows,
        // so it is bounded by the unfolded sweep and bit-identical to
        // the unfolded maximum over the same subset.
        let folded_g = w_event_guarantee(&folded, w).unwrap();
        assert!(folded_g.is_finite());
        assert!(folded_g <= w_event_guarantee(&unfolded, w).unwrap());
        let live_max = (live..=(t_len - w))
            .map(|t| sequence_guarantee(&unfolded, t, w - 1).unwrap().to_bits())
            .fold(f64::NEG_INFINITY.to_bits(), |a, b| {
                f64::from_bits(a).max(f64::from_bits(b)).to_bits()
            });
        assert_eq!(folded_g.to_bits(), live_max, "w = {w}");
    }
    // Beyond the horizon: a sound upper bound, never an understatement.
    for t in [0usize, 1, live / 2, live - 1] {
        assert!(folded.bpl_at(t).unwrap() >= unfolded.bpl_at(t).unwrap());
        assert!(folded.fpl_at(t).unwrap() >= unfolded.fpl_at(t).unwrap());
        assert!(folded.tpl_at(t).unwrap() >= unfolded.tpl_at(t).unwrap());
    }
    assert!(folded.max_tpl().unwrap() >= unfolded.max_tpl().unwrap());
}

/// Mid-stream fold + binary checkpoint + resume, with the snapshot
/// overwritten mid-run: the resumed accountant continues bit-identically
/// and stale generation-stamped delta records are skipped, not replayed.
#[test]
fn folded_checkpoint_resume_is_bit_identical() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tcdp_folding_{}.bin", std::process::id()));

    let mut live = TplAccountant::with_both(matrix(), matrix()).unwrap();
    live.set_horizon(Some(HORIZON)).unwrap();
    live.observe_uniform(EPS, 500).unwrap();
    live.tpl_series().unwrap(); // warm the caches the snapshot carries

    let snapshot = live.checkpoint_binary();
    let generation = snapshot_generation(&snapshot);
    write_atomic(&path, &snapshot).unwrap();
    let mut cursor = live.delta_cursor().stamped(generation);
    for _ in 0..3 {
        live.observe_uniform(EPS, 40).unwrap();
        let delta = live.checkpoint_delta(&cursor).expect("cursor chains");
        delta.append_to(&delta_log_path(&path)).unwrap();
        cursor = live.delta_cursor().stamped(generation);
    }

    let SavedState::Tpl(resumed) = resume_file(&path).unwrap() else {
        panic!("expected a solo accountant");
    };
    assert_eq!(resumed.len(), live.len());
    assert_eq!(resumed.live_start(), live.live_start());
    assert_eq!(resumed.user_level().to_bits(), live.user_level().to_bits());
    assert_eq!(resumed.tpl_series().unwrap(), live.tpl_series().unwrap());
    for t in resumed.live_start()..resumed.len() {
        assert_eq!(
            resumed.bpl_at(t).unwrap().to_bits(),
            live.bpl_at(t).unwrap().to_bits()
        );
    }

    // Overwrite the snapshot at a later T without cleaning the log: the
    // old records are recognizably from a superseded generation.
    live.observe_uniform(EPS, 25).unwrap();
    write_atomic(&path, &live.checkpoint_binary()).unwrap();
    let SavedState::Tpl(fresh) = resume_file(&path).unwrap() else {
        panic!("expected a solo accountant");
    };
    assert_eq!(
        fresh.len(),
        live.len(),
        "stale delta records must be skipped, not replayed"
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(delta_log_path(&path));
}

/// Tracked w-event windows: a folded sweep reports a bound covering the
/// **all-time** maximum, even when the worst window folded away long
/// ago — the case an untracked sweep silently cannot see.
#[test]
fn tracked_w_event_covers_all_time_max_after_folding() {
    // A loud early burst followed by a long whisper-quiet tail: the
    // worst w-event window lives entirely in the folded prefix.
    let budgets: Vec<f64> = std::iter::repeat_n(0.5, 8)
        .chain(std::iter::repeat_n(0.001, 1_500))
        .collect();
    let mut unfolded = TplAccountant::with_both(matrix(), matrix()).unwrap();
    for &b in &budgets {
        unfolded.observe_release(b).unwrap();
    }

    for w in [1usize, 2, 5] {
        let alltime = w_event_guarantee(&unfolded, w).unwrap();

        let mut tracked = TplAccountant::with_both(matrix(), matrix()).unwrap();
        tracked.track_w_event(w).unwrap();
        tracked.set_horizon(Some(HORIZON)).unwrap();
        let mut untracked = TplAccountant::with_both(matrix(), matrix()).unwrap();
        untracked.set_horizon(Some(HORIZON)).unwrap();
        for &b in &budgets {
            tracked.observe_release(b).unwrap();
            untracked.observe_release(b).unwrap();
        }

        let live_only = w_event_guarantee(&untracked, w).unwrap();
        let bound = w_event_guarantee(&tracked, w).unwrap();
        assert!(
            live_only < alltime,
            "w = {w}: the live-only sweep must miss the folded burst \
             ({live_only} vs all-time {alltime}) for this test to bite"
        );
        assert!(
            bound >= alltime,
            "w = {w}: tracked bound {bound} understates the all-time max {alltime}"
        );
        // The bound is the folded BPL part plus the FPL supremum — tight
        // to within the supremum-vs-pointwise FPL gap, not vacuous.
        assert!(
            bound <= alltime + 2.0,
            "w = {w}: tracked bound {bound} is not a useful bound on {alltime}"
        );
    }
}

/// Tracking contract: arming must happen before the first fold, window
/// length 0 is invalid, and a window longer than the horizon poisons to
/// an honest +inf instead of a silent understatement.
#[test]
fn w_event_tracking_contract() {
    let mut acc = TplAccountant::with_both(matrix(), matrix()).unwrap();
    assert!(acc.track_w_event(0).is_err());
    // Longer than the horizon: every fold step drops a window start
    // whose end is still unseen — the only honest bound is +inf.
    acc.track_w_event(HORIZON + 2).unwrap();
    acc.track_w_event(4).unwrap();
    acc.set_horizon(Some(HORIZON)).unwrap();
    acc.observe_uniform(EPS, 3 * HORIZON).unwrap();
    assert!(acc.live_start() > 0);
    assert_eq!(
        acc.folded_w_event_bound(HORIZON + 2).unwrap(),
        Some(f64::INFINITY)
    );
    assert!(acc.folded_w_event_bound(4).unwrap().unwrap().is_finite());
    // Untracked windows answer None; arming after a fold is an error.
    assert_eq!(acc.folded_w_event_bound(5).unwrap(), None);
    assert!(acc.track_w_event(5).is_err());
    // A sweep for the over-horizon window reports the poisoned bound
    // instead of erroring: every one of its windows is folded.
    assert_eq!(w_event_guarantee(&acc, HORIZON + 2).unwrap(), f64::INFINITY);
}

/// Tracked w-event state rides both checkpoint encodings and the delta
/// log bit-identically.
#[test]
fn w_event_state_survives_checkpoint_round_trips() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("tcdp_folding_wevent_{}.bin", std::process::id()));

    let mut live = TplAccountant::with_both(matrix(), matrix()).unwrap();
    live.track_w_event(3).unwrap();
    live.track_w_event(HORIZON + 2).unwrap();
    live.set_horizon(Some(HORIZON)).unwrap();
    live.observe_uniform(EPS, 2 * HORIZON).unwrap();
    let expect_finite = live.folded_w_event_bound(3).unwrap().unwrap();
    assert!(expect_finite.is_finite());

    // Binary snapshot + two delta-log appends.
    let snapshot = live.checkpoint_binary();
    write_atomic(&path, &snapshot).unwrap();
    let generation = snapshot_generation(&snapshot);
    let mut cursor = live.delta_cursor().stamped(generation);
    for _ in 0..2 {
        live.observe_uniform(EPS, 10).unwrap();
        let delta = live.checkpoint_delta(&cursor).expect("cursor chains");
        delta.append_to(&delta_log_path(&path)).unwrap();
        cursor = live.delta_cursor().stamped(generation);
    }
    let SavedState::Tpl(resumed) = resume_file(&path).unwrap() else {
        panic!("expected a solo accountant");
    };
    assert_eq!(
        resumed.folded_w_event_bound(3).unwrap().unwrap().to_bits(),
        live.folded_w_event_bound(3).unwrap().unwrap().to_bits(),
        "the tracked base folds during replay exactly as it did live"
    );
    assert_eq!(
        resumed.folded_w_event_bound(HORIZON + 2).unwrap(),
        Some(f64::INFINITY)
    );

    // A full snapshot carries it too.
    let SavedState::Tpl(full) = resume_bytes(&live.checkpoint_binary(), None).unwrap() else {
        panic!("expected a solo accountant");
    };
    assert_eq!(
        full.folded_w_event_bound(3).unwrap().unwrap().to_bits(),
        live.folded_w_event_bound(3).unwrap().unwrap().to_bits()
    );

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(delta_log_path(&path));
}
