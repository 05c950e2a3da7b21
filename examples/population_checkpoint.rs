//! Sharded population accounting with a stop-and-resume checkpoint.
//!
//! ```bash
//! cargo run --example population_checkpoint
//! ```
//!
//! A location-data service tracks temporal privacy leakage for 10 000
//! users drawn from a handful of mobility patterns. The sharded
//! [`PopulationAccountant`] makes this cheap — cost scales with the
//! number of *distinct* patterns, not users — and the checkpoint
//! subsystem lets the nightly audit stop mid-timeline and continue the
//! next day, bit-identical to a run that never stopped. Later days show
//! the incremental binary pipeline: O(appended)-byte delta records, a
//! mid-log personalized release whose shard splits are captured as a
//! SPLIT delta record (no re-snapshot), and `compact`, which folds the
//! grown log back into the base snapshot.

use tcdp::core::checkpoint::{
    delta_log_path, resume_file, snapshot_generation, write_atomic, SavedState,
};
use tcdp::core::personalized::PopulationAccountant;
use tcdp::core::AdversaryT;
use tcdp::markov::TransitionMatrix;

const USERS: usize = 10_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four mobility patterns, from sedentary (strong correlation, leaks
    // more) to erratic (weak correlation, leaks less).
    let patterns = [
        TransitionMatrix::from_rows(vec![vec![0.95, 0.05], vec![0.05, 0.95]])?,
        TransitionMatrix::from_rows(vec![vec![0.85, 0.15], vec![0.2, 0.8]])?,
        TransitionMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.3, 0.7]])?,
        TransitionMatrix::from_rows(vec![vec![0.55, 0.45], vec![0.5, 0.5]])?,
    ];
    let adversaries: Vec<AdversaryT> = (0..USERS)
        .map(|i| {
            let p = patterns[i % patterns.len()].clone();
            AdversaryT::with_both(p.clone(), p).expect("square pattern")
        })
        .collect();

    let mut pop = PopulationAccountant::new(&adversaries)?;
    println!(
        "tracking {} users across {} distinct-adversary shards",
        pop.num_users(),
        pop.num_groups()
    );

    // Day one: 40 releases at eps = 0.02, then stop for the night.
    for _ in 0..40 {
        pop.observe_release(0.02)?;
    }
    println!(
        "day 1: worst TPL {:.4}, most exposed user {}",
        pop.max_tpl()?,
        pop.most_exposed_user()?
    );
    let path = std::env::temp_dir().join(format!(
        "tcdp_population_checkpoint_{}.bin",
        std::process::id()
    ));
    write_atomic(&path, &pop.checkpoint_binary())?;
    println!("checkpointed to {}", path.display());

    // Day two: a fresh process resumes the audit and streams on.
    let SavedState::Population(mut resumed) = resume_file(&path)? else {
        unreachable!("population snapshot");
    };
    std::fs::remove_file(&path)?;
    for _ in 0..40 {
        resumed.observe_release(0.02)?;
    }
    println!(
        "day 2 (resumed): worst TPL {:.4}, most exposed user {}",
        resumed.max_tpl()?,
        resumed.most_exposed_user()?
    );

    // The uninterrupted control run agrees bit for bit.
    let mut control = PopulationAccountant::new(&adversaries)?;
    for _ in 0..80 {
        control.observe_release(0.02)?;
    }
    let resumed_series = resumed.tpl_series()?;
    let control_series = control.tpl_series()?;
    assert_eq!(resumed_series.len(), control_series.len());
    for (a, b) in resumed_series.iter().zip(&control_series) {
        assert_eq!(a.to_bits(), b.to_bits(), "resume must be bit-identical");
    }
    assert_eq!(resumed.most_exposed_user()?, control.most_exposed_user()?);
    println!("resumed audit is bit-identical to the uninterrupted control");

    // The sedentary pattern (shard of users 0, 4, 8, ...) leaks most.
    let exposed = resumed.most_exposed_user()?;
    println!(
        "user {exposed}'s guarantee after {} releases: {:.4}-DP_T (user-level {:.4})",
        resumed.user(exposed).map(|a| a.len()).unwrap_or(0),
        resumed.max_tpl()?,
        resumed.user(exposed).expect("tracked").user_level()
    );

    // Day three runs with *incremental* checkpoints: one full v3
    // snapshot (raw f64 sections), then every stop point appends only
    // the releases observed since — O(appended) bytes, not O(T).
    let bin_path = std::env::temp_dir().join(format!("tcdp_population_{}.bin", std::process::id()));
    // The cursor is stamped with the snapshot's generation id
    // (a content hash), so every delta record names the exact snapshot
    // it chains onto.
    let snapshot = resumed.checkpoint_binary();
    let generation = snapshot_generation(&snapshot);
    write_atomic(&bin_path, &snapshot)?;
    let snapshot_bytes = snapshot.len() as u64;
    let mut cursor = resumed.delta_cursor().stamped(generation);
    for stop in 0..3 {
        for _ in 0..10 {
            resumed.observe_release(0.02)?;
            control.observe_release(0.02)?;
        }
        let delta = resumed
            .checkpoint_delta(&cursor)
            .expect("topology unchanged");
        delta.append_to(&delta_log_path(&bin_path))?;
        cursor = resumed.delta_cursor().stamped(generation);
        println!(
            "day 3 stop {stop}: appended {} releases as a delta record",
            delta.appended()
        );
    }
    let log_bytes = std::fs::metadata(delta_log_path(&bin_path))?.len();
    println!(
        "binary snapshot {snapshot_bytes} B + delta log {log_bytes} B for 30 appended releases"
    );
    let SavedState::Population(replayed) = resume_file(&bin_path)? else {
        unreachable!("population snapshot");
    };
    for (a, b) in replayed.tpl_series()?.iter().zip(&control.tpl_series()?) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "delta replay must be bit-identical"
        );
    }
    println!("snapshot + delta replay is bit-identical to the uninterrupted control");

    // Day four: the audit is restarted from scratch and overwrites the
    // snapshot — *without* cleaning up the old delta log (this used to
    // require hand-deleting the `.delta` file before re-running).
    // Because the old records are stamped with the superseded
    // snapshot's generation, resume skips them with a warning instead
    // of grafting them onto the new state.
    for _ in 0..10 {
        resumed.observe_release(0.02)?;
    }
    let snapshot = resumed.checkpoint_binary();
    let generation = snapshot_generation(&snapshot);
    write_atomic(&bin_path, &snapshot)?;
    let SavedState::Population(fresh) = resume_file(&bin_path)? else {
        unreachable!("population snapshot");
    };
    assert_eq!(
        fresh.num_releases(),
        resumed.num_releases(),
        "stale delta records must be ignored, not replayed"
    );
    println!(
        "restart over a stale delta log resumes at T = {} (stale records skipped)",
        fresh.num_releases()
    );

    // Day five: mid-log personalization. Half the population opts into
    // a tighter budget, so every shard straddles the boundary and
    // splits copy-on-write. A shard split used to force a full
    // re-snapshot; the SPLIT delta record now expresses the topology
    // change inside the log itself, so the stream keeps appending
    // O(appended)-byte records across the split.
    let mut cursor = resumed.delta_cursor().stamped(generation);
    let groups_before = resumed.num_groups();
    resumed.observe_release_personalized(&[(0..USERS / 2, 0.01), (USERS / 2..USERS, 0.03)])?;
    let split = resumed
        .checkpoint_delta(&cursor)
        .expect("splits are delta-expressible");
    assert!(split.is_split(), "a straddling budget must split shards");
    split.append_to(&delta_log_path(&bin_path))?;
    cursor = resumed.delta_cursor().stamped(generation);
    println!(
        "day 5: {groups_before} shards split into {} — a {} B SPLIT delta record, \
         no re-snapshot",
        resumed.num_groups(),
        split.to_bytes().len()
    );
    // The stream continues past the split with ordinary tail records.
    for _ in 0..10 {
        resumed.observe_release(0.02)?;
    }
    resumed
        .checkpoint_delta(&cursor)
        .expect("topology unchanged")
        .append_to(&delta_log_path(&bin_path))?;
    let SavedState::Population(split_replayed) = resume_file(&bin_path)? else {
        unreachable!("population snapshot");
    };
    assert_eq!(split_replayed.num_groups(), resumed.num_groups());
    for (a, b) in split_replayed
        .tpl_series()?
        .iter()
        .zip(&resumed.tpl_series()?)
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "split replay must be bit-identical"
        );
    }
    println!("snapshot + SPLIT + tail replay is bit-identical to the live accountant");

    // Day six: the delta log has grown (and still carries day three's
    // stale records); fold it into the base snapshot. Compaction
    // replays chainable records, drops stale ones, rewrites the
    // snapshot atomically under a fresh generation, and removes the
    // log — resume afterwards reads one file.
    let done = tcdp::core::checkpoint::compact(&bin_path)?;
    assert!(
        !delta_log_path(&bin_path).exists(),
        "compaction consumes the log"
    );
    println!(
        "day 6: compacted {} delta record(s) into a {} B snapshot \
         (generation {:016x}); {} stale record(s) dropped",
        done.replayed, done.snapshot_bytes, done.generation, done.skipped
    );
    let SavedState::Population(compacted) = resume_file(&bin_path)? else {
        unreachable!("population snapshot");
    };
    for (a, b) in compacted.tpl_series()?.iter().zip(&resumed.tpl_series()?) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "compaction must preserve state bits"
        );
    }
    println!("compacted snapshot resumes bit-identical to the live accountant");
    let _ = std::fs::remove_file(&bin_path);
    let _ = std::fs::remove_file(delta_log_path(&bin_path));
    Ok(())
}
