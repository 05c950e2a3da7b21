//! Per-user budget timelines: personalized-DP accounting at scale.
//!
//! ```bash
//! cargo run --example personalized_population
//! ```
//!
//! The paper's Section III-D observes that temporal privacy leakage is
//! *personal* — and personalized DP lets each user spend a different ε
//! per release. This example tracks 10 000 users drawn from four
//! mobility patterns, splits them into premium/standard budget tiers
//! mid-stream, and shows that the sharded accountant:
//!
//! * keeps one shard per distinct adversary while budgets are uniform;
//! * splits shards copy-on-write the moment the tiers diverge (cost per
//!   `(adversary, timeline)` class, never per user);
//! * audits per-tier guarantees end to end, checkpoint/resume included.

use tcdp::core::checkpoint::{resume_file, write_atomic, SavedState};
use tcdp::core::personalized::PopulationAccountant;
use tcdp::core::AdversaryT;
use tcdp::data::population::tier_ranges;
use tcdp::markov::TransitionMatrix;

const USERS: usize = 10_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
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
        "tracking {} users: {} shards over {} timeline(s)",
        pop.num_users(),
        pop.num_groups(),
        pop.num_timelines()
    );

    // Phase 1: a uniform morning — everyone spends 0.02 per release.
    for _ in 0..20 {
        pop.observe_release(0.02)?;
    }
    println!(
        "after the uniform phase: {} shards, {} timeline(s), worst TPL {:.4}",
        pop.num_groups(),
        pop.num_timelines(),
        pop.max_tpl()?
    );

    // Phase 2: the service launches budget tiers. Premium users (the
    // first half) buy stronger privacy (smaller ε); standard users keep
    // the old rate. Every shard straddles the cut, so each splits once —
    // copy-on-write — and the two tiers share one timeline object each.
    let tiers = tier_ranges(USERS, 2)?;
    for _ in 0..20 {
        pop.observe_release_personalized(&[(tiers[0].clone(), 0.01), (tiers[1].clone(), 0.02)])?;
    }
    println!(
        "after the tier split: {} shards, {} timelines, worst TPL {:.4}",
        pop.num_groups(),
        pop.num_timelines(),
        pop.max_tpl()?
    );
    let premium = pop.user(0).expect("tracked");
    let standard = pop.user(USERS - 1).expect("tracked");
    println!(
        "premium user 0: user-level {:.4}; standard user {}: user-level {:.4}",
        premium.user_level(),
        USERS - 1,
        standard.user_level()
    );
    assert!(premium.user_level() < standard.user_level());

    // A nightly checkpoint stop/resume is still bit-identical, per-user
    // timelines and all.
    let path = std::env::temp_dir().join(format!(
        "tcdp_personalized_checkpoint_{}.bin",
        std::process::id()
    ));
    write_atomic(&path, &pop.checkpoint_binary())?;
    let SavedState::Population(mut resumed) = resume_file(&path)? else {
        unreachable!("population snapshot");
    };
    std::fs::remove_file(&path)?;
    assert_eq!(resumed.num_timelines(), pop.num_timelines());
    resumed.observe_release_personalized(&[(tiers[0].clone(), 0.01), (tiers[1].clone(), 0.02)])?;
    pop.observe_release_personalized(&[(tiers[0].clone(), 0.01), (tiers[1].clone(), 0.02)])?;
    let a = resumed.tpl_series()?;
    let b = pop.tpl_series()?;
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "resume must be bit-identical");
    }
    println!(
        "resumed audit is bit-identical; most exposed user: {} ({:.4}-DP_T)",
        resumed.most_exposed_user()?,
        resumed.max_tpl()?
    );
    Ok(())
}
