//! Property-based tests over the whole workspace.
//!
//! The central invariants (strategy: random stochastic matrices of modest
//! size so the exponential reference solvers stay cheap):
//!
//! * Algorithm 1 == Lemma-3 brute force == Charnes–Cooper == Dinkelbach;
//! * Remark 1: `0 ≤ L(α) ≤ α`, and `L` is monotone in `α`;
//! * Theorem 5's closed form is a fixed point of the recursion and an
//!   upper bound on every finite prefix;
//! * release plans never let TPL exceed the target α;
//! * Bayes reversal produces a valid stochastic matrix whose reversal
//!   round-trips at stationarity.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcdp::core::alg1::{
    temporal_loss, temporal_loss_brute_force, temporal_loss_lp, temporal_loss_witness,
    temporal_loss_witness_unpruned, LpBaseline,
};
use tcdp::core::checkpoint::{resume_bytes, SavedState};
use tcdp::core::personalized::PopulationAccountant;
use tcdp::core::supremum::{leakage_series, supremum_of_matrix, Supremum};
use tcdp::core::{
    quantified_plan, upper_bound_plan, AdversaryT, TemporalLossFunction, TplAccountant,
};
use tcdp::data::roadnet::roadnet_like;
use tcdp::markov::{MarkovChain, TransitionMatrix};

/// Strategy: a random row-stochastic matrix with strictly positive cells.
fn stochastic_matrix(n: usize) -> impl Strategy<Value = TransitionMatrix> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, n), n).prop_map(|rows| {
        let rows = rows
            .into_iter()
            .map(|row| {
                let sum: f64 = row.iter().sum();
                row.into_iter().map(|v| v / sum).collect::<Vec<_>>()
            })
            .collect();
        TransitionMatrix::from_rows(rows).expect("normalized rows are stochastic")
    })
}

/// Strategy: a matrix that may contain exact zeros (sparser, harsher for
/// the active-set logic).
fn sparse_stochastic_matrix(n: usize) -> impl Strategy<Value = TransitionMatrix> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, n), n).prop_map(|rows| {
        let rows = rows
            .into_iter()
            .map(|row| {
                let sum: f64 = row.iter().sum();
                if sum <= 0.0 {
                    let mut r = vec![0.0; row.len()];
                    r[0] = 1.0;
                    r
                } else {
                    row.into_iter().map(|v| v / sum).collect()
                }
            })
            .collect();
        TransitionMatrix::from_rows(rows).expect("normalized rows are stochastic")
    })
}

/// Strategy: a matrix interleaving deterministic one-hot rows with sparse
/// stochastic ones. One-hot q-rows against rows that are zero wherever q
/// is positive are the degenerate cases of Algorithm 1 (`d = 0` active
/// sets, `q/d` ratios with empty overlap) that the saturation guard and
/// the support-seeded candidate scan both have to handle.
fn degenerate_mix_matrix(n: usize) -> impl Strategy<Value = TransitionMatrix> {
    proptest::collection::vec(
        (0usize..2, 0..n, proptest::collection::vec(0.0f64..1.0, n)),
        n,
    )
    .prop_map(|rows| {
        let rows = rows
            .into_iter()
            .map(|(one_hot, col, row)| {
                let sum: f64 = row.iter().sum();
                if one_hot == 1 || sum <= 0.0 {
                    let mut r = vec![0.0; row.len()];
                    r[col] = 1.0;
                    r
                } else {
                    row.into_iter().map(|v| v / sum).collect()
                }
            })
            .collect();
        TransitionMatrix::from_rows(rows).expect("normalized rows are stochastic")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alg1_matches_brute_force(m in sparse_stochastic_matrix(5), alpha in 0.01f64..6.0) {
        let fast = temporal_loss(&m, alpha).unwrap();
        let brute = temporal_loss_brute_force(&m, alpha).unwrap();
        prop_assert!((fast - brute).abs() < 1e-9, "fast={fast} brute={brute}\n{m}");
    }

    #[test]
    fn alg1_matches_lp_baselines(m in stochastic_matrix(4), alpha in 0.05f64..3.0) {
        let fast = temporal_loss(&m, alpha).unwrap();
        let dk = temporal_loss_lp(&m, alpha, LpBaseline::Dinkelbach).unwrap();
        prop_assert!((fast - dk).abs() < 1e-6, "fast={fast} dk={dk}");
        let cc = temporal_loss_lp(&m, alpha, LpBaseline::CharnesCooper).unwrap();
        prop_assert!((fast - cc).abs() < 1e-5, "fast={fast} cc={cc}");
        let rev = temporal_loss_lp(&m, alpha, LpBaseline::CharnesCooperRevised).unwrap();
        prop_assert!((fast - rev).abs() < 1e-5, "fast={fast} rev={rev}");
    }

    #[test]
    fn remark1_bounds(m in sparse_stochastic_matrix(6), alpha in 0.0f64..20.0) {
        let l = temporal_loss(&m, alpha).unwrap();
        prop_assert!(l >= 0.0);
        prop_assert!(l <= alpha + 1e-9, "L(α) must not exceed α: {l} > {alpha}");
    }

    #[test]
    fn loss_is_monotone(m in stochastic_matrix(5), a in 0.01f64..5.0, delta in 0.01f64..5.0) {
        let l1 = temporal_loss(&m, a).unwrap();
        let l2 = temporal_loss(&m, a + delta).unwrap();
        prop_assert!(l2 >= l1 - 1e-10, "L must be monotone: L({a})={l1} > L({})={l2}", a + delta);
    }

    #[test]
    fn finite_supremum_dominates_series(m in stochastic_matrix(4), eps in 0.01f64..0.8) {
        if let Supremum::Finite(sup) = supremum_of_matrix(&m, eps).unwrap() {
            let series = leakage_series(&m, eps, 60).unwrap();
            for (t, &v) in series.iter().enumerate() {
                prop_assert!(v <= sup + 1e-7, "t={t}: {v} > sup {sup}");
            }
            // And the supremum is a fixed point: sup = L(sup) + eps.
            let resid = temporal_loss(&m, sup).unwrap() + eps - sup;
            prop_assert!(resid.abs() < 1e-7, "residual {resid}");
        }
    }

    #[test]
    fn bpl_series_is_monotone_under_uniform_budget(
        m in sparse_stochastic_matrix(4),
        eps in 0.01f64..1.0,
    ) {
        let series = leakage_series(&m, eps, 30).unwrap();
        for w in series.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-10);
        }
        prop_assert!((series[0] - eps).abs() < 1e-12, "BPL(1) = ε");
    }

    #[test]
    fn release_plans_bound_tpl(
        pb in stochastic_matrix(3),
        pf in stochastic_matrix(3),
        alpha in 0.2f64..3.0,
        t_len in 2usize..25,
    ) {
        let adv = AdversaryT::with_both(pb, pf).unwrap();
        for plan in [
            upper_bound_plan(&adv, alpha).unwrap(),
            quantified_plan(&adv, alpha, t_len).unwrap(),
        ] {
            let mut acc = TplAccountant::new(&adv);
            for t in 0..t_len {
                acc.observe_release(plan.budget_at(t)).unwrap();
            }
            let worst = acc.max_tpl().unwrap();
            prop_assert!(worst <= alpha + 1e-6, "worst={worst} alpha={alpha} kind={:?}", plan.kind);
        }
    }

    #[test]
    fn quantified_plan_is_exact_with_both_correlations(
        pb in stochastic_matrix(3),
        pf in stochastic_matrix(3),
        alpha in 0.2f64..2.0,
    ) {
        let adv = AdversaryT::with_both(pb, pf).unwrap();
        let t_len = 12;
        let plan = quantified_plan(&adv, alpha, t_len).unwrap();
        let mut acc = TplAccountant::new(&adv);
        for t in 0..t_len {
            acc.observe_release(plan.budget_at(t)).unwrap();
        }
        let tpl = acc.tpl_series().unwrap();
        // Exactness needs a genuinely binding correlation on both sides;
        // when a side is null the plan degenerates (still bounded, checked
        // above). Only assert exactness when both losses are non-null.
        let binding = !adv.backward_loss().unwrap().is_null()
            && !adv.forward_loss().unwrap().is_null();
        if binding {
            for (t, &v) in tpl.iter().enumerate() {
                prop_assert!((v - alpha).abs() < 1e-6, "t={t}: TPL={v} != α={alpha}");
            }
        }
    }

    #[test]
    fn pruned_and_naive_sweeps_are_bit_identical(
        m in sparse_stochastic_matrix(24),
        alpha in 0.01f64..30.0,
    ) {
        // The pruned sweep and the naive unpruned one must agree
        // exactly: same value bits, same maximizing pair, same active
        // subset.
        let naive = temporal_loss_witness_unpruned(&m, alpha).unwrap();
        let pruned = temporal_loss_witness(&m, alpha).unwrap();
        prop_assert_eq!(&pruned, &naive, "pruned vs naive at alpha={}", alpha);
        prop_assert_eq!(pruned.value.to_bits(), naive.value.to_bits());
    }

    #[test]
    fn reversal_is_stochastic_and_round_trips(m in stochastic_matrix(4)) {
        let chain = MarkovChain::uniform_start(m.clone());
        let pi = chain.stationary().unwrap();
        let rev = chain.reverse_with_prior(&pi).unwrap(); // validated type
        let back = MarkovChain::new(pi.clone(), rev).unwrap().reverse_with_prior(&pi).unwrap();
        prop_assert!(back.max_abs_diff(&m).unwrap() < 1e-6);
    }

    #[test]
    fn user_level_is_budget_sum_regardless_of_correlation(
        m in stochastic_matrix(3),
        budgets in proptest::collection::vec(0.01f64..1.0, 1..15),
    ) {
        let mut acc = TplAccountant::with_both(m.clone(), m).unwrap();
        for &b in &budgets {
            acc.observe_release(b).unwrap();
        }
        let sum: f64 = budgets.iter().sum();
        prop_assert!((acc.user_level() - sum).abs() < 1e-9);
        // Event-level TPL never exceeds the user-level guarantee.
        prop_assert!(acc.max_tpl().unwrap() <= sum + 1e-9);
    }
}

// The fast-engine equivalence corpus: heavier per case (brute force is
// exponential in n, the recursions run 50 steps), so it gets its own,
// smaller case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_engine_matches_brute_force_up_to_n12(
        m in (2usize..13).prop_flat_map(sparse_stochastic_matrix),
        base in 0.01f64..4.0,
    ) {
        // A sweep of α per matrix, reaching into the large-α saturation
        // regime where the ratio bound binds.
        for mult in [1.0, 2.5, 40.0] {
            let alpha = base * mult;
            let brute = temporal_loss_brute_force(&m, alpha).unwrap();
            let fast = temporal_loss(&m, alpha).unwrap();
            prop_assert!(
                (fast - brute).abs() < 1e-9,
                "alpha={alpha}: fast={fast} brute={brute}\n{m}"
            );
            // The engine agrees with the naive sweep exactly.
            let naive = temporal_loss_witness_unpruned(&m, alpha).unwrap();
            prop_assert_eq!(fast.to_bits(), naive.value.to_bits());
            let w = temporal_loss_witness(&m, alpha).unwrap();
            prop_assert_eq!(&w, &naive, "engine vs naive at alpha={}", alpha);
        }
    }

    #[test]
    fn warm_recursion_matches_cold_calls_for_t50(
        m in (2usize..13).prop_flat_map(sparse_stochastic_matrix),
        eps in 0.005f64..0.25,
    ) {
        // A full T=50 BPL recursion through one warm-started loss
        // function is bit-identical to 50 independent cold evaluations.
        let loss = TemporalLossFunction::new(m.clone());
        let mut warm = eps;
        let mut cold = eps;
        for t in 0..50 {
            warm = loss.eval(warm).unwrap() + eps;
            cold = temporal_loss(&m, cold).unwrap() + eps;
            prop_assert_eq!(warm.to_bits(), cold.to_bits(), "diverged at t={}", t);
        }
    }
}

// Engine differential corpus: pruning, support seeding, the SoA
// PairIndex and its lane-chunked build are pure layout/scheduling
// choices, so the engine must return the *same witness bits* as the
// naive unpruned sweep: value, maximizing pair, active subset, and the
// α-independent sums.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn engine_is_bit_identical_to_naive_up_to_n27(
        m in (2usize..28).prop_flat_map(sparse_stochastic_matrix),
        alpha in 0.01f64..30.0,
    ) {
        let naive = temporal_loss_witness_unpruned(&m, alpha).unwrap();
        let w = temporal_loss_witness(&m, alpha).unwrap();
        prop_assert_eq!(&w, &naive, "engine vs naive at alpha={}", alpha);
        prop_assert_eq!(w.value.to_bits(), naive.value.to_bits());
    }

    #[test]
    fn engine_matches_naive_on_degenerate_rows(
        m in (2usize..20).prop_flat_map(degenerate_mix_matrix),
        alpha in 0.01f64..30.0,
    ) {
        // Deterministic q-rows against (partially) disjoint d-rows reach
        // the saturated L(α) = α branch and empty active sets — the
        // paths where the support-seeded sweep diverging from the dense
        // scan would be most visible.
        let naive = temporal_loss_witness_unpruned(&m, alpha).unwrap();
        let w = temporal_loss_witness(&m, alpha).unwrap();
        prop_assert_eq!(&w, &naive, "engine vs naive at alpha={}\n{}", alpha, m);
        prop_assert_eq!(w.value.to_bits(), naive.value.to_bits());
    }
}

// Large-n randomized differential: sizes where the index build runs many
// full lanes (remainder handling, dense rows spanning dozens of chunks)
// and roadnet sparsity with deterministic one-way rows. The naive
// O(n³)-ish unpruned reference is the ground truth, so the case budget is
// small and matrices come from a seeded generator instead of proptest
// trees (shrinking a 256×256 matrix cell-by-cell is useless anyway).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn engine_matches_naive_at_large_n(
        seed in 0u64..u64::MAX,
        n in 64usize..=256,
        alpha in 0.05f64..20.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = roadnet_like(n, &mut rng).unwrap();
        let naive = temporal_loss_witness_unpruned(&m, alpha).unwrap();
        let w = temporal_loss_witness(&m, alpha).unwrap();
        prop_assert_eq!(&w, &naive, "engine vs naive at n={} alpha={}", n, alpha);
        prop_assert_eq!(w.value.to_bits(), naive.value.to_bits());
    }
}

// Formula-served evaluation: a loss function's table evaluates L(α)
// from closed forms `(Q·x + 1)/(D·x + 1)` wherever a pair's active set is
// proven constant, on 2-state matrices at every α and on larger ones
// across the piece table's range [2⁻¹⁰, 32]. The value-only path and the
// witnesses must be the naive sweep's bits there, at the range's two
// endpoints, and just outside it, where the warm-started sweep takes
// over. Road networks without restart are the shape whose piece lists
// carried tying pairs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn formula_served_values_and_witnesses_equal_the_unpruned_sweep(
        seed in 0u64..u64::MAX,
        n in 2usize..=32,
        kind in 0usize..3,
        sparse in (2usize..=32).prop_flat_map(sparse_stochastic_matrix),
        spread in proptest::collection::vec(0.0f64..1.0, 12),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = match kind {
            0 => TransitionMatrix::random_uniform(n, &mut rng).unwrap(),
            1 => sparse,
            _ => roadnet_like(n, &mut rng).unwrap(),
        };
        let n = m.n();
        let (lo, hi) = (1.0f64 / 1024.0, 32.0f64);
        let mut alphas: Vec<f64> = spread.iter().map(|u| lo * (hi / lo).powf(*u)).collect();
        alphas.extend([lo, hi, lo.next_down(), hi.next_up(), lo / 2.0, 40.0, 0.0]);
        let loss = TemporalLossFunction::new(m.clone());
        let mut ev = loss.evaluator();
        for &alpha in &alphas {
            let naive = temporal_loss_witness_unpruned(&m, alpha).unwrap();
            let bits = naive.value.to_bits();
            prop_assert_eq!(loss.eval(alpha).unwrap().to_bits(), bits, "n={} alpha={}\n{}", n, alpha, m);
            prop_assert_eq!(ev.eval(alpha).unwrap().to_bits(), bits, "n={} alpha={}", n, alpha);
            prop_assert_eq!(&loss.witness(alpha).unwrap(), &naive, "n={} alpha={}", n, alpha);
            prop_assert_eq!(ev.witness(alpha).unwrap(), &naive, "n={} alpha={}", n, alpha);
        }
    }
}

// Streaming-engine invariants (PR 2): the accountant's version-stamped
// series cache and the batched multi-ε APIs must be behaviorally
// invisible — bit-identical to fresh recomputation — under arbitrary
// interleavings of observation, queries, audits, and serde round-trips.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_accountant_matches_fresh_recompute_under_interleaving(
        m in stochastic_matrix(3),
        budgets in proptest::collection::vec(0.01f64..1.0, 1..16),
        ops in proptest::collection::vec(0usize..8, 4..24),
    ) {
        use tcdp::core::composition::w_event_guarantee;
        let adv = AdversaryT::with_both(m.clone(), m).unwrap();
        let mut acc = TplAccountant::new(&adv);
        for (i, &op) in ops.iter().enumerate() {
            let observed = acc.len();
            match op {
                0 => {
                    acc.observe_release(budgets[observed % budgets.len()]).unwrap();
                }
                1 if observed > 0 => {
                    acc.tpl_at(i % observed).unwrap();
                }
                2 if observed > 0 => {
                    w_event_guarantee(&acc, 1 + i % observed).unwrap();
                }
                3 => {
                    // A snapshot taken before any query at this revision
                    // carries no series: the restored accountant starts
                    // with a cold cache and must continue the stream
                    // seamlessly.
                    acc.observe_release(budgets[observed % budgets.len()]).unwrap();
                    acc = match resume_bytes(&acc.checkpoint_binary(), None).unwrap() {
                        SavedState::Tpl(a) => a,
                        _ => unreachable!("tpl snapshot"),
                    };
                }
                4 | 5 => {
                    // A checkpointed-and-resumed accountant carries its
                    // caches and warm witnesses along through the
                    // validated restore path and must also continue the
                    // stream seamlessly.
                    let bytes = acc.checkpoint_binary();
                    acc = match resume_bytes(&bytes, None).unwrap() {
                        SavedState::Tpl(a) => a,
                        _ => unreachable!("tpl snapshot"),
                    };
                }
                6 => {
                    // Incremental: snapshot now, observe one release
                    // live, extract the delta, and replace the live
                    // accountant by the snapshot+delta replay — it must
                    // keep matching the fresh recompute bit for bit.
                    let snapshot = acc.checkpoint_binary();
                    let cursor = acc.delta_cursor();
                    acc.observe_release(budgets[acc.len() % budgets.len()]).unwrap();
                    let delta = acc.checkpoint_delta(&cursor).unwrap();
                    acc = match resume_bytes(&snapshot, Some(&delta.to_bytes())).unwrap() {
                        SavedState::Tpl(a) => a,
                        _ => unreachable!("tpl snapshot"),
                    };
                }
                7 => {
                    // Zero-copy differential: the mmap view of a fresh
                    // snapshot file and the mmap-backed resume answer
                    // bit-identically to the copying paths, and the
                    // mmap-resumed accountant feeds back into the
                    // interleaving.
                    use tcdp::core::checkpoint::{resume_file, write_atomic, MappedSnapshot};
                    let bytes = acc.checkpoint_binary();
                    let path = std::env::temp_dir().join(format!(
                        "tcdp_prop_interleave_mmap_{}.bin",
                        std::process::id()
                    ));
                    write_atomic(&path, &bytes).unwrap();
                    let copied = match resume_bytes(&bytes, None).unwrap() {
                        SavedState::Tpl(a) => a,
                        _ => unreachable!("tpl snapshot"),
                    };
                    let mapped = MappedSnapshot::open(&path).unwrap();
                    let view = mapped.view().unwrap();
                    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(view.num_shards(), 1);
                    prop_assert_eq!(bits(view.bpl(0).unwrap()), bits(copied.bpl_series()));
                    prop_assert_eq!(bits(view.timeline(0).unwrap()), bits(&copied.budgets()));
                    if let Some(max) = view.max_cached_tpl().unwrap() {
                        prop_assert_eq!(
                            max.to_bits(),
                            copied.max_tpl().unwrap().to_bits()
                        );
                    }
                    drop(mapped);
                    let resumed = match resume_file(&path).unwrap() {
                        SavedState::Tpl(a) => a,
                        _ => unreachable!("tpl snapshot"),
                    };
                    std::fs::remove_file(&path).ok();
                    prop_assert_eq!(
                        bits(&resumed.tpl_series().unwrap()),
                        bits(&copied.tpl_series().unwrap())
                    );
                    acc = resumed;
                }
                _ => {}
            }
            // Replay everything observed so far into a fresh accountant:
            // every cached answer must match the recompute bit for bit.
            let mut fresh = TplAccountant::new(&adv);
            for &b in &acc.budgets() {
                fresh.observe_release(b).unwrap();
            }
            let to_bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            prop_assert_eq!(
                to_bits(acc.tpl_series().unwrap()),
                to_bits(fresh.tpl_series().unwrap())
            );
            prop_assert_eq!(
                to_bits(acc.fpl_series().unwrap()),
                to_bits(fresh.fpl_series().unwrap())
            );
            if !acc.is_empty() {
                prop_assert_eq!(
                    acc.max_tpl().unwrap().to_bits(),
                    fresh.max_tpl().unwrap().to_bits()
                );
                let w = 1 + i % acc.len();
                prop_assert_eq!(
                    w_event_guarantee(&acc, w).unwrap().to_bits(),
                    w_event_guarantee(&fresh, w).unwrap().to_bits()
                );
                let t = i % acc.len();
                prop_assert_eq!(
                    acc.tpl_at(t).unwrap().to_bits(),
                    fresh.tpl_at(t).unwrap().to_bits()
                );
            }
        }
    }

    /// Differential: a folded accountant under a small horizon answers
    /// every live-window query bit-identically to an unfolded twin fed
    /// the same stream, across random observe / query / checkpoint
    /// interleavings — including arming the fold mid-stream and binary
    /// snapshot + delta resume while folded. The boundary indices
    /// `t = live_start` and `w = horizon` are probed on every step, and
    /// folded-history answers must dominate the twin's true values.
    #[test]
    fn folded_accountant_is_a_bit_identical_window_of_the_unfolded_one(
        m in stochastic_matrix(3),
        horizon in 2usize..8,
        budgets in proptest::collection::vec(0.01f64..1.0, 1..12),
        ops in proptest::collection::vec(0usize..6, 6..28),
    ) {
        use tcdp::core::composition::{sequence_guarantee, w_event_guarantee};
        let adv = AdversaryT::with_both(m.clone(), m).unwrap();
        let mut folded = TplAccountant::new(&adv);
        let mut unfolded = TplAccountant::new(&adv);
        let mut armed = false;
        for &op in &ops {
            match op {
                0 | 1 => {
                    let b = budgets[folded.len() % budgets.len()];
                    folded.observe_release(b).unwrap();
                    unfolded.observe_release(b).unwrap();
                }
                2 if !armed => {
                    // Arm the fold mid-stream; history already past the
                    // horizon folds on the next push.
                    folded.set_horizon(Some(horizon)).unwrap();
                    armed = true;
                }
                3 | 4 => {
                    // Binary snapshot + resume while folded.
                    let bytes = folded.checkpoint_binary();
                    folded = match resume_bytes(&bytes, None).unwrap() {
                        SavedState::Tpl(a) => a,
                        _ => unreachable!("tpl snapshot"),
                    };
                }
                5 => {
                    // Incremental: snapshot, observe live, replay the
                    // delta — mid-stream fold + resume in one step.
                    let snapshot = folded.checkpoint_binary();
                    let cursor = folded.delta_cursor();
                    let b = budgets[folded.len() % budgets.len()];
                    folded.observe_release(b).unwrap();
                    unfolded.observe_release(b).unwrap();
                    let delta = folded.checkpoint_delta(&cursor).unwrap();
                    folded = match resume_bytes(&snapshot, Some(&delta.to_bytes())).unwrap() {
                        SavedState::Tpl(a) => a,
                        _ => unreachable!("tpl snapshot"),
                    };
                }
                _ => {}
            }
            prop_assert_eq!(folded.len(), unfolded.len());
            if folded.is_empty() {
                continue;
            }
            let t_len = folded.len();
            let live = folded.live_start();
            let expected = if armed { t_len.saturating_sub(horizon) } else { 0 };
            prop_assert_eq!(live, expected);
            prop_assert_eq!(
                folded.user_level().to_bits(),
                unfolded.user_level().to_bits()
            );
            for t in live..t_len {
                prop_assert_eq!(
                    folded.bpl_at(t).unwrap().to_bits(),
                    unfolded.bpl_at(t).unwrap().to_bits()
                );
                prop_assert_eq!(
                    folded.fpl_at(t).unwrap().to_bits(),
                    unfolded.fpl_at(t).unwrap().to_bits()
                );
                prop_assert_eq!(
                    folded.tpl_at(t).unwrap().to_bits(),
                    unfolded.tpl_at(t).unwrap().to_bits()
                );
            }
            for t in 0..live {
                // Folded history: a sound upper bound, never an
                // understatement of the discarded values.
                prop_assert!(folded.bpl_at(t).unwrap() >= unfolded.bpl_at(t).unwrap());
                prop_assert!(folded.fpl_at(t).unwrap() >= unfolded.fpl_at(t).unwrap());
                prop_assert!(folded.tpl_at(t).unwrap() >= unfolded.tpl_at(t).unwrap());
                prop_assert!(folded.window_budget_sum(t, 1).is_err());
            }
            prop_assert!(folded.max_tpl().unwrap() >= unfolded.max_tpl().unwrap());
            // Window queries, with w = horizon as the boundary case.
            for w in [1usize, horizon.min(t_len)] {
                for t in live..=(t_len.saturating_sub(w)).max(live) {
                    if t + w > t_len {
                        continue;
                    }
                    prop_assert_eq!(
                        folded.window_budget_sum(t, w).unwrap().to_bits(),
                        unfolded.window_budget_sum(t, w).unwrap().to_bits()
                    );
                }
                if w > t_len {
                    continue;
                }
                if t_len - w < live {
                    // No live window of this width fits: typed error,
                    // not a silently wrong sweep.
                    prop_assert!(w_event_guarantee(&folded, w).is_err());
                    continue;
                }
                // The folded sweep is the bit-exact maximum over the
                // live subset of windows, and bounded by the full sweep.
                let folded_g = w_event_guarantee(&folded, w).unwrap();
                prop_assert!(folded_g <= w_event_guarantee(&unfolded, w).unwrap());
                let live_max = (live..=(t_len - w))
                    .map(|t| sequence_guarantee(&unfolded, t, w - 1).unwrap().to_bits())
                    .fold(f64::NEG_INFINITY.to_bits(), |a, b| {
                        f64::from_bits(a).max(f64::from_bits(b)).to_bits()
                    });
                prop_assert_eq!(folded_g.to_bits(), live_max);
            }
        }
    }

    #[test]
    fn eval_many_is_bit_equal_to_mapped_eval(
        m in sparse_stochastic_matrix(5),
        grid in proptest::collection::vec(0.0f64..20.0, 1..16),
    ) {
        let loss = TemporalLossFunction::new(m.clone());
        // Random probe order...
        let batched = loss.eval_many(&grid).unwrap();
        for (&alpha, &b) in grid.iter().zip(&batched) {
            let cold = temporal_loss(&m, alpha).unwrap();
            prop_assert_eq!(cold.to_bits(), b.to_bits(), "alpha={}", alpha);
        }
        // ...and the sorted grid (the intended warm-start fast path).
        let mut sorted = grid.clone();
        sorted.sort_by(f64::total_cmp);
        for (&alpha, &b) in sorted.iter().zip(&loss.eval_many(&sorted).unwrap()) {
            let cold = temporal_loss(&m, alpha).unwrap();
            prop_assert_eq!(cold.to_bits(), b.to_bits(), "sorted alpha={}", alpha);
        }
    }

    #[test]
    fn population_checkpoint_resume_is_transparent_mid_stream(
        m in stochastic_matrix(3),
        m2 in stochastic_matrix(3),
        budgets in proptest::collection::vec(0.01f64..0.8, 2..12),
        cut in 0usize..12,
    ) {
        // A population stopped at an arbitrary point and resumed from
        // its checkpoint finishes the stream bit-identically to one that
        // never stopped.
        let adversaries = vec![
            AdversaryT::with_both(m.clone(), m2.clone()).unwrap(),
            AdversaryT::with_backward(m2),
            AdversaryT::traditional(),
            AdversaryT::with_both(m.clone(), m).unwrap(),
        ];
        let cut = cut % budgets.len();
        let mut pop = PopulationAccountant::new(&adversaries).unwrap();
        let mut uninterrupted = PopulationAccountant::new(&adversaries).unwrap();
        for &b in &budgets[..cut] {
            pop.observe_release(b).unwrap();
            uninterrupted.observe_release(b).unwrap();
        }
        let mut resumed = match resume_bytes(&pop.checkpoint_binary(), None).unwrap() {
            SavedState::Population(p) => p,
            _ => unreachable!("population snapshot"),
        };
        for &b in &budgets[cut..] {
            resumed.observe_release(b).unwrap();
            uninterrupted.observe_release(b).unwrap();
        }
        let to_bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            to_bits(resumed.tpl_series().unwrap()),
            to_bits(uninterrupted.tpl_series().unwrap())
        );
        prop_assert_eq!(
            resumed.max_tpl().unwrap().to_bits(),
            uninterrupted.max_tpl().unwrap().to_bits()
        );
        prop_assert_eq!(
            resumed.most_exposed_user().unwrap(),
            uninterrupted.most_exposed_user().unwrap()
        );
        // The same stop point through the *binary* encoding plus an
        // incremental delta record covering the continuation: the
        // snapshot+delta replay must land on the identical state.
        let mut live = PopulationAccountant::new(&adversaries).unwrap();
        for &b in &budgets[..cut] {
            live.observe_release(b).unwrap();
        }
        let snapshot = live.checkpoint_binary();
        let cursor = live.delta_cursor();
        for &b in &budgets[cut..] {
            live.observe_release(b).unwrap();
        }
        let delta = live.checkpoint_delta(&cursor).unwrap();
        let bin_resumed = match resume_bytes(&snapshot, Some(&delta.to_bytes())).unwrap() {
            SavedState::Population(p) => p,
            _ => unreachable!("population snapshot"),
        };
        prop_assert_eq!(
            to_bits(bin_resumed.tpl_series().unwrap()),
            to_bits(uninterrupted.tpl_series().unwrap())
        );
        prop_assert_eq!(
            bin_resumed.most_exposed_user().unwrap(),
            uninterrupted.most_exposed_user().unwrap()
        );
    }

    #[test]
    fn supremum_many_is_bit_equal_to_single_probes(
        m in stochastic_matrix(4),
        grid in proptest::collection::vec(0.01f64..0.8, 1..8),
    ) {
        use tcdp::core::supremum_of_loss_many;
        let loss = TemporalLossFunction::new(m.clone());
        let mut sorted = grid.clone();
        sorted.sort_by(f64::total_cmp);
        let many = supremum_of_loss_many(&loss, &sorted).unwrap();
        for (&eps, &s) in sorted.iter().zip(&many) {
            let single = supremum_of_matrix(&m, eps).unwrap();
            match (s, single) {
                (Supremum::Finite(a), Supremum::Finite(b)) => {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "eps={}", eps)
                }
                (a, b) => prop_assert_eq!(a, b, "eps={}", eps),
            }
        }
    }
}

// The sharded-population differential harness: the grouped
// PopulationAccountant must be bit-identical to the naive
// per-user reference — every per-user series, the population series, the
// maximum, and the argmax winner — across random adversary mixes and
// release interleavings, at the acceptance scale (≥ 200 users over ≥ 8
// distinct adversaries). Heavier per case, so it gets a small case
// budget of its own.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_population_is_bit_identical_to_naive_reference(
        patterns in proptest::collection::vec(stochastic_matrix(3), 8usize..11),
        kinds in proptest::collection::vec(0usize..4, 200..241),
        budgets in proptest::collection::vec(0.01f64..0.5, 4..10),
        query_at in 0usize..4,
    ) {
        // Random mix: the first |patterns| users pin one both-sides
        // adversary per pattern (guaranteeing ≥ 8 distinct shards); the
        // rest draw a random kind over a pattern cycle.
        let adversaries: Vec<AdversaryT> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let p = patterns[i % patterns.len()].clone();
                match if i < patterns.len() { 0 } else { kind } {
                    0 => AdversaryT::with_both(p.clone(), p).unwrap(),
                    1 => AdversaryT::with_backward(p),
                    2 => AdversaryT::with_forward(p),
                    _ => AdversaryT::traditional(),
                }
            })
            .collect();
        let mut pop = PopulationAccountant::new(&adversaries).unwrap();
        prop_assert!(pop.num_users() >= 200);
        prop_assert!(
            pop.num_groups() >= patterns.len(),
            "expected at least {} shards, got {}",
            patterns.len(),
            pop.num_groups()
        );
        // The naive reference: one standalone accountant per user, no
        // sharing, no sharding.
        let mut naive: Vec<TplAccountant> =
            adversaries.iter().map(TplAccountant::new).collect();

        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (t, &b) in budgets.iter().enumerate() {
            pop.observe_release(b).unwrap();
            for acc in &mut naive {
                acc.observe_release(b).unwrap();
            }
            // Interleave a full audit mid-stream and at the end.
            if t != query_at && t + 1 != budgets.len() {
                continue;
            }
            let mut merged: Option<Vec<f64>> = None;
            let mut naive_max = f64::NEG_INFINITY;
            let mut naive_argmax = (0usize, f64::NEG_INFINITY);
            for (i, acc) in naive.iter().enumerate() {
                let series = acc.tpl_series().unwrap();
                let user_max = acc.max_tpl().unwrap();
                naive_max = naive_max.max(user_max);
                if user_max > naive_argmax.1 {
                    naive_argmax = (i, user_max);
                }
                merged = Some(match merged {
                    None => series,
                    Some(prev) => {
                        prev.iter().zip(&series).map(|(a, b)| a.max(*b)).collect()
                    }
                });
            }
            let merged = merged.unwrap();
            prop_assert_eq!(
                to_bits(&pop.tpl_series().unwrap()),
                to_bits(&merged),
                "population series diverged at t={}",
                t
            );
            prop_assert_eq!(pop.max_tpl().unwrap().to_bits(), naive_max.to_bits());
            prop_assert_eq!(pop.most_exposed_user().unwrap(), naive_argmax.0);
            // Spot-check per-user views across every shard.
            for i in (0..naive.len()).step_by(17) {
                prop_assert_eq!(
                    to_bits(&pop.user(i).unwrap().tpl_series().unwrap()),
                    to_bits(&naive[i].tpl_series().unwrap()),
                    "user {} diverged at t={}",
                    i,
                    t
                );
            }
        }
    }

    #[test]
    fn heterogeneous_timelines_are_bit_identical_to_naive_reference(
        patterns in proptest::collection::vec(stochastic_matrix(3), 8usize..10),
        kinds in proptest::collection::vec(0usize..4, 200..221),
        tiers in 2usize..5,
        tier_eps in proptest::collection::vec(
            proptest::collection::vec(0.01f64..0.5, 4), 4..9),
        checkpoint_at in 0usize..4,
    ) {
        // Users with *distinct* per-user budget timelines: the population
        // is cut into contiguous tiers (one ε per tier per release,
        // drawn independently each step), across ≥ 8 distinct-adversary
        // mixed groups. The sharded engine must stay bit-identical to
        // the naive per-user reference — per-user series, population
        // series, max, argmax — with a checkpoint round-trip spliced into
        // the stream.
        let adversaries: Vec<AdversaryT> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let p = patterns[i % patterns.len()].clone();
                match if i < patterns.len() { 0 } else { kind } {
                    0 => AdversaryT::with_both(p.clone(), p).unwrap(),
                    1 => AdversaryT::with_backward(p),
                    2 => AdversaryT::with_forward(p),
                    _ => AdversaryT::traditional(),
                }
            })
            .collect();
        let num_users = adversaries.len();
        let ranges = tcdp::data::population::tier_ranges(num_users, tiers).unwrap();
        let mut pop = PopulationAccountant::new(&adversaries).unwrap();
        prop_assert!(pop.num_users() >= 200);
        prop_assert!(pop.num_groups() >= patterns.len());
        let mut naive: Vec<TplAccountant> =
            adversaries.iter().map(TplAccountant::new).collect();
        let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (t, eps_of_tier) in tier_eps.iter().enumerate() {
            let assignments: Vec<(std::ops::Range<usize>, f64)> = ranges
                .iter()
                .enumerate()
                .map(|(k, r)| (r.clone(), eps_of_tier[k % eps_of_tier.len()]))
                .collect();
            pop.observe_release_personalized(&assignments).unwrap();
            for (i, acc) in naive.iter_mut().enumerate() {
                let eps = assignments
                    .iter()
                    .find(|(r, _)| r.contains(&i))
                    .expect("ranges cover every user")
                    .1;
                acc.observe_release(eps).unwrap();
            }
            if t == checkpoint_at {
                // Mid-stream checkpoint round-trip of the heterogeneous
                // population: the resumed accountant must keep matching
                // the naive reference (and keep its timeline sharing).
                let timelines = pop.num_timelines();
                pop = match resume_bytes(&pop.checkpoint_binary(), None).unwrap() {
                    SavedState::Population(p) => p,
                    _ => unreachable!("population snapshot"),
                };
                prop_assert_eq!(pop.num_timelines(), timelines);
            }
            // Timeline classes never exceed the distinct budget
            // sequences the tiers can produce.
            prop_assert!(pop.num_timelines() <= tiers);
            let mut merged: Option<Vec<f64>> = None;
            let mut naive_max = f64::NEG_INFINITY;
            let mut naive_argmax = (0usize, f64::NEG_INFINITY);
            for (i, acc) in naive.iter().enumerate() {
                let series = acc.tpl_series().unwrap();
                let user_max = acc.max_tpl().unwrap();
                naive_max = naive_max.max(user_max);
                if user_max > naive_argmax.1 {
                    naive_argmax = (i, user_max);
                }
                merged = Some(match merged {
                    None => series,
                    Some(prev) => {
                        prev.iter().zip(&series).map(|(a, b)| a.max(*b)).collect()
                    }
                });
            }
            let merged = merged.unwrap();
            prop_assert_eq!(
                to_bits(&pop.tpl_series().unwrap()),
                to_bits(&merged),
                "population series diverged at t={}",
                t
            );
            prop_assert_eq!(pop.max_tpl().unwrap().to_bits(), naive_max.to_bits());
            prop_assert_eq!(pop.most_exposed_user().unwrap(), naive_argmax.0);
            for i in (0..naive.len()).step_by(13) {
                prop_assert_eq!(
                    to_bits(&pop.user(i).unwrap().tpl_series().unwrap()),
                    to_bits(&naive[i].tpl_series().unwrap()),
                    "user {} diverged at t={}",
                    i,
                    t
                );
            }
        }
    }
}

/// Acceptance guard for per-user budget timelines at scale: a
/// 10 000-user population over 8 distinct adversaries and 8 distinct
/// budget timelines audits **bit-identically** to the naive per-user
/// reference, and a checkpoint stop/resume in the middle of the stream changes
/// nothing. Shard count stays at (adversaries × timelines), never O(N).
#[test]
fn ten_thousand_users_with_eight_timelines_match_naive_reference() {
    const USERS: usize = 10_000;
    const TIERS: usize = 8;
    let patterns: Vec<TransitionMatrix> = (0..8u32)
        .map(|k| {
            let stay = 0.55 + 0.05 * f64::from(k);
            let back = 0.10 + 0.03 * f64::from(k);
            TransitionMatrix::from_rows(vec![vec![stay, 1.0 - stay], vec![back, 1.0 - back]])
                .unwrap()
        })
        .collect();
    let adversaries: Vec<AdversaryT> = (0..USERS)
        .map(|i| {
            let p = patterns[i % patterns.len()].clone();
            AdversaryT::with_both(p.clone(), p).unwrap()
        })
        .collect();
    let ranges = tcdp::data::population::tier_ranges(USERS, TIERS).unwrap();
    let tier_eps = |t: usize, k: usize| 0.02 + 0.01 * ((t + k) % TIERS) as f64;

    let mut pop = PopulationAccountant::new(&adversaries).unwrap();
    assert_eq!(pop.num_groups(), 8, "sharded by distinct adversary");
    // The naive reference: one standalone accountant per user.
    let mut naive: Vec<TplAccountant> = adversaries.iter().map(TplAccountant::new).collect();
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let t_len = 5;
    for t in 0..t_len {
        let assignments: Vec<(std::ops::Range<usize>, f64)> = ranges
            .iter()
            .enumerate()
            .map(|(k, r)| (r.clone(), tier_eps(t, k)))
            .collect();
        pop.observe_release_personalized(&assignments).unwrap();
        for (k, r) in ranges.iter().enumerate() {
            for i in r.clone() {
                naive[i].observe_release(tier_eps(t, k)).unwrap();
            }
        }
        if t == 2 {
            // Stop and resume mid-stream; the audit must not notice.
            pop = match resume_bytes(&pop.checkpoint_binary(), None).unwrap() {
                SavedState::Population(p) => p,
                _ => unreachable!("population snapshot"),
            };
        }
    }
    assert_eq!(pop.num_timelines(), TIERS, "8 distinct budget timelines");
    assert_eq!(
        pop.num_groups(),
        8 * TIERS,
        "shards = adversaries × timelines, not users"
    );

    let mut merged: Option<Vec<f64>> = None;
    let mut naive_max = f64::NEG_INFINITY;
    let mut naive_argmax = (0usize, f64::NEG_INFINITY);
    for (i, acc) in naive.iter().enumerate() {
        let series = acc.tpl_series().unwrap();
        let user_max = acc.max_tpl().unwrap();
        naive_max = naive_max.max(user_max);
        if user_max > naive_argmax.1 {
            naive_argmax = (i, user_max);
        }
        merged = Some(match merged {
            None => series,
            Some(prev) => prev.iter().zip(&series).map(|(a, b)| a.max(*b)).collect(),
        });
    }
    let merged = merged.unwrap();
    assert_eq!(to_bits(&pop.tpl_series().unwrap()), to_bits(&merged));
    assert_eq!(pop.max_tpl().unwrap().to_bits(), naive_max.to_bits());
    assert_eq!(pop.most_exposed_user().unwrap(), naive_argmax.0);
    for i in (0..USERS).step_by(997) {
        assert_eq!(
            to_bits(&pop.user(i).unwrap().tpl_series().unwrap()),
            to_bits(&naive[i].tpl_series().unwrap()),
            "user {i}"
        );
    }
}
