//! Algorithm 1 — polynomial-time temporal loss evaluation, fast engine.
//!
//! Given a transition matrix `P` (backward or forward) and the previous
//! BPL / next FPL value `α`, the temporal loss functions of Equations (23)
//! and (24) are
//!
//! ```text
//! L(α) = max_{q,d rows of P} log (q(e^α − 1) + 1) / (d(e^α − 1) + 1)
//! ```
//!
//! where `q = Σ q⁺` and `d = Σ d⁺` sum over the *active subset* of
//! coefficient pairs characterized by Theorem 4's inequalities (21)/(22).
//! Algorithm 1 finds that subset per ordered row pair:
//!
//! 1. seed the candidate set with every index `j` where `q_j > d_j`
//!    (Corollary 2's necessary condition);
//! 2. repeatedly discard candidates violating Inequality (21)
//!    `q_j/d_j > (q(e^α−1)+1)/(d(e^α−1)+1)`, recomputing `q, d` after each
//!    sweep (the paper proves discarded pairs can never re-enter);
//! 3. the surviving sums give the optimum.
//!
//! Per pair this runs in `O(n²)` worst case (each sweep is `O(n)` and at
//! least one candidate is discarded per sweep), giving `O(n⁴)` over all row
//! pairs — the polynomial bound claimed in Section IV-B, versus the
//! exponential worst case of the simplex baselines in [`tcdp_lp`].
//!
//! # The fast engine
//!
//! On top of the textbook algorithm this module layers three
//! optimizations that leave results **bit-identical** to the naive sweep:
//!
//! * **Zero-allocation inner loop** — [`solve_pair`] works over three
//!   reusable scratch buffers (candidate indices and their `q`/`d`
//!   coefficients) compacted in place each discard sweep, instead of
//!   building a fresh `Vec<(usize, f64, f64)>` per row pair.
//! * **Sparse-row fast path** — [`PairIndex`] records each row's
//!   positive-entry support; candidate seeding iterates only the
//!   numerator row's nonzeros (a Corollary-2 candidate needs
//!   `q_j > d_j ≥ 0`, so zero entries can never enter), turning the
//!   per-pair seed scan from `O(n)` into `O(nnz)` on the
//!   near-deterministic matrices the strongest correlations produce —
//!   with results bit-identical to the dense scan (same candidates,
//!   same order, property-tested).
//! * **Pair pruning** — [`PairIndex`] precomputes two α-independent upper
//!   bounds per ordered pair `(a, b)` with candidate set
//!   `C = {j : q_j > d_j}`:
//!
//!   * the *gap bound*: with `g₀ = Σ_{j∈C} (q_j − d_j)` (the total
//!     variation distance between the rows), every subset `S ⊆ C` has
//!     `q_S − d_S ≤ g₀`, so
//!     `obj = 1 + (q_S−d_S)(e^α−1)/(d_S(e^α−1)+1) ≤ 1 + g₀(e^α−1)`.
//!     This refines the coarser mass bound `q₀(e^α−1)+1` from the
//!     issue sketch (`g₀ ≤ q₀ = Σ_{j∈C} q_j`) and is tight exactly in
//!     the small-α regime where the leakage recursions operate;
//!   * the *ratio bound* `r_max = max_{j∈C} q_j/d_j` (`∞` when some
//!     `d_j = 0`): the objective is a mediant of the component ratios
//!     `q_j/d_j` and `1/1`, hence `obj ≤ max(r_max, 1)`. This one is
//!     tight in the large-α regime, where the objective saturates at
//!     `q_S/d_S`.
//!
//!   A pair is excluded as soon as *either* bound falls below the best
//!   objective found. Pairs are sorted by `g₀` descending, so the gap
//!   bound decreases monotonically along the sweep and the first pair
//!   whose gap bound is beaten ends the sweep outright; pairs surviving
//!   the gap test are skipped in `O(1)` when their ratio bound is
//!   beaten. Pairs with `g₀ = 0` can never exceed `L = 0` and are
//!   dropped from the index at build time.
//! * **Duplicate-free index** — [`PairIndex::new`] keeps only the lowest
//!   `(q_row, d_row)` among ordered pairs whose Corollary-2 candidates
//!   (the `(j, q_j, d_j)` with `q_j > d_j`, ascending `j`) are bitwise
//!   equal. The per-pair solve sees nothing else of a pair, so such
//!   pairs give the same sums and objective at every α, and the sweep's
//!   tie-break (below) always picks the lowest of them: dropping the rest
//!   cannot change a result. On the matrices the daemon serves most
//!   ordered pairs are such copies — a click-stream row `a` has the one
//!   candidate `a` against every other row, and a road row with a
//!   uniform restart has the same candidates against every row far from
//!   it: the `ceiling` mix's 16/21/26/32-state shards keep 16/256/26/381
//!   of their 240/420/650/992 ordered pairs. Both bound reductions sum
//!   `g₀` in the same lane order, so equal candidates give bitwise-equal
//!   `(g₀, r_max)`: duplicates are grouped by the sweep-order sort itself
//!   (no hash collections, no extra pass on dense rows) and confirmed by
//!   comparing the candidate lists. Sparse rows, whose pairs are mostly
//!   copies, are deduplicated row by row as they are built.
//! * **Witness warm-start** — the recursions that drive this engine
//!   (`BPL(t) = L(BPL(t−1)) + ε_t` and friends) evaluate `L` at a slowly
//!   moving sequence of α values under one fixed matrix, and the
//!   maximizing pair and its active subset are usually stable from step
//!   to step. [`temporal_loss_witness_indexed`] therefore accepts the
//!   previous step's [`LossWitness`] (with its active index set) and
//!   re-validates it against Theorem 4's sufficient optimality conditions
//!   (21)/(22) in `O(n)`: the subset's sums are α-independent, so only
//!   the inequalities need re-checking at the new α. A validated witness
//!   seeds the pruned sweep, which then typically terminates after a
//!   handful of bound comparisons — turning a T-step recursion from
//!   `T·O(n⁴)` into roughly `O(n⁴) + T·O(n)`. When validation fails the
//!   pair is re-solved from scratch and the full pruned sweep runs.
//! * **Batched sessions** — an `EvalSession` (checked out through
//!   [`crate::loss::LossEvaluator`]) pins one scratch set and the warm
//!   witness across a whole α batch or search loop, so the recursions,
//!   bisections, and multi-ε grids above allocate nothing and touch no
//!   lock per probe.
//!
//! Every evaluation runs on the calling thread: one piece-table lookup
//! (next section) or one serial pruned sweep. The sweep's incumbent
//! order — maximum value, ties broken toward the lowest `(q_row, d_row)`
//! — is the naive row-major sweep's, so pruning, warm starts and the
//! table never change a result. Parallelism lives above this module:
//! across tenants and requests, and across the population's shards
//! ([`crate::personalized`]).
//!
//! # The piece table: Algorithm 1 once per matrix
//!
//! Theorem 4's active set is a threshold set on `q_j/d_j`, so for a
//! fixed matrix `L(α)` is the upper envelope of the functions
//! `ln((Q·x + 1)/(D·x + 1))`, `x = e^α − 1`, one per row pair and
//! ratio-sorted prefix of its candidates. Any two of them cross at most
//! once for `x > 0`. A [`crate::TemporalLossFunction`] builds a
//! `PieceTable` of that envelope over a fixed α range
//! (`TABLE_ALPHA`, `[2⁻¹⁰, 32]`) on its first evaluation, and serves
//! every α in the range from it as a formula — the maximum of a few
//! closed forms `(Q·x + 1)/(D·x + 1)` and one `ln` — instead of a sweep:
//!
//! * **Pieces.** Sweeps at both ends of the range give two winning
//!   functions; if they differ, their crossing
//!   `x* = (Q₂ + D₁ − Q₁ − D₂)/(Q₁·D₂ − Q₂·D₁)` is confirmed by one sweep
//!   at `x*`, or a third function wins there and both halves recurse.
//!   Functions compare by their `(q_sum, d_sum)` bits, so exact ties do
//!   not recurse.
//! * **Rival lists.** Each piece lists its winner's pair and every other
//!   index pair with a ratio-sorted prefix whose objective is not
//!   provably `≤ (1 − δ)×` the winner's over the whole piece. For one
//!   prefix `(Q, D)` against the winner `(Q_W, D_W)`, the difference
//!   `h(x) = (1 − δ)(Q_W·x + 1)(D·x + 1) − (Q·x + 1)(D_W·x + 1)` is a
//!   quadratic (at most two real roots) with `h(0) = −δ < 0`. When
//!   `h > 0` at both ends of the piece, one root lies below the piece,
//!   so no two lie inside it and `h > 0` on all of it: the test is two
//!   point evaluations per prefix. Pairs are
//!   first screened with their `g₀`/`r_max` bounds (the gap bound is such
//!   a function too), which settles almost all of them without their
//!   prefixes. Every prefix bounds every subset of its pair — the best
//!   subset at any x is a ratio-threshold set, i.e. a prefix — so every
//!   pair left out of a piece's list computes an objective below the
//!   winner's by more than float error anywhere on the piece
//!   (`table_margin` derives `δ`). An evaluation binary-searches its
//!   piece, takes the listed pairs' sums (below) and merges them through
//!   `Incumbent::beats`, so the witness equals the sweep's bit for bit
//!   even where a breakpoint is off by some ulps or a narrow piece was
//!   missed: no guard band and no fallback near breakpoints.
//! * **Per-piece closed forms.** A listed pair's sums are the output of
//!   `solve_pair_into`, and that output is fixed by its *discard
//!   trace*: which candidates each round of the loop drops. The seed
//!   set, every round's sums `q`, `d` and so every coefficient
//!   `c = q_j·d − d_j·q` and `e = d_j − q_j` are α-free; only the keep
//!   test `fl(x·c) > e` sees `x`, and rounding is monotone, so each test
//!   flips at most once as `x` grows. By induction over the rounds, a
//!   pair traced identically at both ends of an interval is traced
//!   identically, and returns the same `(Q, D)` bits, everywhere in it.
//!   (The quadratic rival test would prove the *real* optimum constant,
//!   but not that the float loop lands on it: where the excluded
//!   candidate's weight swamps the optimum's, their objectives agree
//!   below an ulp.) The build therefore splits each piece where a listed
//!   pair's trace changes — bisecting the float bits down to adjacent
//!   floats, within `TRACE_BUDGET` traces and `MAX_SUBPIECES` per piece
//!   — and stores each pair's `(Q, D)` per sub-piece, evaluated as
//!   `objective_em1(Q, D, x)`. A pair whose trace still differs at a
//!   sub-piece's ends is solved there. A closed form that a lower-id one
//!   dominates (`Q ≥`, `D ≤`: the computed objective is monotone in
//!   both, and the lower id wins ties) can never win the merge and is
//!   dropped: on road networks without restart lists of up to 40 tying
//!   pairs shrink to one to three forms.
//! * **Range.** The range starts above 0: as α → 0 every objective
//!   tends to 1 and no pair can be excluded by a relative margin. α
//!   outside the range, and α = 0, take the sweep.
//! * **2-state tables.** A duplicate-free index of at most two pairs —
//!   every 2-state matrix — gets no piece table but an inline one of at
//!   most two closed forms, when each pair has a single Corollary-2
//!   candidate: such a pair keeps its candidate at every α (its keep
//!   test reads `x·0 > d_j − q_j`), so its sums are exact at every α,
//!   0 included, and the table serves all of them. The loss function
//!   then keeps only those forms, not the index (`Engine::Pairs`): the
//!   `fleet` mix holds 32 000 such functions. A 2-state pair with two
//!   candidates (rows that cross twice, which the row-sum tolerance
//!   allows) gets no table.
//! * **Selection, from the matrix alone.** An index too large to afford
//!   8 pieces under `TABLE_CAP` (`pieces × pairs`), e.g. a dense
//!   50-state one, gets no table, before any sweep runs, and a build
//!   whose envelope outgrows the cap records "no table"; such functions
//!   keep sweeping. The build streams pair by pair with one prefix
//!   buffer, so its transient memory is `O(n + pairs)`.
//!
//! On the `ceiling` mix's click-stream and road-with-restart shards the
//! table has one piece whose list shrinks to a single closed form; the
//! index, the table and a first evaluation take 0.04–0.37 ms, and a
//! 64-step chain costs 60–90 ns per evaluation (the `exp_m1`, one
//! division and the `ln`), against 1–3.5 µs for the duplicate-free sweep
//! and 13–68 µs for the sweep over all pairs. A 2-state chain takes
//! 60–70 ns per evaluation against about 240 ns swept. Dense 16–32-state matrices have 9–14 pieces,
//! split into 16–45 sub-pieces, and build in 0.7–12 ms (the sweeps at
//! mid-range x, where neither bound prunes, dominate).
//!
//! # One sweep, and a struct-of-arrays index
//!
//! The per-pair solve is the textbook loop: one fused dense seed scan
//! (or the support gather above) and one discard loop that tests
//! Inequality (21) and compacts survivors in the same pass. A
//! lane-chunked mask-then-compact variant of both loops was tried and
//! measured against it on the matrices the daemon evaluates — 2-state
//! tenant shards and 16–32-state ones (cold evaluations plus 64-step
//! BPL and FPL chains per matrix, alternating pairs): the masked sweep
//! was 1.16–1.43× slower at n = 16, 26 and 32, 1.05× at n = 21 and
//! within noise (0.91–1.12×) at n = 2, so the branchy loop is the only
//! one kept. `bench_alg1`'s `alg1/eval/*` rows time it from n = 16 up.
//!
//! Two properties of the loop carry the bit-identity guarantees. The
//! running sums `q`, `d` are sequential left-to-right reductions over
//! the candidates in ascending index order — float addition is not
//! associative, and the warm-start path re-derives the same sums by
//! summing the active subset in ascending order, which must agree to
//! the last ulp. And the keep predicate `em1·(q_j·d − d_j·q) > d_j − q_j`
//! is one IEEE expression (Rust does not contract `a·b − c·d` into an
//! FMA), evaluated identically by the sweep and by the warm-witness
//! validator.
//!
//! [`PairIndex`] stores its per-pair data as three parallel arrays
//! (`g0: Vec<f64>`, `rmax: Vec<f64>`, and packed `(q_row << 32 | d_row)`
//! ids) instead of an array of structs. The pruned sweep's hot loop
//! touches only `g0[i]` until the early-break fires and only `rmax[i]`
//! for skips, so those passes are linear prefetch-friendly scans of
//! dense f64 memory. The build is where lanes pay: its `O(n² · nnz)`
//! per-pair `g₀`/`r_max` reduction seeds from the numerator row's
//! support list on sparse rows (a candidate needs `q_j > d_j ≥ 0`) and
//! runs in fixed 8-wide lanes on fully dense rows; the support gather
//! sums into the same lanes, so both paths give the same bits. The lane
//! split reassociates `g₀`, which is allowed there only: the bounds
//! steer conservative pruning and duplicate grouping and never reach a
//! result (see `BOUND_SLACK`).
//!
//! The module also contains a brute-force reference solver built on
//! Lemma 3 (the optimum places each `x_j` at either `m` or `e^α m`, so it
//! suffices to enumerate the `2^n` splits) and adapters to the generic LP
//! solvers, used by tests, property tests, and the Figure 5 benchmark.

use crate::{check_alpha, Result};
use serde::{DeError, Deserialize, Serialize, Value};
use tcdp_lp::problem::PaperProgram;
use tcdp_markov::TransitionMatrix;

/// The maximizing row pair and active-subset sums behind a loss value.
#[derive(Debug, Clone, PartialEq)]
pub struct LossWitness {
    /// Index of the numerator row in the transition matrix.
    pub q_row: usize,
    /// Index of the denominator row in the transition matrix.
    pub d_row: usize,
    /// `q = Σ q⁺`, the active numerator coefficient sum.
    pub q_sum: f64,
    /// `d = Σ d⁺`, the active denominator coefficient sum.
    pub d_sum: f64,
    /// The loss value `L(α)` (natural log).
    pub value: f64,
    /// The active index subset behind `q_sum`/`d_sum`, ascending. Stored
    /// so a later evaluation at a different α can re-validate this
    /// witness against Inequalities (21)/(22) in `O(n)` (the sums are
    /// α-independent; only the inequalities move).
    pub active: Vec<usize>,
}

impl Serialize for LossWitness {
    /// Serializes every field — a checkpointed witness re-seeds the
    /// warm-start chain exactly where the saved run left off.
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("q_row".to_string(), self.q_row.to_value()),
            ("d_row".to_string(), self.d_row.to_value()),
            ("q_sum".to_string(), self.q_sum.to_value()),
            ("d_sum".to_string(), self.d_sum.to_value()),
            ("value".to_string(), self.value.to_value()),
            ("active".to_string(), self.active.to_value()),
        ])
    }
}

impl Deserialize for LossWitness {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let field = |k: &str| v.get(k).ok_or_else(|| DeError::missing(k));
        Ok(LossWitness {
            q_row: usize::from_value(field("q_row")?)?,
            d_row: usize::from_value(field("d_row")?)?,
            q_sum: f64::from_value(field("q_sum")?)?,
            d_sum: f64::from_value(field("d_sum")?)?,
            value: f64::from_value(field("value")?)?,
            active: Vec::from_value(field("active")?)?,
        })
    }
}

impl LossWitness {
    /// Re-evaluate the loss this witness yields at a different `α`.
    ///
    /// Valid only while the active subset stays optimal; used by
    /// Theorem 5's closed forms, where `q`/`d` are taken *at* the
    /// supremum's fixed point.
    pub fn value_at(&self, alpha: f64) -> f64 {
        objective(self.q_sum, self.d_sum, alpha).ln()
    }

    /// The zero witness (`L = 0`): returned for `α = 0`, single-state
    /// matrices, and matrices with no informative row pair.
    fn zero() -> Self {
        LossWitness {
            q_row: 0,
            d_row: 0,
            q_sum: 0.0,
            d_sum: 0.0,
            value: 0.0,
            active: Vec::new(),
        }
    }
}

/// The objective `(q(e^α−1)+1)/(d(e^α−1)+1)` of Theorem 4.
#[inline]
pub(crate) fn objective(q: f64, d: f64, alpha: f64) -> f64 {
    objective_em1(q, d, alpha.exp_m1())
}

/// [`objective`] with `e^α − 1` precomputed (the sweep hot path).
#[inline]
fn objective_em1(q: f64, d: f64, em1: f64) -> f64 {
    (q * em1 + 1.0) / (d * em1 + 1.0)
}

/// Reusable buffers for the per-pair active-set iteration: candidate
/// indices and their `q`/`d` coefficients, compacted in place on each
/// discard sweep. One instance serves an entire row-pair sweep, so the
/// inner loop allocates nothing after the first pair.
#[derive(Debug, Default)]
struct SweepScratch {
    idx: Vec<usize>,
    q: Vec<f64>,
    d: Vec<f64>,
}

impl SweepScratch {
    fn with_capacity(n: usize) -> Self {
        SweepScratch {
            idx: Vec::with_capacity(n),
            q: Vec::with_capacity(n),
            d: Vec::with_capacity(n),
        }
    }
}

/// Algorithm 1 lines 3–11 for one ordered row pair, writing the active
/// set into `scratch` (which retains the surviving indices on return).
/// Returns `(q_sum, d_sum)` of the active subset.
///
/// `support`, when given, is the ascending list of indices where
/// `q_row` is strictly positive (precomputed once per matrix by
/// [`PairIndex::new`]) — the sparse-row fast path. A Corollary-2
/// candidate needs `q_j > d_j ≥ 0`, hence `q_j > 0`, so seeding from the
/// numerator row's support visits exactly the same candidates in the
/// same ascending order as the dense scan: for near-deterministic
/// transition rows (mostly zeros) the seed loop shrinks from `O(n)` to
/// `O(nnz)` per pair, and the results are bit-identical (same
/// candidates, same compaction order, same sums).
fn solve_pair_into(
    q_row: &[f64],
    d_row: &[f64],
    em1: f64,
    s: &mut SweepScratch,
    support: Option<&[u32]>,
) -> (f64, f64) {
    solve_pair_traced(q_row, d_row, em1, s, support, |_| {})
}

/// [`solve_pair_into`], reporting its discard trace: `discard(j)` for
/// every candidate column `j` a round drops, then `discard(u32::MAX)` to
/// close that round. The trace fixes the sequence of candidate sets the
/// loop visits, and with it the returned sums' bits (see the module docs'
/// per-piece closed forms). With a no-op `discard` this is exactly
/// [`solve_pair_into`]'s loop.
#[inline(always)]
fn solve_pair_traced(
    q_row: &[f64],
    d_row: &[f64],
    em1: f64,
    s: &mut SweepScratch,
    support: Option<&[u32]>,
    mut discard: impl FnMut(u32),
) -> (f64, f64) {
    debug_assert_eq!(q_row.len(), d_row.len());
    s.idx.clear();
    s.q.clear();
    s.d.clear();
    // Corollary 2: only indices with q_j > d_j can be active. A support
    // list as long as the row means every entry is positive, i.e. the
    // row is fully dense — the contiguous scan then beats the gather and
    // visits exactly the same indices in the same ascending order.
    match support {
        Some(nonzeros) if nonzeros.len() < q_row.len() => {
            debug_assert!(
                nonzeros.iter().all(|&j| q_row[j as usize] > 0.0),
                "support must list exactly the positive entries of q_row"
            );
            for &j in nonzeros {
                let j = j as usize;
                let (qj, dj) = (q_row[j], d_row[j]);
                if qj > dj {
                    s.idx.push(j);
                    s.q.push(qj);
                    s.d.push(dj);
                }
            }
        }
        _ => {
            for (j, (&qj, &dj)) in q_row.iter().zip(d_row).enumerate() {
                if qj > dj {
                    s.idx.push(j);
                    s.q.push(qj);
                    s.d.push(dj);
                }
            }
        }
    }
    // Inequality (21), cross-multiplied to stay well-defined at d_j = 0
    // and rearranged for numerical stability at large α (avoids adding
    // 1 to q·e^α, which swamps f64 precision past α ≈ 55):
    // q_j/d_j > (q·em1+1)/(d·em1+1) ⇔ em1·(q_j·d − d_j·q) > d_j − q_j.
    // The running sums q, d stay sequential left-to-right reductions
    // (bit-identity: float addition is order-sensitive and the
    // warm-start path re-derives them in the same ascending order).
    loop {
        let q: f64 = s.q.iter().sum();
        let d: f64 = s.d.iter().sum();
        let before = s.idx.len();
        // Survivors are compacted to the front of the scratch buffers.
        let mut keep = 0;
        for r in 0..before {
            let (qj, dj) = (s.q[r], s.d[r]);
            if em1 * (qj * d - dj * q) > dj - qj {
                s.idx[keep] = s.idx[r];
                s.q[keep] = qj;
                s.d[keep] = dj;
                keep += 1;
            } else {
                discard(s.idx[r] as u32);
            }
        }
        s.idx.truncate(keep);
        s.q.truncate(keep);
        s.d.truncate(keep);
        if keep == before {
            return (q, d);
        }
        discard(u32::MAX);
    }
}

/// Solve the program (18)–(20) for one ordered row pair via Algorithm 1
/// lines 3–11. Returns `(q_sum, d_sum)` of the active subset.
#[cfg(test)]
pub(crate) fn solve_pair(q_row: &[f64], d_row: &[f64], alpha: f64) -> (f64, f64) {
    let mut s = SweepScratch::with_capacity(q_row.len());
    solve_pair_into(q_row, d_row, alpha.exp_m1(), &mut s, None)
}

/// As [`solve_pair`], additionally returning the active index set — used
/// by tests that verify Theorem 4's Inequalities (21)/(22) directly.
#[cfg(test)]
pub(crate) fn solve_pair_active(
    q_row: &[f64],
    d_row: &[f64],
    alpha: f64,
) -> (f64, f64, Vec<usize>) {
    let mut s = SweepScratch::with_capacity(q_row.len());
    let (q, d) = solve_pair_into(q_row, d_row, alpha.exp_m1(), &mut s, None);
    (q, d, std::mem::take(&mut s.idx))
}

/// Pack an ordered row pair into one sortable/comparable id. The packed
/// order equals the lexicographic `(q_row, d_row)` order the sweeps
/// break ties with.
#[inline]
const fn pack_pair(q_row: usize, d_row: usize) -> u64 {
    ((q_row as u64) << 32) | d_row as u64
}

/// Inverse of [`pack_pair`].
#[inline]
const fn unpack_pair(id: u64) -> (usize, usize) {
    ((id >> 32) as usize, (id & u32::MAX as u64) as usize)
}

/// Sentinel for "no pair to skip" — unreachable as a real id because a
/// packed pair never has `q_row == d_row == u32::MAX`.
const NO_SKIP: u64 = u64::MAX;

/// Lane width of the index-build reduction. A compile-time constant
/// (never derived from the host CPU) so the build is deterministic; 8
/// f64 elements span two AVX2 or one AVX-512 register and give the
/// autovectorizer room to unroll on narrower targets.
const LANES: usize = 8;

/// `g₀`/`r_max` seeded from the numerator row's support list: a
/// Corollary-2 candidate needs `q_j > d_j ≥ 0`, hence `q_j > 0`, so the
/// gather visits exactly the dense scan's candidates — same maxima,
/// `O(nnz)` instead of `O(n)`. `g₀` is summed in the lanes of
/// [`pair_bounds_dense_chunked`] (index `j` into lane `j mod LANES`
/// below the last full chunk, the rest after the fold), so equal
/// candidate lists give bitwise-equal bounds on either path — the
/// property the duplicate rule groups by.
#[inline]
fn pair_bounds_support(q_row: &[f64], d_row: &[f64], support: &[u32]) -> (f64, f64) {
    let split = q_row.len() - q_row.len() % LANES;
    let mut g = [0.0_f64; LANES];
    let mut rmax = 1.0_f64;
    let tail = support.partition_point(|&j| (j as usize) < split);
    for &j in &support[..tail] {
        let (qj, dj) = (q_row[j as usize], d_row[j as usize]);
        if qj > dj {
            g[j as usize % LANES] += qj - dj;
            rmax = rmax.max(if dj == 0.0 { f64::INFINITY } else { qj / dj });
        }
    }
    let mut g0 = 0.0;
    for gl in g {
        g0 += gl;
    }
    for &j in &support[tail..] {
        let (qj, dj) = (q_row[j as usize], d_row[j as usize]);
        if qj > dj {
            g0 += qj - dj;
            rmax = rmax.max(if dj == 0.0 { f64::INFINITY } else { qj / dj });
        }
    }
    (g0, rmax)
}

/// Lane-chunked `g₀`/`r_max` reduction for fully dense rows: `LANES`
/// independent accumulators folded in a fixed order at the end. The
/// lane split reassociates the `g₀` sum relative to a left-to-right
/// scan — deliberately allowed *here only*, because `g₀`/`r_max` steer
/// conservative pruning, the pair visit order and duplicate grouping;
/// they never reach a returned value (candidates with `q_j > d_j`
/// contribute strictly positive terms, so `g₀ > 0` iff a candidate
/// exists in either order, and `BOUND_SLACK` absorbs the low-bit drift
/// in bound comparisons).
#[inline]
fn pair_bounds_dense_chunked(q_row: &[f64], d_row: &[f64]) -> (f64, f64) {
    let mut g = [0.0_f64; LANES];
    let mut r = [1.0_f64; LANES];
    let split = q_row.len() - q_row.len() % LANES;
    let lanes = q_row[..split]
        .chunks_exact(LANES)
        .zip(d_row[..split].chunks_exact(LANES));
    for (qc, dc) in lanes {
        for (l, (&qj, &dj)) in qc.iter().zip(dc).enumerate() {
            let cand = qj > dj;
            // Branch-free selects; q_j/d_j is +∞ for a candidate with
            // d_j = 0 (q_j > 0), exactly the remainder loop's sentinel.
            g[l] += if cand { qj - dj } else { 0.0 };
            r[l] = r[l].max(if cand { qj / dj } else { 1.0 });
        }
    }
    let mut g0 = 0.0;
    let mut rmax = 1.0_f64;
    for l in 0..LANES {
        g0 += g[l];
        rmax = rmax.max(r[l]);
    }
    for (&qj, &dj) in q_row[split..].iter().zip(&d_row[split..]) {
        if qj > dj {
            g0 += qj - dj;
            rmax = rmax.max(if dj == 0.0 { f64::INFINITY } else { qj / dj });
        }
    }
    (g0, rmax)
}

/// The Corollary-2 candidates `(j, q_j, d_j)` of one packed pair, in
/// ascending `j`, as the sweep's seed loop visits them.
fn candidates<'m>(
    matrix: &'m TransitionMatrix,
    support: &'m [Vec<u32>],
    id: u64,
) -> impl Iterator<Item = (usize, f64, f64)> + 'm {
    let (a, b) = unpack_pair(id);
    let (q_row, d_row) = (matrix.row(a), matrix.row(b));
    support[a]
        .iter()
        .map(|&j| (j as usize, q_row[j as usize], d_row[j as usize]))
        .filter(|&(_, qj, dj)| qj > dj)
}

/// Whether two pairs' candidate lists are bitwise equal — then
/// [`solve_pair_into`] sees the same input for both and returns the same
/// sums and active set at every α.
fn same_candidates(matrix: &TransitionMatrix, support: &[Vec<u32>], x: u64, y: u64) -> bool {
    let bits = |(j, qj, dj): (usize, f64, f64)| (j, qj.to_bits(), dj.to_bits());
    candidates(matrix, support, x)
        .map(bits)
        .eq(candidates(matrix, support, y).map(bits))
}

/// One informative ordered pair while the index is built.
#[derive(Debug, Clone, Copy)]
struct PairEntry {
    id: u64,
    g0: f64,
    rmax: f64,
}

/// Sort `entries` into sweep order — `g₀` descending, ties toward the
/// lowest packed id (`total_cmp` keeps this panic-free on any input) —
/// and keep, of every set of pairs with bitwise-equal candidates, only
/// the lowest id. Equal candidates give bitwise-equal `(g₀, r_max)`, so
/// duplicates sit in one run of equal `g₀` and only pairs that also share
/// `r_max` are compared, by [`same_candidates`]. Grouping by sorting keeps
/// the build free of hash collections.
fn drop_duplicates(entries: &mut Vec<PairEntry>, matrix: &TransitionMatrix, support: &[Vec<u32>]) {
    entries.sort_unstable_by(|x, y| y.g0.total_cmp(&x.g0).then_with(|| x.id.cmp(&y.id)));
    let mut kept = 0;
    let mut run = 0; // first kept entry with the current g₀
    for i in 0..entries.len() {
        let e = entries[i];
        if kept == 0 || entries[kept - 1].g0.to_bits() != e.g0.to_bits() {
            run = kept;
        } else if entries[run..kept].iter().any(|k| {
            k.rmax.to_bits() == e.rmax.to_bits() && same_candidates(matrix, support, k.id, e.id)
        }) {
            continue;
        }
        entries[kept] = e;
        kept += 1;
    }
    entries.truncate(kept);
}

/// Precomputed pruning index over the distinct informative ordered row
/// pairs of one matrix, sorted by gap mass `g₀` descending (ties toward the
/// lowest `(q_row, d_row)` so sweeps visit pairs in a deterministic
/// order), laid out **struct-of-arrays**: three parallel arrays (packed
/// pair ids, `g₀`, `r_max`) so the sweep's pruning passes are linear
/// scans of dense `f64` memory. Building the index costs `O(n² · nnz)`
/// (per-pair reductions seed from the numerator row's support list, and
/// run lane-chunked on fully dense rows); it is built once per matrix
/// (and cached by [`crate::TemporalLossFunction`]) and amortized across
/// every evaluation of the loss function.
#[derive(Debug, Clone)]
pub struct PairIndex {
    n: usize,
    /// Packed `(q_row << 32) | d_row` ids, in sweep order.
    pair_ids: Vec<u64>,
    /// Gap mass `g₀` per pair (descending — the sweep's early-break key).
    g0: Vec<f64>,
    /// Maximum candidate ratio `r_max` per pair (`∞` when some active
    /// `d_j = 0`).
    rmax: Vec<f64>,
    /// Per row, the ascending indices of its strictly positive entries —
    /// the sparse-row fast path's seed lists. Near-deterministic
    /// matrices (the paper's strongest correlations) have `O(1)`
    /// nonzeros per row, so seeding candidates from the support turns
    /// each `solve_pair` seed scan from `O(n)` into `O(nnz)`.
    support: Vec<Vec<u32>>,
}

impl PairIndex {
    /// Scan all ordered row pairs of `matrix` and build the sorted bound
    /// index plus the per-row support lists. Pairs with no Corollary-2
    /// candidate (`g₀ = 0`, so `L(a,b) ≡ 0`) are dropped immediately, and
    /// of pairs whose candidates are bitwise equal only the lowest
    /// `(q_row, d_row)` is kept (see the module docs: duplicates tie at
    /// every α, and the sweep's tie-break picks the lowest of them).
    ///
    /// Assumes `matrix` upholds [`TransitionMatrix`]'s invariant (finite,
    /// non-negative entries — every constructor validates). This function
    /// has **no panic path** even on garbage input (the sort uses the
    /// NaN-total [`f64::total_cmp`] order); callers holding data of
    /// uncertain provenance — e.g. a deserialized envelope — should use
    /// [`PairIndex::try_new`], which validates up front and surfaces a
    /// typed error instead of silently mis-pruning.
    pub fn new(matrix: &TransitionMatrix) -> Self {
        let n = matrix.n();
        let support: Vec<Vec<u32>> = (0..n)
            .map(|a| {
                matrix
                    .row(a)
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v > 0.0)
                    .map(|(j, _)| j as u32)
                    .collect()
            })
            .collect();
        let mut kept: Vec<PairEntry> = Vec::new();
        let mut row: Vec<PairEntry> = Vec::with_capacity(n);
        for (a, sup) in support.iter().enumerate() {
            let q_row = matrix.row(a);
            // Fully dense rows (support == all of 0..n) take the
            // lane-chunked contiguous reduction; sparse rows gather only
            // their nonzeros.
            let dense = sup.len() == n;
            row.clear();
            for b in (0..n).filter(|&b| b != a) {
                let d_row = matrix.row(b);
                let (g0, rmax) = if dense {
                    pair_bounds_dense_chunked(q_row, d_row)
                } else {
                    pair_bounds_support(q_row, d_row, sup)
                };
                if g0 > 0.0 {
                    let id = pack_pair(a, b);
                    row.push(PairEntry { id, g0, rmax });
                }
            }
            // A sparse row's pairs are mostly copies of each other (every
            // denominator row that is zero on its support gives the same
            // candidates), so dropping them row by row keeps the build's
            // memory near the survivors on large sparse matrices.
            if !dense {
                drop_duplicates(&mut row, matrix, &support);
            }
            kept.extend_from_slice(&row);
        }
        // Every duplicate, within rows and across them, and sweep order.
        drop_duplicates(&mut kept, matrix, &support);
        PairIndex {
            n,
            pair_ids: kept.iter().map(|e| e.id).collect(),
            g0: kept.iter().map(|e| e.g0).collect(),
            rmax: kept.iter().map(|e| e.rmax).collect(),
            support,
        }
    }

    /// As [`PairIndex::new`], after validating every matrix entry is
    /// finite and non-negative. NaN-poisoned or otherwise invalid input
    /// (possible only through paths that bypass [`TransitionMatrix`]'s
    /// validating constructors, e.g. hand-built serde values) yields
    /// [`crate::TplError::InvalidMatrix`] instead of a panic or a
    /// silently corrupt index.
    pub fn try_new(matrix: &TransitionMatrix) -> crate::Result<Self> {
        for row in 0..matrix.n() {
            for &v in matrix.row(row) {
                if !v.is_finite() || v < 0.0 {
                    return Err(crate::TplError::InvalidMatrix { row, value: v });
                }
            }
        }
        Ok(Self::new(matrix))
    }

    /// The ascending positive-entry indices of row `row` — the sparse
    /// seed list for [`solve_pair_into`]'s fast path.
    fn support_of(&self, row: usize) -> &[u32] {
        &self.support[row]
    }

    /// Domain size the index was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct informative pairs retained (`≤ n(n−1)`).
    pub fn len(&self) -> usize {
        self.pair_ids.len()
    }

    /// Whether no pair can produce positive loss (`L ≡ 0`).
    pub fn is_empty(&self) -> bool {
        self.pair_ids.is_empty()
    }
}

/// A sweep incumbent: the objective is kept in the exponential domain
/// (`e^L`) so pruning comparisons avoid a `ln` per pair.
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    obj: f64,
    q_row: usize,
    d_row: usize,
    q_sum: f64,
    d_sum: f64,
}

impl Incumbent {
    fn sentinel() -> Self {
        Incumbent {
            obj: 1.0,
            q_row: 0,
            d_row: 0,
            q_sum: 0.0,
            d_sum: 0.0,
        }
    }

    /// The deterministic total order every sweep shares: maximum
    /// objective, ties broken toward the lowest `(q_row, d_row)` — which
    /// is exactly what the naive row-major first-strict-max sweep picks,
    /// and what makes pruned and unpruned results identical.
    fn beats(&self, other: &Incumbent) -> bool {
        self.obj > other.obj
            || (self.obj == other.obj && (self.q_row, self.d_row) < (other.q_row, other.d_row))
    }

    /// The loss value of a finished merge: `ln` of the winner's objective,
    /// or 0 unless it beats the empty set's 1 — [`Incumbent::into_witness`]'s
    /// `value` without the witness.
    fn value(&self) -> f64 {
        if self.obj <= 1.0 {
            0.0
        } else {
            self.obj.ln()
        }
    }

    /// The witness of a finished merge, given the winner's active set:
    /// the zero witness unless the winner beats the empty set's 1.
    fn into_witness(self, active: Vec<usize>) -> LossWitness {
        if self.obj <= 1.0 {
            return LossWitness::zero();
        }
        LossWitness {
            q_row: self.q_row,
            d_row: self.d_row,
            q_sum: self.q_sum,
            d_sum: self.d_sum,
            value: self.value(),
            active,
        }
    }
}

/// Relative slack applied to both pruning bounds before comparing them
/// against the incumbent. The bounds hold exactly in real arithmetic,
/// but the *computed* objective `fl((q·em1+1)/(d·em1+1))` can land a few
/// ulps above a *computed* bound when the true margin is below f64
/// precision (e.g. at large α the margin `(q/d − obj)` shrinks like
/// `1/em1`, far under one ulp of `q/d`). Inflating the bound by a few
/// ulps keeps pruning strictly conservative, preserving the
/// bit-identical guarantee versus the unpruned sweep; the perf cost is
/// re-examining the rare pair sitting within a whisker of the incumbent.
const BOUND_SLACK: f64 = 1.0 + 8.0 * f64::EPSILON;

/// Run the pruned sweep over the whole sorted pair index, starting from
/// the incumbent `init` (the sentinel, or the re-validated warm witness).
/// `skip` is the packed id of a pair already accounted for (the warm
/// witness), which must not be re-solved, or [`NO_SKIP`]. Deterministic:
/// every candidate is merged through [`Incumbent::beats`].
///
/// The SoA layout makes the two pruning comparisons below straight
/// streaming loads from the dense `g0`/`rmax` arrays; a pair's rows are
/// only touched (and its id unpacked) after it survives both bounds.
fn sweep_index(
    matrix: &TransitionMatrix,
    index: &PairIndex,
    em1: f64,
    init: Incumbent,
    skip: u64,
    scratch: &mut SweepScratch,
) -> Incumbent {
    let mut best = init;
    for i in 0..index.len() {
        // Pairs are sorted by g₀ descending, so the gap bound only
        // shrinks from here on: the first pair it excludes ends the
        // sweep (either bound below the incumbent excludes a pair — the
        // objective never exceeds min(gap bound, ratio bound)).
        if (index.g0[i] * em1 + 1.0) * BOUND_SLACK < best.obj {
            break;
        }
        let id = index.pair_ids[i];
        if id == skip || index.rmax[i].max(1.0) * BOUND_SLACK < best.obj {
            continue;
        }
        let (a, b) = unpack_pair(id);
        let (q, d) = solve_pair_into(
            matrix.row(a),
            matrix.row(b),
            em1,
            scratch,
            Some(index.support_of(a)),
        );
        let cand = Incumbent {
            obj: objective_em1(q, d, em1),
            q_row: a,
            d_row: b,
            q_sum: q,
            d_sum: d,
        };
        if cand.beats(&best) {
            best = cand;
        }
    }
    best
}

/// Check Theorem 4's sufficient optimality conditions for a cached
/// active subset at a new α in one `O(n)` pass: Inequality (21) must
/// hold for every member and Inequality (22) for every non-member
/// candidate (non-candidates satisfy (22) automatically since
/// `q_j ≤ d_j` forces `q_j·d − d_j·q ≤ 0 ≤ d_j − q_j`). The subset's
/// sums are α-independent; the caller re-derives them from the rows and
/// passes them in.
fn witness_still_optimal(
    q_row: &[f64],
    d_row: &[f64],
    active: &[usize],
    q_sum: f64,
    d_sum: f64,
    em1: f64,
) -> bool {
    let mut members = active.iter().copied().peekable();
    for (j, (&qj, &dj)) in q_row.iter().zip(d_row).enumerate() {
        let is_member = members.peek() == Some(&j);
        if is_member {
            members.next();
            if em1 * (qj * d_sum - dj * q_sum) <= dj - qj {
                return false; // (21) violated: the member must leave
            }
        } else if qj > dj && em1 * (qj * d_sum - dj * q_sum) > dj - qj {
            return false; // (22) violated: an outsider must enter
        }
    }
    members.peek().is_none()
}

/// Evaluate `L(α)` against a prebuilt [`PairIndex`], optionally
/// warm-started from a previous evaluation's witness.
///
/// `index` must have been built by [`PairIndex::new`] from this same
/// `matrix` (an index of the wrong size is rejected; an index of the
/// right size but from a different matrix silently mis-prunes —
/// [`crate::TemporalLossFunction`] is the canonical caller and keeps
/// the two paired). The warm witness may come from *any* previous
/// evaluation: its pair and active subset are re-validated against this
/// matrix's rows in `O(n)` (the subset sums are re-derived from the
/// rows, not trusted), so a stale witness can never seed a fictitious
/// incumbent; whether it validates, is re-solved, or is absent, the
/// pruned sweep always completes the search and the result is identical
/// to a cold evaluation — only faster.
pub fn temporal_loss_witness_indexed(
    matrix: &TransitionMatrix,
    index: &PairIndex,
    alpha: f64,
    warm: Option<&LossWitness>,
) -> Result<LossWitness> {
    let mut scratch = SweepScratch::with_capacity(matrix.n());
    eval_indexed(matrix, index, alpha, warm, &mut scratch)
}

/// The single-evaluation core behind every public entry point: the warm
/// revalidation, the pruned sweep, and the witness finalization all work
/// through the caller's `scratch` so batched callers ([`EvalSession`])
/// allocate nothing per evaluation.
fn eval_indexed(
    matrix: &TransitionMatrix,
    index: &PairIndex,
    alpha: f64,
    warm: Option<&LossWitness>,
    scratch: &mut SweepScratch,
) -> Result<LossWitness> {
    check_alpha(alpha)?;
    let n = matrix.n();
    if index.n() != n {
        return Err(crate::TplError::DimensionMismatch {
            expected: n,
            found: index.n(),
        });
    }
    if n < 2 || alpha == 0.0 || index.is_empty() {
        return Ok(LossWitness::zero());
    }
    let em1 = alpha.exp_m1();
    let mut init = Incumbent::sentinel();
    let mut skip = NO_SKIP;
    if let Some(w) = warm {
        // The zero witness carries no pair to warm-start from; a
        // witness whose indices do not fit this matrix is ignored.
        if w.q_row != w.d_row && w.q_row < n && w.d_row < n && w.active.iter().all(|&j| j < n) {
            let (q_row, d_row) = (matrix.row(w.q_row), matrix.row(w.d_row));
            // Re-derive the subset sums from *this* matrix's rows —
            // bitwise identical to the stored sums for a same-matrix
            // witness (same coefficients, same ascending order as
            // `solve_pair_into`'s final sweep), and safe against a
            // witness carried over from a different matrix.
            let q_sum: f64 = w.active.iter().map(|&j| q_row[j]).sum();
            let d_sum: f64 = w.active.iter().map(|&j| d_row[j]).sum();
            let (q, d) = if witness_still_optimal(q_row, d_row, &w.active, q_sum, d_sum, em1) {
                (q_sum, d_sum)
            } else {
                // The active set shifted: re-solve just this pair.
                solve_pair_into(q_row, d_row, em1, scratch, Some(index.support_of(w.q_row)))
            };
            let cand = Incumbent {
                obj: objective_em1(q, d, em1),
                q_row: w.q_row,
                d_row: w.d_row,
                q_sum: q,
                d_sum: d,
            };
            if cand.beats(&init) {
                init = cand;
            }
            skip = pack_pair(w.q_row, w.d_row);
        }
    }
    let best = sweep_index(matrix, index, em1, init, skip, scratch);
    Ok(finalize_witness(matrix, Some(index), em1, best, scratch))
}

/// Turn a sweep incumbent into a full [`LossWitness`], recovering the
/// winning pair's active set (one extra pair solve) so the witness can
/// warm-start the next evaluation.
fn finalize_witness(
    matrix: &TransitionMatrix,
    index: Option<&PairIndex>,
    em1: f64,
    best: Incumbent,
    scratch: &mut SweepScratch,
) -> LossWitness {
    if best.obj <= 1.0 {
        return LossWitness::zero();
    }
    let (q, d) = solve_pair_into(
        matrix.row(best.q_row),
        matrix.row(best.d_row),
        em1,
        scratch,
        index.map(|i| i.support_of(best.q_row)),
    );
    debug_assert_eq!((q, d), (best.q_sum, best.d_sum));
    // The scratch indices are *copied* (not taken) so the buffers keep
    // their capacity for the session's next evaluation.
    best.into_witness(scratch.idx.clone())
}

/// The α range a [`PieceTable`] covers, as `(lowest, highest)`. It
/// starts above 0 because every objective tends to 1 as α → 0, so near 0
/// no pair can be told apart from the winner by the margin
/// [`table_margin`]; α outside the range (α = 0 included) takes the
/// sweep.
const TABLE_ALPHA: (f64, f64) = (1.0 / 1024.0, 32.0);

/// Most `pieces × pairs` a [`PieceTable`] build may reach. The build
/// costs about two sweeps per piece plus one bound screen per piece and
/// pair, and a table pays off only when its pieces are few, so past this
/// cap the loss function records "no table" and keeps sweeping. An index
/// too large to afford 8 pieces is refused before any sweep runs.
const TABLE_CAP: usize = 16384;

/// Relative margin `δ` by which the rival test must place a pair below
/// a piece's winner for the pair to be left out of the piece's list.
/// It must exceed the float error separating the exact objectives the
/// test reasons about from the computed ones the sweep compares (`u` =
/// `f64::EPSILON / 2`, sums of at most `n` non-negative terms):
///
/// * each active-set sum carries a relative error below `n·u`, and the
///   objective `(q·x + 1)/(d·x + 1)` of computed sums adds at most
///   `4u`, on each of the two sides compared;
/// * the prefix sums the test uses carry another `n·u`, and `g₀` (lane
///   summed) likewise;
/// * the computed active set is optimal up to its discard test's
///   rounding: the test misplaces only a candidate whose ratio lies
///   within about `(n + 4)·u` of the threshold, and moving such a
///   candidate moves the objective (a mediant) by no more than that.
///
/// That totals under `8(n + 4)·u = 4(n + 4)·ε`. The margin is 256× that,
/// and the float tests themselves run at `2δ`, which absorbs their own
/// few roundings.
fn table_margin(n: usize) -> f64 {
    1024.0 * (n as f64 + 4.0) * f64::EPSILON
}

/// Most discard traces one [`PieceTable`] build may run to split its
/// pieces where a listed pair's trace changes (see [`trace_cuts`]);
/// pairs left over when it runs out are solved per evaluation.
const TRACE_BUDGET: usize = 4096;

/// Most sub-pieces one envelope piece may be split into for closed
/// forms: each one stores a form per listed pair, so a pair whose trace
/// changes more often than this on its piece is solved per evaluation.
const MAX_SUBPIECES: usize = 64;

/// One pair a table serves: its packed id and, where the pair's discard
/// trace is provably constant, the sums `(q, d)` that [`solve_pair_into`]
/// returns there — the pair's closed form. `q` is NaN for a pair that
/// must be solved per evaluation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Form {
    id: u64,
    q: f64,
    d: f64,
}

impl Form {
    /// A pair without a closed form.
    fn solved(id: u64) -> Self {
        Form {
            id,
            q: f64::NAN,
            d: f64::NAN,
        }
    }

    /// Pair `id`'s closed form wherever its discard trace is the one it
    /// has at `em1`: the sums it returns there.
    fn at(
        matrix: &TransitionMatrix,
        index: &PairIndex,
        id: u64,
        em1: f64,
        s: &mut SweepScratch,
    ) -> Self {
        let (a, b) = unpack_pair(id);
        let (q, d) = solve_pair_into(
            matrix.row(a),
            matrix.row(b),
            em1,
            s,
            Some(index.support_of(a)),
        );
        Form { id, q, d }
    }

    /// Whether this closed form's computed objective is at least
    /// `other`'s at every `x > 0` and wins their ties: a lower id with
    /// `q ≥` and `d ≤` (`fl(q·x + 1)/fl(d·x + 1)` is monotone in both).
    fn dominates(&self, other: &Form) -> bool {
        self.id < other.id && self.q >= other.q && self.d <= other.d
    }
}

/// Pair `id`'s discard trace at `em1` (see [`solve_pair_traced`]).
fn pair_trace(
    matrix: &TransitionMatrix,
    index: &PairIndex,
    id: u64,
    em1: f64,
    s: &mut SweepScratch,
    trace: &mut Vec<u32>,
) {
    trace.clear();
    let (a, b) = unpack_pair(id);
    let support = Some(index.support_of(a));
    solve_pair_traced(matrix.row(a), matrix.row(b), em1, s, support, |j| {
        trace.push(j)
    });
}

/// Push to `cuts` the points of `(lo, hi]` at which pair `id`'s discard
/// trace changes, given its traces at `lo` and `hi`: each cut is the
/// first `x` of a new trace, and the trace is constant from one cut up to
/// the float below the next. Equal traces at both ends prove the trace
/// constant in between (see the module docs); otherwise the interval is
/// bisected on the float bits, down to adjacent floats. `false` once
/// `budget` traces are spent.
#[allow(clippy::too_many_arguments)]
fn trace_cuts(
    matrix: &TransitionMatrix,
    index: &PairIndex,
    id: u64,
    (lo, t_lo): (f64, &[u32]),
    (hi, t_hi): (f64, &[u32]),
    budget: &mut usize,
    s: &mut SweepScratch,
    cuts: &mut Vec<f64>,
) -> bool {
    if t_lo == t_hi {
        return true;
    }
    if hi.to_bits() - lo.to_bits() <= 1 {
        cuts.push(hi);
        return true;
    }
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    // Positive floats order like their bits.
    let mid = f64::from_bits(lo.to_bits() + (hi.to_bits() - lo.to_bits()) / 2);
    let mut t_mid = Vec::new();
    pair_trace(matrix, index, id, mid, s, &mut t_mid);
    trace_cuts(
        matrix,
        index,
        id,
        (lo, t_lo),
        (mid, &t_mid),
        budget,
        s,
        cuts,
    ) && trace_cuts(
        matrix,
        index,
        id,
        (mid, &t_mid),
        (hi, t_hi),
        budget,
        s,
        cuts,
    )
}

/// An exact piecewise description of `L(α)` over [`TABLE_ALPHA`] for one
/// matrix, in `x = e^α − 1`. A piece is an x-interval on which one
/// function `(Q·x + 1)/(D·x + 1)` wins the sweep; for each piece the table
/// lists the winner's pair and its **rivals**: every other index pair
/// with a ratio-sorted prefix of its candidates whose objective is not
/// provably `≤ (1 − δ)×` the winner's over the whole piece. Theorem 4's
/// active sets are ratio-threshold sets, so those prefixes bound every
/// subset a pair can select, and every pair left out of a piece's list
/// computes an objective strictly below the winner's anywhere on the
/// piece. Pieces are split further where a listed pair's discard trace
/// changes, so that most listed pairs hold a closed form on each
/// sub-piece. Serving α from the sub-piece's list through
/// [`Incumbent::beats`] therefore returns the sweep's witness bit for
/// bit, whatever the precision of the breakpoints (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PieceTable {
    /// The covered x-range `[x_lo, x_hi]`.
    x_lo: f64,
    x_hi: f64,
    /// Where each sub-piece after the first starts, ascending.
    cuts: Vec<f64>,
    /// Sub-piece `i`'s pairs are `forms[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    forms: Vec<Form>,
}

/// Whether two sweep results are the same function of x: equal sums
/// give equal objectives at every α.
fn same_function(a: &Incumbent, b: &Incumbent) -> bool {
    a.q_sum.to_bits() == b.q_sum.to_bits() && a.d_sum.to_bits() == b.d_sum.to_bits()
}

impl PieceTable {
    /// Build the table for `matrix`, or `None` when the matrix does not
    /// qualify: an index of at most two pairs (see [`Engine`]), more than
    /// [`TABLE_CAP`] pieces × pairs, or a piece whose winner is not clear
    /// of the empty set's objective 1.
    fn build(matrix: &TransitionMatrix, index: &PairIndex) -> Option<Self> {
        let pairs = index.len();
        if pairs <= 2 || pairs > TABLE_CAP / 8 {
            return None;
        }
        let (x_lo, x_hi) = (TABLE_ALPHA.0.exp_m1(), TABLE_ALPHA.1.exp_m1());
        let mut scratch = SweepScratch::with_capacity(matrix.n());
        let pieces = envelope(matrix, index, x_lo, x_hi, TABLE_CAP / pairs, &mut scratch)?;
        let keep_out = 1.0 - 2.0 * table_margin(matrix.n());
        let bound = |w: &Incumbent, x: f64| keep_out * objective_em1(w.q_sum, w.d_sum, x);
        if pieces.iter().any(|&(x, w)| bound(&w, x) <= 1.0) {
            return None;
        }
        let end = |p: usize| pieces.get(p + 1).map_or(x_hi, |&(x, _)| x);
        let mut lists: Vec<(u32, u64)> = Vec::with_capacity(2 * pieces.len());
        let mut cands: Vec<(f64, f64)> = Vec::with_capacity(matrix.n());
        let mut prefix: Vec<(f64, f64)> = Vec::with_capacity(matrix.n());
        for i in 0..pairs {
            let id = index.pair_ids[i];
            prefix.clear();
            for (p, &(xa, w)) in pieces.iter().enumerate() {
                let xb = end(p);
                if id == pack_pair(w.q_row, w.d_row) {
                    lists.push((p as u32, id));
                    continue;
                }
                // Screen: the gap bound 1 + g₀x up to where it meets the
                // ratio bound, the ratio bound from there on.
                let rmax = index.rmax[i].max(1.0);
                let s = ((rmax - 1.0) / index.g0[i]).clamp(xa, xb);
                let gap_below = |x: f64| index.g0[i] * x + 1.0 <= bound(&w, x);
                if (s <= xa || (gap_below(xa) && gap_below(s))) && (s >= xb || rmax <= bound(&w, s))
                {
                    continue;
                }
                if prefix.is_empty() {
                    ratio_prefixes(matrix, index, id, &mut cands, &mut prefix);
                }
                let above = |x: f64| {
                    let b = bound(&w, x);
                    prefix.iter().any(|&(q, d)| objective_em1(q, d, x) > b)
                };
                if above(xa) || above(xb) {
                    lists.push((p as u32, id));
                }
            }
        }
        lists.sort_unstable();
        let mut table = PieceTable {
            x_lo,
            x_hi,
            cuts: Vec::new(),
            starts: Vec::new(),
            forms: Vec::new(),
        };
        let mut budget = TRACE_BUDGET;
        let mut ids = Vec::new();
        for (p, &(xa, _)) in pieces.iter().enumerate() {
            ids.clear();
            ids.extend(
                lists
                    .iter()
                    .filter(|&&(q, _)| q == p as u32)
                    .map(|&(_, id)| id),
            );
            // The largest x the piece serves: pieces start at their cut.
            let xz = pieces
                .get(p + 1)
                .map_or(x_hi, |&(x, _)| x.next_down().max(xa));
            table.push_piece(matrix, index, &ids, (xa, xz), &mut budget, &mut scratch);
        }
        table.starts.push(table.forms.len() as u32);
        Some(table)
    }

    /// Append the sub-pieces of one envelope piece, serving `[xa, xz]`
    /// with the listed pairs `ids`: split where a pair's discard trace
    /// changes (while the budgets last) and store each pair's closed form
    /// per sub-piece, except for a pair still traced differently at some
    /// sub-piece's two ends, which is solved. A closed form that a
    /// lower-id closed form dominates never wins the merge and is left
    /// out — on road networks without restart most listed pairs tie
    /// with the winner that way.
    fn push_piece(
        &mut self,
        matrix: &TransitionMatrix,
        index: &PairIndex,
        ids: &[u64],
        (xa, xz): (f64, f64),
        budget: &mut usize,
        s: &mut SweepScratch,
    ) {
        let (mut ta, mut tz) = (Vec::new(), Vec::new());
        let mut cuts = Vec::new();
        let mut solved = vec![false; ids.len()];
        for (k, &id) in ids.iter().enumerate() {
            pair_trace(matrix, index, id, xa, s, &mut ta);
            pair_trace(matrix, index, id, xz, s, &mut tz);
            let mark = cuts.len();
            let split = trace_cuts(
                matrix,
                index,
                id,
                (xa, &ta),
                (xz, &tz),
                budget,
                s,
                &mut cuts,
            );
            if !split || cuts.len() >= MAX_SUBPIECES {
                cuts.truncate(mark);
                solved[k] = true;
            }
        }
        cuts.sort_unstable_by(f64::total_cmp);
        cuts.dedup();
        let mut sub = Vec::with_capacity(ids.len());
        for (i, &x) in std::iter::once(&xa).chain(&cuts).enumerate() {
            if i > 0 || !self.starts.is_empty() {
                self.cuts.push(x);
            }
            self.starts.push(self.forms.len() as u32);
            sub.clear();
            sub.extend(ids.iter().zip(&solved).map(|(&id, &solved)| {
                if solved {
                    Form::solved(id)
                } else {
                    Form::at(matrix, index, id, x, s)
                }
            }));
            let undominated = sub.iter().filter(|f| !sub.iter().any(|g| g.dominates(f)));
            self.forms.extend(undominated);
        }
    }

    /// The pairs serving `x = e^α − 1`, or `None` outside the covered
    /// range (the caller sweeps).
    fn forms(&self, em1: f64) -> Option<&[Form]> {
        if !(self.x_lo..=self.x_hi).contains(&em1) {
            return None;
        }
        let p = self.cuts.partition_point(|&c| c <= em1);
        Some(&self.forms[self.starts[p] as usize..self.starts[p + 1] as usize])
    }
}

/// The α-independent state behind one loss function's evaluations,
/// built from the matrix alone on its first evaluation (see the module
/// docs).
#[derive(Debug, Clone)]
pub(crate) enum Engine {
    /// An index of at most two pairs with one Corollary-2 candidate each
    /// — every 2-state matrix whose rows do not cross twice. Such a pair
    /// always keeps its candidate, so its sums are a closed form at every
    /// α, and these forms serve every α. Inline, and without the index
    /// they came from, so that a 2-state loss function stays small.
    Pairs { forms: [Form; 2], len: u8 },
    /// The pruning index over the matrix's distinct row pairs and, when
    /// the matrix qualifies, its piece table (boxed: a function without
    /// one pays a null pointer).
    Indexed {
        index: PairIndex,
        table: Option<Box<PieceTable>>,
    },
}

/// How the engine answers one evaluation: `Served` from closed forms,
/// or `Sweep` through the pruning index it hands over.
pub(crate) enum Route<'e, T> {
    Served(T),
    Sweep(&'e PairIndex),
}

impl Engine {
    /// Build the engine for `matrix`: a 2-state table when the index
    /// qualifies, else the index and its piece table, if any.
    pub(crate) fn build(matrix: &TransitionMatrix) -> Self {
        let index = PairIndex::new(matrix);
        let single = |&id: &u64| candidates(matrix, &index.support, id).nth(1).is_none();
        if index.len() <= 2 && index.pair_ids.iter().all(single) {
            let mut forms = [Form::solved(0); 2];
            let mut s = SweepScratch::default();
            for (f, &id) in forms.iter_mut().zip(&index.pair_ids) {
                *f = Form::at(matrix, &index, id, 1.0, &mut s);
            }
            let len = index.len() as u8;
            return Engine::Pairs { forms, len };
        }
        let table = PieceTable::build(matrix, &index).map(Box::new);
        Engine::Indexed { index, table }
    }

    /// Whether closed forms serve (some) α: a 2-state or a piece table.
    pub(crate) fn has_table(&self) -> bool {
        !matches!(self, Engine::Indexed { table: None, .. })
    }

    /// Merge the pairs serving `x = e^α − 1` as the sweep does: closed
    /// forms as they are, the rest solved. `Sweep` when no table serves
    /// `em1`.
    fn best(
        &self,
        matrix: &TransitionMatrix,
        em1: f64,
        s: &mut SweepScratch,
    ) -> Route<'_, Incumbent> {
        let (forms, index) = match self {
            Engine::Pairs { forms, len } => (&forms[..*len as usize], None),
            Engine::Indexed { index, table } => match table.as_ref().and_then(|t| t.forms(em1)) {
                Some(forms) => (forms, Some(index)),
                None => return Route::Sweep(index),
            },
        };
        let mut best = Incumbent::sentinel();
        for f in forms {
            let (a, b) = unpack_pair(f.id);
            let (q, d) = if f.q.is_nan() {
                let support = index.map(|i| i.support_of(a));
                solve_pair_into(matrix.row(a), matrix.row(b), em1, s, support)
            } else {
                (f.q, f.d)
            };
            let cand = Incumbent {
                obj: objective_em1(q, d, em1),
                q_row: a,
                d_row: b,
                q_sum: q,
                d_sum: d,
            };
            if cand.beats(&best) {
                best = cand;
            }
        }
        Route::Served(best)
    }

    /// `L(α)` without a witness when closed forms serve α. `alpha` must
    /// already have passed `check_alpha`.
    pub(crate) fn value(&self, matrix: &TransitionMatrix, alpha: f64) -> Route<'_, f64> {
        match self.best(matrix, alpha.exp_m1(), &mut SweepScratch::default()) {
            Route::Served(best) => Route::Served(best.value()),
            Route::Sweep(index) => Route::Sweep(index),
        }
    }

    /// `L(α)` with its witness when closed forms serve α: the merge, then
    /// one solve of the winner for its active set. `alpha` must already
    /// have passed `check_alpha`.
    pub(crate) fn witness(&self, matrix: &TransitionMatrix, alpha: f64) -> Route<'_, LossWitness> {
        self.witness_into(matrix, alpha, &mut SweepScratch::default())
    }

    /// As [`Engine::witness`], through the caller's scratch set.
    fn witness_into(
        &self,
        matrix: &TransitionMatrix,
        alpha: f64,
        s: &mut SweepScratch,
    ) -> Route<'_, LossWitness> {
        let em1 = alpha.exp_m1();
        match self.best(matrix, em1, s) {
            // The dense seed scan finds the support scan's active set.
            Route::Served(best) => Route::Served(finalize_witness(matrix, None, em1, best, s)),
            Route::Sweep(index) => Route::Sweep(index),
        }
    }
}

/// The upper envelope of the sweep over `[x_lo, x_hi]`, as `(start,
/// winner)` per piece, ascending. Two pieces' functions cross at most
/// once for `x > 0`, at `x* = (Q₂ + D₁ − Q₁ − D₂)/(Q₁·D₂ − Q₂·D₁)`; one
/// sweep at `x*` confirms the breakpoint, or finds a third function that
/// wins there, and the interval is split at `x*` and refined. `None` past
/// `max_pieces` pieces (or a probe budget of four sweeps per piece).
fn envelope(
    matrix: &TransitionMatrix,
    index: &PairIndex,
    x_lo: f64,
    x_hi: f64,
    max_pieces: usize,
    scratch: &mut SweepScratch,
) -> Option<Vec<(f64, Incumbent)>> {
    let mut probe = |x: f64| sweep_index(matrix, index, x, Incumbent::sentinel(), NO_SKIP, scratch);
    let mut pieces = vec![(x_lo, probe(x_lo))];
    // Right ends still to reach, nearest on top.
    let mut pending = vec![(x_hi, probe(x_hi))];
    let mut probes = 2;
    while let Some(&(xb, fb)) = pending.last() {
        let (xa, fa) = pieces[pieces.len() - 1];
        if same_function(&fa, &fb) {
            pending.pop();
            continue;
        }
        let cross = (fb.q_sum + fa.d_sum - fa.q_sum - fb.d_sum)
            / (fa.q_sum * fb.d_sum - fb.q_sum * fa.d_sum);
        // Rounding can push the crossing of two nearly equal functions
        // out of the interval; any split point is sound (the rival lists
        // carry the proof), so fall back to the midpoint.
        let x = if xa < cross && cross < xb {
            cross
        } else {
            0.5 * (xa + xb)
        };
        let fm = probe(x);
        probes += 1;
        if same_function(&fm, &fa) || same_function(&fm, &fb) {
            pending.pop();
            pieces.push((x, fb));
        } else {
            pending.push((x, fm));
        }
        if pieces.len() > max_pieces || probes > 4 * max_pieces + 2 {
            return None;
        }
    }
    Some(pieces)
}

/// Fill `prefix` with the running sums `(Q_k, D_k)` of pair `id`'s
/// candidates sorted by ratio `q_j/d_j` descending (`d_j = 0` first) —
/// the ratio-threshold sets of Theorem 4, one per `k`.
fn ratio_prefixes(
    matrix: &TransitionMatrix,
    index: &PairIndex,
    id: u64,
    cands: &mut Vec<(f64, f64)>,
    prefix: &mut Vec<(f64, f64)>,
) {
    cands.clear();
    cands.extend(candidates(matrix, &index.support, id).map(|(_, qj, dj)| (qj, dj)));
    // Correctly rounded ratios keep the exact order up to ties (q_j > 0,
    // so d_j = 0 gives +∞).
    cands.sort_unstable_by(|x, y| (y.0 / y.1).total_cmp(&(x.0 / x.1)));
    let (mut q, mut d) = (0.0, 0.0);
    for &(qj, dj) in cands.iter() {
        q += qj;
        d += dj;
        prefix.push((q, d));
    }
}

/// A batched evaluation session over one matrix and its [`Engine`].
///
/// The engine's per-evaluation state — the three sweep scratch buffers
/// and the warm-start witness — lives in the session instead of being
/// allocated (scratch) or mutex-cloned (witness) per call, so driving a
/// whole α grid or a long recursion through one session costs one
/// allocation set total. α the engine's closed forms serve is evaluated
/// from them; every other α sweeps, warm-started from the session's
/// previous witness. Results are bit-identical to independent
/// [`temporal_loss_witness_indexed`] calls: the closed forms are exact by
/// construction and the warm chain is the same behaviorally-invisible
/// Theorem-4 revalidation.
///
/// This is the substrate of [`crate::loss::LossEvaluator`], which the
/// supremum/bisection loops in [`crate::supremum`], [`crate::release`],
/// and [`crate::wevent`] hold for a whole search.
#[derive(Debug)]
pub(crate) struct EvalSession<'a> {
    matrix: &'a TransitionMatrix,
    engine: &'a Engine,
    scratch: SweepScratch,
    warm: Option<LossWitness>,
    evals: u64,
}

impl<'a> EvalSession<'a> {
    /// Open a session. `engine` must come from [`Engine::build`] on this
    /// same `matrix`. The scratch set grows on the first solve, so a
    /// session the closed forms serve entirely allocates nothing.
    pub(crate) fn new(matrix: &'a TransitionMatrix, engine: &'a Engine) -> Self {
        EvalSession {
            matrix,
            engine,
            scratch: SweepScratch::default(),
            warm: None,
            evals: 0,
        }
    }

    /// Seed the warm chain (e.g. from a cache persisted outside the
    /// session). A stale or foreign witness is safe — it is revalidated
    /// against the matrix rows before use.
    pub(crate) fn seed(&mut self, warm: Option<LossWitness>) {
        self.warm = warm;
    }

    /// Evaluate `L(α)` and expose the maximizing witness by reference
    /// (it doubles as the warm seed of the next evaluation).
    pub(crate) fn witness(&mut self, alpha: f64) -> Result<&LossWitness> {
        check_alpha(alpha)?;
        let w = match self
            .engine
            .witness_into(self.matrix, alpha, &mut self.scratch)
        {
            Route::Served(w) => w,
            Route::Sweep(index) => eval_indexed(
                self.matrix,
                index,
                alpha,
                self.warm.as_ref(),
                &mut self.scratch,
            )?,
        };
        self.evals += 1;
        Ok(self.warm.insert(w))
    }

    /// Evaluate `L(α)`: from the closed forms when they serve α, without
    /// a witness, else through [`EvalSession::witness`].
    pub(crate) fn eval(&mut self, alpha: f64) -> Result<f64> {
        check_alpha(alpha)?;
        match self
            .engine
            .best(self.matrix, alpha.exp_m1(), &mut self.scratch)
        {
            Route::Served(best) => {
                self.evals += 1;
                Ok(best.value())
            }
            Route::Sweep(_) => self.witness(alpha).map(|w| w.value),
        }
    }

    /// Number of loss evaluations performed through this session.
    pub(crate) fn evals(&self) -> u64 {
        self.evals
    }

    /// Whether closed forms serve (some) α for this session.
    pub(crate) fn has_table(&self) -> bool {
        self.engine.has_table()
    }

    /// Take the warm witness out of a session that cannot be moved from
    /// (e.g. inside a `Drop` impl); the session stays usable but cold.
    pub(crate) fn take_warm(&mut self) -> Option<LossWitness> {
        self.warm.take()
    }
}

/// Evaluate `L(α)` over all ordered row pairs of `matrix` (Algorithm 1
/// lines 2 and 12), returning the maximizing witness.
///
/// Builds a fresh [`PairIndex`] per call; recursions should go through
/// [`crate::TemporalLossFunction`], which caches the index, the piece
/// table or the warm witness across steps.
///
/// `α = 0` always yields `L = 0` (no prior leakage to amplify); a matrix
/// with a single state likewise yields `0`.
pub fn temporal_loss_witness(matrix: &TransitionMatrix, alpha: f64) -> Result<LossWitness> {
    let index = PairIndex::try_new(matrix)?;
    temporal_loss_witness_indexed(matrix, &index, alpha, None)
}

/// Evaluate the temporal loss function `L(α)` (Equations 23/24).
pub fn temporal_loss(matrix: &TransitionMatrix, alpha: f64) -> Result<f64> {
    temporal_loss_witness(matrix, alpha).map(|w| w.value)
}

/// The naive unpruned, single-threaded row-major sweep (still with the
/// zero-allocation inner loop, but on the dense candidate scan — no
/// pruning index, no sparse-row support lists) — the ablation baseline
/// for the pruning benchmarks, and a second implementation the property
/// tests hold bit-identical to the fast engine.
pub fn temporal_loss_witness_unpruned(
    matrix: &TransitionMatrix,
    alpha: f64,
) -> Result<LossWitness> {
    check_alpha(alpha)?;
    let n = matrix.n();
    if n < 2 || alpha == 0.0 {
        return Ok(LossWitness::zero());
    }
    let em1 = alpha.exp_m1();
    let mut scratch = SweepScratch::with_capacity(n);
    let mut best = Incumbent::sentinel();
    let mut best_active = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (q, d) = solve_pair_into(matrix.row(a), matrix.row(b), em1, &mut scratch, None);
            let cand = Incumbent {
                obj: objective_em1(q, d, em1),
                q_row: a,
                d_row: b,
                q_sum: q,
                d_sum: d,
            };
            if cand.beats(&best) {
                best = cand;
                best_active.clear();
                best_active.extend_from_slice(&scratch.idx);
            }
        }
    }
    Ok(best.into_witness(best_active))
}

/// Brute-force reference via Lemma 3: the optimum places each variable at
/// either `m` or `e^α m`, so `L(α) = max_S log (q_S(e^α−1)+1)/(d_S(e^α−1)+1)`
/// over all index subsets `S` with `q_S = Σ_{j∈S} q_j`. Exponential in `n`;
/// intended for `n ≤ ~16` in tests.
pub fn temporal_loss_brute_force(matrix: &TransitionMatrix, alpha: f64) -> Result<f64> {
    check_alpha(alpha)?;
    let n = matrix.n();
    assert!(
        n <= 20,
        "brute force is exponential; use temporal_loss for large n"
    );
    let mut best = 0.0_f64;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (qr, dr) = (matrix.row(a), matrix.row(b));
            for mask in 0..(1u32 << n) {
                let mut qs = 0.0;
                let mut ds = 0.0;
                for j in 0..n {
                    if mask & (1 << j) != 0 {
                        qs += qr[j];
                        ds += dr[j];
                    }
                }
                best = best.max(objective(qs, ds, alpha).ln());
            }
        }
    }
    Ok(best)
}

/// How the generic-LP baseline should drive its solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpBaseline {
    /// One Charnes–Cooper LP per row pair (the "Gurobi-style" path).
    CharnesCooper,
    /// A Dinkelbach sequence of LPs per row pair (the "lp_solve-style"
    /// path the paper describes: "converted into a sequence of linear
    /// programming problems").
    Dinkelbach,
    /// Charnes–Cooper on the sparse revised simplex — the tuned generic
    /// solver; still generic, still losing to Algorithm 1 (ablation).
    CharnesCooperRevised,
}

/// Evaluate `L(α)` with a generic LP solver instead of Algorithm 1 —
/// the Figure 5 baseline. Orders of magnitude slower by design.
pub fn temporal_loss_lp(
    matrix: &TransitionMatrix,
    alpha: f64,
    baseline: LpBaseline,
) -> Result<f64> {
    check_alpha(alpha)?;
    let n = matrix.n();
    if n < 2 {
        return Ok(0.0);
    }
    let program = PaperProgram::new(n, alpha)?;
    let mut best = 0.0_f64;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let sol = match baseline {
                LpBaseline::CharnesCooper => {
                    program.max_ratio_charnes_cooper(matrix.row(a), matrix.row(b))?
                }
                LpBaseline::Dinkelbach => {
                    program.max_ratio_dinkelbach(matrix.row(a), matrix.row(b))?
                }
                LpBaseline::CharnesCooperRevised => {
                    program.max_ratio_charnes_cooper_revised(matrix.row(a), matrix.row(b))?
                }
            };
            best = best.max(sol.value.ln());
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(rows: Vec<Vec<f64>>) -> TransitionMatrix {
        TransitionMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn figure3_moderate_correlation_increment() {
        // P = [[0.8, 0.2], [0, 1]]: candidates for rows (0,1) are index 0
        // (0.8 > 0); q = 0.8, d = 0. L(0.1) = log(0.8(e^0.1−1)+1).
        let p = m(vec![vec![0.8, 0.2], vec![0.0, 1.0]]);
        let expected = (0.8 * 0.1_f64.exp_m1() + 1.0).ln();
        let got = temporal_loss(&p, 0.1).unwrap();
        assert!(
            (got - expected).abs() < 1e-12,
            "got {got}, expected {expected}"
        );
        // Witness records q = 0.8, d = 0 on rows (0, 1), active index {0}.
        let w = temporal_loss_witness(&p, 0.1).unwrap();
        assert_eq!((w.q_row, w.d_row), (0, 1));
        assert!((w.q_sum - 0.8).abs() < 1e-12);
        assert_eq!(w.d_sum, 0.0);
        assert_eq!(w.active, vec![0]);
    }

    #[test]
    fn strongest_correlation_is_identity_loss() {
        // Identity matrix: q = 1, d = 0 ⇒ L(α) = log(e^α) = α (Remark 1's
        // upper bound: continuous release equals re-releasing D).
        let p = TransitionMatrix::identity(3).unwrap();
        for alpha in [0.05, 0.3, 1.0, 4.0] {
            let got = temporal_loss(&p, alpha).unwrap();
            assert!((got - alpha).abs() < 1e-12, "alpha={alpha}: got {got}");
        }
    }

    #[test]
    fn no_correlation_gives_zero_loss() {
        // Uniform matrix (all rows equal): adversary learns nothing from
        // the previous release ⇒ L(α) = 0 (Remark 1's lower bound).
        let p = TransitionMatrix::uniform(4).unwrap();
        for alpha in [0.1, 1.0, 10.0] {
            assert_eq!(temporal_loss(&p, alpha).unwrap(), 0.0);
        }
        // ...and the pruning index drops every pair at build time.
        assert!(PairIndex::new(&p).is_empty());
    }

    #[test]
    fn alpha_zero_gives_zero_loss() {
        let p = m(vec![vec![0.9, 0.1], vec![0.2, 0.8]]);
        assert_eq!(temporal_loss(&p, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn single_state_matrix_has_no_loss() {
        let p = m(vec![vec![1.0]]);
        assert_eq!(temporal_loss(&p, 5.0).unwrap(), 0.0);
    }

    #[test]
    fn invalid_alpha_rejected() {
        let p = TransitionMatrix::identity(2).unwrap();
        assert!(temporal_loss(&p, -0.1).is_err());
        assert!(temporal_loss(&p, f64::NAN).is_err());
        assert!(temporal_loss(&p, f64::INFINITY).is_err());
    }

    #[test]
    fn loss_is_bounded_by_remark1() {
        // 0 ≤ L(α) ≤ α for stochastic matrices.
        let p = m(vec![
            vec![0.5, 0.3, 0.2],
            vec![0.1, 0.6, 0.3],
            vec![0.25, 0.25, 0.5],
        ]);
        for alpha in [0.01, 0.5, 2.0, 8.0] {
            let l = temporal_loss(&p, alpha).unwrap();
            assert!(l >= 0.0);
            assert!(l <= alpha + 1e-12, "alpha={alpha}: l={l}");
        }
    }

    #[test]
    fn loss_is_monotone_in_alpha() {
        let p = m(vec![vec![0.7, 0.3], vec![0.1, 0.9]]);
        let mut prev = 0.0;
        for step in 1..=40 {
            let alpha = step as f64 * 0.25;
            let l = temporal_loss(&p, alpha).unwrap();
            assert!(l >= prev - 1e-12, "non-monotone at alpha={alpha}");
            prev = l;
        }
    }

    #[test]
    fn pruning_update_actually_fires() {
        // Construct a pair where the Corollary-2 seed is NOT optimal: a
        // candidate with small q_j/d_j ratio must be dropped by the
        // Inequality-(21) sweep at large α.
        let q_row = [0.55, 0.35, 0.10];
        let d_row = [0.05, 0.34, 0.61];
        let alpha = 3.0;
        // Seed: indices 0 (0.55>0.05) and 1 (0.35>0.34).
        let (q, d) = solve_pair(&q_row, &d_row, alpha);
        // Index 1 must be pruned: with both active the threshold exceeds
        // q_1/d_1 ≈ 1.03.
        assert!((q - 0.55).abs() < 1e-12, "q={q}");
        assert!((d - 0.05).abs() < 1e-12, "d={d}");
        // And the pruned answer beats the naive seed's objective.
        let naive = objective(0.9, 0.39, alpha);
        let pruned = objective(q, d, alpha);
        assert!(pruned > naive);
    }

    #[test]
    fn theorem4_inequalities_hold_for_returned_subsets() {
        // White-box check: the active subset returned by Algorithm 1 must
        // satisfy Inequality (21) for every member and Inequality (22)
        // for every non-member — the sufficient optimality conditions of
        // Theorem 4 — on a grid of row pairs and α values.
        let rows: [&[f64]; 4] = [
            &[0.55, 0.35, 0.10],
            &[0.05, 0.34, 0.61],
            &[0.8, 0.1, 0.1],
            &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        ];
        for qr in rows {
            for dr in rows {
                for alpha in [0.1, 0.9, 3.0, 12.0] {
                    let (q, d, active) = solve_pair_active(qr, dr, alpha);
                    let threshold = objective(q, d, alpha);
                    for j in 0..qr.len() {
                        let lhs = qr[j];
                        let rhs = dr[j] * threshold;
                        if active.contains(&j) {
                            assert!(
                                lhs > rhs - 1e-12,
                                "Ineq. (21) violated at j={j}, alpha={alpha}"
                            );
                        } else {
                            assert!(
                                lhs <= rhs + 1e-12,
                                "Ineq. (22) violated at j={j}, alpha={alpha}: \
                                 {lhs} > {rhs}"
                            );
                        }
                    }
                    // The validator must accept exactly this subset...
                    let em1 = alpha.exp_m1();
                    assert!(witness_still_optimal(qr, dr, &active, q, d, em1));
                }
            }
        }
    }

    #[test]
    fn validator_rejects_stale_active_sets() {
        // At α = 0.02 both candidates of this pair are active (the
        // threshold ≈ 1.0102 sits below q_1/d_1 ≈ 1.0294); at α = 3 index
        // 1 must leave. Each α's active set therefore fails validation at
        // the other α.
        let q_row = [0.55, 0.35, 0.10];
        let d_row = [0.05, 0.34, 0.61];
        let (q_lo, d_lo, act_lo) = solve_pair_active(&q_row, &d_row, 0.02);
        let (q_hi, d_hi, act_hi) = solve_pair_active(&q_row, &d_row, 3.0);
        assert_eq!(act_lo, vec![0, 1]);
        assert_eq!(act_hi, vec![0]);
        assert!(!witness_still_optimal(
            &q_row,
            &d_row,
            &act_lo,
            q_lo,
            d_lo,
            3.0_f64.exp_m1()
        ));
        assert!(!witness_still_optimal(
            &q_row,
            &d_row,
            &act_hi,
            q_hi,
            d_hi,
            0.02_f64.exp_m1()
        ));
    }

    #[test]
    fn stale_warm_witness_from_another_matrix_is_harmless() {
        // A witness cached against matrix A, fed into an evaluation of
        // matrix B, must not change B's result: the subset sums are
        // re-derived from B's rows before validation.
        let mut rng = StdRng::seed_from_u64(21);
        let a = TransitionMatrix::random_uniform(6, &mut rng).unwrap();
        let b = TransitionMatrix::random_uniform(6, &mut rng).unwrap();
        let index_b = PairIndex::new(&b);
        for alpha in [0.05, 0.8, 5.0] {
            let stale = temporal_loss_witness(&a, alpha).unwrap();
            let cold = temporal_loss_witness(&b, alpha).unwrap();
            let warmed = temporal_loss_witness_indexed(&b, &index_b, alpha, Some(&stale)).unwrap();
            assert_eq!(warmed, cold, "alpha={alpha}");
        }
        // A witness whose indices exceed the domain is ignored, not a panic.
        let big = TransitionMatrix::random_uniform(12, &mut rng).unwrap();
        let oversized = temporal_loss_witness(&big, 1.0).unwrap();
        let warmed = temporal_loss_witness_indexed(&b, &index_b, 1.0, Some(&oversized)).unwrap();
        assert_eq!(warmed, temporal_loss_witness(&b, 1.0).unwrap());
    }

    #[test]
    fn mismatched_index_is_rejected() {
        let p2 = TransitionMatrix::identity(2).unwrap();
        let p3 = TransitionMatrix::identity(3).unwrap();
        let index3 = PairIndex::new(&p3);
        assert!(matches!(
            temporal_loss_witness_indexed(&p2, &index3, 1.0, None),
            Err(crate::TplError::DimensionMismatch {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn warm_start_matches_cold_across_alpha_jumps() {
        // Warm-started evaluation must be bit-identical to cold, even when
        // α jumps around non-monotonically (as in the balance searches).
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3usize, 6, 12] {
            let p = TransitionMatrix::random_uniform(n, &mut rng).unwrap();
            let index = PairIndex::new(&p);
            let mut warm: Option<LossWitness> = None;
            for alpha in [0.5, 0.52, 0.6, 5.0, 0.1, 2.0, 2.01, 40.0, 0.01] {
                let cold = temporal_loss_witness(&p, alpha).unwrap();
                let warmed =
                    temporal_loss_witness_indexed(&p, &index, alpha, warm.as_ref()).unwrap();
                assert_eq!(cold, warmed, "n={n} alpha={alpha}");
                warm = Some(warmed);
            }
        }
    }

    /// A near-deterministic matrix: a cycle permutation with `extra`
    /// small off-pattern entries — mostly-zero rows, the sparse fast
    /// path's target shape.
    fn near_deterministic(n: usize, extra: usize, seed: u64) -> TransitionMatrix {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = vec![vec![0.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            row[(i + 1) % n] = 1.0;
        }
        for _ in 0..extra {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            let mass = 0.05 + 0.1 * rng.gen::<f64>();
            let main = (i + 1) % n;
            if j != main && rows[i][main] > mass {
                rows[i][main] -= mass;
                rows[i][j] += mass;
            }
        }
        TransitionMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn sparse_support_seed_is_bit_identical_to_dense() {
        // Direct per-pair check: seeding from the support list must give
        // the same sums and the same active set as the dense scan, on
        // rows with many exact zeros.
        for seed in 0..5u64 {
            let p = near_deterministic(12, 6, seed);
            let index = PairIndex::new(&p);
            for a in 0..p.n() {
                // The support is exactly the positive entries, ascending.
                let expect: Vec<u32> = p
                    .row(a)
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v > 0.0)
                    .map(|(j, _)| j as u32)
                    .collect();
                assert_eq!(index.support_of(a), expect.as_slice());
                for b in 0..p.n() {
                    if a == b {
                        continue;
                    }
                    for alpha in [0.05f64, 0.9, 7.0] {
                        let em1 = alpha.exp_m1();
                        let mut dense = SweepScratch::with_capacity(p.n());
                        let mut sparse = SweepScratch::with_capacity(p.n());
                        let (qd, dd) = solve_pair_into(p.row(a), p.row(b), em1, &mut dense, None);
                        let (qs, ds) = solve_pair_into(
                            p.row(a),
                            p.row(b),
                            em1,
                            &mut sparse,
                            Some(index.support_of(a)),
                        );
                        assert_eq!(qd.to_bits(), qs.to_bits(), "a={a} b={b} alpha={alpha}");
                        assert_eq!(dd.to_bits(), ds.to_bits(), "a={a} b={b} alpha={alpha}");
                        assert_eq!(dense.idx, sparse.idx, "a={a} b={b} alpha={alpha}");
                    }
                }
            }
            // And end to end: the engine (sparse seeding) equals the
            // dense unpruned sweep, witness for witness.
            for alpha in [0.02, 0.5, 3.0, 40.0] {
                let fast = temporal_loss_witness(&p, alpha).unwrap();
                let naive = temporal_loss_witness_unpruned(&p, alpha).unwrap();
                assert_eq!(fast, naive, "seed={seed} alpha={alpha}");
                assert_eq!(fast.value.to_bits(), naive.value.to_bits());
            }
        }
    }

    #[test]
    fn pruned_matches_unpruned_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [2usize, 5, 17, 30] {
            let p = TransitionMatrix::random_uniform(n, &mut rng).unwrap();
            for alpha in [0.05, 1.0, 10.0, 80.0] {
                let fast = temporal_loss_witness(&p, alpha).unwrap();
                let naive = temporal_loss_witness_unpruned(&p, alpha).unwrap();
                assert_eq!(fast, naive, "n={n} alpha={alpha}");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_structured_matrices() {
        let cases = [
            m(vec![vec![0.8, 0.2], vec![0.0, 1.0]]),
            m(vec![vec![0.8, 0.2], vec![0.1, 0.9]]),
            m(vec![
                vec![0.1, 0.2, 0.7],
                vec![0.0, 0.0, 1.0],
                vec![0.3, 0.3, 0.4],
            ]),
            m(vec![
                vec![0.2, 0.3, 0.5],
                vec![0.1, 0.1, 0.8],
                vec![0.6, 0.2, 0.2],
            ]),
        ];
        for p in &cases {
            for alpha in [0.1, 0.5, 1.0, 3.0] {
                let fast = temporal_loss(p, alpha).unwrap();
                let brute = temporal_loss_brute_force(p, alpha).unwrap();
                assert!(
                    (fast - brute).abs() < 1e-10,
                    "matrix=\n{p}alpha={alpha}: fast={fast} brute={brute}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_lp_baselines() {
        let p = m(vec![
            vec![0.1, 0.2, 0.7],
            vec![0.0, 0.0, 1.0],
            vec![0.3, 0.3, 0.4],
        ]);
        for alpha in [0.25, 1.0, 2.0] {
            let fast = temporal_loss(&p, alpha).unwrap();
            let cc = temporal_loss_lp(&p, alpha, LpBaseline::CharnesCooper).unwrap();
            let dk = temporal_loss_lp(&p, alpha, LpBaseline::Dinkelbach).unwrap();
            let rev = temporal_loss_lp(&p, alpha, LpBaseline::CharnesCooperRevised).unwrap();
            assert!(
                (fast - cc).abs() < 1e-6,
                "alpha={alpha}: fast={fast} cc={cc}"
            );
            assert!(
                (fast - dk).abs() < 1e-6,
                "alpha={alpha}: fast={fast} dk={dk}"
            );
            assert!(
                (fast - rev).abs() < 1e-6,
                "alpha={alpha}: fast={fast} rev={rev}"
            );
        }
    }

    #[test]
    fn witness_value_at_is_consistent() {
        let p = m(vec![vec![0.8, 0.2], vec![0.0, 1.0]]);
        let w = temporal_loss_witness(&p, 0.7).unwrap();
        assert!((w.value_at(0.7) - w.value).abs() < 1e-12);
    }

    #[test]
    fn large_alpha_saturates_at_log_q_over_d() {
        // For d > 0 the objective tends to q/d as α → ∞.
        let p = m(vec![vec![0.8, 0.2], vec![0.1, 0.9]]);
        let l = temporal_loss(&p, 60.0).unwrap();
        assert!((l - (0.8_f64 / 0.1).ln()).abs() < 1e-6, "l={l}");
    }

    #[test]
    fn pair_index_orders_and_bounds() {
        let p = m(vec![
            vec![0.1, 0.2, 0.7],
            vec![0.0, 0.0, 1.0],
            vec![0.3, 0.3, 0.4],
        ]);
        let index = PairIndex::new(&p);
        assert_eq!(index.n(), 3);
        assert!(!index.is_empty() && index.len() <= 6);
        // Sorted by g0 (gap mass = total variation) descending.
        for w in index.g0.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // Each pair's bounds genuinely dominate its optimum across α.
        for alpha in [0.2f64, 1.0, 6.0] {
            let em1 = alpha.exp_m1();
            for i in 0..index.len() {
                let (a, b) = unpack_pair(index.pair_ids[i]);
                let (q, d) = solve_pair(p.row(a), p.row(b), alpha);
                let obj = objective(q, d, alpha);
                assert!(obj <= index.g0[i] * em1 + 1.0 + 1e-12);
                assert!(obj <= index.rmax[i].max(1.0) + 1e-12);
            }
        }
    }

    /// The reference reduction for one pair's `g₀`/`r_max` bounds: a
    /// fused branchy left-to-right scan over the dense rows, and `g₀`
    /// summed in the build's lane order (index `j` into lane
    /// `j mod LANES` below the last full chunk, the rest after the fold).
    fn pair_bounds_scalar(q_row: &[f64], d_row: &[f64]) -> (f64, f64, f64) {
        let split = q_row.len() - q_row.len() % LANES;
        let (mut g0, mut lanes, mut tail) = (0.0, [0.0; LANES], Vec::new());
        let mut rmax = 1.0_f64;
        for (j, (&qj, &dj)) in q_row.iter().zip(d_row).enumerate() {
            if qj > dj {
                g0 += qj - dj;
                rmax = rmax.max(if dj == 0.0 { f64::INFINITY } else { qj / dj });
                if j < split {
                    lanes[j % LANES] += qj - dj;
                } else {
                    tail.push(qj - dj);
                }
            }
        }
        let lane_g0 = tail
            .iter()
            .fold(lanes.iter().fold(0.0, |s, g| s + g), |s, t| s + t);
        (g0, rmax, lane_g0)
    }

    /// A pair's Corollary-2 candidates as comparable bits — the
    /// reference form of the duplicate rule.
    fn candidate_bits(p: &TransitionMatrix, a: usize, b: usize) -> Vec<(usize, u64, u64)> {
        (0..p.n())
            .filter(|&j| p.get(a, j) > p.get(b, j))
            .map(|j| (j, p.get(a, j).to_bits(), p.get(b, j).to_bits()))
            .collect()
    }

    #[test]
    fn index_build_matches_scalar_reference() {
        // The support-seeded, lane-chunked build must retain exactly the
        // pair set the dense scalar scan finds once the duplicate rule is
        // applied (of pairs with bitwise-equal candidates, the lowest
        // `(q_row, d_row)` stays). The lane-summed g₀ may differ from the
        // left-to-right sum in low bits (and thus permute near-tied pairs
        // in the sort) — harmless, since the bounds only steer
        // conservative pruning and the sweep max is visit-order-
        // independent — but it must equal the lane-order sum exactly.
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2usize, 3, 7, 19, 33] {
            let dense = TransitionMatrix::random_uniform(n, &mut rng).unwrap();
            let sparse = near_deterministic(n, 2, n as u64);
            for p in [&dense, &sparse] {
                let index = PairIndex::new(p);
                let mut reference = Vec::new();
                let mut seen: Vec<Vec<(usize, u64, u64)>> = Vec::new();
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        let (g0, rmax, lane_g0) = pair_bounds_scalar(p.row(a), p.row(b));
                        let cands = candidate_bits(p, a, b);
                        if g0 > 0.0 && !seen.contains(&cands) {
                            reference.push((pack_pair(a, b), g0, rmax, lane_g0));
                            seen.push(cands);
                        }
                    }
                }
                let mut ids: Vec<u64> = index.pair_ids.clone();
                ids.sort_unstable();
                let ref_ids: Vec<u64> = reference.iter().map(|r| r.0).collect();
                assert_eq!(ids, ref_ids, "n={n}");
                for i in 0..index.len() {
                    let r = reference[ref_ids.binary_search(&index.pair_ids[i]).unwrap()];
                    assert!((index.g0[i] - r.1).abs() <= 1e-12 * r.1, "n={n} i={i}");
                    assert_eq!(index.rmax[i].to_bits(), r.2.to_bits(), "n={n} i={i}");
                    // Both reductions, the support gather on sparse rows
                    // and the lanes on dense ones, sum g₀ in the lane
                    // order, so it agrees with that order to the bit.
                    assert_eq!(index.g0[i].to_bits(), r.3.to_bits(), "n={n} i={i}");
                }
                // The guarantee that matters: the engine's end-to-end
                // witnesses are the naive sweep's bits.
                for alpha in [0.05, 1.0, 12.0] {
                    let fast = temporal_loss_witness(p, alpha).unwrap();
                    let naive = temporal_loss_witness_unpruned(p, alpha).unwrap();
                    assert_eq!(fast, naive, "n={n} alpha={alpha}");
                    assert_eq!(
                        fast.value.to_bits(),
                        naive.value.to_bits(),
                        "n={n} alpha={alpha}"
                    );
                }
            }
        }
    }

    /// Sticky click-stream rows `P(i, j) = s·[i = j] + (1 − s)·p_j` with
    /// random popularity `p`: every pair `(a, ·)` has the one candidate
    /// `a`, with the same coefficients, so the index keeps one pair per
    /// row.
    fn click_stream(n: usize, rng: &mut StdRng) -> TransitionMatrix {
        use rand::Rng;
        let popularity: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05f64..1.0)).collect();
        let total: f64 = popularity.iter().sum();
        let stay = rng.gen_range(0.6f64..0.9);
        let rows = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        f64::from(u8::from(i == j)) * stay + (1.0 - stay) * popularity[j] / total
                    })
                    .collect()
            })
            .collect();
        TransitionMatrix::from_rows(rows).unwrap()
    }

    /// A road network on a ring with √n-wide grid jumps (five random
    /// neighbors per row, every 16th row a one-way street), mixed with a
    /// uniform restart of weight `restart`.
    fn road(n: usize, restart: f64, rng: &mut StdRng) -> TransitionMatrix {
        use rand::Rng;
        let width = (n as f64).sqrt().ceil() as usize;
        let rows = (0..n)
            .map(|from| {
                let mut row = vec![0.0; n];
                if from % 16 == 15 {
                    row[(from + 1) % n] = 1.0;
                } else {
                    for to in [
                        from,
                        from + 1,
                        from + n - 1,
                        from + width,
                        from + n - width % n,
                    ] {
                        row[to % n] += rng.gen_range(1e-3f64..1.0);
                    }
                    let total: f64 = row.iter().sum();
                    row.iter_mut().for_each(|v| *v /= total);
                }
                row.iter()
                    .map(|v| (1.0 - restart) * v + restart / n as f64)
                    .collect()
            })
            .collect();
        TransitionMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn duplicate_pairs_leave_the_index() {
        let mut rng = StdRng::seed_from_u64(19);
        for n in [16usize, 32] {
            let click = click_stream(n, &mut rng);
            assert!(PairIndex::new(&click).len() <= n, "click-stream n={n}");
            let full = n * (n - 1);
            let shapes = [
                ("road+restart", road(n, 0.05, &mut rng)),
                ("near-deterministic", near_deterministic(n, n / 2, n as u64)),
            ];
            for (name, p) in &shapes {
                let index = PairIndex::new(p);
                assert!(index.len() < full, "{name} n={n}: {} pairs", index.len());
            }
            for p in shapes.iter().map(|(_, p)| p).chain([&click]) {
                let index = PairIndex::new(p);
                let kept: Vec<(usize, usize)> =
                    index.pair_ids.iter().map(|&id| unpack_pair(id)).collect();
                // Every informative pair the index dropped has the
                // candidates of a kept pair below it.
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        let cands = candidate_bits(p, a, b);
                        if cands.is_empty() || kept.contains(&(a, b)) {
                            continue;
                        }
                        assert!(
                            kept.iter()
                                .any(|&k| k < (a, b) && candidate_bits(p, k.0, k.1) == cands),
                            "n={n}: dropped ({a}, {b}) duplicates no lower kept pair"
                        );
                    }
                }
                // And the engine over the smaller index is the naive
                // sweep's bits.
                for alpha in [0.003, 0.05, 0.7, 4.0, 30.0] {
                    let fast = temporal_loss_witness(p, alpha).unwrap();
                    let naive = temporal_loss_witness_unpruned(p, alpha).unwrap();
                    assert_eq!(fast, naive, "n={n} alpha={alpha}");
                    assert_eq!(fast.value.to_bits(), naive.value.to_bits());
                }
            }
        }
    }

    #[test]
    fn alpha_past_the_exp_m1_overflow_is_rejected() {
        use crate::{TplError, MAX_ALPHA};
        // The bound is exactly the last α whose e^α − 1 is finite.
        assert!(MAX_ALPHA.exp_m1().is_finite());
        assert!(MAX_ALPHA.next_up().exp_m1().is_infinite());
        let ident = TransitionMatrix::identity(2).unwrap();
        let sticky = m(vec![vec![0.8, 0.2], vec![0.1, 0.9]]);
        for p in [&ident, &sticky] {
            for alpha in [MAX_ALPHA.next_up(), 710.0] {
                let loss = crate::TemporalLossFunction::new(p.clone());
                assert_eq!(temporal_loss(p, alpha), Err(TplError::InvalidAlpha(alpha)));
                assert!(temporal_loss_witness_unpruned(p, alpha).is_err());
                assert!(loss.eval(alpha).is_err());
                assert!(loss.evaluator().eval(alpha).is_err());
            }
        }
        // At the bound both still give their finite values: α itself
        // (Remark 1's maximum) and ln(q/d) = ln 8 (the saturation).
        let at = temporal_loss(&ident, MAX_ALPHA).unwrap();
        assert!((at - MAX_ALPHA).abs() < 1e-9, "{at}");
        let at = temporal_loss(&sticky, MAX_ALPHA).unwrap();
        assert!((at - 8f64.ln()).abs() < 1e-12, "{at}");
        assert_eq!(
            at.to_bits(),
            temporal_loss_witness_unpruned(&sticky, MAX_ALPHA)
                .unwrap()
                .value
                .to_bits()
        );
    }

    /// Random rows with about 60% exact zeros.
    fn sparse_random(n: usize, rng: &mut StdRng) -> TransitionMatrix {
        use rand::Rng;
        let rows = (0..n)
            .map(|i| {
                let mut row: Vec<f64> = (0..n)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.6 {
                            0.0
                        } else {
                            rng.gen()
                        }
                    })
                    .collect();
                row[i] += 0.01;
                let total: f64 = row.iter().sum();
                row.iter().map(|v| v / total).collect()
            })
            .collect();
        TransitionMatrix::from_rows(rows).unwrap()
    }

    /// Compare two witnesses field by field, floats by their bits.
    fn assert_same_bits(got: &LossWitness, want: &LossWitness, ctx: &str) {
        assert_eq!((got.q_row, got.d_row), (want.q_row, want.d_row), "{ctx}");
        assert_eq!(got.q_sum.to_bits(), want.q_sum.to_bits(), "{ctx}");
        assert_eq!(got.d_sum.to_bits(), want.d_sum.to_bits(), "{ctx}");
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "{ctx}");
        assert_eq!(got.active, want.active, "{ctx}");
    }

    #[test]
    fn table_served_witnesses_equal_the_unpruned_sweep() {
        // Differential property test over random matrices with n ≤ 32,
        // half of them duplicate-heavy shapes: full witnesses from the
        // piece table (through `TemporalLossFunction::witness` and
        // through a `LossEvaluator`) against the naive sweep, at random
        // α across the covered range and at every breakpoint ± up to 64
        // ulps, where rounding decides between two pieces.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(2024);
        let mut tabled = 0;
        let cases = 60;
        for case in 0..cases {
            let n = rng.gen_range(3usize..=32);
            let p = match case % 6 {
                0 => TransitionMatrix::random_uniform(n, &mut rng).unwrap(),
                1 => sparse_random(n, &mut rng),
                2 => click_stream(n, &mut rng),
                3 => road(n, 0.05, &mut rng),
                4 => road(n, 0.0, &mut rng),
                _ => near_deterministic(n, n, rng.gen()),
            };
            let index = PairIndex::new(&p);
            let Some(table) = PieceTable::build(&p, &index) else {
                continue;
            };
            tabled += 1;
            let (lo, hi) = (TABLE_ALPHA.0.ln(), TABLE_ALPHA.1.ln());
            let mut alphas: Vec<f64> = (0..12).map(|_| rng.gen_range(lo..hi).exp()).collect();
            alphas.extend([TABLE_ALPHA.0, TABLE_ALPHA.1]);
            for &cut in &table.cuts {
                let at = cut.ln_1p();
                for k in [0, 1, 2, 3, 4, 8, 16, 32, 64] {
                    let (mut up, mut down) = (at, at);
                    for _ in 0..k {
                        up = up.next_up();
                        down = down.next_down();
                    }
                    alphas.extend([up, down]);
                }
            }
            let loss = crate::TemporalLossFunction::new(p.clone());
            let mut ev = loss.evaluator();
            for &alpha in &alphas {
                let naive = temporal_loss_witness_unpruned(&p, alpha).unwrap();
                let ctx = format!("case {case} n={n} alpha={alpha:e}");
                assert_same_bits(&loss.witness(alpha).unwrap(), &naive, &ctx);
                assert_same_bits(ev.witness(alpha).unwrap(), &naive, &ctx);
            }
            assert!(
                loss.cached_witness().is_none(),
                "case {case}: the table served all"
            );
        }
        assert!(
            tabled >= cases * 2 / 3,
            "only {tabled} of {cases} cases built a table"
        );
    }

    #[test]
    fn try_new_rejects_nan_poisoned_matrix() {
        // A hand-built serde value bypasses TransitionMatrix's validating
        // constructors — exactly the path try_new guards.
        let good = m(vec![vec![0.5, 0.5], vec![0.25, 0.75]]);
        assert!(PairIndex::try_new(&good).is_ok());
        for bad_value in [f64::NAN, f64::INFINITY, -0.25] {
            // Poison data[2] (row 1, column 0) through the round-trip.
            let mut v = good.to_value();
            let Value::Map(entries) = &mut v else {
                panic!("matrix serializes to a map")
            };
            for (k, val) in entries.iter_mut() {
                if k == "data" {
                    let Value::Seq(items) = val else {
                        panic!("data serializes to a seq")
                    };
                    items[2] = Value::Num(bad_value);
                }
            }
            let poisoned = TransitionMatrix::from_value(&v).unwrap();
            match PairIndex::try_new(&poisoned) {
                Err(crate::TplError::InvalidMatrix { row, value }) => {
                    assert_eq!(row, 1);
                    assert!(value.is_nan() == bad_value.is_nan());
                    assert!(value.is_nan() || value == bad_value);
                }
                other => panic!("expected InvalidMatrix, got {other:?}"),
            }
            // And the panic-free promise of `new` holds even on garbage.
            let _ = PairIndex::new(&poisoned);
        }
    }
}
