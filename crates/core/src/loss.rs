//! The temporal loss function `L(α)` as a reusable object.
//!
//! [`TemporalLossFunction`] wraps one transition matrix (a backward
//! correlation `P^B` for `L^B` or a forward correlation `P^F` for `L^F`;
//! the paper shows in Section IV-A that both are computed identically) and
//! evaluates the loss with Algorithm 1. It is the `L(·)` appearing in the
//! paper's recurrences
//!
//! ```text
//! BPL(t) = L^B(BPL(t−1)) + ε_t        FPL(t) = L^F(FPL(t+1)) + ε_t
//! ```
//!
//! # Caching across recursion steps
//!
//! Because one loss function is evaluated at a whole *sequence* of α
//! values (T-step BPL/FPL recursions, the supremum fixed-point iteration,
//! the Algorithm 2/3 balance bisections), this type carries two caches:
//!
//! * the engine state, built once per matrix on first evaluation and
//!   reused forever (it is α-independent): the [`PairIndex`] pruning
//!   bounds over the matrix's distinct row pairs and, when the matrix
//!   qualifies, the piece table of [`crate::alg1`], which serves every α
//!   in its range with one or two per-pair solves. Whether a matrix gets
//!   a table is decided from the matrix alone: a duplicate-free index of
//!   more than two pairs whose envelope stays under the build cap (the
//!   daemon's 16–32-state shards) gets one; 2-state matrices and large
//!   dense ones do not;
//! * for evaluations the table does not serve (no table, or α outside
//!   its range), the previous sweep's [`LossWitness`] with its active
//!   index subset — the *warm-start invariant*: the cached witness stays
//!   valid at a new α exactly while its active subset still satisfies
//!   Theorem 4's Inequalities (21) (every member's ratio `q_j/d_j`
//!   exceeds the subset's objective) and (22) (every non-member's ratio
//!   does not), which [`crate::alg1`] re-checks in `O(n)` since the
//!   subset's coefficient sums do not depend on α. While the invariant
//!   holds — the common case along a monotone leakage recursion — each
//!   step costs `O(n)` validation plus a pruned sweep that terminates
//!   almost immediately, instead of a fresh `O(n⁴)` scan. Table-served
//!   evaluations neither read nor write this cache.
//!
//! Both caches are behaviorally invisible: results are bit-identical to
//! cold evaluation. They are excluded from `PartialEq` and from the
//! serialized form (a deserialized loss function simply rebuilds them on
//! first use).

use crate::alg1::{temporal_loss_witness_indexed, EvalSession, LossWitness, PairIndex, PieceTable};
use crate::{check_alpha, Result};
use parking_lot::Mutex;
use serde::{DeError, Deserialize, Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use tcdp_markov::TransitionMatrix;

/// A temporal privacy loss function built from one transition matrix.
///
/// ```
/// use tcdp_core::TemporalLossFunction;
/// use tcdp_markov::TransitionMatrix;
///
/// // Figure 3's moderate correlation: L(0.1) ≈ 0.0808, so one release of
/// // ε = 0.1 after a BPL of 0.1 yields BPL = 0.1808 (the paper's 0.18).
/// let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap();
/// let loss = TemporalLossFunction::new(p);
/// let next = loss.step(0.1, 0.1).unwrap();
/// assert!((next - 0.1808).abs() < 1e-3);
/// ```
#[derive(Debug)]
pub struct TemporalLossFunction {
    matrix: TransitionMatrix,
    /// α-independent engine state, built lazily on first evaluation.
    engine: OnceLock<Engine>,
    /// The previous sweep-served evaluation's witness (warm-start seed).
    warm: Mutex<Option<LossWitness>>,
    /// Number of Algorithm 1 evaluations performed through this loss
    /// function — a diagnostics/test hook (complexity assertions), not
    /// part of the value semantics.
    evals: AtomicU64,
}

/// The α-independent state behind one loss function's evaluations.
#[derive(Debug, Clone)]
struct Engine {
    /// The pruning index over the matrix's distinct row pairs.
    index: PairIndex,
    /// The piece table, when the matrix qualifies for one (see
    /// [`crate::alg1`]); boxed, so a function without one pays a single
    /// null pointer.
    table: Option<Box<PieceTable>>,
}

impl Engine {
    fn build(matrix: &TransitionMatrix) -> Self {
        let index = PairIndex::new(matrix);
        let table = PieceTable::build(matrix, &index).map(Box::new);
        Engine { index, table }
    }
}

impl TemporalLossFunction {
    /// Wrap a transition matrix.
    pub fn new(matrix: TransitionMatrix) -> Self {
        Self {
            matrix,
            engine: OnceLock::new(),
            warm: Mutex::new(None),
            evals: AtomicU64::new(0),
        }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &TransitionMatrix {
        &self.matrix
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.matrix.n()
    }

    /// Evaluate `L(α)` (Equations 23/24 via Algorithm 1).
    pub fn eval(&self, alpha: f64) -> Result<f64> {
        self.witness(alpha).map(|w| w.value)
    }

    /// The engine state, built on first use.
    fn engine(&self) -> &Engine {
        self.engine.get_or_init(|| Engine::build(&self.matrix))
    }

    /// Evaluate `L(α)` and return the maximizing rows and subset sums.
    ///
    /// Serves α from the piece table when the matrix has one and α lies
    /// in its range; otherwise sweeps the cached pruning index,
    /// warm-started from the previous sweep's witness. All of it is
    /// transparent (results are bit-identical to a cold evaluation).
    pub fn witness(&self, alpha: f64) -> Result<LossWitness> {
        check_alpha(alpha)?;
        let engine = self.engine();
        let served = engine
            .table
            .as_ref()
            .and_then(|t| t.serve(&self.matrix, &engine.index, alpha));
        let witness = match served {
            Some(w) => w,
            None => {
                let warm = self.warm.lock().clone();
                let w = temporal_loss_witness_indexed(
                    &self.matrix,
                    &engine.index,
                    alpha,
                    warm.as_ref(),
                )?;
                *self.warm.lock() = Some(w.clone());
                w
            }
        };
        self.evals.fetch_add(1, Ordering::Relaxed);
        Ok(witness)
    }

    /// Open a batched [`LossEvaluator`] over this loss function: it
    /// drives any number of evaluations through one private scratch set.
    /// Without a piece table it checks the warm witness out of the shared
    /// cache once, chains it probe-to-probe, and checks the final witness
    /// back in when dropped; with one it leaves the shared cache alone
    /// (its out-of-range sweeps chain a session-local witness). Results
    /// are bit-identical to the same sequence of
    /// [`TemporalLossFunction::eval`] calls — only the per-call mutex
    /// round-trips and witness clones are gone.
    pub fn evaluator(&self) -> LossEvaluator<'_> {
        let engine = self.engine();
        let mut session = EvalSession::new(&self.matrix, &engine.index, engine.table.as_deref());
        if engine.table.is_none() {
            session.seed(self.warm.lock().clone());
        }
        LossEvaluator {
            loss: self,
            session,
        }
    }

    /// Evaluate `L` at every α of a batch through one [`LossEvaluator`]
    /// (one engine state, one scratch set, table-served or warm-started
    /// across adjacent probes). Bit-identical to mapping
    /// [`TemporalLossFunction::eval`] over the same grid; sorted grids
    /// warm-start best. This is the batched multi-ε API the planners'
    /// bisections are routed through.
    pub fn eval_many(&self, alphas: &[f64]) -> Result<Vec<f64>> {
        let mut ev = self.evaluator();
        alphas.iter().map(|&a| ev.eval(a)).collect()
    }

    /// Total number of Algorithm 1 evaluations performed through this
    /// loss function (direct calls and closed [`LossEvaluator`]
    /// sessions. A live evaluator's count is folded in when it drops).
    /// Test hook for complexity assertions — e.g. that a w-event audit
    /// of a T-step timeline performs O(T) evaluations.
    pub fn eval_count(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// The witness cached from the most recent sweep-served evaluation,
    /// if any — exposed for diagnostics and tests of the warm-start
    /// machinery. Table-served evaluations neither read nor write it.
    pub fn cached_witness(&self) -> Option<LossWitness> {
        self.warm.lock().clone()
    }

    /// Seed the warm-witness cache, e.g. from a resumed checkpoint. The
    /// caller ([`crate::checkpoint`]) validates the witness shape against
    /// the matrix first; a behaviorally stale witness is harmless — it is
    /// revalidated against Theorem 4 before every use.
    pub(crate) fn restore_warm(&self, witness: Option<LossWitness>) {
        *self.warm.lock() = witness;
    }

    /// Whether this correlation amplifies *nothing*: `L ≡ 0`, which holds
    /// exactly when all rows are equal (the previous/next value carries no
    /// information about the current one).
    pub fn is_null(&self) -> bool {
        self.matrix.rows_all_equal()
    }

    /// Whether this is the paper's "strongest" correlation (`L(α) = α`):
    /// some row pair has fully disjoint supports, so one release is worth
    /// a full replay of the previous one. Detected structurally: there are
    /// rows `q, d` with `Σ_{j: d_j = 0} q_j = 1`.
    pub fn is_strongest(&self) -> bool {
        let n = self.matrix.n();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let mass_on_disjoint: f64 = self
                    .matrix
                    .row(a)
                    .iter()
                    .zip(self.matrix.row(b))
                    .filter(|(_, &dj)| dj == 0.0)
                    .map(|(&qj, _)| qj)
                    .sum();
                if (mass_on_disjoint - 1.0).abs() < 1e-12 {
                    return true;
                }
            }
        }
        false
    }

    /// One step of the leakage recurrence: `L(prev) + ε`.
    pub fn step(&self, prev: f64, epsilon: f64) -> Result<f64> {
        crate::check_epsilon(epsilon)?;
        Ok(self.eval(prev)? + epsilon)
    }
}

/// A checked-out batched evaluation session over one
/// [`TemporalLossFunction`] — see [`TemporalLossFunction::evaluator`].
///
/// The supremum fixed-point iteration, the Algorithm 2/3 balance
/// bisection, and the w-event planner all hold one of these per side for
/// the whole search, so every probe after the first costs one or two
/// per-pair solves (table-served) or `O(n)` revalidation (swept), with
/// zero allocation and zero lock traffic.
#[derive(Debug)]
pub struct LossEvaluator<'a> {
    loss: &'a TemporalLossFunction,
    /// The evaluation state; its warm witness goes back to the shared
    /// cache in `drop` (for functions without a piece table).
    session: EvalSession<'a>,
}

impl LossEvaluator<'_> {
    /// Evaluate `L(α)`.
    pub fn eval(&mut self, alpha: f64) -> Result<f64> {
        self.session.eval(alpha)
    }

    /// Evaluate `L(α)` and borrow the maximizing witness.
    pub fn witness(&mut self, alpha: f64) -> Result<&LossWitness> {
        self.session.witness(alpha)
    }

    /// One step of the leakage recurrence: `L(prev) + ε`.
    pub fn step(&mut self, prev: f64, epsilon: f64) -> Result<f64> {
        crate::check_epsilon(epsilon)?;
        Ok(self.eval(prev)? + epsilon)
    }

    /// The loss function this evaluator was checked out of.
    pub fn loss(&self) -> &TemporalLossFunction {
        self.loss
    }
}

impl Drop for LossEvaluator<'_> {
    /// Fold the session's evaluation count into the loss function's
    /// counter and, for a function without a piece table, hand the final
    /// warm witness back to the shared cache.
    fn drop(&mut self) {
        self.loss
            .evals
            .fetch_add(self.session.evals(), Ordering::Relaxed);
        if self.session.has_table() {
            return;
        }
        if let Some(w) = self.session.take_warm() {
            *self.loss.warm.lock() = Some(w);
        }
    }
}

impl Clone for TemporalLossFunction {
    /// Cloning carries the built engine state along (the index and the
    /// table are derived purely from the matrix) but starts with a cold
    /// witness cache and a zero evaluation counter.
    fn clone(&self) -> Self {
        let engine = OnceLock::new();
        if let Some(built) = self.engine.get() {
            let _ = engine.set(built.clone());
        }
        Self {
            matrix: self.matrix.clone(),
            engine,
            warm: Mutex::new(None),
            evals: AtomicU64::new(0),
        }
    }
}

impl PartialEq for TemporalLossFunction {
    /// Equality is defined by the wrapped matrix alone; caches are
    /// derived state.
    fn eq(&self, other: &Self) -> bool {
        self.matrix == other.matrix
    }
}

impl Serialize for TemporalLossFunction {
    /// Serializes as `{"matrix": ...}` (the derived shape before the
    /// caches existed); caches are rebuilt on first use after restore.
    fn to_value(&self) -> Value {
        Value::Map(vec![("matrix".to_string(), self.matrix.to_value())])
    }
}

impl Deserialize for TemporalLossFunction {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let matrix = v.get("matrix").ok_or_else(|| DeError::missing("matrix"))?;
        Ok(TemporalLossFunction::new(TransitionMatrix::from_value(
            matrix,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_matches_alg1() {
        let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap();
        let f = TemporalLossFunction::new(p.clone());
        assert_eq!(
            f.eval(0.5).unwrap(),
            crate::alg1::temporal_loss(&p, 0.5).unwrap()
        );
        assert_eq!(f.n(), 2);
    }

    #[test]
    fn warm_cache_fills_and_stays_transparent() {
        let p = TransitionMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.1, 0.9]]).unwrap();
        let f = TemporalLossFunction::new(p.clone());
        assert!(f.cached_witness().is_none());
        // A long recursion through the cache...
        let mut alpha = 0.05;
        let mut alphas = Vec::new();
        for _ in 0..50 {
            alpha = f.eval(alpha).unwrap() + 0.05;
            alphas.push(alpha);
        }
        assert!(f.cached_witness().is_some());
        // ...is bit-identical to fresh cold evaluations at every step.
        let mut cold = 0.05;
        for (t, &warm) in alphas.iter().enumerate() {
            cold = crate::alg1::temporal_loss(&p, cold).unwrap() + 0.05;
            assert_eq!(warm.to_bits(), cold.to_bits(), "t={t}");
        }
    }

    #[test]
    fn clone_and_equality_ignore_caches() {
        let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
        let f = TemporalLossFunction::new(p);
        f.eval(1.0).unwrap();
        let g = f.clone();
        assert_eq!(f, g);
        assert!(g.cached_witness().is_none(), "clones start cold");
        assert_eq!(g.eval(1.0).unwrap(), f.eval(1.0).unwrap());
    }

    #[test]
    fn serde_round_trip_preserves_matrix_only() {
        let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
        let f = TemporalLossFunction::new(p);
        f.eval(0.7).unwrap();
        let json = serde_json::to_string(&f).unwrap();
        assert!(json.starts_with("{\"matrix\":"), "{json}");
        let back: TemporalLossFunction = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
        assert!(back.cached_witness().is_none());
        assert_eq!(back.eval(0.7).unwrap(), f.eval(0.7).unwrap());
    }

    /// A sticky click-stream matrix over `n` categories with uneven
    /// popularity — a daemon-sized matrix whose index keeps `n` pairs.
    fn click_stream(n: usize) -> TransitionMatrix {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let rows = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let stay = if i == j { 0.7 } else { 0.0 };
                        stay + 0.3 / ((j + 1) as f64 * total)
                    })
                    .collect()
            })
            .collect();
        TransitionMatrix::from_rows(rows).unwrap()
    }

    fn has_table(f: &TemporalLossFunction) -> Option<bool> {
        f.engine.get().map(|e| e.table.is_some())
    }

    #[test]
    fn two_state_functions_never_build_a_table() {
        for rows in [
            vec![vec![0.8, 0.2], vec![0.1, 0.9]],
            vec![vec![0.8, 0.2], vec![0.0, 1.0]],
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
        ] {
            let f = TemporalLossFunction::new(TransitionMatrix::from_rows(rows).unwrap());
            f.eval(0.3).unwrap();
            f.evaluator().eval(2.0).unwrap();
            assert_eq!(has_table(&f), Some(false));
            // ...so every evaluation sweeps through the warm cache.
            assert!(f.cached_witness().is_some());
        }
    }

    #[test]
    fn click_stream_function_builds_its_table_on_first_evaluation() {
        let f = TemporalLossFunction::new(click_stream(16));
        assert_eq!(has_table(&f), None, "nothing is built before an evaluation");
        let _ = f.clone();
        assert_eq!(has_table(&f), None);
        f.eval(0.3).unwrap();
        assert_eq!(has_table(&f), Some(true));
        assert_eq!(has_table(&f.clone()), Some(true), "clones carry the table");
    }

    #[test]
    fn table_served_evaluations_leave_the_warm_cache_alone() {
        let p = click_stream(16);
        let f = TemporalLossFunction::new(p.clone());
        let mut alpha = 0.05;
        for _ in 0..20 {
            alpha = f.eval(alpha).unwrap() + 0.05;
        }
        let mut ev = f.evaluator();
        for a in [0.01, 0.4, 3.0, 31.0] {
            let w = ev.witness(a).unwrap().clone();
            assert_eq!(
                w,
                crate::alg1::temporal_loss_witness_unpruned(&p, a).unwrap()
            );
        }
        drop(ev);
        assert!(f.cached_witness().is_none());
        assert_eq!(f.eval_count(), 24, "each served evaluation counts once");
        // α outside the table's range sweeps, through the warm cache.
        for a in [1e-4, 40.0, 0.0] {
            let w = f.witness(a).unwrap();
            assert_eq!(f.cached_witness(), Some(w.clone()), "alpha={a}");
            assert_eq!(
                w,
                crate::alg1::temporal_loss_witness_unpruned(&p, a).unwrap()
            );
        }
        assert_eq!(f.eval_count(), 27);
    }

    #[test]
    fn null_and_strongest_detection() {
        let uniform = TemporalLossFunction::new(TransitionMatrix::uniform(3).unwrap());
        assert!(uniform.is_null());
        assert!(!uniform.is_strongest());

        let ident = TemporalLossFunction::new(TransitionMatrix::identity(3).unwrap());
        assert!(ident.is_strongest());
        assert!(!ident.is_null());

        let moderate = TemporalLossFunction::new(
            TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap(),
        );
        assert!(!moderate.is_strongest());
        assert!(!moderate.is_null());

        // [[0.8, 0.2], [0, 1]] is NOT strongest: row 0 puts only 0.8 mass
        // where row 1 has zeros — leakage grows but stays bounded for
        // small ε (Theorem 5 case 2).
        let fig3 = TemporalLossFunction::new(
            TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap(),
        );
        assert!(!fig3.is_strongest());
        // Permutation matrices ARE strongest.
        let perm = TemporalLossFunction::new(TransitionMatrix::strongest_shift(4).unwrap());
        assert!(perm.is_strongest());
    }

    #[test]
    fn step_is_recurrence() {
        let f = TemporalLossFunction::new(
            TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.0, 1.0]]).unwrap(),
        );
        // Figure 3(a)(ii): 0.10 → 0.18.
        let next = f.step(0.1, 0.1).unwrap();
        assert!((next - 0.1808).abs() < 1e-3, "next={next}");
        assert!(f.step(0.1, 0.0).is_err());
        assert!(f.step(-1.0, 0.1).is_err());
    }
}
