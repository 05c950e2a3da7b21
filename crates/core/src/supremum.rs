//! Theorem 5 — the supremum of BPL/FPL over an unbounded horizon.
//!
//! For `M^t` that is ε-DP at every time point and a correlation whose
//! maximizing active pair sums are `q` and `d` (`q ≠ d`), the supremum of
//! the leakage recursion `α ← L(α) + ε` falls into four cases:
//!
//! | case | supremum |
//! |------|----------|
//! | `d ≠ 0` | `log (√(4d e^ε (1−q) + (d + q e^ε − 1)²) + d + q e^ε − 1) / (2d)` |
//! | `d = 0, q ≠ 1, ε < log(1/q)` | `log ((1−q) e^ε / (1 − q e^ε))` |
//! | `d = 0, q ≠ 1, ε ≥ log(1/q)` | does not exist |
//! | `d = 0, q = 1` | does not exist |
//!
//! Both closed forms are the positive solutions of the *fixed-point
//! equation* `α* = L(α*) + ε` restricted to the active pair — a fact the
//! tests verify directly, and which also powers the inversion
//! [`epsilon_for_supremum`] (`ε = α − L(α)`) used by the paper's release
//! Algorithms 2 and 3.
//!
//! Note on the boundary `ε = log(1/q)`: the paper states case 2 with `≤`,
//! but at equality the closed form's denominator `1 − q e^ε` vanishes and
//! the recursion, while growing ever slower, is unbounded; we therefore
//! classify the boundary as divergent.

use crate::loss::{LossEvaluator, TemporalLossFunction};
use crate::{check_alpha, check_epsilon, Result, TplError};
use tcdp_markov::TransitionMatrix;

/// Result of a supremum query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Supremum {
    /// The leakage converges to this value as `T → ∞`.
    Finite(f64),
    /// The leakage grows without bound.
    Divergent,
}

impl Supremum {
    /// The finite value, if any.
    pub fn finite(self) -> Option<f64> {
        match self {
            Supremum::Finite(v) => Some(v),
            Supremum::Divergent => None,
        }
    }

    /// Whether the supremum exists.
    pub fn exists(self) -> bool {
        matches!(self, Supremum::Finite(_))
    }
}

/// Theorem 5's closed form for a fixed active pair `(q, d)` with `q ≥ d`
/// and per-step budget `ε > 0`.
pub fn supremum_closed_form(q: f64, d: f64, eps: f64) -> Result<Supremum> {
    check_epsilon(eps)?;
    if !(0.0..=1.0 + 1e-12).contains(&q) || !(0.0..=1.0 + 1e-12).contains(&d) || q < d - 1e-12 {
        return Err(TplError::InvalidAlpha(q - d));
    }
    if (q - d).abs() < 1e-15 {
        // Degenerate pair: L ≡ 0, so the recursion is constant at ε.
        return Ok(Supremum::Finite(eps));
    }
    let e_eps = eps.exp();
    if d > 0.0 {
        // y is the positive root of d·y² − b·y − e^ε(1 − q) = 0. For
        // b < 0 the textbook (√disc + b)/(2d) cancels (up to ~1e-8 of the
        // value lost at tiny d), so take the same root from the product
        // of the roots instead: y = 2e^ε(1 − q)/(√disc − b).
        let b = d + q * e_eps - 1.0;
        let disc = 4.0 * d * e_eps * (1.0 - q) + b * b;
        let y = if b < 0.0 {
            2.0 * e_eps * (1.0 - q) / (disc.sqrt() - b)
        } else {
            (disc.sqrt() + b) / (2.0 * d)
        };
        Ok(Supremum::Finite(y.ln()))
    } else if q < 1.0 && eps < (1.0 / q).ln() {
        let y = (1.0 - q) * e_eps / (1.0 - q * e_eps);
        Ok(Supremum::Finite(y.ln()))
    } else {
        Ok(Supremum::Divergent)
    }
}

/// Leakage value beyond which we declare divergence. At this magnitude the
/// active-pair objective has saturated at `q/d` for every non-zero `d`
/// (probabilities below `e^{-150}` are far outside physical transition
/// matrices), so only genuinely divergent recursions exceed it.
pub const DIVERGENCE_CAP: f64 = 150.0;

/// Supremum of the leakage recursion `α ← L(α) + ε` for a whole matrix,
/// combining the closed form with fixed-point verification.
///
/// ```
/// use tcdp_core::{supremum_of_matrix, Supremum};
/// use tcdp_markov::TransitionMatrix;
///
/// // Figure 4(d): bounded at ≈ 0.7923...
/// let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
/// let sup = supremum_of_matrix(&p, 0.23).unwrap().finite().unwrap();
/// assert!((sup - 0.7923).abs() < 1e-3);
///
/// // ...while the strongest correlation grows forever (Figure 4(a)).
/// let ident = TransitionMatrix::identity(2).unwrap();
/// assert_eq!(supremum_of_matrix(&ident, 0.23).unwrap(), Supremum::Divergent);
/// ```
///
/// Strategy: run the recursion; at each step ask Algorithm 1 for the
/// currently maximizing pair, propose that pair's closed-form fixed point,
/// and accept it once it verifies as a fixed point of the *global* loss
/// function that the monotone recursion has not yet passed. Falls back to
/// plain iteration otherwise, declaring divergence past
/// [`DIVERGENCE_CAP`].
pub fn supremum_of_matrix(matrix: &TransitionMatrix, eps: f64) -> Result<Supremum> {
    supremum_of_loss(&TemporalLossFunction::new(matrix.clone()), eps)
}

/// As [`supremum_of_matrix`], but reusing an existing loss function —
/// the fixed-point iteration evaluates `L` at a long monotone α sequence,
/// so a caller-held [`TemporalLossFunction`] lets the witness warm-start
/// carry across both this iteration *and* the caller's other queries
/// (e.g. the w-event planner's bisection re-enters here hundreds of
/// times with the same matrices).
pub fn supremum_of_loss(loss: &TemporalLossFunction, eps: f64) -> Result<Supremum> {
    supremum_of_evaluator(&mut loss.evaluator(), eps)
}

/// The fixed-point iteration over a checked-out [`LossEvaluator`] — the
/// form the planners' bisections use so that hundreds of supremum probes
/// share one scratch set and one witness warm-chain. Bit-identical to
/// [`supremum_of_loss`] (which delegates here with a fresh evaluator).
pub fn supremum_of_evaluator(ev: &mut LossEvaluator<'_>, eps: f64) -> Result<Supremum> {
    check_epsilon(eps)?;
    if ev.loss().is_null() {
        return Ok(Supremum::Finite(eps));
    }
    let mut alpha = eps; // BPL(1) = PL0(M^1) = ε
                         // Closed-form candidates that already failed verification, keyed by
                         // the proposing pair's sums (bit-exact; `eps` is fixed for the whole
                         // call). The maximizing pair typically stabilizes long before the
                         // recursion converges, so without this memo every remaining round
                         // re-verifies the *same* rejected candidate — a full extra `L`
                         // evaluation per round. Skipping is behaviorally invisible: the
                         // residual `L(c) + ε − c` is α-independent (so a failed candidate
                         // fails forever), and the `c ≥ α − 1e-9` guard is monotone in the
                         // growing α (so a guard-rejected candidate stays guard-rejected).
    let mut rejected: Vec<(u64, u64)> = Vec::new();
    const MAX_ROUNDS: usize = 100_000;
    for _ in 0..MAX_ROUNDS {
        let w = ev.witness(alpha)?;
        let (q_sum, d_sum, value) = (w.q_sum, w.d_sum, w.value);
        let key = (q_sum.to_bits(), d_sum.to_bits());
        if !rejected.contains(&key) {
            if let Supremum::Finite(candidate) = supremum_closed_form(q_sum, d_sum, eps)? {
                if candidate >= alpha - 1e-9 {
                    let residual = ev.eval(candidate)? + eps - candidate;
                    if residual.abs() < 1e-9 {
                        return Ok(Supremum::Finite(candidate));
                    }
                }
                rejected.push(key);
            }
        }
        let next = value + eps; // = L(alpha) + eps, witness already computed
        if next > DIVERGENCE_CAP {
            return Ok(Supremum::Divergent);
        }
        if (next - alpha).abs() < 1e-13 {
            return Ok(Supremum::Finite(next));
        }
        alpha = next;
    }
    // The recursion is monotone and bounded by the cap, so reaching here
    // means convergence slower than the tolerance; report the current value.
    Ok(Supremum::Finite(alpha))
}

/// Supremum of the recursion at every ε of a batch — the batched multi-ε
/// probe API. All probes run through one [`LossEvaluator`] (one pruning
/// index, one scratch set, witness warm-started across adjacent probes),
/// so a sorted ε grid costs little more than its first entry. Each
/// result is bit-identical to an independent [`supremum_of_loss`] call.
pub fn supremum_of_loss_many(
    loss: &TemporalLossFunction,
    eps_grid: &[f64],
) -> Result<Vec<Supremum>> {
    let mut ev = loss.evaluator();
    eps_grid
        .iter()
        .map(|&eps| supremum_of_evaluator(&mut ev, eps))
        .collect()
}

/// Invert the fixed point: the per-step budget `ε = α − L(α)` under which
/// the leakage supremum is exactly `alpha`.
///
/// Errors with [`TplError::UnboundableCorrelation`] when the correlation is
/// deterministic-strength (`L(α) = α`, so no positive budget can bound the
/// leakage) and with [`TplError::TargetUnreachable`] when `alpha` is not a
/// usable positive target.
pub fn epsilon_for_supremum(matrix: &TransitionMatrix, alpha: f64) -> Result<f64> {
    check_alpha(alpha)?;
    if alpha <= 0.0 {
        return Err(TplError::TargetUnreachable { alpha });
    }
    let loss = temporal_loss_value(matrix, alpha)?;
    let eps = alpha - loss;
    if eps <= 1e-12 {
        return Err(TplError::UnboundableCorrelation);
    }
    Ok(eps)
}

fn temporal_loss_value(matrix: &TransitionMatrix, alpha: f64) -> Result<f64> {
    crate::alg1::temporal_loss(matrix, alpha)
}

/// The leakage series `BPL(1), …, BPL(T)` under a uniform per-step budget
/// (equivalently the FPL series read right-to-left) — the curves of
/// Figures 4 and 6.
pub fn leakage_series(matrix: &TransitionMatrix, eps: f64, t_len: usize) -> Result<Vec<f64>> {
    check_epsilon(eps)?;
    let loss = TemporalLossFunction::new(matrix.clone());
    let mut ev = loss.evaluator();
    let mut series = Vec::with_capacity(t_len);
    let mut alpha = 0.0;
    for t in 0..t_len {
        alpha = if t == 0 { eps } else { ev.eval(alpha)? + eps };
        series.push(alpha);
    }
    Ok(series)
}

/// Check `α* = L(α*) + ε` to tolerance — exposed for tests and harnesses.
pub fn is_fixed_point(matrix: &TransitionMatrix, alpha_star: f64, eps: f64) -> Result<bool> {
    check_alpha(alpha_star)?;
    check_epsilon(eps)?;
    let l = temporal_loss_value(matrix, alpha_star)?;
    Ok((l + eps - alpha_star).abs() < 1e-8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::objective;

    fn m(rows: Vec<Vec<f64>>) -> TransitionMatrix {
        TransitionMatrix::from_rows(rows).unwrap()
    }

    #[test]
    fn figure4_case_d_nonzero() {
        // Fig. 4(d): P = [[0.8, 0.2], [0.1, 0.9]], ε = 0.23 ⇒ active pair
        // q = 0.8, d = 0.1 and sup ≈ 0.7924.
        let p = m(vec![vec![0.8, 0.2], vec![0.1, 0.9]]);
        let sup = supremum_of_matrix(&p, 0.23).unwrap().finite().unwrap();
        let closed = supremum_closed_form(0.8, 0.1, 0.23)
            .unwrap()
            .finite()
            .unwrap();
        assert!((sup - closed).abs() < 1e-9);
        assert!((sup - 0.7924).abs() < 1e-3, "sup={sup}");
        assert!(is_fixed_point(&p, sup, 0.23).unwrap());
    }

    #[test]
    fn figure4_case_d_zero_bounded() {
        // Fig. 4(c): P = [[0.8, 0.2], [0, 1]], ε = 0.15 < log(1/0.8) ≈ 0.2231
        // ⇒ sup = log(0.2 e^0.15 / (1 − 0.8 e^0.15)) ≈ 1.1922.
        let p = m(vec![vec![0.8, 0.2], vec![0.0, 1.0]]);
        let sup = supremum_of_matrix(&p, 0.15).unwrap().finite().unwrap();
        let expected = (0.2 * 0.15_f64.exp() / (1.0 - 0.8 * 0.15_f64.exp())).ln();
        assert!(
            (sup - expected).abs() < 1e-9,
            "sup={sup} expected={expected}"
        );
        assert!(
            (sup - 1.1922).abs() < 1e-3,
            "matches the ≈1.2 plateau of Fig. 4(c)"
        );
        assert!(is_fixed_point(&p, sup, 0.15).unwrap());
    }

    #[test]
    fn figure4_case_d_zero_divergent() {
        // Fig. 4(b): same matrix but ε = 0.23 > log(1/0.8) ⇒ no supremum.
        let p = m(vec![vec![0.8, 0.2], vec![0.0, 1.0]]);
        assert_eq!(supremum_of_matrix(&p, 0.23).unwrap(), Supremum::Divergent);
        // Boundary ε = log(1/q) is divergent too.
        let boundary = (1.0_f64 / 0.8).ln();
        assert_eq!(
            supremum_closed_form(0.8, 0.0, boundary).unwrap(),
            Supremum::Divergent
        );
    }

    #[test]
    fn figure4_case_strongest_divergent() {
        // Fig. 4(a): identity correlation grows as ε·t forever.
        let p = TransitionMatrix::identity(2).unwrap();
        assert_eq!(supremum_of_matrix(&p, 0.23).unwrap(), Supremum::Divergent);
        assert_eq!(
            supremum_closed_form(1.0, 0.0, 0.23).unwrap(),
            Supremum::Divergent
        );
    }

    #[test]
    fn closed_form_is_fixed_point_of_pair_objective() {
        // α* must satisfy α* = log objective(q, d, α*) + ε in both cases.
        for (q, d, eps) in [
            (0.8, 0.1, 0.23),
            (0.9, 0.3, 1.0),
            (0.8, 0.0, 0.15),
            (0.6, 0.0, 0.4),
        ] {
            let sup = supremum_closed_form(q, d, eps).unwrap();
            if let Supremum::Finite(a) = sup {
                let rhs = objective(q, d, a).ln() + eps;
                assert!(
                    (rhs - a).abs() < 1e-9,
                    "q={q} d={d} eps={eps}: {a} vs {rhs}"
                );
            }
        }
        // (0.6, 0, 0.4): log(1/0.6) ≈ 0.51 > 0.4 so this one is finite.
        assert!(supremum_closed_form(0.6, 0.0, 0.4).unwrap().exists());
    }

    #[test]
    fn uniform_matrix_supremum_is_eps() {
        let p = TransitionMatrix::uniform(3).unwrap();
        assert_eq!(supremum_of_matrix(&p, 0.5).unwrap(), Supremum::Finite(0.5));
    }

    #[test]
    fn equal_pair_degenerates_to_eps() {
        assert_eq!(
            supremum_closed_form(0.4, 0.4, 0.3).unwrap(),
            Supremum::Finite(0.3)
        );
    }

    #[test]
    fn closed_form_validation() {
        assert!(supremum_closed_form(0.5, 0.1, 0.0).is_err());
        assert!(supremum_closed_form(0.5, 0.1, -1.0).is_err());
        assert!(supremum_closed_form(1.2, 0.1, 0.1).is_err());
        assert!(
            supremum_closed_form(0.1, 0.5, 0.1).is_err(),
            "q < d violates Corollary 2"
        );
    }

    #[test]
    fn epsilon_for_supremum_inverts() {
        let p = m(vec![vec![0.8, 0.2], vec![0.1, 0.9]]);
        let alpha = 1.0;
        let eps = epsilon_for_supremum(&p, alpha).unwrap();
        assert!(eps > 0.0 && eps < alpha);
        // Running the recursion with that ε converges to α.
        let sup = supremum_of_matrix(&p, eps).unwrap().finite().unwrap();
        assert!((sup - alpha).abs() < 1e-6, "sup={sup}");
    }

    #[test]
    fn epsilon_for_supremum_rejects_strongest() {
        let p = TransitionMatrix::identity(2).unwrap();
        assert_eq!(
            epsilon_for_supremum(&p, 1.0).unwrap_err(),
            TplError::UnboundableCorrelation
        );
        let p2 = m(vec![vec![0.8, 0.2], vec![0.1, 0.9]]);
        assert!(matches!(
            epsilon_for_supremum(&p2, 0.0).unwrap_err(),
            TplError::TargetUnreachable { .. }
        ));
    }

    #[test]
    fn leakage_series_matches_figure4_shapes() {
        // (a) identity, ε = 0.23: linear growth ε·t.
        let ident = TransitionMatrix::identity(2).unwrap();
        let s = leakage_series(&ident, 0.23, 100).unwrap();
        assert!((s[99] - 23.0).abs() < 1e-9);
        // (d) bounded case approaches its supremum from below.
        let p = m(vec![vec![0.8, 0.2], vec![0.1, 0.9]]);
        let s = leakage_series(&p, 0.23, 100).unwrap();
        let sup = supremum_of_matrix(&p, 0.23).unwrap().finite().unwrap();
        assert!(s[99] <= sup + 1e-9);
        assert!((s[99] - sup).abs() < 1e-6);
        // Monotone non-decreasing.
        for w in s.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn divergent_series_grows_past_any_bound() {
        let p = m(vec![vec![0.8, 0.2], vec![0.0, 1.0]]);
        let s = leakage_series(&p, 0.23, 100).unwrap();
        // Fig. 4(b): reaches ≈ 3.5 by t = 100 and keeps climbing.
        assert!(s[99] > 3.0, "s[99]={}", s[99]);
        // Past the early transient the increment settles near
        // ε + log q ≈ 0.0069/step, so growth never stops.
        let s2 = leakage_series(&p, 0.23, 400).unwrap();
        assert!(s2[399] > s[99] + 1.5, "s2[399]={}", s2[399]);
    }
}
