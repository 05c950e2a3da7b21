//! Continual-observation release (the paper's Section II-C setting).
//!
//! At each time `t` a trusted server holds `D^t` and independently runs a
//! DP mechanism `M^t` on its aggregates, spending the budget `ε_t` of a
//! [`BudgetSchedule`]. The adversary observes the whole prefix
//! `r^1, …, r^t` — which is precisely why temporal correlations leak more
//! than each `ε_t` alone, the phenomenon quantified by `tcdp-core`.

use crate::budget::BudgetSchedule;
use crate::laplace::LaplaceMechanism;
use crate::query::{Database, HistogramQuery};
use crate::{MechError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One released time step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Release {
    /// Time index (0-based).
    pub t: usize,
    /// Budget spent at this time point.
    pub epsilon: f64,
    /// True histogram (kept private by the server; exposed here for
    /// utility evaluation in experiments).
    pub truth: Vec<f64>,
    /// The differentially private histogram actually published.
    pub noisy: Vec<f64>,
}

impl Release {
    /// Mean absolute error of the published histogram.
    pub fn mean_abs_error(&self) -> f64 {
        if self.truth.is_empty() {
            return 0.0;
        }
        self.truth
            .iter()
            .zip(&self.noisy)
            .map(|(t, n)| (t - n).abs())
            .sum::<f64>()
            / self.truth.len() as f64
    }
}

/// A stateful continual releaser of private histograms.
#[derive(Debug)]
pub struct ContinualReleaser {
    schedule: BudgetSchedule,
    query: HistogramQuery,
    domain: usize,
    t: usize,
}

impl ContinualReleaser {
    /// Create a releaser for histograms over `domain` values following the
    /// given per-time budget schedule.
    pub fn new(domain: usize, schedule: BudgetSchedule) -> Result<Self> {
        if domain == 0 {
            return Err(MechError::InvalidParameter {
                what: "domain size",
                value: 0.0,
            });
        }
        Ok(Self {
            schedule,
            query: HistogramQuery,
            domain,
            t: 0,
        })
    }

    /// The current time index (number of releases performed so far).
    pub fn time(&self) -> usize {
        self.t
    }

    /// The budget schedule in use.
    pub fn schedule(&self) -> &BudgetSchedule {
        &self.schedule
    }

    /// Release the histogram of `db` for the current time step.
    pub fn release_next<R: Rng + ?Sized>(&mut self, db: &Database, rng: &mut R) -> Result<Release> {
        if db.domain() != self.domain {
            return Err(MechError::DimensionMismatch {
                expected: self.domain,
                found: db.domain(),
            });
        }
        let epsilon = self.schedule.budget_at(self.t);
        let mech = LaplaceMechanism::new(epsilon, self.query.sensitivity())?;
        let truth = self.query.answer(db);
        let noisy = mech.release(&truth, rng);
        let release = Release {
            t: self.t,
            epsilon: epsilon.value(),
            truth,
            noisy,
        };
        self.t += 1;
        Ok(release)
    }

    /// Release a whole stream of databases in order.
    pub fn release_stream<R: Rng + ?Sized>(
        &mut self,
        dbs: &[Database],
        rng: &mut R,
    ) -> Result<Vec<Release>> {
        dbs.iter().map(|db| self.release_next(db, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dbs(t_len: usize) -> Vec<Database> {
        (0..t_len)
            .map(|t| Database::new(3, vec![t % 3, (t + 1) % 3, t % 3]).unwrap())
            .collect()
    }

    #[test]
    fn releases_follow_schedule() {
        let schedule = BudgetSchedule::from_values(&[1.0, 0.5, 0.25]).unwrap();
        let mut rel = ContinualReleaser::new(3, schedule).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = rel.release_stream(&dbs(3), &mut rng).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].epsilon, 1.0);
        assert_eq!(out[2].epsilon, 0.25);
        assert_eq!(out[2].t, 2);
        assert_eq!(rel.time(), 3);
    }

    #[test]
    fn truth_is_histogram() {
        let schedule = BudgetSchedule::from_values(&[1.0]).unwrap();
        let mut rel = ContinualReleaser::new(3, schedule).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let db = Database::new(3, vec![0, 0, 2]).unwrap();
        let r = rel.release_next(&db, &mut rng).unwrap();
        assert_eq!(r.truth, vec![2.0, 0.0, 1.0]);
        assert_eq!(r.noisy.len(), 3);
        assert!(r.mean_abs_error().is_finite());
    }

    #[test]
    fn domain_mismatch_rejected() {
        let schedule = BudgetSchedule::from_values(&[1.0]).unwrap();
        let mut rel = ContinualReleaser::new(4, schedule).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let db = Database::new(3, vec![0]).unwrap();
        assert!(rel.release_next(&db, &mut rng).is_err());
    }

    #[test]
    fn open_ended_stream_reuses_tail_budget() {
        let schedule = BudgetSchedule::from_values(&[1.0, 0.1]).unwrap();
        let mut rel = ContinualReleaser::new(3, schedule).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let out = rel.release_stream(&dbs(5), &mut rng).unwrap();
        assert_eq!(out[4].epsilon, 0.1);
    }

    #[test]
    fn noise_scale_tracks_budget() {
        // Smaller epsilon => larger error, on average.
        let mut rng = StdRng::seed_from_u64(5);
        let db = Database::new(2, vec![0; 10]).unwrap();
        let mut err = [0.0_f64; 2];
        for (i, eps) in [1.0, 0.05].iter().enumerate() {
            let schedule = BudgetSchedule::uniform(Epsilon::new(*eps).unwrap(), 1).unwrap();
            let mut total = 0.0;
            for _ in 0..400 {
                let mut rel = ContinualReleaser::new(2, schedule.clone()).unwrap();
                total += rel.release_next(&db, &mut rng).unwrap().mean_abs_error();
            }
            err[i] = total / 400.0;
        }
        assert!(err[1] > 5.0 * err[0], "errors: {err:?}");
    }
}
