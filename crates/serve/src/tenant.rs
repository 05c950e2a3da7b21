//! One tenant: a population accountant behind the reader/writer split,
//! with budget-ceiling admission control on the ingest path.
//!
//! The tenant owns the [`PopulationWriter`]; query clients hold
//! [`PopulationReader`]s and never touch the tenant. Every observe goes
//! through [`tcdp_core::AccountantWriter::try_replace`]: the release is
//! applied to a *candidate* clone, the candidate's guarantees are
//! checked against the tenant's [`Ceiling`], and only an admitted
//! candidate is installed and published. A rejected release is never
//! observed — readers keep seeing the pre-request revision, and the
//! rejection carries the projected guarantee that crossed the ceiling.

use crate::error::{CeilingScope, Result, ServeError};
use crate::protocol::{GroupSpec, Release};
use tcdp_core::personalized::PopulationAccountant;
use tcdp_core::shared::{split, PopulationReader, PopulationWriter, Snapshot};

/// A tenant's admission ceiling. `alpha` bounds the event-level α-DP_T
/// guarantee (worst TPL); each `(w, limit)` bounds the Theorem 2
/// w-event guarantee for that window length. An empty ceiling admits
/// everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ceiling {
    /// Event-level ceiling on `max_tpl`, if any.
    pub alpha: Option<f64>,
    /// Per-window ceilings on the w-event guarantee.
    pub windows: Vec<(usize, f64)>,
}

impl Ceiling {
    /// Whether this ceiling admits every release unconditionally.
    pub fn is_unlimited(&self) -> bool {
        self.alpha.is_none() && self.windows.is_empty()
    }
}

/// One registered tenant: the single ingest handle over its population
/// accountant, plus its admission ceiling.
#[derive(Debug)]
pub struct Tenant {
    writer: PopulationWriter,
    ceiling: Ceiling,
}

impl Tenant {
    /// Register a tenant from a parsed population spec. The initial
    /// (empty) state is published at revision 0.
    pub fn create(groups: &[GroupSpec]) -> Result<Self> {
        let mut adversaries = Vec::new();
        for g in groups {
            adversaries.extend(g.users.clone().map(|_| g.adversary.clone()));
        }
        let pop = PopulationAccountant::new(&adversaries)?;
        Ok(Self::from_parts(pop, Ceiling::default()))
    }

    /// Rebuild a tenant around an existing accountant — the crash
    /// recovery path. The ceiling's tracked w-event windows are **not**
    /// re-armed: a recovered checkpoint already carries its tracked
    /// bases, and re-arming after a fold would be rejected.
    pub fn from_parts(pop: PopulationAccountant, ceiling: Ceiling) -> Self {
        let (writer, _) = split(pop);
        Tenant { writer, ceiling }
    }

    /// A new query handle onto this tenant's publication slot.
    pub fn reader(&self) -> PopulationReader {
        self.writer.reader()
    }

    /// The last published snapshot (writer-side convenience).
    pub fn snapshot(&self) -> Snapshot<PopulationAccountant> {
        self.writer.snapshot()
    }

    /// The current admission ceiling.
    pub fn ceiling(&self) -> &Ceiling {
        &self.ceiling
    }

    /// Replace the admission ceiling. Window ceilings arm all-time
    /// w-event tracking on the accountant (so the guarantee stays
    /// answerable across folds); arming must happen before the first
    /// fold, exactly as [`tcdp_core::TplAccountant::track_w_event`]
    /// requires — re-tracking an already-tracked window is a no-op.
    pub fn set_ceiling(&mut self, alpha: Option<f64>, windows: Vec<(usize, f64)>) -> Result<()> {
        for &(w, _) in &windows {
            self.writer.track_w_event(w)?;
        }
        self.ceiling = Ceiling { alpha, windows };
        Ok(())
    }

    /// Arm (or disarm) the fold horizon and publish the folded state.
    pub fn set_horizon(&mut self, horizon: Option<usize>) -> Result<()> {
        Ok(self.writer.set_horizon(horizon)?)
    }

    /// Coalesce re-converged shards
    /// ([`PopulationAccountant::remerge_converged`]) and publish;
    /// returns the number of merges. Long-running daemons run this on
    /// the snapshot timer to keep shard counts bounded.
    pub fn remerge(&mut self) -> Result<usize> {
        Ok(self.writer.with_mut(|p| Ok(p.remerge_converged()))?)
    }

    /// Observe one release, subject to the ceiling. On admission the
    /// new revision's snapshot is returned; on rejection the published
    /// state is untouched and the error names the crossed scope with
    /// the projected guarantee.
    pub fn observe(&mut self, release: &Release) -> Result<Snapshot<PopulationAccountant>> {
        // Disjoint field borrows: the closure reads the ceiling while the
        // writer is borrowed mutably, without a copy of it per OBSERVE.
        let (writer, ceiling) = (&mut self.writer, &self.ceiling);
        writer.try_replace(|cur| -> Result<PopulationAccountant> {
            let mut next = cur.clone();
            match release {
                Release::Uniform(eps) => next.observe_release(*eps),
                Release::Ranges(ranges) => next.observe_release_personalized(ranges),
            }
            .map_err(ServeError::Core)?;
            if let Some(alpha) = ceiling.alpha {
                let projected = next.max_tpl().map_err(ServeError::Core)?;
                if projected > alpha {
                    return Err(ServeError::CeilingExceeded {
                        scope: CeilingScope::Event,
                        projected,
                        ceiling: alpha,
                    });
                }
            }
            for &(w, limit) in &ceiling.windows {
                // A window longer than the timeline has no complete
                // window yet; it starts binding at t = w.
                if next.num_releases() < w {
                    continue;
                }
                let projected = next.w_event_guarantee(w).map_err(ServeError::Core)?;
                if projected > limit {
                    return Err(ServeError::CeilingExceeded {
                        scope: CeilingScope::Window(w),
                        projected,
                        ceiling: limit,
                    });
                }
            }
            Ok(next)
        })?;
        Ok(writer.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_population_spec;

    fn tenant(spec: &str) -> Tenant {
        Tenant::create(&parse_population_spec(spec).unwrap()).unwrap()
    }

    const TWO_GROUPS: &str = r#"[
        {"count": 2, "pb": [[0.9,0.1],[0.05,0.95]], "pf": [[0.9,0.1],[0.05,0.95]]},
        {"count": 2}
    ]"#;

    #[test]
    fn admission_rejects_without_observing() {
        let mut t = tenant(TWO_GROUPS);
        let reader = t.reader();
        t.set_ceiling(Some(0.35), vec![]).unwrap();
        t.observe(&Release::Uniform(0.1)).unwrap();
        let before = reader.snapshot();

        let err = t.observe(&Release::Uniform(5.0)).unwrap_err();
        let ServeError::CeilingExceeded {
            scope,
            projected,
            ceiling,
        } = err
        else {
            panic!("expected a ceiling rejection");
        };
        assert_eq!(scope, CeilingScope::Event);
        assert!(projected > ceiling);
        // Nothing was observed or published.
        let after = reader.snapshot();
        assert_eq!(after.revision(), before.revision());
        assert_eq!(after.num_releases(), 1);

        // An admissible release still goes through afterwards.
        t.observe(&Release::Uniform(0.05)).unwrap();
        assert_eq!(reader.snapshot().num_releases(), 2);
    }

    #[test]
    fn window_ceiling_binds_from_t_equals_w() {
        let mut t = tenant(TWO_GROUPS);
        // Window of 3 with a limit two releases alone cannot cross.
        t.set_ceiling(None, vec![(3, 0.75)]).unwrap();
        t.observe(&Release::Uniform(0.3)).unwrap();
        t.observe(&Release::Uniform(0.3)).unwrap();
        // Third release completes a window; its guarantee crosses 0.75.
        let err = t.observe(&Release::Uniform(0.3)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::CeilingExceeded {
                scope: CeilingScope::Window(3),
                ..
            }
        ));
        assert_eq!(t.snapshot().num_releases(), 2);
        // A smaller release fits under the window ceiling.
        t.observe(&Release::Uniform(0.05)).unwrap();
        assert_eq!(t.snapshot().num_releases(), 3);
    }

    #[test]
    fn personalized_releases_respect_the_ceiling_too() {
        let mut t = tenant(TWO_GROUPS);
        t.set_ceiling(Some(0.5), vec![]).unwrap();
        t.observe(&Release::Ranges(vec![(0..2, 0.1), (2..4, 0.2)]))
            .unwrap();
        assert!(t
            .observe(&Release::Ranges(vec![(0..2, 3.0), (2..4, 0.1)]))
            .is_err());
        assert_eq!(t.snapshot().num_releases(), 1);
    }
}
