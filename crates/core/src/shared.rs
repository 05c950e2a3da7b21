//! # Reader/writer split over the accountants
//!
//! The accountants' native ownership model is single-owner `&mut`:
//! one caller both observes releases and runs queries. A long-running
//! audit service needs the two roles separated — one ingest path per
//! tenant, many concurrent query clients — *without* readers ever
//! waiting on an in-progress observe, and without an observe ever
//! waiting on readers.
//!
//! The split here is epoch publication. The [`AccountantWriter`] owns
//! the mutable state; after every successful mutation it publishes an
//! immutable, version-stamped snapshot (`Arc<Versioned<A>>`) into a
//! shared [`AccountantCell`]. [`AccountantReader`]s load the current
//! `Arc` (a pointer clone under a momentary read lock — never held
//! across any accountant work) and run every query against their own
//! frozen snapshot. The writer's next observe mutates a *fresh clone*,
//! so:
//!
//! * **Queries never block observes** (and vice versa): the only shared
//!   lock is the publication slot, held for a pointer swap/clone — no
//!   observe or query computation ever happens under it. A reader's
//!   query runs entirely on its own snapshot; the writer's observe runs
//!   entirely on its private state.
//! * **Every answer is consistent at a revision**: a snapshot is a deep
//!   clone taken after a completed mutation, so queries against it are
//!   bit-identical to a serial replay of the first `revision` mutations
//!   (clones preserve accountant state bitwise — the clone-semantics
//!   differential suites prove it).
//!
//! The cost is one deep state clone per published mutation — `O(live
//! window)` per shard, i.e. `O(H)` once a fold horizon is armed, which
//! is the configuration a long-running daemon runs in anyway.
//!
//! [`AccountantWriter::try_replace`] is the admission-control seam: a
//! candidate next state is built and *checked* before it is installed,
//! so a rejected release is never observed and never published.

use crate::personalized::PopulationAccountant;
use crate::Result;
use parking_lot::RwLock;
use std::ops::Deref;
use std::ops::Range;
use std::sync::Arc;

/// An immutable accountant state stamped with the number of completed
/// mutations that produced it. Dereferences to the state, so every
/// query method is available directly on a snapshot.
#[derive(Debug)]
pub struct Versioned<A> {
    revision: u64,
    state: A,
}

impl<A> Versioned<A> {
    /// Number of completed (published) mutations this state reflects —
    /// snapshot `r` is bit-identical to a serial replay of the first
    /// `r` mutations.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The frozen state itself.
    pub fn state(&self) -> &A {
        &self.state
    }
}

impl<A> Deref for Versioned<A> {
    type Target = A;
    fn deref(&self) -> &A {
        &self.state
    }
}

/// A published snapshot: cheap to clone, queryable without any lock.
pub type Snapshot<A> = Arc<Versioned<A>>;

/// The publication slot shared by one writer and its readers. The lock
/// guards only the `Arc` swap/clone — no accountant computation ever
/// runs under it.
#[derive(Debug)]
pub struct AccountantCell<A> {
    slot: RwLock<Snapshot<A>>,
}

impl<A> AccountantCell<A> {
    fn load(&self) -> Snapshot<A> {
        Arc::clone(&self.slot.read())
    }

    fn store(&self, snap: Snapshot<A>) {
        *self.slot.write() = snap;
    }
}

/// Split an accountant into its writer and reader halves. The initial
/// state is published immediately at revision 0.
pub fn split<A: Clone>(state: A) -> (AccountantWriter<A>, AccountantReader<A>) {
    let current = Arc::new(Versioned { revision: 0, state });
    let cell = Arc::new(AccountantCell {
        slot: RwLock::new(Arc::clone(&current)),
    });
    let reader = AccountantReader {
        cell: Arc::clone(&cell),
    };
    (AccountantWriter { current, cell }, reader)
}

/// The single ingest handle: owns the mutation right over the state and
/// publishes a fresh snapshot after every successful mutation. There is
/// exactly one writer per cell (the type is not `Clone`), so published
/// revisions form one serial history.
#[derive(Debug)]
pub struct AccountantWriter<A: Clone> {
    /// The last published snapshot — also the writer's own current
    /// state. Mutations clone out of it, so published snapshots are
    /// never aliased mutably.
    current: Snapshot<A>,
    cell: Arc<AccountantCell<A>>,
}

impl<A: Clone> AccountantWriter<A> {
    /// The current (last published) state, for writer-side reads.
    pub fn state(&self) -> &A {
        &self.current.state
    }

    /// The revision of the last published state.
    pub fn revision(&self) -> u64 {
        self.current.revision
    }

    /// The last published snapshot itself (shares the `Arc` readers
    /// see; cheap).
    pub fn snapshot(&self) -> Snapshot<A> {
        Arc::clone(&self.current)
    }

    /// A new reader handle onto this writer's publication slot.
    pub fn reader(&self) -> AccountantReader<A> {
        AccountantReader {
            cell: Arc::clone(&self.cell),
        }
    }

    /// Apply a fallible mutation to a clone of the current state; on
    /// `Ok` the mutated clone is installed and published as the next
    /// revision, on `Err` nothing is installed or published — readers
    /// keep seeing the pre-call revision either way until the publish.
    pub fn with_mut<R>(&mut self, f: impl FnOnce(&mut A) -> Result<R>) -> Result<R> {
        let mut next = self.current.state.clone();
        let out = f(&mut next)?;
        self.install(next);
        Ok(out)
    }

    /// The admission-control seam: build a *candidate* next state from
    /// the current one (typically clone + trial mutation + guarantee
    /// check); on `Ok` the candidate is installed and published, on
    /// `Err` the current state stands untouched — the rejected mutation
    /// was never observed.
    pub fn try_replace<E>(
        &mut self,
        f: impl FnOnce(&A) -> std::result::Result<A, E>,
    ) -> std::result::Result<(), E> {
        let next = f(&self.current.state)?;
        self.install(next);
        Ok(())
    }

    fn install(&mut self, state: A) {
        let snap = Arc::new(Versioned {
            revision: self.current.revision + 1,
            state,
        });
        self.current = Arc::clone(&snap);
        self.cell.store(snap);
    }
}

/// A query handle: clone freely, hand to any thread. Each
/// [`Self::snapshot`] call loads the latest published revision;
/// queries then run on that frozen state with no further coordination.
#[derive(Debug)]
pub struct AccountantReader<A> {
    cell: Arc<AccountantCell<A>>,
}

impl<A> Clone for AccountantReader<A> {
    fn clone(&self) -> Self {
        AccountantReader {
            cell: Arc::clone(&self.cell),
        }
    }
}

impl<A> AccountantReader<A> {
    /// The latest published snapshot. The publication slot is read-locked
    /// only for the `Arc` clone; all query work happens lock-free on the
    /// returned snapshot.
    pub fn snapshot(&self) -> Snapshot<A> {
        self.cell.load()
    }

    /// The latest published revision without retaining the snapshot.
    pub fn revision(&self) -> u64 {
        self.cell.load().revision
    }
}

/// Writer over a population accountant — the ingest surface a tenant
/// owns. Convenience wrappers over [`AccountantWriter::with_mut`] for
/// the ingest path (`observe_release*`, `set_horizon`, w-event arming).
pub type PopulationWriter = AccountantWriter<PopulationAccountant>;

/// Reader over a population accountant.
pub type PopulationReader = AccountantReader<PopulationAccountant>;

impl AccountantWriter<PopulationAccountant> {
    /// Observe a shared release and publish the next revision.
    pub fn observe_release(&mut self, eps: f64) -> Result<()> {
        self.with_mut(|p| p.observe_release(eps))
    }

    /// Observe a personalized release and publish the next revision.
    pub fn observe_release_personalized(
        &mut self,
        assignments: &[(Range<usize>, f64)],
    ) -> Result<()> {
        self.with_mut(|p| p.observe_release_personalized(assignments))
    }

    /// Arm (or disarm) the fold horizon and publish the folded state.
    pub fn set_horizon(&mut self, horizon: Option<usize>) -> Result<()> {
        self.with_mut(|p| p.set_horizon(horizon))
    }

    /// Arm all-time w-event tracking for window `w` on every shard and
    /// publish.
    pub fn track_w_event(&mut self, w: usize) -> Result<()> {
        self.with_mut(|p| p.track_w_event(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdversaryT;
    use tcdp_markov::TransitionMatrix;

    fn adversary() -> AdversaryT {
        let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap();
        AdversaryT::with_both(p.clone(), p).unwrap()
    }

    fn pop(n: usize) -> PopulationAccountant {
        let advs: Vec<AdversaryT> = (0..n).map(|_| adversary()).collect();
        PopulationAccountant::new(&advs).unwrap()
    }

    #[test]
    fn writer_publishes_monotonic_revisions() {
        let (mut w, r) = split(pop(4));
        assert_eq!(r.revision(), 0);
        for k in 1..=5u64 {
            w.observe_release(0.1).unwrap();
            assert_eq!(w.revision(), k);
            assert_eq!(r.snapshot().revision(), k);
        }
    }

    #[test]
    fn failed_mutation_publishes_nothing() {
        let (mut w, r) = split(pop(2));
        w.observe_release(0.1).unwrap();
        let before = r.snapshot();
        assert!(w.observe_release(-1.0).is_err());
        let after = r.snapshot();
        assert_eq!(after.revision(), before.revision());
        assert_eq!(after.num_releases(), 1);
        // The writer keeps working after a rejected mutation.
        w.observe_release(0.2).unwrap();
        assert_eq!(r.snapshot().num_releases(), 2);
    }

    #[test]
    fn try_replace_rejection_leaves_state() {
        let (mut w, r) = split(pop(2));
        w.observe_release(0.1).unwrap();
        let res: std::result::Result<(), String> = w.try_replace(|cur| {
            let mut next = cur.clone();
            next.observe_release(9.0).map_err(|e| e.to_string())?;
            Err("ceiling".to_string())
        });
        assert!(res.is_err());
        assert_eq!(w.state().num_releases(), 1);
        assert_eq!(r.snapshot().num_releases(), 1);
    }

    #[test]
    fn snapshots_are_frozen_while_writer_advances() {
        let (mut w, r) = split(pop(3));
        w.observe_release(0.1).unwrap();
        let old = r.snapshot();
        let old_max = old.max_tpl().unwrap();
        w.observe_release(0.4).unwrap();
        // The old snapshot still answers at its own revision.
        assert_eq!(old.max_tpl().unwrap().to_bits(), old_max.to_bits());
        assert_eq!(old.num_releases(), 1);
        assert_eq!(r.snapshot().num_releases(), 2);
    }

    #[test]
    fn snapshot_queries_match_serial_replay_bitwise() {
        let budgets = [0.1, 0.3, 0.05, 0.2];
        let (mut w, r) = split(pop(3));
        let mut serial = pop(3);
        for (k, &e) in budgets.iter().enumerate() {
            w.observe_release(e).unwrap();
            serial.observe_release(e).unwrap();
            let snap = r.snapshot();
            assert_eq!(snap.revision(), (k + 1) as u64);
            assert_eq!(
                snap.max_tpl().unwrap().to_bits(),
                serial.max_tpl().unwrap().to_bits()
            );
            let a = snap.tpl_series().unwrap();
            let b = serial.tpl_series().unwrap();
            assert_eq!(a.len(), b.len());
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
