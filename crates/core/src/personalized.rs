//! Personalized temporal privacy (Section III-D).
//!
//! The paper observes that temporal privacy leakage is *personal*: users
//! with different mobility patterns (`P^B_i`, `P^F_i`) leak differently
//! under the very same mechanism. The overall α-DP_T level is defined as
//! the maximum leakage over users, but the framework is also compatible
//! with personalized differential privacy (PDP, Jorgensen et al.): each
//! user may carry her own target `α_i` and receive her own budget vector.
//!
//! This module provides both views:
//!
//! * [`PopulationAccountant`] — per-user accounting, **sharded by
//!   `(adversary, budget timeline)` equivalence class**: users with equal
//!   adversary models *and* equal budget timelines share one
//!   [`TplAccountant`] (their series are identical by construction), so
//!   cost scales with the number of distinct (pattern, timeline) classes,
//!   not the number of users, and populations of at least
//!   `PARALLEL_MIN_GROUPS` shards fan them out across the host's cores.
//!   On a population-wide budget stream
//!   ([`PopulationAccountant::observe_release`]) the shard count
//!   equals the number of distinct adversaries, exactly as before;
//!   [`PopulationAccountant::observe_release_personalized`] lets user
//!   ranges receive *different* budgets, splitting shards copy-on-write
//!   the first time their members' timelines diverge. Shards on the same
//!   budget sequence keep sharing one [`tcdp_mech::budget::BudgetTimeline`]
//!   object, so a shared release is recorded once per distinct timeline.
//!   The population leakage is the per-time maximum over users, merged in
//!   deterministic group order (bit-identical to serial and to naive
//!   per-user accounting).
//! * [`personalized_plans`] — per-user Algorithm 2/3 plans for per-user
//!   targets, plus the paper's line-11 combination (minimum budget) when a
//!   single shared mechanism must serve everyone.

use crate::accountant::{MaxTplHint, TplAccountant};
use crate::adversary::AdversaryT;
use crate::release::{population_plan, quantified_plan, upper_bound_plan, PlanKind, ReleasePlan};
use crate::{check_epsilon, Result, TplError};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use tcdp_mech::budget::BudgetTimeline;

/// Minimum number of distinct-adversary shards before a population
/// operation fans out across threads (below this the spawn overhead
/// dominates the per-shard work).
const PARALLEL_MIN_GROUPS: usize = 4;

/// The host's core count, read once per process: the read can cost
/// tens of microseconds (it consults cgroup limits), far more than a
/// small shard's whole observe.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// One accounting shard: every user whose adversary model equals
/// `adversary` *and* whose budget timeline is the shard's, sharing a
/// single [`TplAccountant`]. Within a shard both the adversary and the
/// observed ε trail coincide, so all members have *identical* leakage
/// series — one recursion serves them all.
#[derive(Debug, Clone)]
struct UserGroup {
    adversary: AdversaryT,
    /// Original user indices, ascending (`members[0]` is the group's
    /// lowest index; the group list is kept sorted by that lowest index —
    /// both facts the deterministic tie-breaking below relies on).
    members: Vec<usize>,
    acc: TplAccountant,
}

/// Per-user leakage accounting, sharded by `(adversary, budget timeline)`
/// equivalence class.
///
/// Users with the *same* adversary model and the *same* budget timeline
/// are grouped into one shard holding a single [`TplAccountant`]: every
/// member of a shard has a bit-identical leakage series, so a population
/// of N users over k distinct mobility patterns and m distinct budget
/// timelines performs at most k·m leakage recursions (and builds k
/// Algorithm 1 pruning indexes), not N. On a population-wide stream the
/// shard count is exactly the number of distinct adversaries, as it was
/// before per-user timelines existed. Shards whose members share a
/// budget sequence share one [`BudgetTimeline`] *object* (copy-on-write:
/// [`Self::observe_release_personalized`] clones a timeline only at the
/// moment budgets actually diverge), so a shared release is pushed once
/// per distinct timeline, not once per shard member.
///
/// Observation and queries fan the shards out across threads via
/// `std::thread::scope` once there are at least `PARALLEL_MIN_GROUPS`
/// shards and more than one core; shard results are merged in
/// deterministic group order, so sharded answers are bit-identical to
/// the serial path (and to naive per-user accounting — property-tested
/// in `tests/properties.rs`, including heterogeneous-timeline
/// populations).
#[derive(Debug)]
pub struct PopulationAccountant {
    /// Shards sorted by ascending minimum member index: `groups[g]`'s
    /// minimum member index is strictly increasing in `g`.
    groups: Vec<UserGroup>,
    /// `membership[i]` is the shard of user `i`.
    membership: Vec<usize>,
}

impl PopulationAccountant {
    /// Build the sharded accountant from per-user adversary models;
    /// users with equal adversaries share one shard (linear-scan dedup:
    /// real populations have few distinct correlation patterns). All
    /// shards start on one shared, empty [`BudgetTimeline`]; they stay
    /// on it until [`Self::observe_release_personalized`] diverges them.
    pub fn new(adversaries: &[AdversaryT]) -> Result<Self> {
        if adversaries.is_empty() {
            return Err(TplError::EmptyTimeline);
        }
        let timeline = Arc::new(BudgetTimeline::new());
        let mut groups: Vec<UserGroup> = Vec::new();
        let mut membership = Vec::with_capacity(adversaries.len());
        for (i, adv) in adversaries.iter().enumerate() {
            match groups.iter_mut().position(|g| g.adversary == *adv) {
                Some(g) => {
                    groups[g].members.push(i);
                    membership.push(g);
                }
                None => {
                    membership.push(groups.len());
                    groups.push(UserGroup {
                        adversary: adv.clone(),
                        members: vec![i],
                        acc: TplAccountant::with_shared_losses_and_timeline(
                            adv.backward_loss().map(Arc::new),
                            adv.forward_loss().map(Arc::new),
                            Arc::clone(&timeline),
                        )?,
                    });
                }
            }
        }
        Ok(Self { groups, membership })
    }

    /// Rebuild from checkpointed parts; `groups` must partition
    /// `0..num_users` (validated by the caller in [`crate::checkpoint`]).
    pub(crate) fn from_parts(
        parts: Vec<(AdversaryT, Vec<usize>, TplAccountant)>,
        num_users: usize,
    ) -> Self {
        let mut membership = vec![0usize; num_users];
        let groups = parts
            .into_iter()
            .enumerate()
            .map(|(g, (adversary, members, acc))| {
                for &i in &members {
                    membership[i] = g;
                }
                UserGroup {
                    adversary,
                    members,
                    acc,
                }
            })
            .collect();
        Self { groups, membership }
    }

    /// The checkpointable parts: per shard, its adversary, its member
    /// indices, and its accountant.
    pub(crate) fn parts(&self) -> impl Iterator<Item = (&AdversaryT, &[usize], &TplAccountant)> {
        self.groups
            .iter()
            .map(|g| (&g.adversary, g.members.as_slice(), &g.acc))
    }

    /// Number of users tracked.
    pub fn num_users(&self) -> usize {
        self.membership.len()
    }

    /// Number of `(adversary, timeline)` shards — the quantity
    /// observation and query cost actually scales with. Equals the
    /// number of distinct adversaries until budgets diverge.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of distinct budget-timeline *objects* across shards — 1
    /// until [`Self::observe_release_personalized`] splits one, and the
    /// number a shared release is recorded once per.
    pub fn num_timelines(&self) -> usize {
        Self::timeline_classes(&self.groups).1.len()
    }

    /// Number of releases every user has observed (shards always agree:
    /// every observe path covers each user exactly once, and checkpoint
    /// resume validates it).
    pub fn num_releases(&self) -> usize {
        self.groups.first().map_or(0, |g| g.acc.len())
    }

    /// The timeline-identity classification every sharing-aware path
    /// keys on: `class_of[g]` is the timeline class of shard `g`, and
    /// `reps[c]` the class's shared [`BudgetTimeline`] object (classes
    /// in deterministic first-seen group order). Timelines are the same
    /// class iff they are the same `Arc` object — the copy-on-write
    /// invariant [`Self::observe_release_personalized`] maintains.
    fn timeline_classes(groups: &[UserGroup]) -> (Vec<usize>, Vec<Arc<BudgetTimeline>>) {
        let mut reps: Vec<Arc<BudgetTimeline>> = Vec::new();
        let class_of = groups
            .iter()
            .map(|g| {
                let timeline = g.acc.timeline();
                match reps.iter().position(|r| Arc::ptr_eq(r, timeline)) {
                    Some(c) => c,
                    None => {
                        reps.push(Arc::clone(timeline));
                        reps.len() - 1
                    }
                }
            })
            .collect();
        (class_of, reps)
    }

    /// Re-enact the shard splits a delta checkpoint recorded — the
    /// SPLIT half of incremental replay, applied **before**
    /// [`Self::apply_checkpoint_tails`] so the tails land on the
    /// post-split shard list. `origin[g]` names the cursor-time parent
    /// of new shard `g`, and `members[g]` carries shard `g`'s member
    /// partition exactly when its parent split into several shards
    /// (`None` for a shard that maps 1:1 onto its parent).
    ///
    /// Splitting is copy-on-write and order-preserving, mirroring the
    /// live [`Self::observe_release_personalized`] fork: among one
    /// parent's children, the first in group order (= the one holding
    /// the parent's lowest member, since the final list must stay
    /// sorted by lowest member) keeps the parent's accountant object,
    /// and the rest take clones; every child initially shares the
    /// parent's timeline `Arc`, so the subsequent tail replay forks
    /// timelines exactly where the recorded budgets diverge. Shards
    /// only ever split — a vanished or merged parent is a corruption
    /// refusal, as is any child partition that is not a disjoint,
    /// exhaustive, ascending split of the parent's members.
    pub(crate) fn apply_checkpoint_splits(
        &mut self,
        origin: &[usize],
        members: &[Option<Vec<usize>>],
    ) -> std::result::Result<(), String> {
        let n_old = self.groups.len();
        let n_new = origin.len();
        if members.len() != n_new {
            return Err(format!(
                "origin map covers {n_new} shards but {} member partitions were decoded",
                members.len()
            ));
        }
        if n_new < n_old {
            return Err(format!(
                "delta shrinks the population from {n_old} to {n_new} shards — shards only split, never merge"
            ));
        }
        // Children of each cursor shard, in (already-validated-ascending)
        // new-group order.
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n_old];
        for (g, &p) in origin.iter().enumerate() {
            if p >= n_old {
                return Err(format!(
                    "shard {g} claims descent from cursor shard {p}, but the cursor recorded only {n_old} shards"
                ));
            }
            children[p].push(g);
        }
        if let Some(p) = children.iter().position(|k| k.is_empty()) {
            return Err(format!(
                "cursor shard {p} has no descendant in the delta — shards only split, never vanish"
            ));
        }
        // Resolve and validate each child's member list against its
        // parent's before touching any state.
        let mut resolved: Vec<Option<Vec<usize>>> = vec![None; n_new];
        for (p, kids) in children.iter().enumerate() {
            let parent = &self.groups[p].members;
            if kids.len() == 1 {
                let g = kids[0];
                if let Some(m) = &members[g] {
                    if m != parent {
                        return Err(format!(
                            "shard {g} descends alone from cursor shard {p} but carries a member list that differs from the parent's"
                        ));
                    }
                }
                resolved[g] = Some(parent.clone());
                continue;
            }
            let mut union: Vec<usize> = Vec::with_capacity(parent.len());
            for &g in kids {
                let Some(part) = &members[g] else {
                    return Err(format!(
                        "shard {g} is one of {} children of cursor shard {p} but carries no member partition",
                        kids.len()
                    ));
                };
                if part.is_empty() || part.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!(
                        "shard {g}: member partition must be non-empty and strictly ascending"
                    ));
                }
                union.extend_from_slice(part);
                resolved[g] = Some(part.clone());
            }
            union.sort_unstable();
            if union != *parent {
                return Err(format!(
                    "the {} children of cursor shard {p} do not partition the parent's {} members",
                    kids.len(),
                    parent.len()
                ));
            }
        }
        // The final group list must stay strictly ascending by lowest
        // member — the invariant every sharing-aware path keys on.
        for g in 1..n_new {
            let prev = resolved[g - 1].as_ref().map(|m| m[0]);
            let here = resolved[g].as_ref().map(|m| m[0]);
            if prev >= here {
                return Err(format!(
                    "shard {g} breaks the ascending-lowest-member shard order"
                ));
            }
        }
        // Build the new shard list: per parent, clones first (they
        // borrow the original), then the original moves into the first
        // child's slot.
        let old = std::mem::take(&mut self.groups);
        let mut new_groups: Vec<Option<UserGroup>> = (0..n_new).map(|_| None).collect();
        for (p, parent) in old.into_iter().enumerate() {
            let kids = &children[p];
            let timeline = Arc::clone(parent.acc.timeline());
            for &g in &kids[1..] {
                let members = resolved[g]
                    .take()
                    .ok_or_else(|| format!("cursor shard {p}: child {g} resolved twice"))?;
                new_groups[g] = Some(UserGroup {
                    adversary: parent.adversary.clone(),
                    members,
                    acc: parent.acc.clone_with_timeline(Arc::clone(&timeline)),
                });
            }
            let g0 = kids[0];
            let members = resolved[g0]
                .take()
                .ok_or_else(|| format!("cursor shard {p}: child {g0} resolved twice"))?;
            new_groups[g0] = Some(UserGroup {
                adversary: parent.adversary,
                members,
                acc: parent.acc,
            });
        }
        let mut groups = Vec::with_capacity(n_new);
        for (g, slot) in new_groups.into_iter().enumerate() {
            groups.push(
                slot.ok_or_else(|| format!("shard {g} was claimed by no cursor-time parent"))?,
            );
        }
        self.groups = groups;
        for (g, group) in self.groups.iter().enumerate() {
            for &u in &group.members {
                self.membership[u] = g;
            }
        }
        Ok(())
    }

    /// Splice a delta checkpoint's per-shard tails onto the population —
    /// the replay half of incremental checkpoints ([`crate::checkpoint`]).
    /// `tails[g]` carries shard `g`'s appended `(budgets, bpl)` in group
    /// order; every shard appends the same number of releases (each user
    /// observes each release exactly once). Timeline sharing is
    /// reproduced copy-on-write: shards that shared one timeline object
    /// and received bit-identical budget tails keep sharing it, while a
    /// class whose tails diverge forks exactly as the live
    /// [`Self::observe_release_personalized`] fork did (the first-seen
    /// tail, in group order, keeps the base object). The caller has
    /// validated tail contents (finite, positive budgets; finite,
    /// non-negative BPL values).
    pub(crate) fn apply_checkpoint_tails(
        &mut self,
        tails: &[(Vec<f64>, Vec<f64>)],
    ) -> std::result::Result<(), String> {
        if tails.len() != self.groups.len() {
            return Err(format!(
                "delta carries {} shard tails for a population of {} shards",
                tails.len(),
                self.groups.len()
            ));
        }
        let count = tails.first().map_or(0, |(b, _)| b.len());
        for (g, (budgets, bpl)) in tails.iter().enumerate() {
            if budgets.len() != count || bpl.len() != count {
                return Err(format!(
                    "shard {g}: tail lengths ({}, {}) disagree with {count} appended releases",
                    budgets.len(),
                    bpl.len()
                ));
            }
        }
        if count == 0 {
            return Ok(());
        }
        let (class_of, reps) = Self::timeline_classes(&self.groups);
        for (c, rep) in reps.iter().enumerate() {
            // Partition the class's shards by appended-budget bits, in
            // first-seen group order — the order live forks use.
            let mut parts: Vec<(Vec<u64>, Vec<usize>)> = Vec::new();
            for (g, _) in class_of.iter().enumerate().filter(|&(_, cc)| *cc == c) {
                let bits: Vec<u64> = tails[g].0.iter().map(|v| v.to_bits()).collect();
                match parts.iter_mut().find(|(k, _)| *k == bits) {
                    Some((_, ids)) => ids.push(g),
                    None => parts.push((bits, vec![g])),
                }
            }
            let pre_fork = (parts.len() > 1).then(|| (**rep).clone());
            for (k, (_, ids)) in parts.iter().enumerate() {
                if k == 0 {
                    for &v in &tails[ids[0]].0 {
                        rep.push(v).map_err(|e| e.to_string())?;
                    }
                } else {
                    let Some(snapshot) = pre_fork.as_ref() else {
                        return Err("pre-fork snapshot missing for split timeline".to_string());
                    };
                    let fork = snapshot.clone();
                    for &v in &tails[ids[0]].0 {
                        fork.push(v).map_err(|e| e.to_string())?;
                    }
                    let arc = Arc::new(fork);
                    for &g in ids {
                        self.groups[g].acc.set_timeline(Arc::clone(&arc));
                    }
                }
            }
        }
        for (g, (budgets, bpl)) in tails.iter().enumerate() {
            self.groups[g]
                .acc
                .extend_bpl(budgets, bpl)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Arm (or disarm, with `None`) a fold horizon on every shard: each
    /// distinct timeline folds once, then every shard's accountant
    /// absorbs the folded BPL prefix into its summary. Copy-on-write
    /// sharing is untouched — the fold mutates each class's shared
    /// timeline in place, so shards of one class keep pointing at one
    /// object. See [`TplAccountant::set_horizon`].
    pub fn set_horizon(&mut self, horizon: Option<usize>) -> Result<()> {
        // One fold per distinct timeline object...
        for rep in Self::timeline_classes(&self.groups).1 {
            rep.set_horizon(horizon)?;
        }
        // ...then every shard syncs its BPL mirror to its (possibly
        // shared, already-folded) timeline. Re-arming an already-folded
        // timeline is a no-op, so the per-shard pass is idempotent.
        let threads = self.default_threads();
        Self::map_groups_mut(&mut self.groups, threads, |g| g.acc.set_horizon(horizon))?;
        Ok(())
    }

    /// Shard views in deterministic group order: each item is the
    /// shard's ascending member indices and the [`TplAccountant`] they
    /// all share. Read-only; useful for per-group reporting.
    pub fn shards(&self) -> impl Iterator<Item = (&[usize], &TplAccountant)> {
        self.groups.iter().map(|g| (g.members.as_slice(), &g.acc))
    }

    /// The thread count the default entry points fan out over: the
    /// host's core count once there are enough shards, else 1 (serial).
    fn default_threads(&self) -> usize {
        if self.groups.len() >= PARALLEL_MIN_GROUPS {
            host_cores()
        } else {
            1
        }
    }

    /// Run `f` over every shard (immutably), fanning contiguous chunks
    /// of the group list out over at most `threads` workers, and return
    /// the per-shard results *in group order* — the deterministic merge
    /// order every query folds over. With `threads <= 1` this is a plain
    /// serial loop over the same order.
    fn map_groups<T: Send>(
        groups: &[UserGroup],
        threads: usize,
        f: impl Fn(&UserGroup) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let threads = threads.clamp(1, groups.len().max(1));
        if threads > 1 {
            let chunk = groups.len().div_ceil(threads);
            let f = &f;
            let collected = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .chunks(chunk)
                    .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<_>>()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| match h.join() {
                        Ok(part) => part,
                        // Re-raise a shard worker's panic with its
                        // original payload at the join point.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect::<Vec<_>>()
            });
            return collected.into_iter().collect();
        }
        groups.iter().map(f).collect()
    }

    /// Mutable counterpart of [`Self::map_groups`], for `observe_release`.
    ///
    /// Unlike the immutable variant, the serial path here attempts
    /// *every* shard before reporting the first error (in group order) —
    /// exactly what the parallel fan-out does — so an error leaves the
    /// same shards advanced regardless of the thread count.
    fn map_groups_mut<T: Send>(
        groups: &mut [UserGroup],
        threads: usize,
        f: impl Fn(&mut UserGroup) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let threads = threads.clamp(1, groups.len().max(1));
        if threads > 1 {
            let chunk = groups.len().div_ceil(threads);
            let f = &f;
            let collected = std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .chunks_mut(chunk)
                    .map(|part| scope.spawn(move || part.iter_mut().map(f).collect::<Vec<_>>()))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| match h.join() {
                        Ok(part) => part,
                        // Re-raise a shard worker's panic with its
                        // original payload at the join point.
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect::<Vec<_>>()
            });
            return collected.into_iter().collect();
        }
        let attempted: Vec<Result<T>> = groups.iter_mut().map(f).collect();
        attempted.into_iter().collect()
    }

    /// Record a shared release of budget `eps` for every user: one push
    /// per *distinct timeline*, then one BPL recursion step per shard,
    /// fanned out across threads.
    pub fn observe_release(&mut self, eps: f64) -> Result<()> {
        let threads = self.default_threads();
        self.observe_release_sharded(eps, threads)
    }

    /// [`Self::observe_release`] forced onto an explicit worker count —
    /// the differential-test hook holding sharded observation
    /// bit-identical to serial regardless of the host's parallelism.
    pub fn observe_release_forced_parallel(&mut self, eps: f64, threads: usize) -> Result<()> {
        self.observe_release_sharded(eps, threads)
    }

    fn observe_release_sharded(&mut self, eps: f64, threads: usize) -> Result<()> {
        // Validate once up front so a bad budget cannot advance a prefix
        // of the timelines before the error surfaces.
        check_epsilon(eps)?;
        // One push per distinct timeline object: shards sharing a
        // timeline observe the release exactly once.
        for timeline in Self::timeline_classes(&self.groups).1 {
            timeline.push(eps)?;
        }
        // Advance every shard's BPL recursion, fanned out across threads.
        Self::map_groups_mut(&mut self.groups, threads, |g| g.acc.sync_with_timeline())?;
        Ok(())
    }

    /// Record one release with *personalized* budgets: each
    /// `(user_range, eps)` assignment gives every user in the (0-based,
    /// half-open) range the budget `eps` at this time point. The ranges
    /// must be disjoint, non-empty, and cover every user exactly once —
    /// the paper's PDP setting, where each user may consume a different
    /// ε per release.
    ///
    /// Sharding is maintained copy-on-write: a shard whose members all
    /// receive the same budget stays intact (and keeps *sharing* its
    /// timeline object with other shards receiving that budget), while a
    /// shard straddling two budgets splits into per-budget shards, each
    /// cloning the common history once. Uniform assignments therefore
    /// keep the flat distinct-adversary scaling, and heterogeneous
    /// populations pay per `(adversary, timeline)` class, never per user.
    pub fn observe_release_personalized(
        &mut self,
        assignments: &[(Range<usize>, f64)],
    ) -> Result<()> {
        let threads = self.default_threads();
        self.observe_personalized_sharded(assignments, threads)
    }

    /// [`Self::observe_release_personalized`] forced onto an explicit
    /// worker count (differential-test hook).
    pub fn observe_release_personalized_forced_parallel(
        &mut self,
        assignments: &[(Range<usize>, f64)],
        threads: usize,
    ) -> Result<()> {
        self.observe_personalized_sharded(assignments, threads)
    }

    fn observe_personalized_sharded(
        &mut self,
        assignments: &[(Range<usize>, f64)],
        threads: usize,
    ) -> Result<()> {
        let bad = |reason: String| TplError::BudgetAssignment(reason);
        // Validate the assignment up front: sorted, disjoint, non-empty
        // ranges covering 0..num_users exactly, every budget valid —
        // nothing is mutated before the whole assignment checks out.
        let mut ranges: Vec<(Range<usize>, f64)> = assignments.to_vec();
        ranges.sort_by_key(|(r, _)| r.start);
        let mut expect = 0usize;
        for (r, eps) in &ranges {
            check_epsilon(*eps)?;
            if r.end <= r.start {
                return Err(bad(format!("empty user range {}..{}", r.start, r.end)));
            }
            if r.start > expect {
                return Err(bad(format!("users {expect}..{} have no budget", r.start)));
            }
            if r.start < expect {
                return Err(bad(format!(
                    "user ranges overlap at user {} (ranges must be disjoint)",
                    r.start
                )));
            }
            expect = r.end;
        }
        if expect != self.num_users() {
            return Err(bad(format!(
                "assignments cover users 0..{expect} but the population has {} users",
                self.num_users()
            )));
        }
        // All budgets equal: this *is* the uniform release (and must stay
        // on its flat fast path — no per-user work at all).
        let first_eps = ranges[0].1;
        if ranges
            .iter()
            .all(|(_, e)| e.to_bits() == first_eps.to_bits())
        {
            return self.observe_release_sharded(first_eps, threads);
        }

        // Partition each group's members by assigned budget. Members are
        // ascending and ranges are sorted, so each range holds one
        // contiguous slice of the member list (binary search, no
        // per-user scan); slices land in per-budget buckets in ascending
        // member order, keyed by first occurrence.
        let group_buckets: Vec<Vec<(f64, Vec<usize>)>> = self
            .groups
            .iter()
            .map(|g| {
                let mut buckets: Vec<(f64, Vec<usize>)> = Vec::new();
                for (r, eps) in &ranges {
                    let lo = g.members.partition_point(|&m| m < r.start);
                    let hi = g.members.partition_point(|&m| m < r.end);
                    if lo == hi {
                        continue;
                    }
                    match buckets
                        .iter_mut()
                        .find(|(e, _)| e.to_bits() == eps.to_bits())
                    {
                        Some((_, members)) => members.extend_from_slice(&g.members[lo..hi]),
                        None => buckets.push((*eps, g.members[lo..hi].to_vec())),
                    }
                }
                buckets
            })
            .collect();

        // Per distinct timeline object, the distinct budgets its shards
        // receive this release, in deterministic first-occurrence order
        // (groups ascending, buckets in creation order).
        let (class_of, class_base) = Self::timeline_classes(&self.groups);
        let mut class_eps: Vec<Vec<f64>> = vec![Vec::new(); class_base.len()];
        for (g, buckets) in group_buckets.iter().enumerate() {
            let c = class_of[g];
            for (eps, _) in buckets {
                if !class_eps[c].iter().any(|e| e.to_bits() == eps.to_bits()) {
                    class_eps[c].push(*eps);
                }
            }
        }

        // Copy-on-write: the first budget of a class is pushed in place
        // on the shared timeline (every shard keeping it sees the push);
        // every further budget forks the pre-push history once and is
        // shared by all of the class's shards receiving it.
        let mut class_arcs: Vec<Vec<Arc<BudgetTimeline>>> = Vec::with_capacity(class_eps.len());
        for (c, eps_list) in class_eps.iter().enumerate() {
            let base = &class_base[c];
            let pre_push = (eps_list.len() > 1).then(|| (**base).clone());
            let mut arcs = Vec::with_capacity(eps_list.len());
            for (k, &eps) in eps_list.iter().enumerate() {
                if k == 0 {
                    base.push(eps)?;
                    arcs.push(Arc::clone(base));
                } else {
                    let Some(snapshot) = pre_push.as_ref() else {
                        return Err(TplError::BudgetAssignment(
                            "pre-push snapshot missing for split class".to_string(),
                        ));
                    };
                    let fork = snapshot.clone();
                    fork.push(eps)?;
                    arcs.push(Arc::new(fork));
                }
            }
            class_arcs.push(arcs);
        }

        // Rebuild the shard list: intact groups keep their accountant
        // (re-pointed at their budget's timeline when it forked), split
        // groups clone the shared history once per extra budget.
        let any_split = group_buckets.iter().any(|b| b.len() > 1);
        let old_groups = std::mem::take(&mut self.groups);
        let mut new_groups: Vec<UserGroup> = Vec::with_capacity(
            old_groups.len() + group_buckets.iter().map(|b| b.len() - 1).sum::<usize>(),
        );
        for ((g, old), buckets) in old_groups.into_iter().enumerate().zip(group_buckets) {
            let c = class_of[g];
            let arc_for = |eps: f64| -> Result<Arc<BudgetTimeline>> {
                let k = class_eps[c]
                    .iter()
                    .position(|e| e.to_bits() == eps.to_bits())
                    .ok_or_else(|| {
                        TplError::BudgetAssignment(
                            "bucket budget was never registered for its class".to_string(),
                        )
                    })?;
                Ok(Arc::clone(&class_arcs[c][k]))
            };
            // Clones first (they need `&old.acc`), then the in-place
            // re-use of the original accountant for the first bucket.
            let split_accs: Vec<TplAccountant> = buckets[1..]
                .iter()
                .map(|(eps, _)| Ok(old.acc.clone_with_timeline(arc_for(*eps)?)))
                .collect::<Result<_>>()?;
            let mut first_acc = old.acc;
            let first_arc = arc_for(buckets[0].0)?;
            if !Arc::ptr_eq(first_acc.timeline(), &first_arc) {
                first_acc.set_timeline(first_arc);
            }
            let mut first_acc = Some(first_acc);
            let mut split_accs = split_accs.into_iter();
            for (k, (_, members)) in buckets.into_iter().enumerate() {
                let acc = match if k == 0 {
                    first_acc.take()
                } else {
                    split_accs.next()
                } {
                    Some(acc) => acc,
                    None => {
                        return Err(TplError::BudgetAssignment(
                            "bucket/accountant bookkeeping out of sync".to_string(),
                        ))
                    }
                };
                new_groups.push(UserGroup {
                    adversary: old.adversary.clone(),
                    members,
                    acc,
                });
            }
        }
        if any_split {
            // Restore the ascending-minimum-member group order the
            // deterministic tie-breaking (and the checkpoint format)
            // relies on, and remap users to their shards.
            new_groups.sort_by_key(|g| g.members[0]);
            for (gi, g) in new_groups.iter().enumerate() {
                for &m in &g.members {
                    self.membership[m] = gi;
                }
            }
        }
        self.groups = new_groups;

        // Advance every shard's BPL recursion, fanned out across threads.
        Self::map_groups_mut(&mut self.groups, threads, |g| g.acc.sync_with_timeline())?;
        Ok(())
    }

    /// The accountant serving user `i` (shared by every user with the
    /// same adversary — their series are identical by construction).
    pub fn user(&self, i: usize) -> Option<&TplAccountant> {
        self.membership.get(i).map(|&g| &self.groups[g].acc)
    }

    /// The population TPL series: per-time maximum over users
    /// (Definition 5's `max_{∀A^T_i}`), computed per shard and merged in
    /// group order.
    pub fn tpl_series(&self) -> Result<Vec<f64>> {
        self.tpl_series_sharded(self.default_threads())
    }

    /// [`Self::tpl_series`] forced onto an explicit worker count.
    pub fn tpl_series_forced_parallel(&self, threads: usize) -> Result<Vec<f64>> {
        self.tpl_series_sharded(threads)
    }

    fn tpl_series_sharded(&self, threads: usize) -> Result<Vec<f64>> {
        let per_group = Self::map_groups(&self.groups, threads, |g| g.acc.tpl_series())?;
        let mut out: Option<Vec<f64>> = None;
        for series in per_group {
            out = Some(match out {
                None => series,
                Some(prev) => {
                    // Shards share one timeline; unequal lengths mean the
                    // population state is inconsistent (e.g. a shard
                    // failed mid-observation) — report it instead of
                    // letting `zip` silently truncate the series.
                    if prev.len() != series.len() {
                        return Err(TplError::DimensionMismatch {
                            expected: prev.len(),
                            found: series.len(),
                        });
                    }
                    prev.iter().zip(&series).map(|(a, b)| a.max(*b)).collect()
                }
            });
        }
        out.ok_or(TplError::EmptyTimeline)
    }

    /// Worst TPL over all users and times — the α in the population's
    /// α-DP_T guarantee.
    pub fn max_tpl(&self) -> Result<f64> {
        self.max_tpl_sharded(self.default_threads())
    }

    /// [`Self::max_tpl`] forced onto an explicit worker count.
    pub fn max_tpl_forced_parallel(&self, threads: usize) -> Result<f64> {
        self.max_tpl_sharded(threads)
    }

    fn max_tpl_sharded(&self, threads: usize) -> Result<f64> {
        let per_group = Self::map_groups(&self.groups, threads, |g| g.acc.max_tpl())?;
        Ok(per_group.into_iter().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Index of the user with the highest current leakage.
    ///
    /// Tie-breaking is deterministic and documented: among users whose
    /// worst TPL is *exactly* equal (every member of a shard, and any
    /// shards whose maxima coincide bit-for-bit), the **lowest user
    /// index wins**. The sharded merge preserves this because shards are
    /// scanned in group order (ascending minimum member index) and a
    /// later shard replaces the incumbent only on a strictly greater
    /// value — so thread fan-out can never flip the winner.
    pub fn most_exposed_user(&self) -> Result<usize> {
        self.most_exposed_user_sharded(self.default_threads())
    }

    /// [`Self::most_exposed_user`] forced onto an explicit worker count.
    pub fn most_exposed_user_forced_parallel(&self, threads: usize) -> Result<usize> {
        self.most_exposed_user_sharded(threads)
    }

    fn most_exposed_user_sharded(&self, threads: usize) -> Result<usize> {
        // Phase 1 — cheap per-shard hints, fanned out in group order:
        // the exact maximum when a shard's series cache is already
        // fresh, otherwise an upper bound built from the maintained
        // `BPL − ε` mirrors and the memoized Theorem 5 FPL supremum
        // (amortized O(live): the supremum recomputes only when the
        // shard's running max ε changes).
        let hints = Self::map_groups(&self.groups, threads, |g| {
            Ok((g.members[0], g.acc.max_tpl_hint()?))
        })?;
        // Phase 2 — serial scan in group order, maintaining the
        // incumbent. A later shard replaces the incumbent only on a
        // strictly greater value, so a shard whose upper bound is `<=`
        // the incumbent provably cannot change the winner and skips its
        // series rebuild. The result is pinned bit-identical to the
        // full scan (asserted by `most_exposed_early_out_matches_full_scan`).
        let mut best: Option<(usize, f64)> = None;
        for (g, (idx, hint)) in hints.into_iter().enumerate() {
            let v = match hint {
                MaxTplHint::Exact(v) => v,
                MaxTplHint::Bound(bound) => {
                    if best.as_ref().is_some_and(|b| bound <= b.1) {
                        continue;
                    }
                    self.groups[g].acc.max_tpl()?
                }
            };
            best = Some(match best {
                Some(b) if v <= b.1 => b,
                _ => (idx, v),
            });
        }
        best.map(|(idx, _)| idx).ok_or(TplError::EmptyTimeline)
    }

    /// Arm all-time w-event tracking for window length `w` on every
    /// shard (see [`TplAccountant::track_w_event`]); shards created by
    /// later personalized splits inherit the tracked windows from their
    /// parent. Must be armed before the first fold.
    pub fn track_w_event(&mut self, w: usize) -> Result<()> {
        for g in &mut self.groups {
            g.acc.track_w_event(w)?;
        }
        Ok(())
    }

    /// The population w-event guarantee (Theorem 2 joined over users):
    /// the maximum over shards of
    /// [`crate::composition::w_event_guarantee`], merged in
    /// deterministic group order. Exact while history is live; an upper
    /// bound once tracked windows fold (exactly as the per-shard
    /// function documents).
    pub fn w_event_guarantee(&self, w: usize) -> Result<f64> {
        let per_group = Self::map_groups(&self.groups, self.default_threads(), |g| {
            crate::composition::w_event_guarantee(&g.acc, w)
        })?;
        Ok(per_group.into_iter().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Coalesce shards that have **re-converged** after personalized
    /// splits, returning the number of shard merges performed. Two
    /// passes:
    ///
    /// 1. *Timeline re-sharing*: distinct timeline objects whose trails
    ///    are bitwise-equal again ([`BudgetTimeline::merge_eq`]: live
    ///    entries, fold point, folded running total, folded max ε, and
    ///    armed horizon all equal) collapse onto the first class's
    ///    object, so shared releases are pushed once again.
    /// 2. *Shard merging*: shards with equal adversaries, the same
    ///    (re-shared) timeline object, and bit-identical accountant
    ///    state (BPL mirrors, fold summaries, tracked w-event bases)
    ///    merge into the earlier shard, which absorbs the later one's
    ///    members.
    ///
    /// Re-convergence in practice needs a fold horizon: live trails are
    /// append-only, so once diverged they only re-agree after the
    /// diverging entries fold away with bit-equal running sums (e.g.
    /// budget assignments that permute the same ε multiset across
    /// shards). The merge precondition is full observable-state
    /// equality, so every query answers bit-identically before and
    /// after a merge — the tie-break (lowest user index wins) is
    /// preserved because the surviving shard's lowest member is the
    /// lower of the pair. Long-running daemons call this periodically
    /// to keep shard counts bounded; a merge shrinks the shard list, so
    /// the next delta checkpoint falls back to a full snapshot (deltas
    /// only encode splits).
    pub fn remerge_converged(&mut self) -> usize {
        // Pass 1: re-share bitwise-equal timeline objects.
        let (class_of, reps) = Self::timeline_classes(&self.groups);
        let mut canonical: Vec<usize> = (0..reps.len()).collect();
        for c in 1..reps.len() {
            for d in 0..c {
                if canonical[d] == d && reps[c].merge_eq(&reps[d]) {
                    canonical[c] = d;
                    break;
                }
            }
        }
        for (g, &c) in class_of.iter().enumerate() {
            if canonical[c] != c {
                self.groups[g]
                    .acc
                    .set_timeline(Arc::clone(&reps[canonical[c]]));
            }
        }
        // Pass 2: merge observationally identical shards into the
        // earlier one. Group order (ascending lowest member) is
        // preserved: the survivor's lowest member is already the
        // smaller of the pair.
        let mut merges = 0usize;
        let mut i = 0;
        while i < self.groups.len() {
            let mut j = i + 1;
            while j < self.groups.len() {
                let same = {
                    let (a, b) = (&self.groups[i], &self.groups[j]);
                    a.adversary == b.adversary
                        && Arc::ptr_eq(a.acc.timeline(), b.acc.timeline())
                        && a.acc.state_eq(&b.acc)
                };
                if same {
                    let absorbed = self.groups.remove(j);
                    self.groups[i].members.extend(absorbed.members);
                    self.groups[i].members.sort_unstable();
                    merges += 1;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
        if merges > 0 {
            for (gi, g) in self.groups.iter().enumerate() {
                for &m in &g.members {
                    self.membership[m] = gi;
                }
            }
        }
        merges
    }
}

impl Clone for PopulationAccountant {
    /// Cloning preserves the copy-on-write timeline topology: shards that
    /// shared one timeline object in the original share one (fresh) object
    /// in the clone, so the clone observes shared releases once per
    /// distinct timeline exactly as the original does.
    fn clone(&self) -> Self {
        let (class_of, reps) = Self::timeline_classes(&self.groups);
        let fresh: Vec<Arc<BudgetTimeline>> =
            reps.iter().map(|r| Arc::new((**r).clone())).collect();
        let groups = self
            .groups
            .iter()
            .zip(&class_of)
            .map(|(g, &c)| UserGroup {
                adversary: g.adversary.clone(),
                members: g.members.clone(),
                acc: g.acc.clone_with_timeline(Arc::clone(&fresh[c])),
            })
            .collect();
        Self {
            groups,
            membership: self.membership.clone(),
        }
    }
}

/// One user's personalized target.
#[derive(Debug, Clone)]
pub struct UserTarget {
    /// The user's adversary model.
    pub adversary: AdversaryT,
    /// The user's α-DP_T target.
    pub alpha: f64,
}

/// Per-user plans for per-user targets (PDP compatibility).
pub fn personalized_plans(
    targets: &[UserTarget],
    kind: PlanKind,
    t_len: usize,
) -> Result<Vec<ReleasePlan>> {
    targets
        .iter()
        .map(|u| match kind {
            PlanKind::UpperBound => upper_bound_plan(&u.adversary, u.alpha),
            PlanKind::Quantified => quantified_plan(&u.adversary, u.alpha, t_len),
        })
        .collect()
}

/// A single shared plan meeting *every* user's personal target: per-user
/// plans combined with the paper's per-time minimum (line 11).
pub fn shared_plan_for_targets(
    targets: &[UserTarget],
    kind: PlanKind,
    t_len: usize,
) -> Result<ReleasePlan> {
    let plans = personalized_plans(targets, kind, t_len)?;
    population_plan(&plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcdp_markov::TransitionMatrix;

    fn strong_user() -> AdversaryT {
        let p = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.05, 0.95]]).unwrap();
        AdversaryT::with_both(p.clone(), p).unwrap()
    }

    fn weak_user() -> AdversaryT {
        let p = TransitionMatrix::from_rows(vec![vec![0.55, 0.45], vec![0.45, 0.55]]).unwrap();
        AdversaryT::with_both(p.clone(), p).unwrap()
    }

    #[test]
    fn population_accounting_takes_worst_user() {
        let mut pop = PopulationAccountant::new(&[strong_user(), weak_user()]).unwrap();
        for _ in 0..10 {
            pop.observe_release(0.1).unwrap();
        }
        assert_eq!(pop.num_users(), 2);
        let pop_tpl = pop.tpl_series().unwrap();
        let strong_tpl = pop.user(0).unwrap().tpl_series().unwrap();
        let weak_tpl = pop.user(1).unwrap().tpl_series().unwrap();
        for t in 0..10 {
            assert!((pop_tpl[t] - strong_tpl[t].max(weak_tpl[t])).abs() < 1e-12);
            assert!(
                strong_tpl[t] > weak_tpl[t],
                "stronger correlation leaks more"
            );
        }
        assert_eq!(pop.most_exposed_user().unwrap(), 0);
        assert!(pop.user(5).is_none());
    }

    #[test]
    fn empty_population_rejected() {
        assert!(PopulationAccountant::new(&[]).is_err());
    }

    #[test]
    fn most_exposed_tie_breaks_to_lowest_index() {
        // Users 1 and 2 share one shard (exact tie within the shard); the
        // documented winner is the lowest index, 1.
        let mut pop =
            PopulationAccountant::new(&[weak_user(), strong_user(), strong_user()]).unwrap();
        for _ in 0..5 {
            pop.observe_release(0.1).unwrap();
        }
        assert_eq!(pop.most_exposed_user().unwrap(), 1);

        // A *cross-shard* exact tie: under a uniform budget, a
        // backward-only and a forward-only adversary over the same matrix
        // run the same recursion (FPL is BPL reversed), so their worst
        // TPL coincides bit for bit. Lowest index still wins.
        let p = TransitionMatrix::from_rows(vec![vec![0.9, 0.1], vec![0.05, 0.95]]).unwrap();
        let mut tied = PopulationAccountant::new(&[
            AdversaryT::with_backward(p.clone()),
            AdversaryT::with_forward(p),
        ])
        .unwrap();
        for _ in 0..7 {
            tied.observe_release(0.2).unwrap();
        }
        assert_eq!(tied.num_groups(), 2);
        let m0 = tied.user(0).unwrap().max_tpl().unwrap();
        let m1 = tied.user(1).unwrap().max_tpl().unwrap();
        assert_eq!(m0.to_bits(), m1.to_bits(), "the tie must be exact");
        assert_eq!(tied.most_exposed_user().unwrap(), 0);
    }

    #[test]
    fn forced_parallel_matches_serial_bitwise() {
        let adversaries: Vec<AdversaryT> = (0..40)
            .map(|i| match i % 5 {
                0 => strong_user(),
                1 => weak_user(),
                2 => AdversaryT::traditional(),
                3 => AdversaryT::with_backward(
                    TransitionMatrix::from_rows(vec![vec![0.7, 0.3], vec![0.4, 0.6]]).unwrap(),
                ),
                _ => AdversaryT::with_forward(
                    TransitionMatrix::from_rows(vec![vec![0.6, 0.4], vec![0.1, 0.9]]).unwrap(),
                ),
            })
            .collect();
        let mut serial = PopulationAccountant::new(&adversaries).unwrap();
        let mut sharded = PopulationAccountant::new(&adversaries).unwrap();
        for t in 0..12 {
            let eps = 0.05 + 0.01 * (t % 4) as f64;
            serial.observe_release_forced_parallel(eps, 1).unwrap();
            sharded.observe_release_forced_parallel(eps, 3).unwrap();
            for threads in [2, 3, 5] {
                let a = serial.tpl_series_forced_parallel(1).unwrap();
                let b = sharded.tpl_series_forced_parallel(threads).unwrap();
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                assert_eq!(
                    serial.max_tpl_forced_parallel(1).unwrap().to_bits(),
                    sharded.max_tpl_forced_parallel(threads).unwrap().to_bits()
                );
                assert_eq!(
                    serial.most_exposed_user_forced_parallel(1).unwrap(),
                    sharded.most_exposed_user_forced_parallel(threads).unwrap()
                );
            }
        }
    }

    #[test]
    fn equal_adversaries_share_one_shard() {
        let mut pop =
            PopulationAccountant::new(&[strong_user(), strong_user(), weak_user()]).unwrap();
        assert_eq!(pop.num_users(), 3);
        assert_eq!(pop.num_groups(), 2, "two distinct adversaries");
        for _ in 0..6 {
            pop.observe_release(0.1).unwrap();
        }
        let series = pop.tpl_series().unwrap();
        // Sharding is behaviorally invisible: each user matches a
        // standalone accountant bit for bit.
        for (i, adv) in [strong_user(), strong_user(), weak_user()]
            .iter()
            .enumerate()
        {
            let mut solo = TplAccountant::new(adv);
            for _ in 0..6 {
                solo.observe_release(0.1).unwrap();
            }
            assert_eq!(
                pop.user(i).unwrap().tpl_series().unwrap(),
                solo.tpl_series().unwrap(),
                "user {i}"
            );
        }
        assert_eq!(series.len(), 6);
        // The two equal-adversary users are literally the same shard, so
        // their eval counters are one and the same object...
        let c0 = pop.user(0).unwrap().loss_eval_count();
        let c1 = pop.user(1).unwrap().loss_eval_count();
        assert_eq!(c0, c1);
        // ...and the cost of the whole population scales with distinct
        // adversaries, not users: a 100-user population over the same two
        // patterns performs exactly the same evaluations.
        let many: Vec<AdversaryT> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    strong_user()
                } else {
                    weak_user()
                }
            })
            .collect();
        let mut big = PopulationAccountant::new(&many).unwrap();
        assert_eq!(big.num_groups(), 2);
        for _ in 0..6 {
            big.observe_release(0.1).unwrap();
        }
        big.tpl_series().unwrap();
        assert_eq!(big.user(0).unwrap().loss_eval_count(), c0);
    }

    #[test]
    fn personalized_observe_splits_shards_copy_on_write() {
        // Four users, two adversaries, interleaved: shards {0,2} and
        // {1,3}. After a uniform prefix, users 0..2 and 2..4 diverge —
        // both shards straddle the cut, so each splits in two.
        let advs = [strong_user(), weak_user(), strong_user(), weak_user()];
        let mut pop = PopulationAccountant::new(&advs).unwrap();
        assert_eq!(pop.num_groups(), 2);
        assert_eq!(pop.num_timelines(), 1);
        for _ in 0..3 {
            pop.observe_release(0.1).unwrap();
        }
        assert_eq!(pop.num_timelines(), 1, "uniform stream never splits");

        pop.observe_release_personalized(&[(0..2, 0.05), (2..4, 0.3)])
            .unwrap();
        assert_eq!(pop.num_groups(), 4, "both shards straddle the cut");
        assert_eq!(
            pop.num_timelines(),
            2,
            "one timeline per distinct budget sequence, shared across adversaries"
        );
        // Another personalized release along the same cut: no further
        // splits, pushes land once per timeline.
        pop.observe_release_personalized(&[(0..2, 0.05), (2..4, 0.3)])
            .unwrap();
        assert_eq!(pop.num_groups(), 4);
        assert_eq!(pop.num_timelines(), 2);
        // ...and a uniform release on the diverged population still works.
        pop.observe_release(0.2).unwrap();

        // Every user matches a standalone accountant fed their own trail.
        for (i, adv) in advs.iter().enumerate() {
            let mut solo = TplAccountant::new(adv);
            for _ in 0..3 {
                solo.observe_release(0.1).unwrap();
            }
            let personal = if i < 2 { 0.05 } else { 0.3 };
            solo.observe_release(personal).unwrap();
            solo.observe_release(personal).unwrap();
            solo.observe_release(0.2).unwrap();
            assert_eq!(
                pop.user(i).unwrap().tpl_series().unwrap(),
                solo.tpl_series().unwrap(),
                "user {i}"
            );
            assert_eq!(
                pop.user(i).unwrap().budgets(),
                solo.budgets(),
                "user {i} trail"
            );
        }
    }

    #[test]
    fn personalized_observe_with_equal_budgets_is_the_uniform_path() {
        let advs = [strong_user(), weak_user(), strong_user()];
        let mut split_form = PopulationAccountant::new(&advs).unwrap();
        let mut uniform_form = PopulationAccountant::new(&advs).unwrap();
        for _ in 0..4 {
            split_form
                .observe_release_personalized(&[(0..1, 0.1), (1..3, 0.1)])
                .unwrap();
            uniform_form.observe_release(0.1).unwrap();
        }
        // Equal budgets across all ranges must not split anything.
        assert_eq!(split_form.num_groups(), uniform_form.num_groups());
        assert_eq!(split_form.num_timelines(), 1);
        assert_eq!(
            split_form.tpl_series().unwrap(),
            uniform_form.tpl_series().unwrap()
        );
    }

    #[test]
    fn personalized_observe_validates_coverage() {
        let mut pop = PopulationAccountant::new(&[strong_user(), weak_user()]).unwrap();
        let bad = |assignments: &[(std::ops::Range<usize>, f64)]| {
            matches!(
                pop.clone().observe_release_personalized(assignments),
                Err(TplError::BudgetAssignment(_))
            )
        };
        assert!(bad(&[(0..1, 0.1)]), "gap at the end");
        assert!(bad(&[(1..2, 0.1)]), "gap at the start");
        assert!(bad(&[(0..2, 0.1), (1..2, 0.2)]), "overlap");
        assert!(bad(&[(0..2, 0.1), (2..3, 0.2)]), "past the population");
        assert!(bad(&[(0..0, 0.1), (0..2, 0.2)]), "empty range");
        assert!(matches!(
            pop.observe_release_personalized(&[(0..2, -1.0)]),
            Err(TplError::InvalidEpsilon(_))
        ));
        // Nothing was observed by any failed attempt.
        assert!(pop.user(0).unwrap().is_empty());
        // A valid assignment in any order works.
        pop.observe_release_personalized(&[(1..2, 0.2), (0..1, 0.1)])
            .unwrap();
        assert_eq!(pop.user(0).unwrap().budgets(), vec![0.1]);
        assert_eq!(pop.user(1).unwrap().budgets(), vec![0.2]);
    }

    #[test]
    fn population_clone_preserves_timeline_sharing() {
        let mut pop =
            PopulationAccountant::new(&[strong_user(), weak_user(), strong_user()]).unwrap();
        pop.observe_release(0.1).unwrap();
        pop.observe_release_personalized(&[(0..1, 0.2), (1..3, 0.3)])
            .unwrap();
        let clone = pop.clone();
        assert_eq!(clone.num_groups(), pop.num_groups());
        assert_eq!(clone.num_timelines(), pop.num_timelines());
        // Advancing the clone must not advance the original.
        let mut clone = clone;
        clone.observe_release(0.1).unwrap();
        assert_eq!(pop.user(0).unwrap().len(), 2);
        assert_eq!(clone.user(0).unwrap().len(), 3);
    }

    /// Satellite check: [`personalized_plans`] output round-trips through
    /// the per-user observe API — each user is audited under her own plan
    /// budgets by the *same* population accountant, and the result is
    /// bit-identical to a standalone per-user audit while meeting each
    /// personal target.
    #[test]
    fn personalized_plans_round_trip_through_personalized_observe() {
        let targets = vec![
            UserTarget {
                adversary: strong_user(),
                alpha: 0.5,
            },
            UserTarget {
                adversary: weak_user(),
                alpha: 2.0,
            },
        ];
        let t_len = 10;
        let plans = personalized_plans(&targets, PlanKind::Quantified, t_len).unwrap();
        let adversaries: Vec<AdversaryT> = targets.iter().map(|u| u.adversary.clone()).collect();
        let mut pop = PopulationAccountant::new(&adversaries).unwrap();
        for t in 0..t_len {
            pop.observe_release_personalized(&[
                (0..1, plans[0].budget_at(t)),
                (1..2, plans[1].budget_at(t)),
            ])
            .unwrap();
        }
        assert_eq!(pop.num_timelines(), 2, "the plans differ per user");
        for (i, target) in targets.iter().enumerate() {
            let mut solo = TplAccountant::new(&target.adversary);
            for t in 0..t_len {
                solo.observe_release(plans[i].budget_at(t)).unwrap();
            }
            let pop_worst = pop.user(i).unwrap().max_tpl().unwrap();
            assert_eq!(
                pop_worst.to_bits(),
                solo.max_tpl().unwrap().to_bits(),
                "user {i}"
            );
            assert!(
                pop_worst <= target.alpha + 1e-7,
                "user {i}: {pop_worst} > {}",
                target.alpha
            );
        }
        // The population-level guarantee is the worst personal target's
        // audit, and the most exposed user is found across plans.
        let worst = pop.max_tpl().unwrap();
        assert!(worst <= 2.0 + 1e-7);
        // The shared single-mechanism plan keeps the uniform path flat.
        let shared = shared_plan_for_targets(&targets, PlanKind::Quantified, t_len).unwrap();
        let mut shared_pop = PopulationAccountant::new(&adversaries).unwrap();
        for t in 0..t_len {
            shared_pop.observe_release(shared.budget_at(t)).unwrap();
        }
        assert_eq!(shared_pop.num_timelines(), 1);
        for target in &targets {
            assert!(shared_pop.max_tpl().unwrap() <= target.alpha.max(0.5) + 1e-7);
        }
    }

    #[test]
    fn personalized_plans_respect_individual_targets() {
        let targets = vec![
            UserTarget {
                adversary: strong_user(),
                alpha: 0.5,
            },
            UserTarget {
                adversary: weak_user(),
                alpha: 2.0,
            },
        ];
        let plans = personalized_plans(&targets, PlanKind::Quantified, 10).unwrap();
        assert_eq!(plans.len(), 2);
        // Each plan meets its own user's target.
        for (target, plan) in targets.iter().zip(&plans) {
            let mut acc = TplAccountant::new(&target.adversary);
            for t in 0..10 {
                acc.observe_release(plan.budget_at(t)).unwrap();
            }
            assert!(acc.max_tpl().unwrap() <= target.alpha + 1e-7);
        }
        // The lenient user's plan spends more budget.
        assert!(plans[1].mean_budget(10) > plans[0].mean_budget(10));
    }

    #[test]
    fn shared_plan_meets_every_target() {
        let targets = vec![
            UserTarget {
                adversary: strong_user(),
                alpha: 0.5,
            },
            UserTarget {
                adversary: weak_user(),
                alpha: 2.0,
            },
        ];
        let shared = shared_plan_for_targets(&targets, PlanKind::Quantified, 10).unwrap();
        for target in &targets {
            let mut acc = TplAccountant::new(&target.adversary);
            for t in 0..10 {
                acc.observe_release(shared.budget_at(t)).unwrap();
            }
            let worst = acc.max_tpl().unwrap();
            assert!(
                worst <= target.alpha + 1e-7,
                "target {} exceeded: {worst}",
                target.alpha
            );
        }
    }

    /// Every observable population query, frozen as bit patterns.
    fn observables(pop: &PopulationAccountant) -> (Vec<u64>, u64, usize, u64) {
        (
            pop.tpl_series()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            pop.max_tpl().unwrap().to_bits(),
            pop.most_exposed_user().unwrap(),
            pop.user(0).unwrap().user_level().to_bits(),
        )
    }

    #[test]
    fn remerge_coalesces_refolded_permuted_shards() {
        // Forward-only adversary: BPL_t = ε_t, so shards diverged by a
        // *permuted* budget assignment re-converge bitwise once the
        // diverging entries fold away (float addition is commutative, so
        // the folded running sums agree bit for bit).
        let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
        let fwd = AdversaryT::with_forward(p);
        let mut pop = PopulationAccountant::new(&vec![fwd; 4]).unwrap();
        pop.observe_release_personalized(&[(0..2, 0.1), (2..4, 0.2)])
            .unwrap();
        pop.observe_release_personalized(&[(0..2, 0.2), (2..4, 0.1)])
            .unwrap();
        pop.observe_release(0.05).unwrap();
        assert_eq!(pop.num_groups(), 2);

        // Still diverged while the permuted entries are live.
        assert_eq!(pop.remerge_converged(), 0);
        assert_eq!(pop.num_groups(), 2);

        pop.set_horizon(Some(1)).unwrap();
        let before = observables(&pop);
        assert_eq!(pop.remerge_converged(), 1);
        assert_eq!(pop.num_groups(), 1);
        assert_eq!(pop.num_timelines(), 1);
        // A merge changes no observable answer.
        assert_eq!(observables(&pop), before);
        // The merged shard keeps receiving shared releases exactly once.
        pop.observe_release(0.07).unwrap();
        assert_eq!(pop.user(0).unwrap().timeline().len(), 4);
    }

    #[test]
    fn remerge_refuses_unequal_state() {
        // Backward correlation makes the live BPL value depend on the
        // *order* of the folded prefix, so the permuted shards are not
        // observationally identical and must not merge — even though
        // their folded timelines re-agree bitwise (pass 1 may re-share
        // the timeline object; the shards stay distinct).
        let mut pop = PopulationAccountant::new(&vec![strong_user(); 4]).unwrap();
        pop.observe_release_personalized(&[(0..2, 0.1), (2..4, 0.2)])
            .unwrap();
        pop.observe_release_personalized(&[(0..2, 0.2), (2..4, 0.1)])
            .unwrap();
        pop.observe_release(0.05).unwrap();
        pop.set_horizon(Some(1)).unwrap();
        let before = observables(&pop);
        assert_eq!(pop.remerge_converged(), 0);
        assert_eq!(pop.num_groups(), 2);
        assert_eq!(observables(&pop), before);

        // Asymmetric sums: not even the timelines re-agree.
        let p = TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).unwrap();
        let mut pop = PopulationAccountant::new(&vec![AdversaryT::with_forward(p); 4]).unwrap();
        pop.observe_release_personalized(&[(0..2, 0.1), (2..4, 0.3)])
            .unwrap();
        pop.observe_release(0.05).unwrap();
        pop.set_horizon(Some(1)).unwrap();
        assert_eq!(pop.remerge_converged(), 0);
        assert_eq!(pop.num_timelines(), 2);
    }

    #[test]
    fn most_exposed_early_out_matches_full_scan() {
        // Distinct adversaries → singleton shards; caches are stale at
        // query time, so every shard after the first incumbent goes
        // through the hint-bound path. The early-out answer must equal
        // the exhaustive per-user argmax bit for bit.
        let adversaries = adversary_ladder();
        let mut pop = PopulationAccountant::new(&adversaries).unwrap();
        for t in 0..40 {
            pop.observe_release(0.05 + 0.01 * (t % 3) as f64).unwrap();
        }
        let fast = pop.most_exposed_user().unwrap();
        let mut widx = 0;
        let mut wval = f64::NEG_INFINITY;
        for i in 0..pop.num_users() {
            let v = pop.user(i).unwrap().max_tpl().unwrap();
            if v > wval {
                (widx, wval) = (i, v);
            }
        }
        assert_eq!(fast, widx);
        assert_eq!(
            pop.user(fast).unwrap().max_tpl().unwrap().to_bits(),
            wval.to_bits()
        );
    }

    #[test]
    fn most_exposed_early_out_skips_series_rebuilds() {
        // The point of the hint bound: dominated shards must not pay
        // their O(T) series rebuild. Comparative assertion (loss-eval
        // deltas, not absolute counts): the pruned scan on one fresh
        // population costs strictly fewer evaluations than the
        // exhaustive scan on an identical fresh population.
        let t_len = 500;
        let mut pruned = PopulationAccountant::new(&adversary_ladder()).unwrap();
        let mut full = PopulationAccountant::new(&adversary_ladder()).unwrap();
        for _ in 0..t_len {
            pruned.observe_release(0.1).unwrap();
            full.observe_release(0.1).unwrap();
        }
        let evals = |pop: &PopulationAccountant| -> u64 {
            (0..pop.num_users())
                .map(|i| pop.user(i).unwrap().loss_eval_count())
                .sum()
        };
        let pruned_before = evals(&pruned);
        let fast = pruned.most_exposed_user().unwrap();
        let pruned_delta = evals(&pruned) - pruned_before;

        let full_before = evals(&full);
        let mut widx = 0;
        let mut wval = f64::NEG_INFINITY;
        for i in 0..full.num_users() {
            let v = full.user(i).unwrap().max_tpl().unwrap();
            if v > wval {
                (widx, wval) = (i, v);
            }
        }
        let full_delta = evals(&full) - full_before;
        assert_eq!(fast, widx);
        assert!(
            pruned_delta < full_delta,
            "early-out paid {pruned_delta} evals, full scan {full_delta}"
        );
    }

    /// One dominant user followed by a ladder of clearly weaker distinct
    /// adversaries — every user its own shard, group order = user order.
    fn adversary_ladder() -> Vec<AdversaryT> {
        let mut out = vec![strong_user()];
        for i in 0..7 {
            let d = 0.50 + 0.01 * i as f64;
            let p = TransitionMatrix::from_rows(vec![vec![d, 1.0 - d], vec![1.0 - d, d]]).unwrap();
            out.push(AdversaryT::with_both(p.clone(), p).unwrap());
        }
        out
    }

    #[test]
    fn population_w_event_joins_per_user_guarantees() {
        let mut pop = PopulationAccountant::new(&[strong_user(), weak_user()]).unwrap();
        pop.track_w_event(3).unwrap();
        for t in 0..6 {
            pop.observe_release(0.1 + 0.05 * (t % 2) as f64).unwrap();
        }
        let expect = (0..pop.num_users())
            .map(|i| crate::composition::w_event_guarantee(pop.user(i).unwrap(), 3).unwrap())
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(
            pop.w_event_guarantee(3).unwrap().to_bits(),
            expect.to_bits()
        );

        // Tracked windows survive a fold (armed before set_horizon).
        pop.set_horizon(Some(2)).unwrap();
        let folded = pop.w_event_guarantee(3).unwrap();
        assert!(folded.is_finite());
    }
}
