//! Elastic staging membership.
//!
//! The paper's two-level load balancing assumes a fixed staging-rank
//! set; its streaming successors size in-transit resources to bursty
//! analysis demand, which means staging ranks must be able to **join
//! and leave mid-run**. This module is the versioned membership table
//! behind that: a [`MembershipPlan`] declares join/leave/evict events
//! at step boundaries, [`Membership`] folds them into a sorted list of
//! **epochs** (step-keyed active sets), and [`EpochRouter`] makes any
//! placement epoch-aware — chunk routing for step `s` is a pure
//! function of the epoch live *at* `s`, so in-flight pulls of an old
//! step complete against the old owner while new writes route to the
//! new owner. No handshake, no re-routing protocol: both sides derive
//! the same owner from `(step, epoch table)`. The router *is* the
//! schedule: the staging runtime asks its router for the table
//! ([`Router::membership`]), so the epochs it opens are those the
//! chunks are routed by.
//!
//! The staging *world* keeps its full size across every epoch
//! ([`Membership::world_size`]): a rank outside the active set still
//! participates in the staging collectives (aggregation, shuffle) but
//! serves no compute ranks — it gathers an empty request set and
//! drains. That is what keeps operator output **byte-identical** under
//! churn: the shuffle's tag partition depends only on the communicator
//! size, never on which rank pulled a chunk (the placement-equivalence
//! property the chaos test pins down).
//!
//! Leave vs. evict: a **leave** is graceful — the departing rank's
//! committed DataSpaces shards are handed off and republished under
//! the next epoch before it drains (`dataspaces::export_shards` /
//! `import_shards`). An **evict** is forced — no handoff; whatever the
//! rank held is gone and downstream consumers see holes, exactly like
//! a crash.
//!
//! # The schedule grammar
//!
//! An application builds its [`EpochRouter`] from a [`Membership`], and
//! that from events it states in code or from a comma-separated spec
//! ([`MembershipPlan::parse`]):
//!
//! * empty / `0` / `off` / `false` — static membership (no plan).
//! * `base=N` — ranks `0..N` are active from step 0 (required).
//! * `join=R@S` / `leave=R@S` / `evict=R@S` — rank `R` joins / leaves /
//!   is evicted at the start of step `S`. Repeatable; events at the
//!   same step fold into one epoch.
//!
//! Example: `base=2,leave=1@2,join=2@2` runs steps 0–1 on ranks `{0,1}` and
//! steps 2+ on `{0,2}` — the world stays 3 ranks wide throughout.

use obs::spec::Spec;

use crate::router::Router;

/// One membership change event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// Rank becomes active (starts serving compute ranks).
    Join(usize),
    /// Rank leaves gracefully: shards are handed off first.
    Leave(usize),
    /// Rank is forcibly removed: no handoff.
    Evict(usize),
}

/// A declared schedule of membership changes: the base active set plus
/// step-keyed events. See the [module docs](self) for the spec
/// grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipPlan {
    /// Ranks `0..base` are active from step 0.
    pub base: usize,
    /// `(step, event)` pairs, in spec order.
    pub events: Vec<(u64, MembershipEvent)>,
}

impl MembershipPlan {
    /// Parse a membership spec. `Ok(None)` means static
    /// membership; `Err` describes a malformed field.
    pub fn parse(spec: &str) -> Result<Option<MembershipPlan>, String> {
        let fields = match obs::spec::parse("membership", spec)? {
            Spec::Unset | Spec::Off => return Ok(None),
            Spec::On => return Err(obs::spec::no_defaults("membership")),
            Spec::Fields(fields) => fields,
        };
        let mut base: Option<usize> = None;
        let mut events = Vec::new();
        for f in &fields {
            let event = match f.key {
                "base" => {
                    base = Some(f.num()?);
                    continue;
                }
                "join" => MembershipEvent::Join,
                "leave" => MembershipEvent::Leave,
                "evict" => MembershipEvent::Evict,
                _ => return Err(f.unknown()),
            };
            let (r, s) = f.value.split_once('@').ok_or_else(|| f.err("wants R@S"))?;
            events.push((f.num_of(s)?, event(f.num_of(r)?)));
        }
        let base = base.ok_or("membership spec needs base=N")?;
        if base == 0 {
            return Err("membership base must be >= 1".into());
        }
        Ok(Some(MembershipPlan { base, events }))
    }
}

/// One membership epoch: the active set live from `from_step` until the
/// next epoch's `from_step`, plus the events that opened it (consumed
/// by the handoff orchestration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Epoch {
    /// Monotonic epoch version (0 = the base epoch).
    pub version: u64,
    /// First step this epoch is live for.
    pub from_step: u64,
    /// Active staging ranks, ascending.
    pub active: Vec<usize>,
    /// Ranks that joined at this epoch's boundary.
    pub joined: Vec<usize>,
    /// Ranks that left gracefully (handoff required before drain).
    pub left: Vec<usize>,
    /// Ranks evicted forcibly (no handoff).
    pub evicted: Vec<usize>,
}

/// The folded epoch table: every step maps to exactly one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    epochs: Vec<Epoch>,
    world_size: usize,
}

impl Membership {
    /// Static membership: one epoch, ranks `0..n` active forever.
    pub fn static_of(n: usize) -> Membership {
        assert!(n > 0, "membership needs at least one rank");
        let plan = MembershipPlan {
            base: n,
            events: Vec::new(),
        };
        Membership::from_plan(&plan).expect("a plan without events is consistent")
    }

    /// Fold a plan's events into the epoch table. Events at the same
    /// step form one epoch; joins apply before removals so a same-step
    /// swap never empties the set transiently. Errors on inconsistent
    /// events (joining an active rank, removing an inactive one, an
    /// epoch with no active ranks).
    pub fn from_plan(plan: &MembershipPlan) -> Result<Membership, String> {
        let mut events = plan.events.clone();
        events.sort_by_key(|&(step, _)| step);
        let mut epochs = vec![Epoch {
            version: 0,
            from_step: 0,
            active: (0..plan.base).collect(),
            joined: Vec::new(),
            left: Vec::new(),
            evicted: Vec::new(),
        }];
        let mut i = 0;
        while i < events.len() {
            let step = events[i].0;
            if step == 0 {
                return Err("membership events at step 0 belong in base=".into());
            }
            let prev = epochs.last().expect("base epoch exists");
            let mut epoch = Epoch {
                version: prev.version + 1,
                from_step: step,
                active: prev.active.clone(),
                joined: Vec::new(),
                left: Vec::new(),
                evicted: Vec::new(),
            };
            // Joins first: a same-step leave+join swap keeps the set
            // non-empty throughout.
            let same_step = &events[i..events
                .iter()
                .position(|&(s, _)| s > step)
                .unwrap_or(events.len())];
            for &(_, ev) in same_step {
                if let MembershipEvent::Join(r) = ev {
                    if epoch.active.contains(&r) {
                        return Err(format!(
                            "rank {r} joins at step {step} but is already active"
                        ));
                    }
                    epoch.active.push(r);
                    epoch.joined.push(r);
                }
            }
            for &(_, ev) in same_step {
                let (r, evicted) = match ev {
                    MembershipEvent::Join(_) => continue,
                    MembershipEvent::Leave(r) => (r, false),
                    MembershipEvent::Evict(r) => (r, true),
                };
                let Some(pos) = epoch.active.iter().position(|&a| a == r) else {
                    return Err(format!("rank {r} removed at step {step} but is not active"));
                };
                epoch.active.remove(pos);
                if evicted {
                    epoch.evicted.push(r);
                } else {
                    epoch.left.push(r);
                }
            }
            if epoch.active.is_empty() {
                return Err(format!("epoch at step {step} has no active ranks"));
            }
            epoch.active.sort_unstable();
            i += same_step.len();
            epochs.push(epoch);
        }
        let world_size = epochs
            .iter()
            .flat_map(|e| e.active.iter().copied())
            .max()
            .expect("at least the base epoch is non-empty")
            + 1;
        Ok(Membership { epochs, world_size })
    }

    /// The epoch live at `step`.
    pub fn epoch_at(&self, step: u64) -> &Epoch {
        let idx = self
            .epochs
            .partition_point(|e| e.from_step <= step)
            .saturating_sub(1);
        &self.epochs[idx]
    }

    /// Total staging world size: every rank active in *any* epoch must
    /// exist (and participate in collectives) for the whole run.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Whether `rank` is active at `step`.
    pub fn is_active(&self, rank: usize, step: u64) -> bool {
        self.epoch_at(step).active.contains(&rank)
    }

    /// The epoch (if any) that *opens* at exactly `step` — the boundary
    /// where handoff and re-route bookkeeping happen.
    pub fn epoch_opening_at(&self, step: u64) -> Option<&Epoch> {
        self.epochs
            .iter()
            .find(|e| e.from_step == step && e.version > 0)
    }
}

/// An epoch-aware placement: block-partitions the compute ranks over
/// the active set of the epoch live at each step. Because routing is a
/// pure function of `(compute_rank, step)`, requests issued for step
/// `s` before a membership change and pulls completing after it agree
/// on the owner — there is no window where a chunk is routed to a rank
/// that will not serve its step.
#[derive(Debug, Clone)]
pub struct EpochRouter {
    n_compute: usize,
    membership: Membership,
}

impl EpochRouter {
    pub fn new(n_compute: usize, membership: Membership) -> Self {
        assert!(n_compute >= membership.world_size());
        EpochRouter {
            n_compute,
            membership,
        }
    }
}

impl Router for EpochRouter {
    fn route(&self, compute_rank: usize, io_step: u64) -> usize {
        let active = &self.membership.epoch_at(io_step).active;
        let block = self.n_compute.div_ceil(active.len());
        active[(compute_rank / block).min(active.len() - 1)]
    }

    fn n_staging(&self) -> usize {
        self.membership.world_size()
    }

    fn membership(&self) -> Option<&Membership> {
        Some(&self.membership)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let plan = MembershipPlan::parse("base=2, leave=1@2, join=2@2, evict=0@5")
            .unwrap()
            .unwrap();
        assert_eq!(plan.base, 2);
        assert_eq!(
            plan.events,
            vec![
                (2, MembershipEvent::Leave(1)),
                (2, MembershipEvent::Join(2)),
                (5, MembershipEvent::Evict(0)),
            ]
        );
    }

    #[test]
    fn parse_off_and_errors() {
        assert!(MembershipPlan::parse("").unwrap().is_none());
        assert!(MembershipPlan::parse("off").unwrap().is_none());
        assert!(MembershipPlan::parse("join=1@2").is_err(), "base required");
        assert!(MembershipPlan::parse("base=0").is_err());
        assert!(MembershipPlan::parse("base=2,join=3").is_err(), "wants R@S");
        assert!(MembershipPlan::parse("base=2,frob=1").is_err());
    }

    #[test]
    fn epochs_fold_and_stay_step_keyed() {
        let plan = MembershipPlan::parse("base=2,leave=1@2,join=2@2,join=3@4")
            .unwrap()
            .unwrap();
        let m = Membership::from_plan(&plan).unwrap();
        assert_eq!(m.world_size(), 4);
        assert_eq!(m.epoch_at(0).active, vec![0, 1]);
        assert_eq!(m.epoch_at(1).active, vec![0, 1]);
        assert_eq!(m.epoch_at(2).active, vec![0, 2]);
        assert_eq!(m.epoch_at(3).active, vec![0, 2]);
        assert_eq!(m.epoch_at(4).active, vec![0, 2, 3]);
        assert_eq!(m.epoch_at(999).active, vec![0, 2, 3]);
        assert_eq!(m.epoch_at(2).version, 1);
        assert_eq!(m.epoch_at(4).version, 2);
        let boundary = m.epoch_opening_at(2).unwrap();
        assert_eq!(boundary.left, vec![1]);
        assert_eq!(boundary.joined, vec![2]);
        assert!(m.epoch_opening_at(3).is_none());
        assert!(m.is_active(1, 1) && !m.is_active(1, 2));
    }

    #[test]
    fn inconsistent_plans_rejected() {
        let must_fail = |spec: &str| {
            let plan = MembershipPlan::parse(spec).unwrap().unwrap();
            assert!(Membership::from_plan(&plan).is_err(), "{spec}");
        };
        must_fail("base=2,join=1@3"); // already active
        must_fail("base=2,leave=5@3"); // not active
        must_fail("base=1,leave=0@2"); // empties the set
        must_fail("base=2,leave=1@0"); // step-0 event
    }

    #[test]
    fn same_step_swap_never_empties_the_set() {
        let plan = MembershipPlan::parse("base=1,leave=0@1,join=1@1")
            .unwrap()
            .unwrap();
        let m = Membership::from_plan(&plan).unwrap();
        assert_eq!(m.epoch_at(1).active, vec![1]);
    }

    #[test]
    fn epoch_router_is_step_keyed_and_full_width() {
        let plan = MembershipPlan::parse("base=2,leave=1@1,join=2@1")
            .unwrap()
            .unwrap();
        let r = EpochRouter::new(8, Membership::from_plan(&plan).unwrap());
        assert_eq!(r.n_staging(), 3, "world keeps every rank that ever serves");
        // Step 0 routes over {0, 1}; step 1 over {0, 2}.
        for c in 0..8 {
            assert!([0, 1].contains(&r.route(c, 0)));
            assert!([0, 2].contains(&r.route(c, 1)));
        }
        // Inactive ranks serve nobody at their inactive steps.
        assert!(r.served_by(2, 8, 0).is_empty());
        assert!(r.served_by(1, 8, 1).is_empty());
        // Coverage: every compute rank is served exactly once per step.
        for step in 0..2 {
            let total: usize = (0..3).map(|s| r.served_by(s, 8, step).len()).sum();
            assert_eq!(total, 8);
        }
    }

    #[test]
    fn static_membership_matches_block_router_shape() {
        let r = EpochRouter::new(8, Membership::static_of(2));
        let block = crate::BlockRouter::new(8, 2);
        for c in 0..8 {
            assert_eq!(r.route(c, 0), block.route(c, 0));
        }
    }
}
