//! Fluid (rate-based) network model with max-min fair sharing.
//!
//! Peta-scale staging traffic is shaped by NIC capacities, not switch
//! fabric: thousands of compute-node NICs funnel into tens of staging-node
//! NICs, and the application's own collectives compete for the same
//! compute NICs. We model the network as *node classes* (sets of identical
//! nodes) and *flows* (sets of identical parallel transfers between two
//! classes). Every flow's rate is the max-min fair allocation subject to:
//!
//! * per-class aggregate egress/ingress capacity
//!   (`count × nic × (1 − background_utilization)`),
//! * an optional per-member rate cap (single-NIC limits, scheduler
//!   throttles).
//!
//! Flows can be **paused** (phase-aware pull scheduling) and resumed;
//! rates are recomputed on every membership change. Time only advances
//! through [`NetModel::advance`], so callers interleave the network with
//! their own event queues.

use std::collections::BTreeMap;

/// Index of a node class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ClassId(pub(crate) usize);

/// Identifier of an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct FlowId(pub(crate) u64);

/// A set of `count` identical nodes with symmetric NICs.
#[derive(Debug, Clone)]
pub(crate) struct NodeClass {
    pub(crate) count: usize,
    /// Per-node egress bandwidth, bytes/second.
    pub(crate) nic_out: f64,
    /// Per-node ingress bandwidth, bytes/second.
    pub(crate) nic_in: f64,
}

impl NodeClass {
    pub(crate) fn new(count: usize, nic_out: f64, nic_in: f64) -> Self {
        assert!(count > 0 && nic_out > 0.0 && nic_in > 0.0);
        NodeClass {
            count,
            nic_out,
            nic_in,
        }
    }

    fn cap_out(&self) -> f64 {
        self.count as f64 * self.nic_out
    }

    fn cap_in(&self) -> f64 {
        self.count as f64 * self.nic_in
    }
}

/// Specification of a new flow.
#[derive(Debug, Clone)]
pub(crate) struct FlowSpec {
    pub(crate) src: ClassId,
    pub(crate) dst: ClassId,
    /// Number of identical parallel member transfers.
    pub(crate) members: usize,
    /// Bytes each member must move.
    pub(crate) bytes_per_member: f64,
    /// Per-member rate cap (single-NIC limit, throttle); `f64::INFINITY`
    /// for none.
    pub(crate) cap_per_member: f64,
}

#[derive(Debug)]
struct FlowState {
    spec: FlowSpec,
    remaining: f64, // per member
    rate: f64,      // per member
    paused: bool,
}

/// The fluid network.
#[derive(Debug, Default)]
pub(crate) struct NetModel {
    classes: Vec<NodeClass>,
    flows: BTreeMap<u64, FlowState>,
    next_id: u64,
    /// Total bytes delivered since construction (all flows).
    delivered: f64,
}

const EPS: f64 = 1e-9;

impl NetModel {
    pub(crate) fn new() -> Self {
        NetModel::default()
    }

    pub(crate) fn add_class(&mut self, class: NodeClass) -> ClassId {
        self.classes.push(class);
        ClassId(self.classes.len() - 1)
    }

    /// Start a flow; returns its id. Zero-byte flows complete immediately
    /// and are not registered.
    pub(crate) fn add_flow(&mut self, spec: FlowSpec) -> Option<FlowId> {
        assert!(spec.members > 0, "flow must have members");
        assert!(spec.src.0 < self.classes.len() && spec.dst.0 < self.classes.len());
        if spec.bytes_per_member <= 0.0 {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let remaining = spec.bytes_per_member;
        self.flows.insert(
            id,
            FlowState {
                spec,
                remaining,
                rate: 0.0,
                paused: false,
            },
        );
        self.recompute();
        Some(FlowId(id))
    }

    pub(crate) fn pause(&mut self, id: FlowId) {
        if let Some(f) = self.flows.get_mut(&id.0) {
            f.paused = true;
            self.recompute();
        }
    }

    pub(crate) fn resume(&mut self, id: FlowId) {
        if let Some(f) = self.flows.get_mut(&id.0) {
            f.paused = false;
            self.recompute();
        }
    }

    /// Current per-member rate (0 while paused or finished). This and
    /// the two below are the tests' probes of the model.
    #[cfg(test)]
    pub(crate) fn rate_of(&self, id: FlowId) -> f64 {
        self.flows.get(&id.0).map_or(0.0, |f| f.rate)
    }

    pub(crate) fn is_active(&self, id: FlowId) -> bool {
        self.flows.contains_key(&id.0)
    }

    #[cfg(test)]
    pub(crate) fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes delivered across all flows so far.
    #[cfg(test)]
    pub(crate) fn delivered_bytes(&self) -> f64 {
        self.delivered
    }

    /// Seconds until the earliest unpaused flow completes at current
    /// rates, with its id. `None` if nothing is moving.
    pub(crate) fn next_completion(&self) -> Option<(f64, FlowId)> {
        self.flows
            .iter()
            .filter(|(_, f)| !f.paused && f.rate > EPS)
            .map(|(&id, f)| (f.remaining / f.rate, FlowId(id)))
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
    }

    /// Advance time by `dt` seconds: all unpaused flows progress at their
    /// current rates. Flows that finish within `dt` are removed and
    /// returned (the caller is responsible for choosing `dt` no larger
    /// than [`NetModel::next_completion`] when exact completion times
    /// matter; larger `dt` clamps at completion, it never over-delivers).
    pub(crate) fn advance(&mut self, dt: f64) -> Vec<FlowId> {
        assert!(dt >= 0.0 && dt.is_finite());
        let mut done = Vec::new();
        for (&id, f) in self.flows.iter_mut() {
            if f.paused || f.rate <= EPS {
                continue;
            }
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            self.delivered += moved * f.spec.members as f64;
            if f.remaining <= EPS {
                done.push(FlowId(id));
            }
        }
        if !done.is_empty() {
            for d in &done {
                self.flows.remove(&d.0);
            }
            self.recompute();
        }
        done
    }

    /// Max-min fair rate allocation (progressive filling / water-filling).
    fn recompute(&mut self) {
        // Links: (class, direction). 0 = out, 1 = in.
        let n_links = self.classes.len() * 2;
        let mut residual: Vec<f64> = (0..n_links)
            .map(|l| {
                let c = &self.classes[l / 2];
                if l % 2 == 0 {
                    c.cap_out()
                } else {
                    c.cap_in()
                }
            })
            .collect();

        let ids: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| !f.paused)
            .map(|(&id, _)| id)
            .collect();
        // Paused flows contribute no load.
        for f in self.flows.values_mut() {
            f.rate = 0.0;
        }

        let link_out = |f: &FlowState| f.spec.src.0 * 2;
        let link_in = |f: &FlowState| f.spec.dst.0 * 2 + 1;

        let mut unfrozen: Vec<u64> = ids;
        let mut rates: BTreeMap<u64, f64> = BTreeMap::new();
        while !unfrozen.is_empty() {
            // Members traversing each link among unfrozen flows.
            let mut members = vec![0.0f64; n_links];
            for id in &unfrozen {
                let f = &self.flows[id];
                members[link_out(f)] += f.spec.members as f64;
                members[link_in(f)] += f.spec.members as f64;
            }
            // Candidate fair increment: tightest link share, or the
            // smallest per-flow cap if that binds first. Shares are
            // snapshotted before any freezing so one pass is consistent.
            let share: Vec<f64> = (0..n_links)
                .map(|l| {
                    if members[l] > 0.0 {
                        residual[l].max(0.0) / members[l]
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            let alpha = share.iter().copied().fold(f64::INFINITY, f64::min);
            let min_cap = unfrozen
                .iter()
                .map(|id| self.flows[id].spec.cap_per_member)
                .fold(f64::INFINITY, f64::min);
            let cap_binds = min_cap < alpha - EPS;
            let level = alpha.min(min_cap);

            // Freeze: cap-bound flows at their cap, otherwise flows on a
            // bottleneck link at the link share.
            let mut next_unfrozen = Vec::with_capacity(unfrozen.len());
            let mut frozen_now: Vec<(u64, f64)> = Vec::new();
            for id in unfrozen {
                let f = &self.flows[&id];
                let on_bottleneck =
                    share[link_out(f)] <= level + EPS || share[link_in(f)] <= level + EPS;
                let capped = cap_binds && f.spec.cap_per_member <= level + EPS;
                if capped || (!cap_binds && on_bottleneck) {
                    frozen_now.push((id, if capped { f.spec.cap_per_member } else { level }));
                } else {
                    next_unfrozen.push(id);
                }
            }
            for (id, r) in frozen_now {
                let f = &self.flows[&id];
                residual[link_out(f)] -= r * f.spec.members as f64;
                residual[link_in(f)] -= r * f.spec.members as f64;
                rates.insert(id, r);
            }
            unfrozen = next_unfrozen;
            if level <= EPS {
                // No capacity left; freeze everything at zero.
                for id in unfrozen.drain(..) {
                    rates.insert(id, 0.0);
                }
            }
        }
        for (id, r) in rates {
            self.flows.get_mut(&id).unwrap().rate = r;
        }
    }

    /// Run the network until flow `id` completes (ignoring other
    /// completions along the way); returns elapsed seconds. Panics if the
    /// flow cannot finish (rate permanently zero).
    pub(crate) fn run_until_complete(&mut self, id: FlowId) -> f64 {
        let mut elapsed = 0.0;
        let mut guard = 0;
        while self.is_active(id) {
            let (dt, _) = self
                .next_completion()
                .expect("flow must be able to progress to completion");
            self.advance(dt);
            elapsed += dt;
            guard += 1;
            assert!(guard < 1_000_000, "run_until_complete did not converge");
        }
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9;

    fn two_classes(n_src: usize, n_dst: usize) -> (NetModel, ClassId, ClassId) {
        let mut net = NetModel::new();
        let a = net.add_class(NodeClass::new(n_src, 2.0 * GB, 2.0 * GB));
        let b = net.add_class(NodeClass::new(n_dst, 2.0 * GB, 2.0 * GB));
        (net, a, b)
    }

    fn flow(src: ClassId, dst: ClassId, members: usize, bytes: f64, cap: f64) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            members,
            bytes_per_member: bytes,
            cap_per_member: cap,
        }
    }

    #[test]
    fn single_flow_runs_at_cap() {
        let (mut net, a, b) = two_classes(4, 4);
        let f = net.add_flow(flow(a, b, 1, 2.0 * GB, 1.0 * GB)).unwrap();
        assert!((net.rate_of(f) - 1.0 * GB).abs() < 1.0);
        let t = net.run_until_complete(f);
        assert!((t - 2.0).abs() < 1e-6, "2 GB at 1 GB/s = 2 s, got {t}");
    }

    #[test]
    fn ingress_bottleneck_funnels() {
        // 64 compute nodes → 1 staging node: staging ingress (2 GB/s)
        // is the bottleneck; 64 members share it.
        let (mut net, a, b) = two_classes(64, 1);
        let f = net
            .add_flow(flow(a, b, 64, 1.0 * GB, f64::INFINITY))
            .unwrap();
        let per_member = net.rate_of(f);
        assert!((per_member - 2.0 * GB / 64.0).abs() / per_member < 1e-6);
        let t = net.run_until_complete(f);
        assert!(
            (t - 32.0).abs() < 1e-6,
            "64 GB through 2 GB/s = 32 s, got {t}"
        );
    }

    #[test]
    fn fair_share_between_two_flows() {
        let (mut net, a, b) = two_classes(1, 1);
        let f1 = net
            .add_flow(flow(a, b, 1, 10.0 * GB, f64::INFINITY))
            .unwrap();
        let r_solo = net.rate_of(f1);
        assert!((r_solo - 2.0 * GB).abs() < 1.0);
        let f2 = net
            .add_flow(flow(a, b, 1, 10.0 * GB, f64::INFINITY))
            .unwrap();
        // Both share the single NIC pair equally.
        assert!((net.rate_of(f1) - 1.0 * GB).abs() < 1.0);
        assert!((net.rate_of(f2) - 1.0 * GB).abs() < 1.0);
    }

    #[test]
    fn capped_flow_leaves_headroom_for_others() {
        let (mut net, a, b) = two_classes(1, 1);
        let f1 = net.add_flow(flow(a, b, 1, 10.0 * GB, 0.5 * GB)).unwrap();
        let f2 = net
            .add_flow(flow(a, b, 1, 10.0 * GB, f64::INFINITY))
            .unwrap();
        // f1 pinned at 0.5; f2 takes the remaining 1.5.
        assert!((net.rate_of(f1) - 0.5 * GB).abs() < 1.0);
        assert!((net.rate_of(f2) - 1.5 * GB).abs() < 1e3);
    }

    #[test]
    fn pause_resume_redistributes() {
        let (mut net, a, b) = two_classes(1, 1);
        let f1 = net
            .add_flow(flow(a, b, 1, 10.0 * GB, f64::INFINITY))
            .unwrap();
        let f2 = net
            .add_flow(flow(a, b, 1, 10.0 * GB, f64::INFINITY))
            .unwrap();
        net.pause(f1);
        assert_eq!(net.rate_of(f1), 0.0);
        assert!((net.rate_of(f2) - 2.0 * GB).abs() < 1.0);
        net.resume(f1);
        assert!((net.rate_of(f1) - 1.0 * GB).abs() < 1.0);
        // Paused flows make no progress.
        net.pause(f1);
        let before = net.flows[&f1.0].remaining;
        net.advance(1.0);
        assert_eq!(net.flows[&f1.0].remaining, before);
    }

    #[test]
    fn interference_slows_collective_and_pull_mutually() {
        // Collective among compute nodes + staging pull from compute:
        // both compete for compute egress.
        let mut net = NetModel::new();
        let comp = net.add_class(NodeClass::new(32, 2.0 * GB, 2.0 * GB));
        let stag = net.add_class(NodeClass::new(1, 2.0 * GB, 2.0 * GB));
        // Collective: every compute node exchanges 1 GB (self-loop class).
        let coll = net
            .add_flow(flow(comp, comp, 32, 1.0 * GB, f64::INFINITY))
            .unwrap();
        let ideal_rate = net.rate_of(coll);
        let pull = net
            .add_flow(flow(comp, stag, 1, 8.0 * GB, f64::INFINITY))
            .unwrap();
        let with_pull = net.rate_of(coll);
        assert!(with_pull <= ideal_rate + 1.0);
        assert!(net.rate_of(pull) > 0.0);
        // Pausing the pull restores the collective's full rate.
        net.pause(pull);
        assert!((net.rate_of(coll) - ideal_rate).abs() < 1.0);
    }

    #[test]
    fn advance_clamps_and_reports_completions() {
        let (mut net, a, b) = two_classes(1, 1);
        let f = net.add_flow(flow(a, b, 1, 2.0 * GB, 1.0 * GB)).unwrap();
        let done = net.advance(100.0); // way past completion
        assert_eq!(done, vec![f]);
        assert!(!net.is_active(f));
        // Delivered exactly the flow's bytes, not rate × dt.
        assert!((net.delivered_bytes() - 2.0 * GB).abs() < 1.0);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, a, b) = two_classes(1, 1);
        assert!(net.add_flow(flow(a, b, 1, 0.0, f64::INFINITY)).is_none());
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn many_flow_recompute_is_stable() {
        let (mut net, a, b) = two_classes(256, 8);
        let mut ids = Vec::new();
        for i in 0..64 {
            ids.push(
                net.add_flow(flow(a, b, 4, (i + 1) as f64 * 1e8, f64::INFINITY))
                    .unwrap(),
            );
        }
        // Total ingress capacity 16 GB/s across 256 members.
        let total_rate: f64 = ids.iter().map(|&f| net.rate_of(f) * 4.0).sum();
        assert!((total_rate - 16.0 * GB).abs() / total_rate < 1e-6);
        // Everything drains eventually.
        let mut guard = 0;
        while net.active_flows() > 0 {
            let (dt, _) = net.next_completion().unwrap();
            net.advance(dt);
            guard += 1;
            assert!(guard < 10_000);
        }
    }
}
