//! Property tests for the fluid network: max-min fairness invariants
//! hold for arbitrary topologies and flow sets.

use proptest::prelude::*;

use crate::net::{FlowId, FlowSpec, NetModel, NodeClass};

#[derive(Debug, Clone)]
struct Topo {
    classes: Vec<(usize, f64, f64)>,             // (count, out, in)
    flows: Vec<(usize, usize, usize, f64, f64)>, // (src, dst, members, bytes, cap)
}

fn arb_topo() -> impl Strategy<Value = Topo> {
    let classes = prop::collection::vec((1usize..64, 1e8f64..4e9, 1e8f64..4e9), 1..4);
    classes.prop_flat_map(|cs| {
        let n = cs.len();
        let flows = prop::collection::vec(
            (
                0..n,
                0..n,
                1usize..32,
                1e6f64..1e10,
                prop_oneof![Just(f64::INFINITY), 1e7f64..2e9],
            ),
            1..10,
        );
        flows.prop_map(move |fs| Topo {
            classes: cs.clone(),
            flows: fs,
        })
    })
}

fn build(t: &Topo) -> (NetModel, Vec<FlowId>) {
    let mut net = NetModel::new();
    let ids: Vec<_> = t
        .classes
        .iter()
        .map(|&(count, out, inn)| net.add_class(NodeClass::new(count, out, inn)))
        .collect();
    let flows = t
        .flows
        .iter()
        .filter_map(|&(s, d, members, bytes, cap)| {
            net.add_flow(FlowSpec {
                src: ids[s],
                dst: ids[d],
                members,
                bytes_per_member: bytes,
                cap_per_member: cap,
            })
        })
        .collect();
    (net, flows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rates are non-negative, respect per-flow caps, and never
    /// oversubscribe any class's ingress or egress capacity.
    #[test]
    fn rates_feasible(t in arb_topo()) {
        let (net, flows) = build(&t);
        let mut used_out = vec![0.0; t.classes.len()];
        let mut used_in = vec![0.0; t.classes.len()];
        for (fid, &(s, d, members, _, cap)) in flows.iter().zip(&t.flows) {
            let r = net.rate_of(*fid);
            prop_assert!(r >= 0.0);
            prop_assert!(r <= cap * (1.0 + 1e-9), "rate {r} exceeds cap {cap}");
            used_out[s] += r * members as f64;
            used_in[d] += r * members as f64;
        }
        for (i, &(count, out, inn)) in t.classes.iter().enumerate() {
            let cap_out = count as f64 * out;
            let cap_in = count as f64 * inn;
            prop_assert!(used_out[i] <= cap_out * (1.0 + 1e-6),
                "class {i} egress oversubscribed: {} > {cap_out}", used_out[i]);
            prop_assert!(used_in[i] <= cap_in * (1.0 + 1e-6),
                "class {i} ingress oversubscribed: {} > {cap_in}", used_in[i]);
        }
    }

    /// Work conservation: every active flow gets a strictly positive
    /// rate (max-min never starves anyone while capacity exists).
    #[test]
    fn no_starvation(t in arb_topo()) {
        let (net, flows) = build(&t);
        for fid in &flows {
            prop_assert!(net.rate_of(*fid) > 0.0, "flow starved");
        }
    }

    /// The network drains: repeatedly advancing to the next completion
    /// terminates with all bytes delivered.
    #[test]
    fn drains_completely(t in arb_topo()) {
        let (mut net, _flows) = build(&t);
        let expected: f64 = t
            .flows
            .iter()
            .map(|&(_, _, m, b, _)| m as f64 * b)
            .sum();
        let mut guard = 0;
        while net.active_flows() > 0 {
            let (dt, _) = net.next_completion().expect("positive rates");
            net.advance(dt);
            guard += 1;
            prop_assert!(guard < 10_000, "did not converge");
        }
        prop_assert!((net.delivered_bytes() - expected).abs() <= 1e-6 * expected.max(1.0),
            "delivered {} of {expected}", net.delivered_bytes());
    }

    /// Pausing zeroes the paused flow and keeps the residual allocation
    /// feasible; resuming restores the original allocation exactly.
    /// (Note: max-min is *not* monotone for unrelated flows — freeing one
    /// bottleneck can shift another — so we do not assert that.)
    #[test]
    fn pause_reversible_and_feasible(t in arb_topo()) {
        let (mut net, flows) = build(&t);
        prop_assume!(flows.len() >= 2);
        let before: Vec<f64> = flows.iter().map(|f| net.rate_of(*f)).collect();
        net.pause(flows[0]);
        prop_assert_eq!(net.rate_of(flows[0]), 0.0);
        // Flows sharing a link with the paused flow must not lose.
        let (ps, pd) = (t.flows[0].0, t.flows[0].1);
        for (i, f) in flows.iter().enumerate().skip(1) {
            let (s, d, ..) = t.flows[i];
            if s == ps || d == pd {
                prop_assert!(net.rate_of(*f) >= before[i] - 1e-6,
                    "flow {i} shares a link with the paused flow but lost rate");
            }
            prop_assert!(net.rate_of(*f) >= 0.0);
        }
        net.resume(flows[0]);
        for (i, f) in flows.iter().enumerate() {
            prop_assert!((net.rate_of(*f) - before[i]).abs() <= 1e-6 * before[i].max(1.0));
        }
    }
}
