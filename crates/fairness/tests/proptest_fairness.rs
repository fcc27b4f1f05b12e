//! Property-based tests for the water-filling allocator.
//!
//! These check the allocator against the paper's *definitions* rather than
//! its own implementation: feasibility (Definition 2.1 condition 1), the
//! bottleneck property (Lemma 2.2, a complete certificate of max-min
//! fairness), invariance under flow relabeling, and dominance of the
//! macro-switch allocation over every Clos allocation (§2.3).

#![allow(clippy::type_complexity)]

use clos_fairness::{
    is_feasible, link_loads, max_min_fair, max_min_fair_weighted, verify_bottleneck_property,
    verify_weighted_bottleneck_property, Allocation,
};
use clos_net::{
    BenesNetwork, Capacity, CapacityMap, ClosNetwork, Fabric, FatTree, Flow, FlowId, LinkId,
    MacroSwitch, Network, NodeId, Routing,
};
use clos_rational::Rational;
use proptest::prelude::*;
use proptest::TestCaseError;

/// A random flow collection on `C_n` plus a random routing, encoded as
/// index tuples so proptest can shrink them.
fn flows_and_routing(
    n: usize,
    max_flows: usize,
) -> impl Strategy<Value = (Vec<(usize, usize, usize, usize)>, Vec<usize>)> {
    let tor = 2 * n;
    let host = n;
    let flow = (0..tor, 0..host, 0..tor, 0..host);
    prop::collection::vec(flow, 1..=max_flows).prop_flat_map(move |flows| {
        let len = flows.len();
        (Just(flows), prop::collection::vec(0..n, len..=len))
    })
}

fn build(
    clos: &ClosNetwork,
    raw_flows: &[(usize, usize, usize, usize)],
    middles: &[usize],
) -> (Vec<Flow>, Routing) {
    let flows: Vec<Flow> = raw_flows
        .iter()
        .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
        .collect();
    let routing: Routing = flows
        .iter()
        .zip(middles)
        .map(|(&f, &m)| clos.path_via(f, m))
        .collect();
    (flows, routing)
}

/// A weight `p/q` with `1 ≤ p ≤ 11` and `1 ≤ q ≤ 7`.
fn fraction() -> impl Strategy<Value = Rational> {
    (1i128..12, 1i128..=7).prop_map(|(p, q)| Rational::new(p, q))
}

/// Checks weighted max-min on one routed collection: the allocation is
/// feasible and has the weighted bottleneck property under the weights
/// `picks` (cycled over the flows), and equal weights `common`
/// reproduce plain max-min.
fn weighted_case(
    net: &Network,
    flows: &[Flow],
    routing: &Routing,
    picks: &[Rational],
    common: Rational,
) -> Result<(), TestCaseError> {
    let weights: Vec<Rational> = (0..flows.len()).map(|i| picks[i % picks.len()]).collect();
    let a = max_min_fair_weighted(net, flows, routing, &weights).unwrap();
    prop_assert!(is_feasible(net, flows, routing, &a).is_ok());
    prop_assert!(verify_weighted_bottleneck_property(
        net,
        flows,
        routing,
        &a,
        &weights,
        Rational::ZERO
    )
    .is_ok());
    let equal = vec![common; flows.len()];
    let w = max_min_fair_weighted(net, flows, routing, &equal).unwrap();
    let plain = max_min_fair::<Rational>(net, flows, routing).unwrap();
    prop_assert_eq!(w, plain);
    Ok(())
}

/// Runs [`weighted_case`] on `pristine` under a capacity overlay (codes
/// 0–3: capacity 0, 1/2, 3, 2/3 on the picked links), with flows
/// between raw terminal indices routed via raw class indices.
fn overlay_case<F: Fabric>(
    pristine: &F,
    raw: &[(usize, usize, usize)],
    overlay: &[(usize, u8)],
    picks: &[Rational],
    common: Rational,
) -> Result<(), TestCaseError> {
    let ids: Vec<LinkId> = pristine.network().links().map(|l| l.id()).collect();
    let mut map = CapacityMap::new();
    for &(l, code) in overlay {
        let cap = match code {
            0 => Rational::ZERO,
            1 => Rational::new(1, 2),
            2 => Rational::from_integer(3),
            _ => Rational::new(2, 3),
        };
        map.insert(ids[l % ids.len()], Capacity::finite_value(cap));
    }
    let fabric = pristine.with_capacities(&map);
    let nodes: Vec<NodeId> = fabric.network().nodes().map(|n| n.id()).collect();
    let sources: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| fabric.source_coords(n).is_some())
        .collect();
    let destinations: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|&n| fabric.destination_coords(n).is_some())
        .collect();
    let flows: Vec<Flow> = raw
        .iter()
        .map(|&(s, d, _)| {
            Flow::new(
                sources[s % sources.len()],
                destinations[d % destinations.len()],
            )
        })
        .collect();
    let routing: Routing = flows
        .iter()
        .zip(raw)
        .map(|(&f, &(_, _, c))| fabric.path_via_class(f, c % fabric.class_count()))
        .collect();
    weighted_case(fabric.network(), &flows, &routing, picks, common)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The allocation is feasible and every flow has a bottleneck link
    /// (Lemma 2.2) — together, a complete proof of max-min fairness.
    #[test]
    fn waterfill_is_max_min_fair_on_c2((raw, middles) in flows_and_routing(2, 10)) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        prop_assert!(is_feasible(clos.network(), &flows, &routing, &a).is_ok());
        prop_assert!(verify_bottleneck_property(
            clos.network(), &flows, &routing, &a, Rational::ZERO
        ).is_ok());
    }

    /// Same on the larger C_3 fabric.
    #[test]
    fn waterfill_is_max_min_fair_on_c3((raw, middles) in flows_and_routing(3, 12)) {
        let clos = ClosNetwork::standard(3);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        prop_assert!(is_feasible(clos.network(), &flows, &routing, &a).is_ok());
        prop_assert!(verify_bottleneck_property(
            clos.network(), &flows, &routing, &a, Rational::ZERO
        ).is_ok());
    }

    /// Decreasing any single positive rate destroys the bottleneck
    /// property: every saturated link of that flow becomes unsaturated.
    #[test]
    fn decreasing_a_rate_breaks_fairness(
        (raw, middles) in flows_and_routing(2, 8),
        victim in 0usize..8,
    ) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        let victim = victim % flows.len();
        let mut rates = a.rates().to_vec();
        if rates[victim].is_zero() {
            return Ok(());
        }
        rates[victim] /= Rational::TWO;
        let perturbed = Allocation::from_rates(rates);
        prop_assert!(verify_bottleneck_property(
            clos.network(), &flows, &routing, &perturbed, Rational::ZERO
        ).is_err());
    }

    /// Relabeling flows relabels rates: max-min fairness does not depend on
    /// flow order (the water-filling levels are a function of the routing
    /// multiset only).
    #[test]
    fn allocation_invariant_under_flow_relabeling(
        (raw, middles) in flows_and_routing(2, 8),
        seed in 0u64..1000,
    ) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();

        // Deterministic pseudo-shuffle of flow indices.
        let len = flows.len();
        let mut perm: Vec<usize> = (0..len).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..len).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }

        let shuffled_flows: Vec<Flow> = perm.iter().map(|&i| flows[i]).collect();
        let shuffled_routing: Routing = perm
            .iter()
            .map(|&i| routing.path(FlowId::from(i)).clone())
            .collect();
        let b = max_min_fair::<Rational>(clos.network(), &shuffled_flows, &shuffled_routing)
            .unwrap();
        for (pos, &orig) in perm.iter().enumerate() {
            prop_assert_eq!(
                b.rate(FlowId::from(pos)),
                a.rate(FlowId::from(orig))
            );
        }
    }

    /// Every feasible Clos allocation is feasible in the macro-switch, so
    /// the macro-switch max-min allocation lexicographically dominates the
    /// max-min allocation of every Clos routing (§2.3).
    #[test]
    fn macro_switch_dominates_every_routing((raw, middles) in flows_and_routing(2, 10)) {
        let clos = ClosNetwork::standard(2);
        let ms = MacroSwitch::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let clos_alloc = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();

        let ms_flows = ms.translate_flows(&clos, &flows);
        let ms_routing = ms.routing(&ms_flows);
        let ms_alloc = max_min_fair::<Rational>(ms.network(), &ms_flows, &ms_routing).unwrap();

        prop_assert!(ms_alloc.sorted() >= clos_alloc.sorted());
        // The Clos allocation itself is feasible in the macro-switch.
        prop_assert!(is_feasible(ms.network(), &ms_flows, &ms_routing, &clos_alloc).is_ok());
    }

    /// Weighted water-filling satisfies the weighted bottleneck property
    /// on random instances, and reduces to the unweighted allocator when
    /// all weights are equal (even when that equal weight is not 1).
    /// Weights are fractions `p/q` with `q ≤ 7`, so the allocator's
    /// scaling to coprime integer multiplicities runs on every case.
    #[test]
    fn weighted_fairness_properties(
        (raw, middles) in flows_and_routing(2, 8),
        weight_picks in prop::collection::vec(fraction(), 8),
        common in fraction(),
    ) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        weighted_case(clos.network(), &flows, &routing, &weight_picks, common)?;
    }

    /// The same properties on a k = 4 fat-tree at 2:1 and a Benes
    /// network of order 3, under a random capacity overlay that may
    /// kill links (capacity zero) or give them fractional capacity.
    #[test]
    fn weighted_fairness_on_fat_tree_and_benes(
        benes in any::<bool>(),
        raw in prop::collection::vec((0..64usize, 0..64usize, 0..16usize), 1..10),
        overlay in prop::collection::vec((0..1024usize, 0..4u8), 0..6),
        weight_picks in prop::collection::vec(fraction(), 8),
        common in fraction(),
    ) {
        if benes {
            overlay_case(&BenesNetwork::standard(3), &raw, &overlay, &weight_picks, common)?;
        } else {
            overlay_case(&FatTree::new(4, Rational::TWO), &raw, &overlay, &weight_picks, common)?;
        }
    }

    /// Throughput equals the sum of host-uplink loads (flow conservation
    /// sanity check on link_loads).
    #[test]
    fn throughput_matches_edge_loads((raw, middles) in flows_and_routing(2, 10)) {
        let clos = ClosNetwork::standard(2);
        let (flows, routing) = build(&clos, &raw, &middles);
        let a = max_min_fair::<Rational>(clos.network(), &flows, &routing).unwrap();
        let loads = link_loads(clos.network(), &flows, &routing, &a);
        let mut host_up_total = Rational::ZERO;
        for tor in 0..clos.tor_count() {
            for host in 0..clos.hosts_per_tor() {
                host_up_total += loads[clos.host_uplink(tor, host).index()];
            }
        }
        prop_assert_eq!(host_up_total, a.throughput());
    }
}

/// Weights 1/4294967311 and 1 scale to multiplicities 1 and 4294967311,
/// one past what the kernel's `u32` tables hold: the allocator panics by
/// name instead of with the kernel's generic width check.
#[test]
#[should_panic(expected = "weights scale to integer multiplicities above u32::MAX")]
fn weights_beyond_u32_scaling_rejected() {
    let ms = MacroSwitch::standard(1);
    let flows = [
        Flow::new(ms.source(0, 0), ms.destination(0, 0)),
        Flow::new(ms.source(1, 0), ms.destination(0, 0)),
    ];
    let routing = ms.routing(&flows);
    let weights = [Rational::new(1, 4_294_967_311), Rational::ONE];
    let _ = max_min_fair_weighted(ms.network(), &flows, &routing, &weights);
}
