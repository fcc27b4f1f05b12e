//! Equivalence of the compiled evaluation pipeline and the allocating
//! wrapper.
//!
//! The branch-and-bound engine evaluates routings through a
//! [`WaterfillInstance`] compiled once plus a [`WaterfillScratch`] reused
//! across evaluations; `max_min_fair_traced` compiles afresh per call.
//! These tests pin the refactoring contract: for any instance and any
//! assignment sequence, the compiled-scratch path produces *exactly* the
//! same rates, water-filling levels, and bottleneck links as a fresh
//! allocating call — in exact `Rational` arithmetic and in `TotalF64`,
//! where "equal" means bit-equal, not approximately equal.

use clos_fairness::{
    link_loads, max_min_fair_traced, max_min_fair_weighted, verify_bottleneck_property,
    WaterfillInstance, WaterfillScratch,
};
use clos_net::{ClosNetwork, Fabric, FatTree, Flow, LinkId, Routing};
use clos_rational::{Rational, Scalar, TotalF64};
use proptest::prelude::*;

/// Builds the flow collection on `C_n` from raw coordinate tuples.
fn clos_flows(clos: &ClosNetwork, raw_flows: &[(usize, usize, usize, usize)]) -> Vec<Flow> {
    raw_flows
        .iter()
        .map(|&(si, sj, ti, tj)| Flow::new(clos.source(si, sj), clos.destination(ti, tj)))
        .collect()
}

/// Routes flow `i` via routing class `classes[i]` (on Clos, the middle).
fn route<F: Fabric>(fabric: &F, flows: &[Flow], classes: &[usize]) -> Routing {
    flows
        .iter()
        .zip(classes)
        .map(|(&f, &c)| fabric.path_via_class(f, c))
        .collect()
}

/// Runs every assignment through ONE compiled instance and ONE scratch
/// (reused, never reallocated) and asserts rates, trace levels, and
/// bottleneck links are exactly those of a fresh `max_min_fair_traced`
/// call per assignment.
fn assert_compiled_matches_fresh<S: Scalar, F: Fabric>(
    fabric: &F,
    flows: &[Flow],
    assignments: &[Vec<usize>],
) {
    let instance = WaterfillInstance::<S>::compile(fabric.network());
    let mut scratch = WaterfillScratch::new();
    let mut dense: Vec<usize> = Vec::new();
    for classes in assignments {
        let routing = route(fabric, flows, classes);
        let (fresh, trace) = max_min_fair_traced::<S>(fabric.network(), flows, &routing).unwrap();

        scratch.begin();
        for path in routing.paths() {
            dense.clear();
            dense.extend(path.links().iter().filter_map(|&l| instance.dense_index(l)));
            assert!(!dense.is_empty(), "fabric paths always cross finite links");
            scratch.push_flow(&dense);
        }
        instance.run(&mut scratch);

        assert_eq!(scratch.rates(), fresh.rates(), "rates diverged");
        assert_eq!(scratch.levels(), trace.levels.as_slice(), "levels diverged");
        let bottlenecks: Vec<LinkId> = scratch
            .bottlenecks()
            .iter()
            .map(|&d| instance.link_id(d))
            .collect();
        assert_eq!(bottlenecks, trace.bottleneck_of, "bottlenecks diverged");
    }
}

/// All `n^flows` assignments of `flows` flows to `n` middles.
fn all_assignments(n: usize, flows: usize) -> Vec<Vec<usize>> {
    let total = n.pow(flows as u32);
    (0..total)
        .map(|mut code| {
            (0..flows)
                .map(|_| {
                    let m = code % n;
                    code /= n;
                    m
                })
                .collect()
        })
        .collect()
}

/// Exhaustive deterministic check on a hot-ToR C_2 instance: all 16
/// assignments through one reused scratch, in both scalar modes.
#[test]
fn exhaustive_c2_hot_tor_both_scalars() {
    let clos = ClosNetwork::standard(2);
    // Two flows off ToR 0 (shared uplinks), one intra-ToR, one crossing.
    let raw = [(0, 0, 2, 0), (0, 1, 2, 1), (1, 0, 1, 1), (3, 0, 0, 0)];
    let assignments = all_assignments(2, raw.len());
    assert_eq!(assignments.len(), 16);
    let flows = clos_flows(&clos, &raw);
    assert_compiled_matches_fresh::<Rational, _>(&clos, &flows, &assignments);
    assert_compiled_matches_fresh::<TotalF64, _>(&clos, &flows, &assignments);
}

/// Duplicate flows (identical endpoints) share links with themselves;
/// the member lists then contain repeated dense indices, which the
/// counting-sort layout must preserve exactly.
#[test]
fn duplicate_flows_c3_both_scalars() {
    let clos = ClosNetwork::standard(3);
    let raw = [(0, 0, 3, 0), (0, 0, 3, 0), (0, 0, 3, 0), (1, 1, 4, 1)];
    let assignments = vec![
        vec![0, 0, 0, 0],
        vec![0, 1, 2, 0],
        vec![2, 2, 1, 1],
        vec![1, 1, 1, 2],
    ];
    let flows = clos_flows(&clos, &raw);
    assert_compiled_matches_fresh::<Rational, _>(&clos, &flows, &assignments);
    assert_compiled_matches_fresh::<TotalF64, _>(&clos, &flows, &assignments);
}

/// Churn scale: 8000 random flows on C_4 with seeded random classes,
/// so every link carries about 250 members and the `u32` index tables
/// hold 32 000 link entries. The exact rates must match a fresh run,
/// the independent unit-weight progressive-filling loop, and the
/// bottleneck property.
///
/// On unit links, random member counts would drive exact rates through
/// denominators beyond `i128`, so each uplink's capacity is its member
/// count over a level drawn from {120, 160, 240, 320, 480}, and every
/// other link gets capacity 64: the uplinks bottleneck in up to five
/// rounds and every frozen load stays within a denominator of 960. The
/// pristine unit fabric, with dozens of rounds, runs in `TotalF64`
/// against the bottleneck property within a tolerance.
#[test]
fn churn_scale_c4_matches_independent_loop() {
    use clos_net::{Capacity, CapacityMap};
    use rand::{Rng, SeedableRng};
    let pristine = ClosNetwork::standard(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc4);
    let raw: FlowTuples = (0..8000)
        .map(|_| {
            (
                rng.gen_range(0..8usize),
                rng.gen_range(0..4usize),
                rng.gen_range(0..8usize),
                rng.gen_range(0..4usize),
            )
        })
        .collect();
    let classes: Vec<usize> = raw.iter().map(|_| rng.gen_range(0..4)).collect();

    let mut uplink_members = vec![vec![0i128; 4]; 8];
    for (&(src_tor, ..), &m) in raw.iter().zip(&classes) {
        uplink_members[src_tor][m] += 1;
    }
    let mut overlay = CapacityMap::new();
    for link in pristine.network().links() {
        overlay.insert(
            link.id(),
            Capacity::finite_value(Rational::from_integer(64)),
        );
    }
    for (tor, members) in uplink_members.iter().enumerate() {
        for (m, &count) in members.iter().enumerate() {
            assert!(count >= 100, "every uplink carries hundreds of members");
            let level: i128 = [120, 160, 240, 320, 480][rng.gen_range(0..5usize)];
            overlay.insert(
                pristine.uplink(tor, m),
                Capacity::finite_value(Rational::new(count, level)),
            );
        }
    }
    let clos = pristine.with_capacities(&overlay);
    let flows = clos_flows(&clos, &raw);
    assert_compiled_matches_fresh::<Rational, _>(&clos, &flows, std::slice::from_ref(&classes));

    let net = clos.network();
    let routing = route(&clos, &flows, &classes);
    let instance = WaterfillInstance::<Rational>::compile(net);
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    for path in routing.paths() {
        let dense: Vec<usize> = path
            .links()
            .iter()
            .filter_map(|&l| instance.dense_index(l))
            .collect();
        scratch.push_flow(&dense);
    }
    instance.run(&mut scratch);
    assert!(scratch.levels().len() >= 2, "several freezing rounds");
    let ones = vec![Rational::ONE; flows.len()];
    let weighted = max_min_fair_weighted(net, &flows, &routing, &ones).unwrap();
    assert_eq!(scratch.rates(), weighted.rates());
    let compiled = clos_fairness::Allocation::from_rates(scratch.rates().to_vec());
    assert!(verify_bottleneck_property(net, &flows, &routing, &compiled, Rational::ZERO).is_ok());

    let unit_routing = route(&pristine, &flows, &classes);
    let (unit, trace) =
        max_min_fair_traced::<TotalF64>(pristine.network(), &flows, &unit_routing).unwrap();
    assert!(trace.levels.len() >= 20, "dozens of freezing rounds");
    let tolerance = TotalF64::new(1e-9);
    assert!(verify_bottleneck_property(
        pristine.network(),
        &flows,
        &unit_routing,
        &unit,
        tolerance
    )
    .is_ok());
}

/// Flow endpoints as `(src_group, src_host, dst_group, dst_host)` tuples.
type FlowTuples = Vec<(usize, usize, usize, usize)>;

/// A random collection of flows between `groups` groups of `hosts`
/// hosts each, plus a batch of random assignments to `classes` routing
/// classes, encoded as index tuples so proptest can shrink them.
fn flows_and_assignments(
    groups: usize,
    hosts: usize,
    classes: usize,
    max_flows: usize,
    batch: usize,
) -> impl Strategy<Value = (FlowTuples, Vec<Vec<usize>>)> {
    let flow = (0..groups, 0..hosts, 0..groups, 0..hosts);
    prop::collection::vec(flow, 1..=max_flows).prop_flat_map(move |flows| {
        let len = flows.len();
        (
            Just(flows),
            prop::collection::vec(prop::collection::vec(0..classes, len..=len), 1..=batch),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact `Rational` equivalence on random C_2 instances, with the
    /// scratch carried across a whole batch of assignments.
    #[test]
    fn compiled_equals_fresh_rational_c2(
        (raw, assignments) in flows_and_assignments(4, 2, 2, 10, 6),
    ) {
        let clos = ClosNetwork::standard(2);
        let flows = clos_flows(&clos, &raw);
        assert_compiled_matches_fresh::<Rational, _>(&clos, &flows, &assignments);
    }

    /// Same on the larger C_3 fabric.
    #[test]
    fn compiled_equals_fresh_rational_c3(
        (raw, assignments) in flows_and_assignments(6, 3, 3, 12, 4),
    ) {
        let clos = ClosNetwork::standard(3);
        let flows = clos_flows(&clos, &raw);
        assert_compiled_matches_fresh::<Rational, _>(&clos, &flows, &assignments);
    }

    /// Bit-exact `TotalF64` equivalence: the compiled pipeline performs
    /// the same floating-point operations in the same order as the
    /// wrapper, so even rounding is identical.
    #[test]
    fn compiled_equals_fresh_total_f64(
        (raw, assignments) in flows_and_assignments(6, 3, 3, 10, 6),
    ) {
        let clos = ClosNetwork::standard(3);
        let flows = clos_flows(&clos, &raw);
        assert_compiled_matches_fresh::<TotalF64, _>(&clos, &flows, &assignments);
    }

    /// Idle-link skipping: flows confined to one pod of a k=8 fat-tree
    /// at 2:1 touch at most 6 links each of the 768 compiled, and the
    /// oversubscribed edge layer saturates before the host and core
    /// links, so links drain at different rounds. Both scalars must
    /// still match the fresh run, and the exact rates must be the
    /// unique max-min fair allocation (checked against the independent
    /// unit-weight allocator and the bottleneck property).
    #[test]
    fn compiled_equals_fresh_fat_tree_pod(
        pod in 0..8usize,
        (raw, assignments) in flows_and_assignments(4, 4, 16, 12, 4),
    ) {
        let ft = FatTree::new(8, Rational::TWO);
        let flows: Vec<Flow> = raw
            .iter()
            .map(|&(se, sh, de, dh)| {
                Flow::new(ft.source(pod * 4 + se, sh), ft.destination(pod * 4 + de, dh))
            })
            .collect();
        assert_compiled_matches_fresh::<Rational, _>(&ft, &flows, &assignments);
        assert_compiled_matches_fresh::<TotalF64, _>(&ft, &flows, &assignments);
        let net = ft.network();
        let ones = vec![Rational::ONE; flows.len()];
        for classes in &assignments {
            let routing = route(&ft, &flows, classes);
            let (fresh, trace) = max_min_fair_traced::<Rational>(net, &flows, &routing).unwrap();
            let weighted = max_min_fair_weighted(net, &flows, &routing, &ones).unwrap();
            prop_assert_eq!(fresh.rates(), weighted.rates());
            prop_assert!(
                verify_bottleneck_property(net, &flows, &routing, &fresh, Rational::ZERO).is_ok()
            );
            // The traced bottleneck is the first link in network order
            // that is saturated and on which the flow's rate is maximal.
            let loads = link_loads(net, &flows, &routing, &fresh);
            for (i, path) in routing.paths().iter().enumerate() {
                let rate = fresh.rates()[i];
                let first = path
                    .links()
                    .iter()
                    .copied()
                    .filter(|&l| {
                        let saturated = net.link(l).capacity().finite()
                            == Some(loads[l.index()]);
                        let maximal = routing
                            .paths()
                            .iter()
                            .zip(fresh.rates())
                            .all(|(p, &r)| r <= rate || !p.links().contains(&l));
                        saturated && maximal
                    })
                    .min();
                prop_assert_eq!(Some(trace.bottleneck_of[i]), first);
            }
        }
    }
}
