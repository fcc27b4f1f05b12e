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
//! where "equal" means bit-equal, not approximately equal. They also pin
//! path aggregation: one entry of multiplicity `m` behaves exactly like
//! `m` copies of its flow.
//!
//! The multiplicity tests compare the global `waterfill.*` telemetry
//! counters, so every test in this binary serializes through one mutex.

use std::sync::{Mutex, MutexGuard, PoisonError};

use clos_fairness::{
    link_loads, max_min_fair_traced, max_min_fair_weighted, verify_bottleneck_property,
    WaterfillInstance, WaterfillScratch,
};
use clos_net::{
    BenesNetwork, Capacity, CapacityMap, ClosNetwork, Fabric, FatTree, Flow, LinkId, NodeId,
    Routing,
};
use clos_rational::{Rational, Scalar, TotalF64};
use clos_telemetry::{counters, set_enabled};
use proptest::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes against every other test in this binary (the telemetry
/// registry is global).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

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
    let _serial = serial();
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
    let _serial = serial();
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
/// hold 32 000 link entries. The exact rates must match a fresh run
/// and the unit-weight allocator, and pass the bottleneck property (the
/// independent check: the weighted allocator runs this same kernel).
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
    use rand::{Rng, SeedableRng};
    let _serial = serial();
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

/// One run's results: per-entry rates and bottlenecks, the level trace,
/// and the `waterfill.*` counters (calls, rounds, saturations, scratch
/// reuse).
type Outcome<S> = (Vec<S>, Vec<usize>, Vec<S>, [u64; 4]);

/// Describes a collection with `describe` into a fresh scratch and runs
/// it with telemetry on. The caller holds [`serial`].
fn counted_run<S: Scalar>(
    instance: &WaterfillInstance<S>,
    describe: impl FnOnce(&mut WaterfillScratch<S>),
) -> Outcome<S> {
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    describe(&mut scratch);
    set_enabled(true);
    counters::reset_all();
    instance.run(&mut scratch);
    set_enabled(false);
    let tally = [
        &counters::WATERFILL_CALLS,
        &counters::WATERFILL_ROUNDS,
        &counters::WATERFILL_SATURATIONS,
        &counters::WATERFILL_SCRATCH_REUSE,
    ]
    .map(|c| c.get());
    (
        scratch.rates().to_vec(),
        scratch.bottlenecks().to_vec(),
        scratch.levels().to_vec(),
        tally,
    )
}

/// Repeats each per-entry value `counts[i]` times.
fn expand<T: Copy>(per_entry: &[T], counts: &[usize]) -> Vec<T> {
    per_entry
        .iter()
        .zip(counts)
        .flat_map(|(&x, &m)| std::iter::repeat_n(x, m))
        .collect()
}

/// Runs `entries` — `(flow, class, multiplicity)` — once as one entry of
/// multiplicity `m` each and once as `m` separate copies of each flow,
/// and asserts that every copy gets its entry's rate and bottleneck and
/// that levels and `waterfill.*` counters agree. An all-ones description
/// through `push_flows` must also equal plain `push_flow` calls.
fn assert_multiplicity_matches_copies<S: Scalar, F: Fabric>(
    fabric: &F,
    entries: &[(Flow, usize, usize)],
) {
    let instance = WaterfillInstance::<S>::compile(fabric.network());
    let links: Vec<Vec<usize>> = entries
        .iter()
        .map(|&(flow, class, _)| {
            fabric
                .path_via_class(flow, class)
                .links()
                .iter()
                .filter_map(|&l| instance.dense_index(l))
                .collect()
        })
        .collect();
    let counts: Vec<usize> = entries.iter().map(|&(.., m)| m).collect();

    let grouped = counted_run(&instance, |s| {
        for (l, &m) in links.iter().zip(&counts) {
            s.push_flows(l, m);
        }
    });
    let copies = counted_run(&instance, |s| {
        for (l, &m) in links.iter().zip(&counts) {
            for _ in 0..m {
                s.push_flow(l);
            }
        }
    });
    assert_eq!(expand(&grouped.0, &counts), copies.0, "rates diverged");
    assert_eq!(
        expand(&grouped.1, &counts),
        copies.1,
        "bottlenecks diverged"
    );
    assert_eq!(grouped.2, copies.2, "levels diverged");
    assert_eq!(grouped.3, copies.3, "waterfill counters diverged");

    let ones = counted_run(&instance, |s| {
        for l in &links {
            s.push_flows(l, 1);
        }
    });
    let plain = counted_run(&instance, |s| {
        for l in &links {
            s.push_flow(l);
        }
    });
    assert_eq!(ones, plain, "multiplicity 1 differs from push_flow");
}

/// Builds a fabric case for the multiplicity proptest: the capacity
/// overlay (`(link, code)`: code 0 kills the link, the others set 1/2,
/// 3, or 2/3) and the entries (`(source, destination, class, m)`,
/// indices taken modulo the fabric's terminals and classes), then checks
/// both scalars — and, for the copies in exact arithmetic, the
/// unit-weight allocator and the independent bottleneck property.
fn multiplicity_case<F: Fabric>(
    pristine: &F,
    raw: &[(usize, usize, usize, usize)],
    overlay: &[(usize, u8)],
) {
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
    let entries: Vec<(Flow, usize, usize)> = raw
        .iter()
        .map(|&(s, d, c, m)| {
            let flow = Flow::new(
                sources[s % sources.len()],
                destinations[d % destinations.len()],
            );
            (flow, c % fabric.class_count(), m)
        })
        .collect();
    assert_multiplicity_matches_copies::<Rational, _>(&fabric, &entries);
    assert_multiplicity_matches_copies::<TotalF64, _>(&fabric, &entries);

    let mut flows = Vec::new();
    let mut paths = Vec::new();
    for &(flow, class, m) in &entries {
        for _ in 0..m {
            flows.push(flow);
            paths.push(fabric.path_via_class(flow, class));
        }
    }
    let routing = Routing::new(paths);
    let net = fabric.network();
    let ones = vec![Rational::ONE; flows.len()];
    let weighted = max_min_fair_weighted(net, &flows, &routing, &ones).unwrap();
    let (fresh, _) = max_min_fair_traced::<Rational>(net, &flows, &routing).unwrap();
    assert_eq!(fresh.rates(), weighted.rates());
    assert!(verify_bottleneck_property(net, &flows, &routing, &fresh, Rational::ZERO).is_ok());
}

/// Path aggregation at churn shape: a hot C_2 pair with dozens of flows
/// per path next to single flows, plus a dead uplink.
#[test]
fn hot_paths_with_a_dead_link_match_copies() {
    let _serial = serial();
    let clos = ClosNetwork::standard(2);
    let raw = [
        (0, 4, 0, 37),
        (0, 4, 1, 12),
        (1, 5, 0, 1),
        (2, 7, 1, 25),
        (3, 0, 0, 1),
        (6, 1, 1, 48),
    ];
    multiplicity_case(&clos, &raw, &[]);
    let uplink = clos
        .network()
        .links()
        .position(|l| l.id() == clos.uplink(0, 1))
        .expect("uplink exists");
    multiplicity_case(&clos, &raw, &[(uplink, 0)]);
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
        let _serial = serial();
        let clos = ClosNetwork::standard(2);
        let flows = clos_flows(&clos, &raw);
        assert_compiled_matches_fresh::<Rational, _>(&clos, &flows, &assignments);
    }

    /// Same on the larger C_3 fabric.
    #[test]
    fn compiled_equals_fresh_rational_c3(
        (raw, assignments) in flows_and_assignments(6, 3, 3, 12, 4),
    ) {
        let _serial = serial();
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
        let _serial = serial();
        let clos = ClosNetwork::standard(3);
        let flows = clos_flows(&clos, &raw);
        assert_compiled_matches_fresh::<TotalF64, _>(&clos, &flows, &assignments);
    }

    /// Path aggregation on random fabrics (C_2, C_3, a k = 4 fat-tree
    /// at 2:1, a Benes network of order 3) with random capacity
    /// overlays, zero capacities included: an entry of multiplicity `m`
    /// gives the same rates, levels, bottlenecks, and `waterfill.*`
    /// counters as `m` copies of its flow, in both scalars.
    #[test]
    fn multiplicity_equals_copies(
        kind in 0..4usize,
        raw in prop::collection::vec((0..64usize, 0..64usize, 0..16usize, 1..=40usize), 1..8),
        overlay in prop::collection::vec((0..1024usize, 0..4u8), 0..6),
    ) {
        let _serial = serial();
        match kind {
            0 => multiplicity_case(&ClosNetwork::standard(2), &raw, &overlay),
            1 => multiplicity_case(&ClosNetwork::standard(3), &raw, &overlay),
            2 => multiplicity_case(&FatTree::new(4, Rational::TWO), &raw, &overlay),
            _ => multiplicity_case(&BenesNetwork::standard(3), &raw, &overlay),
        }
    }

    /// Idle-link skipping: flows confined to one pod of a k=8 fat-tree
    /// at 2:1 touch at most 6 links each of the 768 compiled, and the
    /// oversubscribed edge layer saturates before the host and core
    /// links, so links drain at different rounds. Both scalars must
    /// still match the fresh run, and the exact rates must be the
    /// unique max-min fair allocation (checked against the unit-weight
    /// allocator and the independent bottleneck property).
    #[test]
    fn compiled_equals_fresh_fat_tree_pod(
        pod in 0..8usize,
        (raw, assignments) in flows_and_assignments(4, 4, 16, 12, 4),
    ) {
        let _serial = serial();
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
