//! Property tests: the incremental engine is bit-identical to a fresh
//! full water-filling run over random event traces, in both scalar
//! modes, at every batch size — including hot-pair traces where dozens
//! of flows share each path and the engine recomputes one entry per
//! path.

use clos_churn::{
    ChurnConfig, ChurnEngine, FlowEvent, OnlinePolicy, Pattern, RecomputeStats, SizeDist,
    TraceConfig, TraceGenerator,
};
use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::ClosNetwork;
use clos_rational::{Rational, Scalar, TotalF64};
use clos_workloads::Workload;
use proptest::prelude::*;

/// Recomputes the live allocation from scratch — fresh instance, fresh
/// scratch, every live flow pushed in the engine's slot order — and
/// asserts the engine's cached rates, bottlenecks, and levels match bit
/// for bit.
fn assert_matches_fresh_run<S: Scalar + std::fmt::Debug>(engine: &ChurnEngine<S>) {
    let clos = engine.fabric();
    let instance = WaterfillInstance::<S>::compile(clos.network());
    let mut scratch = WaterfillScratch::new();
    scratch.begin();
    let live: Vec<(u64, S)> = engine.live_flows().collect();
    for &(key, _) in &live {
        let flow = engine.flow(key).expect("live flow has endpoints");
        let middle = engine.class_of(key).expect("live flow has a placement");
        let links: Vec<usize> = clos
            .links_via(flow, middle)
            .iter()
            .filter_map(|&l| instance.dense_index(l))
            .collect();
        assert_eq!(links.len(), 4, "every Clos link is finite");
        scratch.push_flow(&links);
    }
    instance.run(&mut scratch);
    for (i, &(key, rate)) in live.iter().enumerate() {
        assert_eq!(rate, scratch.rates()[i], "rate of key {key} diverged");
        assert_eq!(
            engine.bottleneck(key),
            Some(instance.link_id(scratch.bottlenecks()[i])),
            "bottleneck of key {key} diverged"
        );
    }
    // A fresh run's raw level sequence can contain floating-point
    // duplicate rounds (see `ChurnEngine::levels`); the sorted
    // deduplicated sequences must agree bit for bit in every mode.
    let mut fresh_levels = scratch.levels().to_vec();
    fresh_levels.sort_unstable();
    fresh_levels.dedup();
    assert_eq!(engine.levels(), fresh_levels, "levels diverged");
}

fn policy(choice: u8, seed: u64) -> OnlinePolicy {
    match choice % 3 {
        0 => OnlinePolicy::ecmp(seed),
        1 => OnlinePolicy::greedy(),
        _ => OnlinePolicy::first_fit(),
    }
}

fn trace(n: usize, events: usize, seed: u64) -> (ClosNetwork, TraceConfig) {
    let clos = ClosNetwork::standard(n);
    let cfg = TraceConfig {
        arrival_rate_per_sec: 1_000_000,
        lifetime: SizeDist::Exponential { mean_ns: 30_000 },
        pattern: Pattern::Uniform,
        events,
        seed,
    };
    (clos, cfg)
}

fn run_trace<S: Scalar + std::fmt::Debug>(
    n: usize,
    events: usize,
    seed: u64,
    batch: usize,
    choice: u8,
    verify: bool,
) -> ChurnEngine<S> {
    let (clos, cfg) = trace(n, events, seed);
    let mut engine = ChurnEngine::<S>::new(
        clos.clone(),
        policy(choice, seed),
        ChurnConfig { batch, verify },
    );
    for ev in TraceGenerator::new(&clos, &cfg) {
        engine.apply(ev.event);
    }
    engine.flush();
    engine
}

/// Path keys on C_2: 2 classes × 8 sources × 8 destinations.
const C2_PATH_KEYS: u64 = 2 * 8 * 8;

/// Checks one epoch's stats growth: it recomputed at most every path
/// key once and no more paths than flows.
fn assert_epoch_aggregates(before: RecomputeStats, after: RecomputeStats) {
    let paths = after.recomputed_paths - before.recomputed_paths;
    let flows = after.recomputed_flows - before.recomputed_flows;
    assert!(paths <= C2_PATH_KEYS, "{paths} paths in one epoch");
    assert!(paths <= flows, "{paths} paths for {flows} flows");
}

/// Replays a C_2 trace concentrated on `pairs` host pairs (a replayed
/// workload of that many random flows, cycled) whose lifetimes keep
/// dozens of flows on each pair, then departs every survivor, emptying
/// every path. `verify` checks every epoch against the per-flow oracle,
/// and the result is checked against an independent fresh run just
/// before the drain.
fn run_hot_pairs<S: Scalar + std::fmt::Debug>(
    pairs: usize,
    events: usize,
    seed: u64,
    batch: usize,
    choice: u8,
) -> RecomputeStats {
    let clos = ClosNetwork::standard(2);
    let cfg = TraceConfig {
        arrival_rate_per_sec: 1_000_000,
        lifetime: SizeDist::Exponential { mean_ns: 120_000 },
        pattern: Pattern::Replay(Workload::UniformRandom { flows: pairs }),
        events,
        seed,
    };
    let mut engine = ChurnEngine::<S>::new(
        clos.clone(),
        policy(choice, seed),
        ChurnConfig {
            batch,
            verify: true,
        },
    );
    let apply = |engine: &mut ChurnEngine<S>, event| {
        let before = engine.stats();
        engine.apply(event);
        assert_epoch_aggregates(before, engine.stats());
    };
    for ev in TraceGenerator::new(&clos, &cfg) {
        apply(&mut engine, ev.event);
    }
    let before = engine.stats();
    engine.flush();
    assert_epoch_aggregates(before, engine.stats());
    assert_matches_fresh_run(&engine);
    let survivors: Vec<u64> = engine.live_flows().map(|(key, _)| key).collect();
    for key in survivors {
        apply(&mut engine, FlowEvent::Depart { key });
    }
    engine.flush();
    assert_eq!(engine.live(), 0);
    assert!(engine.levels().is_empty());
    engine.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hot pairs, exact rationals, at batch 1 and at a large batch:
    /// every epoch matches the per-flow oracle, and the engine
    /// recomputes several flows per path entry.
    #[test]
    fn hot_pairs_match_oracle_rational(
        pairs in 1usize..4,
        events in 200usize..500,
        seed in 0u64..1_000_000,
        large_batch in any::<bool>(),
        choice in 0u8..3,
    ) {
        let batch = if large_batch { 512 } else { 1 };
        let stats = run_hot_pairs::<Rational>(pairs, events, seed, batch, choice);
        prop_assert!(stats.peak_live >= 40);
        prop_assert!(4 * stats.recomputed_paths < stats.recomputed_flows);
    }

    /// Hot pairs in `TotalF64`: the repeated add of the aggregated
    /// kernel rounds exactly like the per-flow oracle.
    #[test]
    fn hot_pairs_match_oracle_total_f64(
        pairs in 1usize..4,
        events in 200usize..500,
        seed in 0u64..1_000_000,
        large_batch in any::<bool>(),
        choice in 0u8..3,
    ) {
        let batch = if large_batch { 512 } else { 1 };
        let stats = run_hot_pairs::<TotalF64>(pairs, events, seed, batch, choice);
        prop_assert!(stats.peak_live >= 40);
        prop_assert!(4 * stats.recomputed_paths < stats.recomputed_flows);
    }

    /// Exact rationals: incremental == fresh full run, and the engine's
    /// own full-recompute oracle (`verify`) agrees at every epoch.
    #[test]
    fn incremental_matches_oracle_rational(
        n in 1usize..4,
        events in 1usize..400,
        seed in 0u64..1_000_000,
        batch in 1usize..64,
        choice in 0u8..3,
    ) {
        let engine = run_trace::<Rational>(n, events, seed, batch, choice, true);
        assert_matches_fresh_run(&engine);
        prop_assert_eq!(engine.stats().events, events as u64);
    }

    /// Floating point (`TotalF64`): the same guarantee, bit for bit.
    #[test]
    fn incremental_matches_oracle_total_f64(
        n in 1usize..4,
        events in 1usize..400,
        seed in 0u64..1_000_000,
        batch in 1usize..64,
        choice in 0u8..3,
    ) {
        let engine = run_trace::<TotalF64>(n, events, seed, batch, choice, true);
        assert_matches_fresh_run(&engine);
    }

    /// Two engines fed the same trace with different batch sizes agree
    /// byte for byte (rates, levels, checksum) at every common flushed
    /// checkpoint.
    #[test]
    fn batch_size_does_not_change_results(
        n in 1usize..4,
        events in 1usize..300,
        seed in 0u64..1_000_000,
        batch_a in 1usize..16,
        batch_b in 16usize..256,
        choice in 0u8..3,
    ) {
        let (clos, cfg) = trace(n, events, seed);
        let mut a = ChurnEngine::<TotalF64>::new(
            clos.clone(),
            policy(choice, seed),
            ChurnConfig { batch: batch_a, verify: false },
        );
        let mut b = ChurnEngine::<TotalF64>::new(
            clos.clone(),
            policy(choice, seed),
            ChurnConfig { batch: batch_b, verify: false },
        );
        for (i, ev) in TraceGenerator::new(&clos, &cfg).enumerate() {
            a.apply(ev.event);
            b.apply(ev.event);
            if (i + 1) % 25 == 0 {
                a.flush();
                b.flush();
                prop_assert_eq!(a.checksum(), b.checksum());
            }
        }
        a.flush();
        b.flush();
        prop_assert_eq!(a.checksum(), b.checksum());
        prop_assert_eq!(a.levels(), b.levels());
        let rates_a: Vec<(u64, TotalF64)> = a.live_flows().collect();
        let rates_b: Vec<(u64, TotalF64)> = b.live_flows().collect();
        prop_assert_eq!(rates_a, rates_b);
    }
}
