//! The `search` workload: exact lex- and throughput-max-min optima, in
//! `Rational`, at a fixed thread count, over six fixed instances.

use std::time::Instant;

use clos_core::compiled::EvalScratch;
use clos_core::objectives::{search_lex_max_min_with, search_throughput_max_min_with, SearchStats};
use clos_core::search::{Problem, SearchConfig};
use clos_core::RoutedAllocation;
use clos_fairness::{max_min_fair, WaterfillInstance, WaterfillScratch};
use clos_net::{
    BenesNetwork, Capacity, CapacityMap, ClosNetwork, Fabric, FatTree, Flow, LinkId, Network,
    NodeKind,
};
use clos_rational::{Rational, Scalar, TotalF64};

use crate::rng::{derive, SplitMix64};
use crate::{fairness_layers, secs, set_telemetry, spans, stats, Outcome, RunConfig};

/// Search worker threads, fixed so results compare across machines.
const THREADS: usize = 2;
/// Set-ups per run (each builds every fabric, overlay and flow set).
const SETUPS: usize = 201;
/// Random assignments per fabric replayed by the kernel and evaluate
/// micro-measurements of a traced run.
const REPLAYS: usize = 3000;

/// The hot-ToR flow set on `C_4`: five flows leave ToR 0, plus a
/// permutation tail (`(src tor, src host, dst tor, dst host)`).
const HOT4: [(usize, usize, usize, usize); 9] = [
    (0, 0, 4, 0),
    (0, 1, 4, 1),
    (0, 2, 4, 2),
    (0, 3, 4, 3),
    (0, 0, 5, 0),
    (1, 0, 5, 1),
    (1, 1, 6, 0),
    (2, 0, 6, 1),
    (3, 0, 7, 0),
];

/// The fabrics the workload searches.
enum Net {
    Clos(ClosNetwork),
    Benes(BenesNetwork),
    FatTree(FatTree),
}

/// Runs `$body` with `$f` bound to the concrete fabric.
macro_rules! with_fabric {
    ($net:expr, $f:ident => $body:expr) => {
        match $net {
            Net::Clos($f) => $body,
            Net::Benes($f) => $body,
            Net::FatTree($f) => $body,
        }
    };
}

/// One fabric with its flow set (searched under both objectives).
struct Instance {
    name: &'static str,
    net: Net,
    flows: Vec<Flow>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Objective {
    Lex,
    Tput,
}

impl Objective {
    fn name(self) -> &'static str {
        match self {
            Objective::Lex => "lex",
            Objective::Tput => "tput",
        }
    }
}

/// Exact optima pinned per instance: the lex-max-min sorted rate vector
/// (unique by Definition 2.4) and the throughput-max-min total
/// (unique by Definition 2.5), as `(numerator, denominator)` pairs.
struct Pinned {
    lex_sorted: &'static [(i128, i128)],
    tput_total: (i128, i128),
}

fn pinned(instance: &str) -> Pinned {
    match instance {
        // Host (0, 0) sends two flows, capped at 1/2 each by its link;
        // the other seven flows fit at full rate.
        "hot4" => Pinned {
            lex_sorted: &[
                (1, 2),
                (1, 2),
                (1, 1),
                (1, 1),
                (1, 1),
                (1, 1),
                (1, 1),
                (1, 1),
                (1, 1),
            ],
            tput_total: (8, 1),
        },
        // EXPERIMENTS.md, E15: benes(r=3) at 4:1, lex min 1/4, total 2.
        "benes3x4" => Pinned {
            lex_sorted: &[(1, 4); 8],
            tput_total: (2, 1),
        },
        // Each edge switch has two 1/2 uplinks for its two senders.
        "fattree4x2" => Pinned {
            lex_sorted: &[(1, 2); 6],
            tput_total: (3, 1),
        },
        _ => unreachable!("unknown instance {instance}"),
    }
}

/// Source host `i` sends to destination host `i + 1 mod H`, for the
/// first `take` sources (e15's ring workload).
fn ring_flows(net: &Network, take: usize) -> Vec<Flow> {
    let sources = net.nodes_of_kind(NodeKind::Source);
    let dests = net.nodes_of_kind(NodeKind::Destination);
    let h = sources.len();
    (0..take.min(h))
        .map(|i| Flow::new(sources[i], dests[(i + 1) % h]))
        .collect()
}

/// Scales every switch-to-switch link to `nominal / oversub` (e15's
/// interior oversubscription overlay).
fn interior_overlay(net: &Network, nominal: Rational, oversub: i128) -> CapacityMap {
    let scaled = Capacity::finite_value(nominal / Rational::from_integer(oversub));
    net.links()
        .filter(|l| {
            net.node(l.src()).kind() != NodeKind::Source
                && net.node(l.dst()).kind() != NodeKind::Destination
        })
        .map(|l| (l.id(), scaled))
        .collect()
}

/// Builds the three fabrics and their flow sets.
fn setup() -> Vec<Instance> {
    let clos = ClosNetwork::standard(4);
    let hot4 = HOT4
        .iter()
        .map(|&(st, sh, dt, dh)| Flow::new(clos.source(st, sh), clos.destination(dt, dh)))
        .collect();
    let base = BenesNetwork::standard(3);
    let benes = base.with_capacities(&interior_overlay(
        base.network(),
        base.nominal_capacity(),
        4,
    ));
    let benes_flows = ring_flows(benes.network(), benes.terminal_count());
    let fat = FatTree::new(4, Rational::from_integer(2));
    let fat_flows = ring_flows(fat.network(), 6);
    vec![
        Instance {
            name: "hot4",
            net: Net::Clos(clos),
            flows: hot4,
        },
        Instance {
            name: "benes3x4",
            net: Net::Benes(benes),
            flows: benes_flows,
        },
        Instance {
            name: "fattree4x2",
            net: Net::FatTree(fat),
            flows: fat_flows,
        },
    ]
}

fn solve(instance: &Instance, objective: Objective) -> (RoutedAllocation, SearchStats) {
    let config = SearchConfig {
        threads: Some(THREADS),
        ..SearchConfig::default()
    };
    with_fabric!(&instance.net, f => match objective {
        Objective::Lex => search_lex_max_min_with(f, &instance.flows, config),
        Objective::Tput => search_throughput_max_min_with(f, &instance.flows, config),
    })
}

fn network(instance: &Instance) -> &Network {
    with_fabric!(&instance.net, f => f.network())
}

/// One solved optimum of a pass.
struct Solved {
    instance: usize,
    objective: Objective,
    wall_s: f64,
    result: RoutedAllocation,
    stats: SearchStats,
}

/// Checks one pass's six optima; returns the number of optima that
/// failed a check and the failure messages.
fn verify(instances: &[Instance], pass: &[Solved]) -> (u64, Vec<String>) {
    let mut messages = Vec::new();
    let mut bad = vec![false; pass.len()];
    let r = |(n, d): (i128, i128)| Rational::new(n, d);
    for (k, s) in pass.iter().enumerate() {
        let inst = &instances[s.instance];
        let tag = format!("{}-{}", inst.name, s.objective.name());
        let net = network(inst);
        let mut fail = |m: String| {
            bad[k] = true;
            messages.push(format!("{tag}: {m}"));
        };
        if let Err(e) = s.result.routing.validate(net, &inst.flows) {
            fail(format!("invalid routing: {e:?}"));
            continue;
        }
        match max_min_fair::<Rational>(net, &inst.flows, &s.result.routing) {
            Ok(fresh) if fresh == s.result.allocation => {}
            Ok(_) => fail("re-evaluated rates differ".to_string()),
            Err(e) => fail(format!("re-evaluation failed: {e:?}")),
        }
        let pin = pinned(inst.name);
        match s.objective {
            Objective::Lex => {
                let want: Vec<Rational> = pin.lex_sorted.iter().map(|&p| r(p)).collect();
                let got = s.result.allocation.sorted();
                if got.rates() != want.as_slice() {
                    fail(format!(
                        "sorted rates {:?} differ from the pinned optimum",
                        got.rates()
                    ));
                }
            }
            Objective::Tput => {
                if s.result.throughput() != r(pin.tput_total) {
                    fail(format!(
                        "throughput {} differs from the pinned {}",
                        s.result.throughput(),
                        r(pin.tput_total)
                    ));
                }
            }
        }
    }
    // Definitions 2.4/2.5: lex has the larger minimum, tput the larger
    // total; a violation fails both optima of the instance.
    for (i, inst) in instances.iter().enumerate() {
        let find = |o| {
            pass.iter()
                .position(|s| s.instance == i && s.objective == o)
        };
        let (Some(l), Some(t)) = (find(Objective::Lex), find(Objective::Tput)) else {
            continue;
        };
        let min = |k: usize| {
            pass[k]
                .result
                .allocation
                .min_rate()
                .unwrap_or(Rational::ZERO)
        };
        let total = |k: usize| pass[k].result.throughput();
        let mut broken = Vec::new();
        if min(l) < min(t) {
            broken.push("lex minimum below tput minimum");
        }
        if total(t) < total(l) {
            broken.push("tput total below lex total");
        }
        for m in broken {
            bad[l] = true;
            bad[t] = true;
            messages.push(format!("{}: {m}", inst.name));
        }
    }
    (bad.iter().filter(|&&b| b).count() as u64, messages)
}

/// Per-flow, per-class dense link lists of `fabric` against `inst`.
fn class_paths<F: Fabric, S: Scalar>(
    fabric: &F,
    flows: &[Flow],
    inst: &WaterfillInstance<S>,
) -> Vec<Vec<Vec<usize>>> {
    let mut buf: Vec<LinkId> = Vec::new();
    flows
        .iter()
        .map(|&flow| {
            (0..fabric.class_count())
                .map(|c| {
                    buf.clear();
                    fabric.append_links_via(flow, c, &mut buf);
                    buf.iter()
                        .map(|&l| inst.dense_index(l).expect("fabric links are finite"))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Seconds to water-fill every assignment once in scalar `S`.
fn replay_kernel<F: Fabric, S: Scalar>(
    fabric: &F,
    flows: &[Flow],
    assignments: &[Vec<usize>],
) -> f64 {
    let inst = WaterfillInstance::<S>::compile(fabric.network());
    let paths = class_paths(fabric, flows, &inst);
    let mut scratch = WaterfillScratch::<S>::new();
    let start = Instant::now();
    for a in assignments {
        scratch.begin();
        for (i, &c) in a.iter().enumerate() {
            scratch.push_flow(&paths[i][c]);
        }
        inst.run(&mut scratch);
        std::hint::black_box(scratch.rates());
    }
    secs(start)
}

/// Seconds to run `Problem::evaluate` on every assignment once.
fn replay_evaluate<F: Fabric>(fabric: &F, flows: &[Flow], assignments: &[Vec<usize>]) -> f64 {
    let problem = Problem::new(fabric, flows);
    let mut scratch = EvalScratch::default();
    let start = Instant::now();
    for a in assignments {
        problem.evaluate(&mut scratch, a);
        std::hint::black_box(scratch.rates());
    }
    secs(start)
}

/// The kernel and evaluate replays of a traced run: the same seeded
/// assignments through `Rational` and `TotalF64` on one compiled
/// instance per fabric, and through `Problem::evaluate`.
fn replay_layers(instances: &[Instance], seed: u64, out: &mut Outcome) {
    let (mut exact, mut float, mut eval, mut runs) = (0.0, 0.0, 0.0, 0usize);
    for (i, inst) in instances.iter().enumerate() {
        let mut rng = SplitMix64::new(derive(seed, 100 + i as u64));
        let classes = with_fabric!(&inst.net, f => f.class_count());
        let assignments: Vec<Vec<usize>> = (0..REPLAYS)
            .map(|_| inst.flows.iter().map(|_| rng.below(classes)).collect())
            .collect();
        with_fabric!(&inst.net, f => {
            exact += replay_kernel::<_, Rational>(f, &inst.flows, &assignments);
            float += replay_kernel::<_, TotalF64>(f, &inst.flows, &assignments);
            eval += replay_evaluate(f, &inst.flows, &assignments);
        });
        runs += assignments.len();
    }
    out.layer("rational.exact_over_f64", exact / float);
    out.layer("rational.exact_us_per_run", exact * 1e6 / runs as f64);
    out.layer("rational.f64_us_per_run", float * 1e6 / runs as f64);
    out.layer("core.evaluate_per_s", runs as f64 / eval);
}

/// Runs the `search` workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.param("threads", THREADS);
    out.param("setups", SETUPS);
    out.param(
        "instances",
        "hot4: C_4, 9 hot-ToR flows; benes3x4: B_3, 8-flow ring, interior 1/4; \
fattree4x2: k=4 fat-tree at 2:1, 6-flow ring; each lex and tput, in Rational",
    );
    out.param("replays_per_fabric", REPLAYS);

    let mut instances = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        instances = setup();
        out.setup_s.push(secs(start));
    }
    // The six optima, in a seeded order (the instances themselves are
    // fixed by the paper's constructions).
    let mut order: Vec<(usize, Objective)> = (0..instances.len())
        .flat_map(|i| [(i, Objective::Lex), (i, Objective::Tput)])
        .collect();
    let mut rng = SplitMix64::new(derive(cfg.seed, 1));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }

    let mut per_optimum: Vec<Vec<f64>> = vec![Vec::new(); order.len()];
    // Search statistics are deterministic: every pass reports the same.
    let mut last_stats: Vec<SearchStats> = Vec::new();
    let mut traced_passes = 0usize;
    let start = Instant::now();
    let mut pass_index = 0usize;
    // At least one untraced pass, and one traced pass when tracing.
    while secs(start) < cfg.seconds || pass_index < 1 + usize::from(cfg.trace) {
        let traced = cfg.trace && pass_index % 2 == 1;
        if traced {
            set_telemetry(true);
        }
        let mut pass = Vec::with_capacity(order.len());
        for &(instance, objective) in &order {
            let t = Instant::now();
            let (result, stats) = solve(&instances[instance], objective);
            pass.push(Solved {
                instance,
                objective,
                wall_s: secs(t),
                result,
                stats,
            });
        }
        set_telemetry(false);
        let wall: f64 = pass.iter().map(|s| s.wall_s).sum();
        if traced {
            traced_passes += 1;
            out.traced_unit_s.push(wall);
        } else {
            out.steps_ms.push(wall * 1e3);
            out.rates.push(pass.len() as f64 / wall);
            out.untraced_unit_s.push(wall);
            for (k, s) in pass.iter().enumerate() {
                per_optimum[k].push(s.wall_s);
            }
        }
        out.attempted += pass.len() as u64;
        let (failed, messages) = verify(&instances, &pass);
        if failed > 0 {
            out.fail(failed, messages.join("; "));
        }
        last_stats = pass.into_iter().map(|s| s.stats).collect();
        pass_index += 1;
    }

    let search_s = stats::median(&out.steps_ms).unwrap_or(0.0) / 1e3;
    out.named.push(format!(
        "search_s = {search_s:.6} s (median of {} passes over six optima, {THREADS} threads)",
        out.steps_ms.len()
    ));

    for (k, &(i, objective)) in order.iter().enumerate() {
        let tag = format!("{}-{}", instances[i].name, objective.name());
        let median = stats::median(&per_optimum[k]).unwrap_or(0.0);
        let examined = last_stats[k].routings_examined;
        out.named.push(format!(
            "optimum {tag}: {median:.6} s median, {examined} routings examined"
        ));
        if cfg.trace {
            out.layer(layer_name(&format!("core.search.{tag}.s")), median);
            out.layer(
                layer_name(&format!("core.search.{tag}.examined")),
                examined as f64,
            );
        }
    }
    if cfg.trace {
        let t = clos_telemetry::take_trace();
        out.layer("core.search.passes", traced_passes as f64);
        out.layer(
            "core.search.compile_s",
            spans::total_named(&t, "search.compile") as f64 * 1e-9,
        );
        // Enumeration, symmetry, keys and bounds: the blocks' and the
        // seed's own time (thread-seconds), without their waterfills.
        let own = spans::self_named(&t, "search.block") + spans::self_named(&t, "search.seed");
        out.layer("core.search.self_s", own as f64 * 1e-9);
        let sum = |f: fn(&SearchStats) -> u64| last_stats.iter().map(f).sum::<u64>() as f64;
        out.layer("core.search.examined", sum(|s| s.routings_examined));
        out.layer("core.search.pruned", sum(|s| s.pruned));
        out.layer("core.search.bound_pruned", sum(|s| s.profile.bound_pruned));
        out.layer(
            "core.search.symmetry_skipped",
            sum(|s| s.profile.symmetry_skipped),
        );
        out.layer("net.build_s", stats::median(&out.setup_s).unwrap_or(0.0));
        fairness_layers(&mut out, &t);
        out.spans = Some(t);
        // Telemetry is off again, so the replays record nothing.
        replay_layers(&instances, cfg.seed, &mut out);
    }
    out
}

/// The static name of a per-layer metric built at run time.
fn layer_name(name: &str) -> &'static str {
    crate::PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| unreachable!("unlisted layer metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved(instances: &[Instance], instance: usize) -> Vec<Solved> {
        [Objective::Lex, Objective::Tput]
            .into_iter()
            .map(|objective| {
                let (result, stats) = solve(&instances[instance], objective);
                Solved {
                    instance,
                    objective,
                    wall_s: 0.0,
                    result,
                    stats,
                }
            })
            .collect()
    }

    #[test]
    fn verification_accepts_optima_and_flags_tampering() {
        let instances = setup();
        // fattree4x2 is the cheapest instance to search.
        let mut pass = solved(&instances, 2);
        assert_eq!(verify(&instances, &pass), (0, Vec::new()));
        // A halved rate breaks the re-evaluation and the pinned total,
        // and drops tput's total below lex's.
        let mut rates = pass[1].result.allocation.rates().to_vec();
        rates[0] /= Rational::from_integer(2);
        pass[1].result.allocation = clos_fairness::Allocation::from_rates(rates);
        let (failed, messages) = verify(&instances, &pass);
        assert_eq!(failed, 2, "{messages:?}");
        assert!(messages.iter().any(|m| m.contains("re-evaluated")));
        assert!(messages.iter().any(|m| m.contains("pinned")));
    }
}
