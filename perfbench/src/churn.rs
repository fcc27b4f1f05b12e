//! The churn workloads: one pre-generated trace replayed back to back
//! by one caller (a closed loop) into a `ChurnEngine`, which the
//! benchmark flushes itself every `batch` events.
//!
//! * `churn-bulk` — `C_4`, uniform traffic, about 1.1×10⁵ live flows,
//!   a flush every 2048 events: one connected component, so every
//!   epoch recomputes everything.
//! * `churn-pods` — a k = 8 fat-tree with pod-local traffic, about 2000
//!   live flows, a flush after every event: eight independent
//!   components, so region reuse fires.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use clos_churn::{
    ChurnConfig, ChurnEngine, FlowEvent, OnlinePolicy, Pattern, SizeDist, TraceConfig,
    TraceGenerator,
};
use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{ClosNetwork, Fabric, FatTree, Flow, LinkId};
use clos_rational::{Rational, Scalar, TotalF64};

use crate::rng::SplitMix64;
use crate::{fairness_layers, secs, set_telemetry, spans, stats, Outcome, RunConfig};

/// The parameters of one churn workload.
#[derive(Clone, Copy, Debug)]
struct Spec {
    /// Poisson arrivals per simulated second.
    rate_per_s: u64,
    /// Mean exponential lifetime, simulated nanoseconds.
    mean_ns: u64,
    /// Events applied (then flushed once) during set-up so the measured
    /// part starts near the steady-state population.
    warmup: usize,
    /// Events replayed per flush.
    batch: usize,
    /// Flushes per throughput window.
    window_flushes: usize,
    /// Windows between sampled oracle checks (the end is always checked).
    verify_every: usize,
    /// Measured events pre-generated per requested second (the replay
    /// stops early if a run exhausts them).
    events_per_second_budget: usize,
    /// Set-ups per run.
    setups: usize,
}

const BULK: Spec = Spec {
    rate_per_s: 1_000_000,
    mean_ns: 110_000_000,
    warmup: 800_000,
    batch: 2048,
    window_flushes: 4,
    verify_every: 16,
    events_per_second_budget: 150_000,
    setups: 5,
};

const PODS: Spec = Spec {
    rate_per_s: 1_000_000,
    mean_ns: 2_000_000,
    warmup: 20_000,
    batch: 1,
    window_flushes: 512,
    verify_every: 4,
    events_per_second_budget: 25_000,
    setups: 5,
};

/// Fat-tree arity of `churn-pods`.
const PODS_K: usize = 8;

/// Upper bound on pre-generated measured events, whatever `--seconds`.
const MAX_MEASURED: usize = 8_000_000;

fn measured_events(spec: &Spec, seconds: f64) -> usize {
    ((spec.events_per_second_budget as f64 * seconds) as usize).min(MAX_MEASURED)
}

fn params(out: &mut Outcome, spec: &Spec, measured: usize) {
    out.param("policy", "greedy");
    out.param("scalar", "TotalF64");
    out.param("arrival_rate_per_s", spec.rate_per_s);
    out.param("mean_lifetime_ns", spec.mean_ns);
    out.param(
        "target_concurrency",
        spec.rate_per_s as f64 * spec.mean_ns as f64 * 1e-9,
    );
    out.param("warmup_events", spec.warmup);
    out.param("measured_events_max", measured);
    out.param("batch", spec.batch);
    out.param("window_flushes", spec.window_flushes);
    out.param("setups", spec.setups);
}

/// A set-up engine, warmed up, with its trace.
struct Prepared<F: Fabric> {
    engine: ChurnEngine<TotalF64, F>,
    trace: Vec<FlowEvent>,
}

/// Set-up phase timings, seconds.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    build: f64,
    trace_gen: f64,
    warmup: f64,
}

/// An engine that never flushes on its own: the benchmark calls
/// `flush` itself.
fn manual_engine<F: Fabric>(fabric: F) -> ChurnEngine<TotalF64, F> {
    ChurnEngine::new(
        fabric,
        OnlinePolicy::greedy(),
        ChurnConfig {
            batch: usize::MAX,
            verify: false,
        },
    )
}

/// Builds the engine and applies the warm-up prefix.
fn warm_up<F: Fabric>(fabric: F, trace: Vec<FlowEvent>, warmup: usize) -> Prepared<F> {
    let mut engine = manual_engine(fabric);
    for &ev in &trace[..warmup] {
        engine.apply(ev);
    }
    engine.flush();
    Prepared { engine, trace }
}

fn prepare_bulk(seed: u64, spec: &Spec, measured: usize) -> (Prepared<ClosNetwork>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let clos = ClosNetwork::standard(4);
    times.build = secs(t);
    let t = Instant::now();
    let config = TraceConfig {
        arrival_rate_per_sec: spec.rate_per_s,
        lifetime: SizeDist::Exponential {
            mean_ns: spec.mean_ns,
        },
        pattern: Pattern::Uniform,
        events: spec.warmup + measured,
        seed,
    };
    let trace: Vec<FlowEvent> = TraceGenerator::new(&clos, &config)
        .map(|e| e.event)
        .collect();
    times.trace_gen = secs(t);
    let t = Instant::now();
    let prepared = warm_up(clos, trace, spec.warmup);
    times.warmup = secs(t);
    (prepared, times)
}

/// Pod-local open-loop Poisson trace on a fat-tree: each arrival picks
/// a pod, then a source and a destination edge switch and host inside
/// it. Keys are dense in arrival order; departures come from a min-heap
/// of exponential lifetimes, as in `clos_churn::TraceGenerator`.
fn pod_trace(ft: &FatTree, spec: &Spec, events: usize, seed: u64) -> Vec<FlowEvent> {
    let half = ft.arity() / 2;
    let pods = ft.group_count() / half;
    let hosts = ft.hosts_per_group();
    let mut rng = SplitMix64::new(seed);
    let interarrival_ns = 1e9 / spec.rate_per_s as f64;
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut trace = Vec::with_capacity(events);
    let (mut now, mut key) = (0u64, 0u64);
    while trace.len() < events {
        if let Some(&Reverse((at, k))) = departures.peek() {
            if at <= now {
                departures.pop();
                trace.push(FlowEvent::Depart { key: k });
                continue;
            }
        }
        let pod = rng.below(pods);
        let src = ft.source(pod * half + rng.below(half), rng.below(hosts));
        let dst = ft.destination(pod * half + rng.below(half), rng.below(hosts));
        trace.push(FlowEvent::Arrive {
            key,
            flow: Flow::new(src, dst),
        });
        departures.push(Reverse((
            now + rng.exponential_ns(spec.mean_ns as f64),
            key,
        )));
        key += 1;
        now += rng.exponential_ns(interarrival_ns);
    }
    trace
}

fn prepare_pods(seed: u64, spec: &Spec, measured: usize) -> (Prepared<FatTree>, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let ft = FatTree::new(PODS_K, Rational::ONE);
    times.build = secs(t);
    let t = Instant::now();
    let trace = pod_trace(&ft, spec, spec.warmup + measured, seed);
    times.trace_gen = secs(t);
    let t = Instant::now();
    let prepared = warm_up(ft, trace, spec.warmup);
    times.warmup = secs(t);
    (prepared, times)
}

/// Full-recompute oracle: a fresh `WaterfillInstance` run over the
/// engine's live flows (slot order, the fabric path of each flow's
/// class) must reproduce every rate and bottleneck bit for bit.
struct Oracle {
    instance: WaterfillInstance<TotalF64>,
    scratch: WaterfillScratch<TotalF64>,
    path: Vec<LinkId>,
    dense: Vec<usize>,
}

impl Oracle {
    fn new<F: Fabric>(fabric: &F) -> Oracle {
        Oracle {
            instance: WaterfillInstance::compile(fabric.network()),
            scratch: WaterfillScratch::new(),
            path: Vec::new(),
            dense: Vec::new(),
        }
    }

    /// Number of live flows whose rate or bottleneck differs (or that
    /// could not be checked) — 0 when the engine is exact.
    fn mismatches<F: Fabric>(&mut self, engine: &ChurnEngine<TotalF64, F>) -> usize {
        let mut keys = Vec::with_capacity(engine.live());
        let mut broken = 0usize;
        self.scratch.begin();
        for (key, _) in engine.live_flows() {
            let (Some(flow), Some(class)) = (engine.flow(key), engine.class_of(key)) else {
                broken += 1;
                continue;
            };
            self.path.clear();
            engine
                .fabric()
                .append_links_via(flow, class, &mut self.path);
            self.dense.clear();
            for &l in &self.path {
                self.dense.push(
                    self.instance
                        .dense_index(l)
                        .expect("fabric links are finite"),
                );
            }
            self.scratch.push_flow(&self.dense);
            keys.push(key);
        }
        if keys.is_empty() {
            return broken;
        }
        self.instance.run(&mut self.scratch);
        let rates = self.scratch.rates();
        let bottlenecks = self.scratch.bottlenecks();
        for (i, &key) in keys.iter().enumerate() {
            let rate_ok = engine
                .rate(key)
                .is_some_and(|r| r.to_f64().to_bits() == rates[i].to_f64().to_bits());
            let neck_ok = engine.bottleneck(key) == Some(self.instance.link_id(bottlenecks[i]));
            if !(rate_ok && neck_ok) {
                broken += 1;
            }
        }
        broken
    }
}

/// The oracle plus the live count the applied trace prefix implies.
struct Checker {
    oracle: Oracle,
    live: i64,
    checked_to: usize,
}

impl Checker {
    fn advance(&mut self, trace: &[FlowEvent], upto: usize) {
        for e in &trace[self.checked_to..upto] {
            self.live += if e.is_arrival() { 1 } else { -1 };
        }
        self.checked_to = upto;
    }

    /// Checks the engine after `upto` trace events.
    fn check<F: Fabric>(
        &mut self,
        engine: &ChurnEngine<TotalF64, F>,
        trace: &[FlowEvent],
        upto: usize,
        out: &mut Outcome,
    ) {
        self.advance(trace, upto);
        let bad = self.oracle.mismatches(engine);
        if bad > 0 {
            out.fail(
                1,
                format!("{bad} live flows differ from the full recompute after {upto} events"),
            );
        }
        if engine.live() as i64 != self.live || engine.stats().events != upto as u64 {
            out.fail(
                1,
                format!(
                    "engine reports {} live flows and {} events, the trace implies {} and {upto}",
                    engine.live(),
                    engine.stats().events,
                    self.live
                ),
            );
        }
    }
}

/// Per-layer accumulators over the traced windows.
#[derive(Default)]
struct Traced {
    events: u64,
    wall_s: f64,
    apply_s: f64,
    flush_s: f64,
    epochs: u64,
    dirty_links: u64,
    recomputed: u64,
    reused: u64,
}

/// Replays the measured part of the trace; fills `out`.
fn measure<F: Fabric>(
    p: &mut Prepared<F>,
    spec: &Spec,
    cfg: &RunConfig,
    times: &[SetupTimes],
    out: &mut Outcome,
) {
    let mut checker = Checker {
        oracle: Oracle::new(p.engine.fabric()),
        live: 0,
        checked_to: 0,
    };
    checker.advance(&p.trace, spec.warmup);
    let engine = &mut p.engine;
    let trace = &p.trace;
    let mut traced = Traced::default();
    let mut pos = spec.warmup;
    let mut window = 0usize;
    let mut exhausted = false;
    let start = Instant::now();
    loop {
        let both_kinds = !cfg.trace || window >= 2;
        if secs(start) >= cfg.seconds && both_kinds {
            break;
        }
        if pos + spec.batch * spec.window_flushes > trace.len() {
            exhausted = true;
            break;
        }
        let is_traced = cfg.trace && window % 2 == 1;
        let before = engine.stats();
        if is_traced {
            set_telemetry(true);
        }
        let (mut apply_s, mut flush_s) = (0.0, 0.0);
        let window_start = Instant::now();
        for _ in 0..spec.window_flushes {
            let t0 = Instant::now();
            for &ev in &trace[pos..pos + spec.batch] {
                engine.apply(ev);
            }
            let t1 = Instant::now();
            engine.flush();
            let t2 = Instant::now();
            pos += spec.batch;
            let (a, f) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
            apply_s += a;
            flush_s += f;
            if !is_traced {
                out.steps_ms.push(f * 1e3);
            }
        }
        let wall_s = secs(window_start);
        set_telemetry(false);
        let events = (spec.batch * spec.window_flushes) as u64;
        let per_event = (apply_s + flush_s) / events as f64;
        if is_traced {
            let after = engine.stats();
            traced.events += events;
            traced.wall_s += wall_s;
            traced.apply_s += apply_s;
            traced.flush_s += flush_s;
            traced.epochs += after.epochs - before.epochs;
            traced.dirty_links += after.dirty_links - before.dirty_links;
            traced.recomputed += after.recomputed_flows - before.recomputed_flows;
            traced.reused += after.reused_flows - before.reused_flows;
            out.traced_unit_s.push(per_event);
        } else {
            out.rates.push(1.0 / per_event);
            out.untraced_unit_s.push(per_event);
        }
        out.attempted += events;
        window += 1;
        if window.is_multiple_of(spec.verify_every) {
            checker.check(engine, trace, pos, out);
        }
    }
    if checker.checked_to != pos {
        checker.check(engine, trace, pos, out);
    }

    let total = engine.stats();
    let ops = stats::median(&out.rates).unwrap_or(0.0);
    out.named.push(format!(
        "events_per_s = {ops:.1} 1/s (median of {} windows of {} events)",
        out.rates.len(),
        spec.batch * spec.window_flushes
    ));
    let p50 = stats::median(&out.steps_ms).unwrap_or(0.0);
    out.named.push(format!(
        "epoch_ms_p50 = {p50:.6} ms (median of {} flushes)",
        out.steps_ms.len()
    ));
    out.named.push(match stats::tail(&out.steps_ms) {
        Some(t) => format!(
            "epoch_ms_tail = {:.6} ms (p{}, {} of {} flushes beyond it)",
            t.value, t.percentile, t.beyond, t.samples
        ),
        None => format!(
            "epoch_ms_tail = n/a (fewer than {} flushes beyond the median)",
            stats::TAIL_BEYOND
        ),
    });
    let base = total.reused_flows + total.recomputed_flows;
    out.named.push(format!(
        "engine: {} live flows, {} epochs, reused {} of {} flow-rates{}",
        engine.live(),
        total.epochs,
        total.reused_flows,
        base,
        if exhausted {
            "; measured trace exhausted"
        } else {
            ""
        }
    ));

    let median_of = |f: fn(&SetupTimes) -> f64| {
        stats::median(&times.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    if cfg.trace {
        let t = clos_telemetry::take_trace();
        out.layer("churn.events", traced.events as f64);
        out.layer("churn.wall_s", traced.wall_s);
        out.layer("churn.apply_s", traced.apply_s);
        out.layer("churn.flush_s", traced.flush_s);
        out.layer(
            "churn.flush.waterfill_s",
            spans::total_under(&t, "churn.epoch", "waterfill") as f64 * 1e-9,
        );
        out.layer(
            "churn.flush.other_s",
            spans::self_named(&t, "churn.epoch") as f64 * 1e-9,
        );
        out.layer("churn.epochs", traced.epochs as f64);
        out.layer("churn.dirty_links", traced.dirty_links as f64);
        out.layer("churn.recomputed_flows", traced.recomputed as f64);
        out.layer("churn.reused_flows", traced.reused as f64);
        let reuse_base = traced.reused + traced.recomputed;
        out.layer("churn.reuse_base", reuse_base as f64);
        if reuse_base > 0 {
            out.layer(
                "churn.reuse_ratio",
                traced.reused as f64 / reuse_base as f64,
            );
        }
        out.layer("churn.trace_gen_s", median_of(|s| s.trace_gen));
        out.layer("churn.warmup_s", median_of(|s| s.warmup));
        out.layer("net.build_s", median_of(|s| s.build));
        fairness_layers(out, &t);
        out.spans = Some(t);
    }
}

/// Runs `churn-bulk`.
pub fn run_bulk(cfg: &RunConfig) -> Outcome {
    let spec = BULK;
    let measured = measured_events(&spec, cfg.seconds);
    let mut out = Outcome::default();
    out.param("fabric", "C_4 (128 links, 4 routing classes)");
    out.param("pattern", "uniform");
    params(&mut out, &spec, measured);
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..spec.setups {
        drop(prepared.take()); // release the previous set-up first
        let start = Instant::now();
        let (p, t) = prepare_bulk(cfg.seed, &spec, measured);
        out.setup_s.push(secs(start));
        times.push(t);
        prepared = Some(p);
    }
    let mut p = prepared.expect("at least one set-up");
    measure(&mut p, &spec, cfg, &times, &mut out);
    out
}

/// Runs `churn-pods`.
pub fn run_pods(cfg: &RunConfig) -> Outcome {
    let spec = PODS;
    let measured = measured_events(&spec, cfg.seconds);
    let mut out = Outcome::default();
    out.param(
        "fabric",
        "fat-tree k=8 at 1:1 (768 links, 16 routing classes, 8 pods)",
    );
    out.param("pattern", "pod-local uniform");
    params(&mut out, &spec, measured);
    let mut times = Vec::new();
    let mut prepared = None;
    for _ in 0..spec.setups {
        drop(prepared.take());
        let start = Instant::now();
        let (p, t) = prepare_pods(cfg.seed, &spec, measured);
        out.setup_s.push(secs(start));
        times.push(t);
        prepared = Some(p);
    }
    let mut p = prepared.expect("at least one set-up");
    measure(&mut p, &spec, cfg, &times, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_bulk_trace(seed: u64) -> (ClosNetwork, Vec<FlowEvent>) {
        let clos = ClosNetwork::standard(3);
        let config = TraceConfig {
            arrival_rate_per_sec: 1_000_000,
            lifetime: SizeDist::Exponential { mean_ns: 3_000_000 },
            pattern: Pattern::Uniform,
            events: 20_000,
            seed,
        };
        let trace = TraceGenerator::new(&clos, &config)
            .map(|e| e.event)
            .collect();
        (clos, trace)
    }

    /// The premise of the apply/flush split: flushing by hand every `B`
    /// events leaves the engine exactly where `batch: B` does.
    #[test]
    fn manual_flush_matches_configured_batch() {
        for (batch, seed) in [(1usize, 3u64), (64, 4), (2048, 5)] {
            let (clos, trace) = small_bulk_trace(seed);
            let mut auto = ChurnEngine::<TotalF64, _>::new(
                clos.clone(),
                OnlinePolicy::greedy(),
                ChurnConfig {
                    batch,
                    verify: false,
                },
            );
            let mut manual = manual_engine(clos);
            for chunk in trace.chunks(batch) {
                for &ev in chunk {
                    auto.apply(ev);
                    manual.apply(ev);
                }
                if chunk.len() == batch {
                    manual.flush();
                    assert_eq!(auto.pending(), 0, "the configured engine flushed");
                    assert_eq!(auto.checksum(), manual.checksum(), "batch {batch}");
                }
            }
            auto.flush();
            manual.flush();
            assert_eq!(auto.checksum(), manual.checksum(), "batch {batch}");
            assert_eq!(auto.stats().epochs, manual.stats().epochs);
        }
    }

    #[test]
    fn oracle_accepts_the_engine() {
        let (clos, trace) = small_bulk_trace(9);
        let mut engine = manual_engine(clos);
        let mut oracle = Oracle::new(engine.fabric());
        for chunk in trace.chunks(512) {
            for &ev in chunk {
                engine.apply(ev);
            }
            engine.flush();
            assert_eq!(oracle.mismatches(&engine), 0);
        }
    }

    #[test]
    fn pod_trace_is_pod_local_and_seeded() {
        let ft = FatTree::new(4, Rational::ONE);
        let spec = Spec {
            mean_ns: 50_000,
            ..PODS
        };
        let a = pod_trace(&ft, &spec, 5_000, 11);
        assert_eq!(a, pod_trace(&ft, &spec, 5_000, 11));
        assert_ne!(a, pod_trace(&ft, &spec, 5_000, 12));
        let half = ft.arity() / 2;
        let mut live = 0i64;
        for ev in &a {
            match *ev {
                FlowEvent::Arrive { flow, .. } => {
                    live += 1;
                    let (sg, _) = ft.source_coords(flow.src()).expect("source");
                    let (dg, _) = ft.destination_coords(flow.dst()).expect("destination");
                    assert_eq!(sg / half, dg / half, "same pod");
                }
                FlowEvent::Depart { .. } => live -= 1,
            }
            assert!(live >= 0);
        }
        assert!(a.iter().any(|e| !e.is_arrival()), "flows depart");
    }

    /// Pods are independent components: a per-event flush recomputes
    /// one pod and reuses the rest.
    #[test]
    fn pod_traffic_reuses_regions() {
        let ft = FatTree::new(PODS_K, Rational::ONE);
        let trace = pod_trace(&ft, &PODS, 6_000, 1);
        let mut p = warm_up(ft, trace, 4_000);
        for i in 4_000..6_000 {
            p.engine.apply(p.trace[i]);
            p.engine.flush();
        }
        let s = p.engine.stats();
        assert!(s.reused_flows > s.recomputed_flows, "{s:?}");
        assert_eq!(Oracle::new(p.engine.fabric()).mismatches(&p.engine), 0);
    }
}
