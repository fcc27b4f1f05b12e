//! The `fct` workload: `clos_sim::simulate_fct_records` on `C_4` under
//! both transports, one pair of simulations per step.

use std::time::Instant;

use clos_net::ClosNetwork;
use clos_sim::{simulate_fct_records, FctConfig, FlowRecord, PathPolicy, SizeDist, Transport};

use crate::rng::derive;
use crate::{fairness_layers, secs, set_telemetry, spans, stats, Outcome, RunConfig};

/// Offered load per host link.
const LOAD: f64 = 0.8;
/// Mean of the exponential flow sizes (capacity·time units).
const MEAN_SIZE: f64 = 1.0;
/// Flows per simulation.
const FLOWS: usize = 400;
/// Set-ups per run.
const SETUPS: usize = 201;

/// The simulator retires a flow once its remaining size is within
/// 1e-12·max(size, 1) of zero, so a completion time may undershoot the
/// size by that much (plus rounding).
fn fct_ok(r: &FlowRecord) -> bool {
    r.fct >= r.size - 1e-9 * r.size.max(1.0)
}

/// Checks one simulation's records; returns the failure count and a
/// message for the first failure.
fn verify(records: &[FlowRecord], completed: usize) -> (u64, Option<String>) {
    let short = FLOWS.saturating_sub(records.len().min(completed)) as u64;
    let bad = records.iter().filter(|r| !fct_ok(r)).count() as u64;
    let message = if short > 0 {
        Some(format!(
            "{completed} of {FLOWS} flows completed ({} records)",
            records.len()
        ))
    } else {
        records
            .iter()
            .find(|r| !fct_ok(r))
            .map(|r| format!("flow of size {} completed in {}", r.size, r.fct))
    };
    (short + bad, message)
}

/// Builds the fabric and the simulation template (each step reseeds
/// it).
fn setup(seed: u64) -> (ClosNetwork, FctConfig) {
    let clos = ClosNetwork::standard(4);
    let hosts = (clos.tor_count() * clos.hosts_per_tor()) as f64;
    let template = FctConfig {
        arrival_rate: LOAD * hosts / MEAN_SIZE,
        size_dist: SizeDist::Exponential(MEAN_SIZE),
        flow_count: FLOWS,
        seed,
    };
    (clos, template)
}

/// Runs the `fct` workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.param("fabric", "C_4 (32 hosts)");
    out.param("load", LOAD);
    out.param("size_dist", "exponential");
    out.param("mean_size", MEAN_SIZE);
    out.param("flows_per_simulation", FLOWS);
    out.param("path_policy", "least-loaded");
    out.param("transports", "fair-sharing, scheduling");
    out.param("setups", SETUPS);

    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        built = Some(setup(cfg.seed));
        out.setup_s.push(secs(start));
    }
    let (clos, template) = built.expect("at least one set-up");
    out.param("arrival_rate", template.arrival_rate);

    let (mut fair_s, mut sched_s, mut traced_flows) = (0.0, 0.0, 0u64);
    let start = Instant::now();
    let mut step = 0u64;
    while secs(start) < cfg.seconds || step < 1 + u64::from(cfg.trace) {
        let traced = cfg.trace && step % 2 == 1;
        let config = FctConfig {
            seed: derive(cfg.seed, step),
            ..template
        };
        if traced {
            set_telemetry(true);
        }
        let t0 = Instant::now();
        let (fair, fair_records) = simulate_fct_records(
            &clos,
            &config,
            Transport::FairSharing,
            PathPolicy::LeastLoaded,
        );
        let t1 = Instant::now();
        let (sched, sched_records) = simulate_fct_records(
            &clos,
            &config,
            Transport::Scheduling,
            PathPolicy::LeastLoaded,
        );
        let t2 = Instant::now();
        set_telemetry(false);
        let (f, s) = ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64());
        if traced {
            fair_s += f;
            sched_s += s;
            traced_flows += FLOWS as u64;
            out.traced_unit_s.push(f + s);
        } else {
            out.steps_ms.push((f + s) * 1e3);
            out.rates.push(2.0 * FLOWS as f64 / (f + s));
            out.untraced_unit_s.push(f + s);
        }
        out.attempted += 2 * FLOWS as u64;
        for (name, stats, records) in [
            ("fair-sharing", fair, fair_records),
            ("scheduling", sched, sched_records),
        ] {
            let (failed, message) = verify(&records, stats.completed);
            if failed > 0 {
                out.fail(
                    failed,
                    format!(
                        "{name} seed {}: {}",
                        config.seed,
                        message.unwrap_or_default()
                    ),
                );
            }
        }
        step += 1;
    }

    let ops = stats::median(&out.rates).unwrap_or(0.0);
    out.named.push(format!(
        "fct_flows_per_s = {ops:.1} 1/s (median of {} simulation pairs, {FLOWS} flows each)",
        out.rates.len()
    ));
    if cfg.trace {
        let t = clos_telemetry::take_trace();
        let kernel = spans::total_named(&t, "waterfill") as f64 * 1e-9;
        out.layer("sim.fct.flows", traced_flows as f64);
        out.layer("sim.fct.fair_s", fair_s);
        out.layer("sim.fct.sched_s", sched_s);
        if fair_s > 0.0 {
            out.layer("sim.fct.kernel_share", kernel / fair_s);
        }
        if traced_flows > 0 {
            out.layer(
                "sim.fct.waterfill_per_flow",
                clos_telemetry::counters::WATERFILL_CALLS.get() as f64 / traced_flows as f64,
            );
        }
        out.layer("net.build_s", stats::median(&out.setup_s).unwrap_or(0.0));
        fairness_layers(&mut out, &t);
        out.spans = Some(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_flags_short_and_too_fast_flows() {
        let ok = FlowRecord {
            arrival: 0.0,
            size: 2.0,
            fct: 2.0,
        };
        let records = vec![ok; FLOWS];
        assert_eq!(verify(&records, FLOWS).0, 0);
        let mut fast = records.clone();
        fast[3].fct = 1.5;
        let (failed, message) = verify(&fast, FLOWS);
        assert_eq!(failed, 1);
        assert!(message.expect("message").contains("size 2"));
        assert_eq!(verify(&records[..FLOWS - 2], FLOWS - 2).0, 2);
    }
}
