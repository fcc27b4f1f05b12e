//! `OnlinePolicy::LeastLoaded` against the FCT simulator's placement
//! rule, recomputed from scratch for every arrival.

use clos_churn::{ChurnConfig, ChurnEngine, FlowEvent, OnlinePolicy};
use clos_net::{ClosNetwork, Flow};
use clos_rational::TotalF64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// On Clos, least-loaded placement is the FCT simulator's rule: the
/// middle switch with the fewest live flows on the arrival's uplink
/// plus its downlink, counted by a scan over every live flow, ties to
/// the lowest index. The trace also departs flows, so counts fall as
/// well as rise, and it must hit arrivals where the busier-link rule
/// (greedy) would choose differently.
#[test]
fn least_loaded_places_like_the_uplink_plus_downlink_scan() {
    let clos = ClosNetwork::standard(3);
    let (n, tors, hosts) = (clos.middle_count(), clos.tor_count(), clos.hosts_per_tor());
    let mut e = ChurnEngine::<TotalF64>::new(
        clos.clone(),
        OnlinePolicy::LeastLoaded,
        ChurnConfig {
            batch: 64,
            verify: false,
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let mut live: Vec<(u64, Flow, usize)> = Vec::new();
    let mut differs_from_max = 0;
    for key in 0..600u64 {
        if !live.is_empty() && rng.gen_range(0..3) == 0 {
            let (gone, _, _) = live.swap_remove(rng.gen_range(0..live.len()));
            e.apply(FlowEvent::Depart { key: gone });
        }
        let flow = Flow::new(
            clos.source(rng.gen_range(0..tors), rng.gen_range(0..hosts)),
            clos.destination(rng.gen_range(0..tors), rng.gen_range(0..hosts)),
        );
        let (mut up, mut down) = (vec![0usize; n], vec![0usize; n]);
        for &(_, f, m) in &live {
            if clos.src_tor(f) == clos.src_tor(flow) {
                up[m] += 1;
            }
            if clos.dst_tor(f) == clos.dst_tor(flow) {
                down[m] += 1;
            }
        }
        let scan = (0..n).min_by_key(|&m| (up[m] + down[m], m)).unwrap();
        let busier = (0..n).min_by_key(|&m| (up[m].max(down[m]), m)).unwrap();
        differs_from_max += usize::from(scan != busier);
        e.apply(FlowEvent::Arrive { key, flow });
        assert_eq!(e.class_of(key), Some(scan), "arrival {key}");
        live.push((key, flow, scan));
    }
    assert!(e.stats().peak_live >= 100);
    assert!(
        differs_from_max > 0,
        "the trace never separates sum from max"
    );
}
