//! Per-event online routing policies.
//!
//! The batch routers in `clos-core` rebuild their congestion state from
//! the full flow collection on every call, so they cannot be invoked
//! per event (each call would see an empty fabric and pick middle 0).
//! [`OnlinePolicy`] mirrors their per-flow decision rules over the
//! engine's *persistent* live-flow counts instead, with unit demands as
//! the congestion proxy (under churn the offered flows have no demand —
//! max-min rates are outputs, so the live-flow count per fabric link is
//! the natural online load signal):
//!
//! * [`OnlinePolicy::Ecmp`] — a uniformly random middle switch per
//!   arrival. Draws from the same `StdRng` stream as
//!   `clos_core::routers::EcmpRouter`, so with equal seeds an
//!   arrival-only trace reproduces ECMP's choices byte for byte (a
//!   churn test pins this).
//! * Greedy (cf. `GreedyRouter`) — the routing class minimizing the
//!   path's post-placement congestion, ties to the lowest index.
//! * First fit (cf. `FirstFitRouter`) — the first routing class whose
//!   interior links all still have room for one more unit-demand flow,
//!   falling back to the least congested class.
//! * [`OnlinePolicy::LeastLoaded`] — the class whose interior links carry
//!   the fewest live flows in total (on Clos, uplink plus downlink), ties
//!   to the lowest index: the FCT simulator's rule, with no CLI name.
//!
//! Placed flows are never moved: a policy decision is final until the
//! flow departs, which is exactly the unsplittable-flow constraint the
//! paper's impossibility results are about.

use clos_rational::Rational;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An online middle-switch selection policy (see module docs).
#[derive(Clone, Debug)]
pub enum OnlinePolicy {
    /// ECMP: every arrival hashes to a uniformly random middle switch.
    Ecmp {
        /// The deterministic random stream behind the hash.
        rng: StdRng,
    },
    /// Greedy congestion-aware placement over live-flow counts.
    Greedy,
    /// Global first fit over live-flow counts with a least-congested
    /// fallback.
    FirstFit,
    /// Least-loaded placement over summed live-flow counts.
    LeastLoaded,
}

/// The live-flow load of one candidate path's interior links.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct ClassLoad {
    /// The largest count (on Clos, the busier of uplink and downlink).
    pub(crate) max: u32,
    /// The summed count (on Clos, uplink plus downlink).
    pub(crate) sum: u32,
}

impl OnlinePolicy {
    /// Creates the ECMP policy with a deterministic seed.
    #[must_use]
    pub fn ecmp(seed: u64) -> OnlinePolicy {
        OnlinePolicy::Ecmp {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates the greedy policy.
    #[must_use]
    pub fn greedy() -> OnlinePolicy {
        OnlinePolicy::Greedy
    }

    /// Creates the first-fit policy.
    #[must_use]
    pub fn first_fit() -> OnlinePolicy {
        OnlinePolicy::FirstFit
    }

    /// Parses a policy name as used on bench command lines
    /// (`"ecmp"`, `"greedy"`, `"first-fit"`); `seed` feeds ECMP.
    #[must_use]
    pub fn from_name(name: &str, seed: u64) -> Option<OnlinePolicy> {
        match name {
            "ecmp" => Some(OnlinePolicy::ecmp(seed)),
            "greedy" => Some(OnlinePolicy::greedy()),
            "first-fit" => Some(OnlinePolicy::first_fit()),
            _ => None,
        }
    }

    /// Returns the policy's short name, matching the corresponding
    /// `clos-core` router's `name()`.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            OnlinePolicy::Ecmp { .. } => "ecmp",
            OnlinePolicy::Greedy => "greedy",
            OnlinePolicy::FirstFit => "first-fit",
            OnlinePolicy::LeastLoaded => "least-loaded",
        }
    }

    /// Picks the routing class for one arriving flow.
    ///
    /// `loads[c]` is the interior load of the flow's candidate path via
    /// class `c` (greedy and first fit read its maximum, least-loaded its
    /// sum); `capacity` is the nominal fabric link capacity consulted by
    /// first fit. The slice has one entry per class and must be non-empty.
    pub(crate) fn pick_class(&mut self, loads: &[ClassLoad], capacity: Rational) -> usize {
        let n = loads.len();
        match self {
            OnlinePolicy::Ecmp { rng } => rng.gen_range(0..n),
            // Path congestion after placing one unit-demand flow.
            OnlinePolicy::Greedy => lowest(n, |c| loads[c].max + 1),
            OnlinePolicy::FirstFit => (0..n)
                .find(|&c| Rational::from_integer(i128::from(loads[c].max) + 1) <= capacity)
                // No class fits: fall back to least congestion, as
                // FirstFitRouter does.
                .unwrap_or_else(|| lowest(n, |c| loads[c].max)),
            OnlinePolicy::LeastLoaded => lowest(n, |c| loads[c].sum),
        }
    }
}

/// The class in `0..n` with the smallest `key`, ties to the lowest index.
fn lowest(n: usize, key: impl Fn(usize) -> u32) -> usize {
    let Some(best) = (0..n).min_by_key(|&c| (key(c), c)) else {
        unreachable!("class count is positive")
    };
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads whose maximum and sum are both `max` (one interior link).
    fn maxes(max: &[u32]) -> Vec<ClassLoad> {
        max.iter().map(|&m| ClassLoad { max: m, sum: m }).collect()
    }

    #[test]
    fn names_round_trip() {
        for name in ["ecmp", "greedy", "first-fit"] {
            let p = OnlinePolicy::from_name(name, 1);
            assert_eq!(p.map(|p| p.name()), Some(name));
        }
        assert!(OnlinePolicy::from_name("annealing", 1).is_none());
        // Least-loaded is the FCT simulator's rule, not a bench option.
        assert_eq!(OnlinePolicy::LeastLoaded.name(), "least-loaded");
        assert!(OnlinePolicy::from_name("least-loaded", 1).is_none());
    }

    #[test]
    fn greedy_balances_and_breaks_ties_low() {
        let mut p = OnlinePolicy::greedy();
        let cap = Rational::ONE;
        // All empty: lowest index wins.
        assert_eq!(p.pick_class(&maxes(&[0, 0, 0]), cap), 0);
        // Class 0 loaded: spill to 1.
        assert_eq!(p.pick_class(&maxes(&[2, 0, 0]), cap), 1);
        // The max over a path's interior links is what spills.
        assert_eq!(p.pick_class(&maxes(&[3, 3, 1]), cap), 2);
    }

    #[test]
    fn first_fit_takes_first_fitting_then_falls_back() {
        let mut p = OnlinePolicy::first_fit();
        let cap = Rational::from_integer(2);
        // Class 0 is full (2 live flows), 1 fits.
        assert_eq!(p.pick_class(&maxes(&[2, 1, 0]), cap), 1);
        // Nothing fits: least-congested fallback, ties to lowest index.
        assert_eq!(p.pick_class(&maxes(&[3, 4, 2]), cap), 2);
    }

    #[test]
    fn ecmp_is_seed_deterministic() {
        let cap = Rational::ONE;
        let idle = maxes(&[0; 4]);
        let mut a = OnlinePolicy::ecmp(9);
        let mut b = OnlinePolicy::ecmp(9);
        for _ in 0..64 {
            assert_eq!(a.pick_class(&idle, cap), b.pick_class(&idle, cap));
        }
    }

    #[test]
    fn least_loaded_takes_the_smallest_sum_ties_low() {
        let mut p = OnlinePolicy::LeastLoaded;
        let load = |max, sum| ClassLoad { max, sum };
        // The sum decides, not the maximum; equal sums go to the lowest.
        let loads = [load(3, 5), load(4, 4), load(2, 4), load(1, 6)];
        assert_eq!(p.pick_class(&loads, Rational::ONE), 1);
        assert_eq!(p.pick_class(&maxes(&[2, 2, 2]), Rational::ONE), 0);
    }
}
