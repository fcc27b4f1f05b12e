//! The incremental churn engine.
//!
//! [`ChurnEngine`] maintains the max-min fair allocation of a
//! multi-stage fabric (any [`Fabric`], a Clos network by default) under
//! online flow churn. Each [`FlowEvent`] routes (on arrival, via an
//! [`OnlinePolicy`] choosing among the fabric's routing classes) or
//! removes one flow and marks the links the flow crosses *dirty*; after
//! a configurable batch of events an *epoch* recomputes rates — but
//! only for the *dirty region*, the connected component(s) of the
//! flow↔link incidence graph reachable from a dirty link. Flows outside
//! the region kept their membership lists and link loads unchanged, so
//! their rates are provably unaffected and are reused verbatim.
//!
//! # Bit-identical incrementality
//!
//! Water-filling decomposes over connected components: rounds in one
//! component never influence another (the fill level of a link depends
//! only on its own members and frozen load). The epoch recompute pushes
//! just the region's flows, in ascending slot order, into a run of the
//! engine's one full [`WaterfillInstance`]; the run scans only links
//! with unfrozen members, in dense (= network link) order, so the
//! region's freezing order and bottleneck scan order are those of a
//! full run restricted to the region. The recomputed rates and
//! bottlenecks are therefore **bit-identical** (in both exact-rational
//! and `TotalF64` modes) to a fresh full run over the live set, and the
//! engine's [`levels`](ChurnEngine::levels) equal the fresh run's up to
//! the sorted-dedup normalization described on that method. The
//! `verify` flag of [`ChurnConfig`] asserts exactly that against a
//! full-recompute oracle after every epoch, and the
//! `incremental_oracle` proptest suite pins it over random traces.
//!
//! # Whole-fabric epochs
//!
//! When every busy link (one with live flows) will be expanded, the
//! region is every live flow, so the closure stops early. The engine
//! keeps a running count of busy links; the closure counts the links it
//! will expand (the seeds with live members, plus every link it pushes)
//! and, once that count reaches the busy count, takes the live slots in
//! ascending order without scanning further members or sorting. The
//! exit is exact: each live flow crosses at least one busy link, and
//! each counted link is busy and counted once. A zero-capacity link
//! that is not a seed is never expanded and never counted, so the exit
//! cannot fire past a failure cut. On a single-component fabric (a
//! 3-stage Clos under uniform traffic) a large batch's seeds alone
//! cover every busy link; pod-local traffic on a fat-tree never fires
//! it and keeps its region reuse. With `verify` set, every epoch also
//! re-runs the closure without the exit and asserts the same slots.
//!
//! Because routing, slot assignment, and link bookkeeping all happen at
//! *apply* time (they are pure functions of the event prefix), the
//! engine's state after `apply`ing a prefix and [`flush`]ing is
//! independent of the batch size — two engines fed the same trace with
//! different batches agree byte-for-byte at every common flushed
//! checkpoint (CI byte-diffs published epochs at two batch sizes).
//!
//! Nothing here assumes the Clos shape: paths may have any length up to
//! [`Fabric::max_path_len`] (slot link/position tables are flat arrays
//! with that stride), and congestion bookkeeping is a live-flow count
//! per dense link rather than per (ToR, middle) pair. On a Clos fabric
//! the interior of a path is exactly its uplink and downlink, so the
//! per-class load maxima the policy sees — and hence every placement —
//! are identical to the historical ToR-sharded matrices.
//!
//! [`flush`]: ChurnEngine::flush

use clos_fairness::{WaterfillInstance, WaterfillScratch};
use clos_net::{CapacityMap, ClosNetwork, Fabric, Flow, LinkId};
use clos_rational::{Rational, Scalar};
use clos_telemetry::{counters, timers};

use crate::event::{FlowEvent, FlowKey};
use crate::policy::OnlinePolicy;
use crate::reroute::{LocalReroute, RerouteOutcome};

/// Sentinel in the key→slot table: the key has no live flow.
const NO_SLOT: u32 = u32::MAX;

/// Engine configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChurnConfig {
    /// Events buffered between recompute epochs; must be at least 1.
    /// Larger batches amortize region recomputation over more events at
    /// the cost of staler published rates.
    pub batch: usize,
    /// When set, every epoch is checked against a full-recompute oracle
    /// (rates, bottlenecks, and levels must match bit for bit). Orders
    /// of magnitude slower; meant for tests and debugging.
    pub verify: bool,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            batch: 1024,
            verify: false,
        }
    }
}

/// Cumulative engine statistics (mirrors the `churn.*` telemetry
/// counters, but always on and per-engine).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecomputeStats {
    /// Recompute epochs run.
    pub epochs: u64,
    /// Dirty links across all epochs (before closure).
    pub dirty_links: u64,
    /// Live flows recomputed by epochs (inside dirty regions).
    pub recomputed_flows: u64,
    /// Live flows whose cached rates epochs reused.
    pub reused_flows: u64,
    /// Events applied.
    pub events: u64,
    /// Arrivals applied.
    pub arrivals: u64,
    /// Departures applied.
    pub departures: u64,
    /// Maximum concurrent live flows observed.
    pub peak_live: u64,
    /// Failure overlays applied (calls that changed at least one link).
    pub failures: u64,
    /// Links whose capacity failure overlays changed.
    pub degraded_links: u64,
    /// Flows moved by [`reroute_failed`](ChurnEngine::reroute_failed).
    pub rerouted_flows: u64,
    /// Flows `reroute_failed` found stuck (no surviving path).
    pub reroute_dead_ends: u64,
}

/// One flow's bookkeeping (slots are reused through a free list after
/// the flow departs). The flow's dense link indices and member-list
/// positions live in the engine's flat `slot_links`/`slot_pos` tables
/// at `slot * stride`, with `len` entries used.
#[derive(Clone, Debug)]
struct Slot<S> {
    key: FlowKey,
    flow: Flow,
    /// Chosen routing class (on Clos, the middle-switch index).
    class: u32,
    /// Number of links on the flow's current path.
    len: u32,
    /// Cached max-min rate as of the last epoch covering this flow.
    rate: S,
    /// Bottleneck link (dense index) as of that epoch.
    bottleneck: u32,
    live: bool,
}

/// Event-driven incremental max-min allocation over a multi-stage
/// fabric (see the module docs for the algorithm and its guarantees).
///
/// # Examples
///
/// ```
/// use clos_churn::{ChurnConfig, ChurnEngine, FlowEvent, OnlinePolicy};
/// use clos_net::{ClosNetwork, Flow};
/// use clos_rational::Rational;
///
/// let clos = ClosNetwork::standard(2);
/// let flow = Flow::new(clos.source(0, 0), clos.destination(2, 0));
/// let mut engine = ChurnEngine::<Rational>::new(
///     clos,
///     OnlinePolicy::greedy(),
///     ChurnConfig::default(),
/// );
/// engine.apply(FlowEvent::Arrive { key: 0, flow });
/// engine.flush();
/// assert_eq!(engine.rate(0), Some(Rational::ONE));
/// engine.apply(FlowEvent::Depart { key: 0 });
/// engine.flush();
/// assert_eq!(engine.live(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct ChurnEngine<S, F: Fabric = ClosNetwork> {
    fabric: F,
    instance: WaterfillInstance<S>,
    policy: OnlinePolicy,
    cfg: ChurnConfig,
    capacity: Rational,
    classes: usize,
    /// Per-slot stride of the flat link/position tables, equal to the
    /// fabric's [`max_path_len`](Fabric::max_path_len).
    stride: usize,

    slots: Vec<Slot<S>>,
    /// Dense link indices per slot, `stride` entries each (the first
    /// `len` are meaningful).
    slot_links: Vec<u32>,
    /// This slot's position inside each link's member list, parallel to
    /// `slot_links`.
    slot_pos: Vec<u32>,
    free: Vec<u32>,
    /// Key → slot index (keys are dense, see [`FlowKey`]); `NO_SLOT`
    /// marks keys that never arrived or already departed.
    slot_of_key: Vec<u32>,
    /// Per dense link: member slot indices (order maintained by
    /// swap-remove, deterministic in the event prefix).
    members: Vec<Vec<u32>>,
    /// Live-flow count per dense link (every link of a live flow's
    /// path counts; the policy reads interior links only).
    live_count: Vec<u32>,
    /// Number of *busy* links (`live_count > 0`).
    busy_links: usize,
    live: usize,

    dirty: Vec<bool>,
    dirty_list: Vec<usize>,
    pending: usize,

    scratch: WaterfillScratch<S>,
    oracle_scratch: WaterfillScratch<S>,

    // Apply-time work buffers, reused across events.
    path_buf: Vec<LinkId>,
    class_loads: Vec<u32>,
    // Epoch work buffers, reused across epochs.
    flow_links: Vec<usize>,
    slot_mark: Vec<bool>,
    affected: Vec<u32>,
    link_stack: Vec<usize>,

    stats: RecomputeStats,
}

impl<S: Scalar, F: Fabric> ChurnEngine<S, F> {
    /// Builds an engine over `fabric` with the given routing policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.batch` is zero.
    #[must_use]
    pub fn new(fabric: F, policy: OnlinePolicy, cfg: ChurnConfig) -> ChurnEngine<S, F> {
        assert!(cfg.batch >= 1, "batch size must be at least 1");
        let instance = WaterfillInstance::<S>::compile(fabric.network());
        let links = instance.link_count();
        ChurnEngine {
            capacity: fabric.nominal_capacity(),
            classes: fabric.class_count(),
            stride: fabric.max_path_len(),
            instance,
            policy,
            cfg,
            slots: Vec::new(),
            slot_links: Vec::new(),
            slot_pos: Vec::new(),
            free: Vec::new(),
            slot_of_key: Vec::new(),
            members: vec![Vec::new(); links],
            live_count: vec![0; links],
            busy_links: 0,
            live: 0,
            dirty: vec![false; links],
            dirty_list: Vec::new(),
            pending: 0,
            scratch: WaterfillScratch::new(),
            oracle_scratch: WaterfillScratch::new(),
            path_buf: Vec::new(),
            class_loads: Vec::new(),
            flow_links: Vec::new(),
            slot_mark: Vec::new(),
            affected: Vec::new(),
            link_stack: Vec::new(),
            stats: RecomputeStats::default(),
            fabric,
        }
    }

    /// Applies one flow event, auto-flushing once the configured batch
    /// fills up.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate arrival for a key or a departure for a key
    /// with no live flow — churn traces are well-formed by construction
    /// and a violation means the caller lost track of its keys.
    pub fn apply(&mut self, event: FlowEvent) {
        counters::CHURN_EVENTS.incr();
        self.stats.events += 1;
        match event {
            FlowEvent::Arrive { key, flow } => self.arrive(key, flow),
            FlowEvent::Depart { key } => self.depart(key),
        }
        self.pending += 1;
        if self.pending >= self.cfg.batch {
            self.flush();
        }
    }

    /// Dense waterfill index of `link`.
    fn dense(&self, link: LinkId) -> usize {
        let Some(d) = self.instance.dense_index(link) else {
            unreachable!("fabric links are finite")
        };
        d
    }

    /// Maximum live-flow count over the interior links of the path,
    /// the congestion the policy compares across classes. (Host access
    /// links are class-independent, so they cancel; a degenerate path
    /// with no interior reads all of its links.)
    fn interior_load(&self, len: usize) -> u32 {
        let span = if len >= 3 { 1..len - 1 } else { 0..len };
        let mut load = 0u32;
        for i in span {
            let d = self.dense(self.path_buf[i]);
            load = load.max(self.live_count[d]);
        }
        load
    }

    fn arrive(&mut self, key: FlowKey, flow: Flow) {
        counters::CHURN_ARRIVALS.incr();
        self.stats.arrivals += 1;
        self.class_loads.clear();
        for class in 0..self.classes {
            self.path_buf.clear();
            self.fabric
                .append_links_via(flow, class, &mut self.path_buf);
            let load = self.interior_load(self.path_buf.len());
            self.class_loads.push(load);
        }
        let class = self.policy.pick_class(&self.class_loads, self.capacity);

        self.path_buf.clear();
        self.fabric
            .append_links_via(flow, class, &mut self.path_buf);
        let len = self.path_buf.len();
        debug_assert!(
            len >= 1 && len <= self.stride,
            "path length within the fabric's declared bound"
        );

        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    key: 0,
                    flow,
                    class: 0,
                    len: 0,
                    rate: S::zero(),
                    bottleneck: 0,
                    live: false,
                });
                self.slot_links.resize(self.slots.len() * self.stride, 0);
                self.slot_pos.resize(self.slots.len() * self.stride, 0);
                (self.slots.len() - 1) as u32
            }
        };

        let ki = key as usize;
        if self.slot_of_key.len() <= ki {
            self.slot_of_key.resize(ki + 1, NO_SLOT);
        }
        assert!(
            self.slot_of_key[ki] == NO_SLOT,
            "duplicate arrival for key {key}"
        );
        self.slot_of_key[ki] = slot;

        self.link_current_path(slot);

        let base = slot as usize * self.stride;
        let s = &mut self.slots[slot as usize];
        s.key = key;
        s.flow = flow;
        s.class = class as u32;
        s.len = len as u32;
        s.rate = S::zero();
        s.bottleneck = self.slot_links[base];
        s.live = true;
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live as u64);
    }

    /// Pushes `slot` onto the member list of every link in `path_buf`
    /// (recording dense indices and positions in the flat tables),
    /// bumps live counts, and marks the links dirty.
    fn link_current_path(&mut self, slot: u32) {
        let base = slot as usize * self.stride;
        for i in 0..self.path_buf.len() {
            let d = self.dense(self.path_buf[i]);
            self.slot_links[base + i] = d as u32;
            let p = self.members[d].len() as u32;
            self.members[d].push(slot);
            self.slot_pos[base + i] = p;
            if self.live_count[d] == 0 {
                self.busy_links += 1;
            }
            self.live_count[d] += 1;
            self.mark_dirty(d);
        }
    }

    fn depart(&mut self, key: FlowKey) {
        counters::CHURN_DEPARTURES.incr();
        self.stats.departures += 1;
        let ki = key as usize;
        let slot = match self.slot_of_key.get(ki) {
            Some(&s) if s != NO_SLOT => s,
            _ => panic!("departure for key {key} with no live flow"),
        };
        self.slot_of_key[ki] = NO_SLOT;

        self.unlink_slot(slot);

        self.slots[slot as usize].live = false;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Removes `slot` from the member list of each link it crosses
    /// (swap-remove with position fixup), drops its live counts, and
    /// marks those links dirty.
    fn unlink_slot(&mut self, slot: u32) {
        let base = slot as usize * self.stride;
        let len = self.slots[slot as usize].len as usize;
        for i in 0..len {
            let d = self.slot_links[base + i] as usize;
            let p = self.slot_pos[base + i] as usize;
            self.live_count[d] -= 1;
            if self.live_count[d] == 0 {
                self.busy_links -= 1;
            }
            let list = &mut self.members[d];
            let Some(last) = list.pop() else {
                unreachable!("member list of a live flow's link cannot be empty")
            };
            if p < list.len() {
                // Swap-remove: the tail slot moves into `p`; fix its
                // recorded position for this link (a path never repeats
                // a link, so `d` appears once in the moved slot).
                list[p] = last;
                let mbase = last as usize * self.stride;
                let mlen = self.slots[last as usize].len as usize;
                for j in 0..mlen {
                    if self.slot_links[mbase + j] as usize == d {
                        self.slot_pos[mbase + j] = p as u32;
                    }
                }
            } else {
                debug_assert_eq!(last, slot, "position table out of sync");
            }
            self.mark_dirty(d);
        }
    }

    fn mark_dirty(&mut self, dense: usize) {
        if !self.dirty[dense] {
            self.dirty[dense] = true;
            self.dirty_list.push(dense);
        }
    }

    /// Runs a recompute epoch over the accumulated dirty region (a
    /// no-op when no links are dirty) and resets the batch window.
    ///
    /// Rates published by [`rate`](Self::rate)/[`checksum`] are exact
    /// as of the last flush; callers comparing engines across batch
    /// sizes must flush both at the common checkpoint first.
    ///
    /// [`checksum`]: Self::checksum
    pub fn flush(&mut self) {
        self.pending = 0;
        if self.dirty_list.is_empty() {
            return;
        }
        let _timer = timers::CHURN_EPOCH.scope();
        let _span = clos_telemetry::span("churn.epoch");
        counters::CHURN_EPOCHS.incr();
        counters::CHURN_DIRTY_LINKS.add(self.dirty_list.len() as u64);
        self.stats.epochs += 1;
        self.stats.dirty_links += self.dirty_list.len() as u64;

        self.close_region(true);
        if self.cfg.verify {
            // Check the shortcut, don't trust it: the closure without the
            // whole-fabric exit must select the very same slots.
            let shortcut = std::mem::take(&mut self.affected);
            for &d in &self.dirty_list {
                self.dirty[d] = true;
            }
            self.close_region(false);
            assert!(
                self.affected == shortcut,
                "whole-fabric shortcut diverged from the full closure"
            );
        }
        self.dirty_list.clear();

        self.scratch.begin();
        for idx in 0..self.affected.len() {
            let slot = self.affected[idx] as usize;
            let base = slot * self.stride;
            let plen = self.slots[slot].len as usize;
            self.flow_links.clear();
            for j in 0..plen {
                self.flow_links.push(self.slot_links[base + j] as usize);
            }
            self.scratch.push_flow(&self.flow_links);
        }
        self.instance.run(&mut self.scratch);

        let rates = self.scratch.rates();
        let bottlenecks = self.scratch.bottlenecks();
        for (i, &slot) in self.affected.iter().enumerate() {
            let s = &mut self.slots[slot as usize];
            s.rate = rates[i];
            s.bottleneck = bottlenecks[i] as u32;
        }
        let recomputed = self.affected.len() as u64;
        let reused = self.live as u64 - recomputed;
        counters::CHURN_RECOMPUTED_FLOWS.add(recomputed);
        counters::CHURN_REUSED_FLOWS.add(reused);
        self.stats.recomputed_flows += recomputed;
        self.stats.reused_flows += reused;

        if self.cfg.verify {
            self.check_against_oracle();
        }
    }

    /// Closes the dirty links under flow↔link incidence, leaving the
    /// region's slots in `affected` in ascending slot order — the same
    /// relative order a full run over all live slots would use. Every
    /// flow on an expanded link joins the region along with all of its
    /// links, so the region covers whole connected components and a run
    /// over just the affected flows is exact (see the module docs).
    ///
    /// On entry `dirty` marks exactly `dirty_list` and `slot_mark` is
    /// clear; on exit both are clear. With `whole_fabric_exit` the
    /// search stops as soon as the links it will expand cover every
    /// busy link: each live flow crosses one of them, so the region is
    /// then every live slot, taken in slot order without a sort.
    fn close_region(&mut self, whole_fabric_exit: bool) {
        self.slot_mark.resize(self.slots.len(), false);
        self.affected.clear();
        self.link_stack.clear();
        // Links the closure will expand: seeds with live members, plus
        // every link pushed below. A pushed link carries the live flow
        // that reached it, so each counted link is busy and counted once.
        let mut expanded = self
            .dirty_list
            .iter()
            .filter(|&&d| self.live_count[d] > 0)
            .count();
        let mut whole = whole_fabric_exit && expanded == self.busy_links;
        if !whole {
            self.link_stack.extend_from_slice(&self.dirty_list);
        }
        'closure: while let Some(d) = self.link_stack.pop() {
            for idx in 0..self.members[d].len() {
                let slot = self.members[d][idx];
                if self.slot_mark[slot as usize] {
                    continue;
                }
                self.slot_mark[slot as usize] = true;
                self.affected.push(slot);
                let base = slot as usize * self.stride;
                let plen = self.slots[slot as usize].len as usize;
                for j in 0..plen {
                    let l = self.slot_links[base + j] as usize;
                    if !self.dirty[l] {
                        self.dirty[l] = true;
                        // A zero-capacity (failed) link joins the
                        // region but does not propagate: it pins every
                        // member at rate zero, so the components it
                        // bridges are independent beyond it. Seeds from
                        // `dirty_list` still expand unconditionally,
                        // which is exactly what recomputes a dying
                        // link's members to zero in the epoch after
                        // `apply_failure`. Such a link is busy but never
                        // counted, so the exit cannot fire past it.
                        if !self.instance.capacity(l).is_zero() {
                            self.link_stack.push(l);
                            expanded += 1;
                            if whole_fabric_exit && expanded == self.busy_links {
                                whole = true;
                                break 'closure;
                            }
                        }
                    }
                }
            }
        }
        // `dirty` marks the region (or a prefix of it); clearing the
        // whole O(links) array is cheaper than revisiting the flows.
        self.dirty.fill(false);
        for &slot in &self.affected {
            self.slot_mark[slot as usize] = false;
        }
        if whole {
            self.affected.clear();
            let slots = &self.slots;
            self.affected
                .extend((0..slots.len() as u32).filter(|&s| slots[s as usize].live));
        } else {
            self.affected.sort_unstable();
        }
    }

    /// Full-recompute oracle check (the `verify` flag): a fresh run
    /// over every live flow must agree bit for bit.
    fn check_against_oracle(&mut self) {
        self.oracle_scratch.begin();
        for si in 0..self.slots.len() {
            if !self.slots[si].live {
                continue;
            }
            let base = si * self.stride;
            let plen = self.slots[si].len as usize;
            self.flow_links.clear();
            for j in 0..plen {
                self.flow_links.push(self.slot_links[base + j] as usize);
            }
            self.oracle_scratch.push_flow(&self.flow_links);
        }
        self.instance.run(&mut self.oracle_scratch);
        let rates = self.oracle_scratch.rates();
        let bottlenecks = self.oracle_scratch.bottlenecks();
        let mut i = 0;
        for slot in &self.slots {
            if !slot.live {
                continue;
            }
            assert!(
                slot.rate == rates[i],
                "incremental rate diverged from the oracle for key {}",
                slot.key
            );
            assert!(
                slot.bottleneck as usize == bottlenecks[i],
                "incremental bottleneck diverged from the oracle for key {}",
                slot.key
            );
            i += 1;
        }
        // Raw round levels can contain floating-point duplicates (see
        // `levels`); normalize both sides to the sorted deduplicated
        // sequence, which is exact in every scalar mode.
        let mut oracle_levels = self.oracle_scratch.levels().to_vec();
        oracle_levels.sort_unstable();
        oracle_levels.dedup();
        assert!(
            self.levels() == oracle_levels,
            "incremental levels diverged from the oracle"
        );
    }

    /// Applies a failure overlay (see [`clos_net::failure`]): changed
    /// links take their new capacities — identifiers and dense indices
    /// stay stable, a dead link being a live link of zero capacity —
    /// the waterfill instance is recompiled, and every changed link is
    /// marked dirty so the next [`flush`](Self::flush) recomputes
    /// exactly the components the failure touched. A no-op when the
    /// overlay changes nothing.
    ///
    /// Placed flows are *not* moved — that is
    /// [`reroute_failed`](Self::reroute_failed)'s job. A flow crossing
    /// a zeroed link recomputes to rate zero at the next flush.
    pub fn apply_failure(&mut self, overlay: &CapacityMap) {
        let changed: Vec<LinkId> = overlay
            .iter()
            .filter(|&(&link, &cap)| self.fabric.network().link(link).capacity() != cap)
            .map(|(&link, _)| link)
            .collect();
        if changed.is_empty() {
            return;
        }
        counters::FAILURE_EVENTS.incr();
        counters::FAILURE_LINKS_DEGRADED.add(changed.len() as u64);
        self.stats.failures += 1;
        self.stats.degraded_links += changed.len() as u64;
        self.fabric = self.fabric.with_capacities(overlay);
        let instance = WaterfillInstance::<S>::compile(self.fabric.network());
        debug_assert_eq!(
            instance.link_ids(),
            self.instance.link_ids(),
            "failure overlays must keep the dense link order stable"
        );
        self.instance = instance;
        for link in changed {
            let Some(d) = self.instance.dense_index(link) else {
                unreachable!("failure overlays keep every link finite")
            };
            self.mark_dirty(d);
        }
    }

    /// Moves the live flow in `slot` onto its path via `class`,
    /// updating member lists, live counts, and dirty marks on both the
    /// old and new links. The recorded rate goes stale until the next
    /// flush.
    fn relocate(&mut self, slot: u32, class: usize) {
        self.unlink_slot(slot);
        let flow = self.slots[slot as usize].flow;
        self.path_buf.clear();
        self.fabric
            .append_links_via(flow, class, &mut self.path_buf);
        let len = self.path_buf.len();
        debug_assert!(
            len >= 1 && len <= self.stride,
            "path length within the fabric's declared bound"
        );
        self.link_current_path(slot);
        let s = &mut self.slots[slot as usize];
        s.class = class as u32;
        s.len = len as u32;
    }

    /// Sweeps every live flow crossing a zero-capacity link and moves
    /// it, via the randomized local fast-reroute `policy`, onto a
    /// routing class whose interior links *all* survive. A flow with a
    /// dead host access link or no surviving class is left in place as
    /// *stuck* — its max-min rate is zero and no reroute (local or
    /// global) can change that.
    ///
    /// The sweep runs in ascending slot order — a deterministic
    /// function of the event prefix — so the outcome depends only on
    /// engine state and the policy's seed. Call
    /// [`flush`](Self::flush) afterwards to publish recomputed rates.
    pub fn reroute_failed(&mut self, policy: &mut LocalReroute) -> RerouteOutcome {
        let n = self.classes;
        let mut outcome = RerouteOutcome::default();
        let mut candidates: Vec<usize> = Vec::with_capacity(n);
        for slot in 0..self.slots.len() as u32 {
            let s = &self.slots[slot as usize];
            if !s.live {
                continue;
            }
            let (flow, len) = (s.flow, s.len as usize);
            let base = slot as usize * self.stride;
            let dead = (0..len).any(|j| {
                self.instance
                    .capacity(self.slot_links[base + j] as usize)
                    .is_zero()
            });
            if !dead {
                continue;
            }
            // Host access links are shared by every class choice: if
            // one is dead, no detour exists.
            let host_dead = self
                .instance
                .capacity(self.slot_links[base] as usize)
                .is_zero()
                || self
                    .instance
                    .capacity(self.slot_links[base + len - 1] as usize)
                    .is_zero();
            candidates.clear();
            if !host_dead {
                for class in 0..n {
                    self.path_buf.clear();
                    self.fabric
                        .append_links_via(flow, class, &mut self.path_buf);
                    let plen = self.path_buf.len();
                    let span = if plen >= 3 { 1..plen - 1 } else { 0..plen };
                    let alive = self.path_buf[span]
                        .iter()
                        .all(|&l| !self.instance.capacity(self.dense(l)).is_zero());
                    if alive {
                        candidates.push(class);
                    }
                }
            }
            if candidates.is_empty() {
                outcome.stuck += 1;
            } else {
                self.relocate(slot, policy.pick(&candidates));
                outcome.moved += 1;
            }
        }
        counters::REROUTE_FLOWS.add(outcome.moved);
        counters::REROUTE_DEAD_ENDS.add(outcome.stuck);
        self.stats.rerouted_flows += outcome.moved;
        self.stats.reroute_dead_ends += outcome.stuck;
        outcome
    }

    /// Number of live flows.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Events applied since the last flush.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The engine's topology.
    #[must_use]
    pub fn fabric(&self) -> &F {
        &self.fabric
    }

    /// The routing policy's short name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> RecomputeStats {
        self.stats
    }

    /// The rate of the live flow with `key` as of the last flush, or
    /// `None` if no live flow has that key.
    #[must_use]
    pub fn rate(&self, key: FlowKey) -> Option<S> {
        let slot = *self.slot_of_key.get(key as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        Some(self.slots[slot as usize].rate)
    }

    /// The endpoints of the live flow with `key`, or `None` if no live
    /// flow has that key.
    #[must_use]
    pub fn flow(&self, key: FlowKey) -> Option<Flow> {
        let slot = *self.slot_of_key.get(key as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        Some(self.slots[slot as usize].flow)
    }

    /// The routing class the live flow with `key` was placed on (on a
    /// Clos fabric, the middle-switch index), or `None` if no live flow
    /// has that key. Placement is final for the flow's lifetime
    /// (unsplittable flows are never moved) except through
    /// [`reroute_failed`](Self::reroute_failed).
    #[must_use]
    pub fn class_of(&self, key: FlowKey) -> Option<usize> {
        let slot = *self.slot_of_key.get(key as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        Some(self.slots[slot as usize].class as usize)
    }

    /// The bottleneck link of the live flow with `key` as of the last
    /// flush.
    #[must_use]
    pub fn bottleneck(&self, key: FlowKey) -> Option<LinkId> {
        let slot = *self.slot_of_key.get(key as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        Some(
            self.instance
                .link_id(self.slots[slot as usize].bottleneck as usize),
        )
    }

    /// Iterates over `(key, rate)` of every live flow in slot order (a
    /// deterministic function of the event prefix, independent of the
    /// batch size).
    pub fn live_flows(&self) -> impl Iterator<Item = (FlowKey, S)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.live)
            .map(|s| (s.key, s.rate))
    }

    /// The global fill levels as of the last flush: the sorted,
    /// deduplicated live rates. Every round level freezes at least one
    /// flow at that rate and every rate is its freezing round's level,
    /// so this equals the sorted deduplication of a fresh full run's
    /// `levels()` in every scalar mode — and the raw sequence itself
    /// under exact rationals, where round levels strictly increase.
    /// (Under `TotalF64`, rounding can make a recomputed link level
    /// land exactly back on the previous round's level, so a fresh
    /// run's raw sequence may contain duplicates.)
    #[must_use]
    pub fn levels(&self) -> Vec<S> {
        let mut levels: Vec<S> = self
            .slots
            .iter()
            .filter(|s| s.live)
            .map(|s| s.rate)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels
    }

    /// FNV-1a digest of the live allocation (keys and rate bits in slot
    /// order, plus the live count) as of the last flush. Engines fed
    /// the same trace agree at every common flushed checkpoint
    /// regardless of batch size; CI byte-diffs these across batches.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for slot in &self.slots {
            if slot.live {
                fold(slot.key);
                fold(slot.rate.to_f64().to_bits());
            }
        }
        fold(self.live as u64);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clos_net::BenesNetwork;
    use clos_rational::TotalF64;

    fn engine(n: usize, batch: usize, verify: bool) -> ChurnEngine<Rational> {
        ChurnEngine::new(
            ClosNetwork::standard(n),
            OnlinePolicy::greedy(),
            ChurnConfig { batch, verify },
        )
    }

    /// Applies the arrival of `key` from source host `src` to
    /// destination host `dst`, each given as `(tor, host)`.
    fn arrive(e: &mut ChurnEngine<Rational>, key: u64, src: (usize, usize), dst: (usize, usize)) {
        let clos = e.fabric();
        let flow = Flow::new(clos.source(src.0, src.1), clos.destination(dst.0, dst.1));
        e.apply(FlowEvent::Arrive { key, flow });
    }

    #[test]
    fn single_flow_gets_full_rate_and_departs_cleanly() {
        let mut e = engine(2, 1, true);
        let flow = Flow::new(e.fabric().source(0, 0), e.fabric().destination(2, 0));
        e.apply(FlowEvent::Arrive { key: 0, flow });
        assert_eq!(e.rate(0), Some(Rational::ONE));
        assert_eq!(e.flow(0), Some(flow));
        assert!(e.bottleneck(0).is_some());
        assert_eq!(e.levels(), vec![Rational::ONE]);
        e.apply(FlowEvent::Depart { key: 0 });
        assert_eq!(e.live(), 0);
        assert_eq!(e.rate(0), None);
        assert_eq!(e.levels(), vec![]);
        assert_eq!(e.stats().epochs, 2);
    }

    #[test]
    fn batching_defers_recompute_until_flush() {
        let mut e = engine(2, 100, false);
        let clos = e.fabric().clone();
        for k in 0..4 {
            let flow = Flow::new(
                clos.source(k % 2, (k / 2) % 2),
                clos.destination(2 + k % 2, 0),
            );
            e.apply(FlowEvent::Arrive {
                key: k as u64,
                flow,
            });
        }
        assert_eq!(e.stats().epochs, 0);
        assert_eq!(e.pending(), 4);
        e.flush();
        assert_eq!(e.stats().epochs, 1);
        assert_eq!(e.pending(), 0);
        assert!(e.live_flows().all(|(_, r)| r.is_positive()));
    }

    #[test]
    fn untouched_components_are_reused_not_recomputed() {
        // ToR pair (0 -> 2) and ToR pair (1 -> 3) never share fabric
        // links under greedy with one flow each per middle.
        let mut e = engine(2, 1, true);
        let clos = e.fabric().clone();
        e.apply(FlowEvent::Arrive {
            key: 0,
            flow: Flow::new(clos.source(0, 0), clos.destination(2, 0)),
        });
        e.apply(FlowEvent::Arrive {
            key: 1,
            flow: Flow::new(clos.source(1, 0), clos.destination(3, 0)),
        });
        // The second epoch recomputed only flow 1's component.
        assert_eq!(e.stats().recomputed_flows, 2);
        assert_eq!(e.stats().reused_flows, 1);
    }

    #[test]
    fn checksum_is_batch_independent_at_common_checkpoints() {
        let clos = ClosNetwork::standard(2);
        let trace: Vec<FlowEvent> = {
            let cfg = crate::trace::TraceConfig {
                arrival_rate_per_sec: 1_000_000,
                lifetime: crate::trace::SizeDist::Exponential { mean_ns: 20_000 },
                pattern: crate::trace::Pattern::Uniform,
                events: 200,
                seed: 11,
            };
            crate::trace::TraceGenerator::new(&clos, &cfg)
                .map(|t| t.event)
                .collect()
        };
        let mut small = ChurnEngine::<TotalF64>::new(
            clos.clone(),
            OnlinePolicy::first_fit(),
            ChurnConfig {
                batch: 3,
                verify: false,
            },
        );
        let mut large = ChurnEngine::<TotalF64>::new(
            clos,
            OnlinePolicy::first_fit(),
            ChurnConfig {
                batch: 64,
                verify: false,
            },
        );
        for (i, &ev) in trace.iter().enumerate() {
            small.apply(ev);
            large.apply(ev);
            if (i + 1) % 50 == 0 {
                small.flush();
                large.flush();
                assert_eq!(small.checksum(), large.checksum());
                assert_eq!(small.levels(), large.levels());
            }
        }
    }

    /// The engine makes no 4-link/4-layer assumption: a Benes fabric of
    /// order 3 has 6-link paths and 4 routing classes, and the verify
    /// oracle pins the incremental allocation bit for bit across an
    /// arrive/depart mix that reuses slots.
    #[test]
    fn benes_six_link_paths_match_oracle() {
        let benes = BenesNetwork::standard(3);
        assert_eq!(benes.max_path_len(), 6);
        assert_eq!(benes.class_count(), 4);
        let terminals = benes.terminal_count();
        let mut e = ChurnEngine::<Rational, BenesNetwork>::new(
            benes.clone(),
            OnlinePolicy::greedy(),
            ChurnConfig {
                batch: 1,
                verify: true,
            },
        );
        // A full permutation load: terminal t -> terminal (t + 3) mod 8.
        for t in 0..terminals {
            let flow = Flow::new(benes.source(t), benes.destination((t + 3) % terminals));
            e.apply(FlowEvent::Arrive {
                key: t as u64,
                flow,
            });
        }
        assert_eq!(e.live(), terminals);
        for t in 0..terminals {
            let class = e.class_of(t as u64).expect("live flow has a placement");
            assert!(class < 4);
            assert!(e.rate(t as u64).expect("rate published").is_positive());
        }
        // Depart half (exercising swap-remove on 6-entry link sets),
        // then re-arrive onto reused slots.
        for t in (0..terminals).step_by(2) {
            e.apply(FlowEvent::Depart { key: t as u64 });
        }
        assert_eq!(e.live(), terminals / 2);
        for t in (0..terminals).step_by(2) {
            let flow = Flow::new(benes.source(t), benes.destination((t + 5) % terminals));
            e.apply(FlowEvent::Arrive {
                key: (terminals + t) as u64,
                flow,
            });
        }
        assert_eq!(e.live(), terminals);
        // Every epoch above ran with verify=true; a final flush after a
        // batched tail double-checks the steady state.
        e.flush();
    }

    #[test]
    #[should_panic(expected = "duplicate arrival")]
    fn duplicate_arrival_panics() {
        let mut e = engine(2, 100, false);
        let flow = Flow::new(e.fabric().source(0, 0), e.fabric().destination(2, 0));
        e.apply(FlowEvent::Arrive { key: 0, flow });
        e.apply(FlowEvent::Arrive { key: 0, flow });
    }

    #[test]
    #[should_panic(expected = "no live flow")]
    fn unknown_departure_panics() {
        let mut e = engine(2, 100, false);
        e.apply(FlowEvent::Depart { key: 5 });
    }

    /// A dead link bounds the region: the zero-capacity cut keeps a flow
    /// that meets an event only through a dead middle out of the
    /// recompute, and the whole-fabric shortcut never fires past it (a
    /// dead link that is not a seed is busy but never expanded). The
    /// stats are the full closure's, recorded before the shortcut
    /// existed; `verify` re-runs the closure without it every epoch.
    #[test]
    fn dead_link_bounds_the_region_and_the_shortcut() {
        use clos_net::{FailureEvent, FailureSchedule};
        let mut e = engine(2, 1, true);
        let clos = e.fabric().clone();
        // Greedy placement: keys 0 and 2 share only the uplink of ToR 0
        // to middle 0; key 1 shares key 2's source host link.
        arrive(&mut e, 0, (0, 0), (1, 0));
        arrive(&mut e, 1, (0, 1), (2, 0));
        arrive(&mut e, 2, (0, 1), (3, 0));
        assert_eq!(e.class_of(0), Some(0));
        assert_eq!(e.class_of(1), Some(1));
        assert_eq!(e.class_of(2), Some(0));
        let schedule = FailureSchedule::new(vec![FailureEvent::RemoveMiddle { middle: 0 }]);
        e.apply_failure(&schedule.overlay_at(&clos, 1));
        e.flush();
        assert_eq!(e.rate(0), Some(Rational::ZERO));
        assert_eq!(e.rate(2), Some(Rational::ZERO));
        let before = e.stats();
        // Key 3 shares key 0's destination host link; key 2 is reachable
        // from it only through the dead uplink, so it is reused.
        arrive(&mut e, 3, (1, 0), (1, 0));
        let after = e.stats();
        assert_eq!(after.recomputed_flows - before.recomputed_flows, 2);
        assert_eq!(after.reused_flows - before.reused_flows, 2);
        // Key 1 leaves through key 2's source host link; the region
        // stops at key 2's dead links.
        e.apply(FlowEvent::Depart { key: 1 });
        let stats = e.stats();
        assert_eq!(
            (stats.epochs, stats.recomputed_flows, stats.reused_flows),
            (6, 11, 5)
        );
    }

    /// Batches large enough that their dirty links cover every busy
    /// link: the shortcut fires before any member scan, every epoch
    /// recomputes the whole live set, and `verify` (which also re-runs
    /// the closure without the shortcut) passes. The stats are the full
    /// closure's, recorded before the shortcut existed.
    #[test]
    fn batch_covering_every_busy_link_recomputes_everything() {
        let clos = ClosNetwork::standard(2);
        let cfg = crate::trace::TraceConfig {
            arrival_rate_per_sec: 1_000_000,
            lifetime: crate::trace::SizeDist::Exponential { mean_ns: 20_000 },
            pattern: crate::trace::Pattern::Uniform,
            events: 400,
            seed: 5,
        };
        let mut e = ChurnEngine::<Rational>::new(
            clos.clone(),
            OnlinePolicy::greedy(),
            ChurnConfig {
                batch: usize::MAX,
                verify: true,
            },
        );
        for (i, t) in crate::trace::TraceGenerator::new(&clos, &cfg).enumerate() {
            e.apply(t.event);
            if (i + 1) % 100 == 0 {
                let seeds_cover_busy =
                    (0..e.live_count.len()).all(|d| e.live_count[d] == 0 || e.dirty[d]);
                assert!(seeds_cover_busy, "epoch {} seeds miss a busy link", i / 100);
                assert!(e.busy_links > 0);
                e.flush();
            }
        }
        let stats = e.stats();
        assert_eq!(stats.events, 400);
        assert_eq!(
            (stats.epochs, stats.recomputed_flows, stats.reused_flows),
            (4, 76, 0)
        );
    }

    /// The exit's exactness edge: a flow whose every link is dead sits
    /// on busy links that the closure marks (through other flows) but
    /// never expands, so it stays outside the region. Were dead links
    /// counted as expanded, the shortcut would fire here and pull it in.
    /// The stats are the full closure's, recorded before the shortcut
    /// existed; `verify` re-runs the closure without it every epoch.
    #[test]
    fn flow_on_dead_links_only_stays_outside_the_region() {
        use clos_net::{Capacity, FailureEvent, FailureSchedule};
        let mut e = engine(2, 1, true);
        let clos = e.fabric().clone();
        // Key 0 is the flow on dead links only. Key 1 shares its source
        // host link, key 2 its destination host link, key 3 its uplink
        // and key 4 its downlink.
        arrive(&mut e, 0, (0, 0), (1, 0));
        arrive(&mut e, 1, (0, 0), (2, 0));
        arrive(&mut e, 2, (2, 0), (1, 0));
        arrive(&mut e, 3, (0, 1), (3, 0));
        arrive(&mut e, 4, (3, 0), (1, 1));
        let classes: Vec<_> = (0..5).map(|k| e.class_of(k)).collect();
        assert_eq!(classes, [Some(0), Some(1), Some(1), Some(0), Some(0)]);
        let mut overlay = FailureSchedule::new(vec![FailureEvent::RemoveMiddle { middle: 0 }])
            .overlay_at(&clos, 1);
        let dead = Capacity::finite_value(Rational::ZERO);
        overlay.insert(clos.host_uplink(0, 0), dead);
        overlay.insert(clos.host_downlink(1, 0), dead);
        e.apply_failure(&overlay);
        e.flush();
        // Every flow crosses a dead link now.
        assert!((0..5).all(|k| e.rate(k) == Some(Rational::ZERO)));
        // Halve every surviving busy link: the seeds reach keys 1-4,
        // which mark all of key 0's dead links without expanding them.
        let half = Capacity::finite_value(Rational::new(1, 2));
        let mut degrade = clos_net::CapacityMap::new();
        for link in [
            clos.uplink(0, 1),
            clos.downlink(1, 2),
            clos.host_downlink(2, 0),
            clos.host_uplink(2, 0),
            clos.uplink(2, 1),
            clos.downlink(1, 1),
            clos.host_uplink(0, 1),
            clos.host_downlink(3, 0),
            clos.host_uplink(3, 0),
            clos.host_downlink(1, 1),
        ] {
            degrade.insert(link, half);
        }
        let before = e.stats();
        e.apply_failure(&degrade);
        e.flush();
        let after = e.stats();
        assert_eq!(after.recomputed_flows - before.recomputed_flows, 4);
        assert_eq!(after.reused_flows - before.reused_flows, 1);
        assert_eq!(
            (after.epochs, after.recomputed_flows, after.reused_flows),
            (7, 24, 1)
        );
    }
}
