//! The incremental churn engine.
//!
//! [`ChurnEngine`] maintains the max-min fair allocation of a
//! multi-stage fabric (any [`Fabric`], a Clos network by default) under
//! online flow churn. Each [`FlowEvent`] routes (on arrival, via an
//! [`OnlinePolicy`] choosing among the fabric's routing classes) or
//! removes one flow and marks the links the flow crosses *dirty*; after
//! a configurable batch of events an *epoch* recomputes rates — but
//! only for the *dirty region*, the connected component(s) of the
//! path↔link incidence graph reachable from a dirty link. Paths outside
//! the region kept their membership lists and link loads unchanged, so
//! their rates are provably unaffected and are reused verbatim.
//!
//! # Path aggregation
//!
//! Two flows with the same link set always get the same max-min rate and
//! the same bottleneck (the paper's view of a flow collection as a
//! bipartite multigraph, Lemma 3.2), and a fabric has far fewer paths
//! than a churn workload has flows: `C_4` has at most 4 096 host-to-host
//! paths under 10⁵ live flows. The engine therefore keeps a live count
//! per *path*, keyed by (source terminal, routing class, destination
//! terminal). Terminals are numbered densely from the fabric's
//! coordinates; a per-terminal-pair table points to a chain of that
//! pair's live paths (at most one per class), so no hash map and no
//! table over the whole key space is needed. Path state lives in compact
//! slots reused through a free list, sized by the number of live paths.
//! A path joins the per-link member lists when its count goes 0→1 and
//! leaves them on 1→0; each flow records only its path. The region
//! closure walks paths, and an epoch pushes one waterfill entry per
//! affected path with its count as the multiplicity (see
//! [`WaterfillScratch::push_flows`]) and writes back one rate and one
//! bottleneck per path, which the path's flows read through it. The
//! per-flow live counts per link stay, because the policy compares them.
//!
//! # Bit-identical incrementality
//!
//! Water-filling decomposes over connected components: rounds in one
//! component never influence another (the fill level of a link depends
//! only on its own members and frozen load). The epoch recompute pushes
//! just the region's paths, in ascending slot order, into a run of the
//! engine's one full [`WaterfillInstance`]; the run scans only links
//! with unfrozen members, in dense (= network link) order, so the
//! region's freezing order and bottleneck scan order are those of a
//! full run restricted to the region, and an entry of multiplicity `m`
//! freezes exactly as `m` copies of its flow would. The recomputed rates
//! and bottlenecks are therefore **bit-identical** (in both
//! exact-rational and `TotalF64` modes) to a fresh per-flow run over the
//! live set, and the
//! engine's [`levels`](ChurnEngine::levels) equal the fresh run's up to
//! the sorted-dedup normalization described on that method. The
//! `verify` flag of [`ChurnConfig`] asserts exactly that against a
//! full-recompute oracle after every epoch, and the
//! `incremental_oracle` proptest suite pins it over random traces.
//!
//! # Whole-fabric epochs
//!
//! When every busy link (one with live flows) will be expanded, the
//! region is every live path, so the closure stops early. The engine
//! keeps a running count of busy links; the closure counts the links it
//! will expand (the seeds with live members, plus every link it pushes)
//! and, once that count reaches the busy count, takes the live path
//! slots in ascending order without scanning further members or
//! sorting. The exit is exact: each live path crosses at least one busy
//! link, and each counted link is busy and counted once. A
//! zero-capacity link that is not a seed is never expanded and never
//! counted, so the exit cannot fire past a failure cut. On a
//! single-component fabric (a 3-stage Clos under uniform traffic) a
//! large batch's seeds alone cover every busy link; pod-local traffic on
//! a fat-tree never fires it and keeps its region reuse. With `verify`
//! set, every epoch also re-runs the closure without the exit and
//! asserts the same paths.
//!
//! The closure walks paths rather than flows because that is the unit
//! the epoch recomputes: flows on one path share every link, so they
//! join a region together, and a member list of paths is at most as
//! long as one of flows — on `C_4` under uniform churn an uplink carries
//! thousands of flows but at most 128 paths.
//!
//! Because routing, slot and path assignment, and link bookkeeping all
//! happen at *apply* time (they are pure functions of the event
//! prefix), the engine's state after `apply`ing a prefix and [`flush`]ing is
//! independent of the batch size — two engines fed the same trace with
//! different batches agree byte-for-byte at every common flushed
//! checkpoint (CI byte-diffs published epochs at two batch sizes).
//!
//! Nothing here assumes the Clos shape: paths may have any length up to
//! [`Fabric::max_path_len`] (path link/position tables are flat arrays
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
use crate::policy::{ClassLoad, OnlinePolicy};
use crate::reroute::{LocalReroute, RerouteOutcome};

/// Sentinel in the key→slot table: the key has no live flow.
const NO_SLOT: u32 = u32::MAX;

/// Sentinel for "no path": the end of a terminal pair's path chain, and
/// the terminal-table entry of a node that is not a terminal.
const NO_PATH: u32 = u32::MAX;

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
    /// Live paths recomputed by epochs: the waterfill entries, one per
    /// path however many flows share it.
    pub recomputed_paths: u64,
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
/// the flow departs). The flow's routing class, links, rate, and
/// bottleneck belong to its path.
#[derive(Clone, Debug)]
struct Slot {
    key: FlowKey,
    flow: Flow,
    /// The path slot the flow rides.
    path: u32,
    live: bool,
}

/// One live path: a (source terminal, class, destination terminal) key
/// with at least one live flow. Path slots are reused through a free
/// list once their last flow leaves. The path's dense link indices and
/// member-list positions live in the engine's flat
/// `path_links`/`path_pos` tables at `path * stride`, with `len` entries
/// used.
#[derive(Clone, Debug)]
struct PathSlot<S> {
    /// Index of the path's terminal pair in `pair_head`.
    pair: u32,
    /// Routing class of the path (on Clos, the middle-switch index).
    class: u32,
    /// Next live path of the same terminal pair (`NO_PATH` ends it).
    next: u32,
    /// Live flows on the path; zero marks a free slot.
    count: u32,
    /// Number of links on the path.
    len: u32,
    /// Cached max-min rate of every flow on the path as of the last
    /// epoch covering it.
    rate: S,
    /// Bottleneck link (dense index) as of that epoch.
    bottleneck: u32,
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
    /// Per-path stride of the flat link/position tables, equal to the
    /// fabric's [`max_path_len`](Fabric::max_path_len).
    stride: usize,

    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Key → slot index (keys are dense, see [`FlowKey`]); `NO_SLOT`
    /// marks keys that never arrived or already departed.
    slot_of_key: Vec<u32>,

    paths: Vec<PathSlot<S>>,
    /// Dense link indices per path slot, `stride` entries each (the
    /// first `len` are meaningful).
    path_links: Vec<u32>,
    /// This path's position inside each link's member list, parallel
    /// to `path_links`.
    path_pos: Vec<u32>,
    free_paths: Vec<u32>,
    /// Per network node: its dense source-terminal index, or `NO_PATH`.
    src_terminal: Vec<u32>,
    /// Per network node: its dense destination-terminal index, or
    /// `NO_PATH`.
    dst_terminal: Vec<u32>,
    /// Number of destination terminals (the row length of `pair_head`).
    dst_terminals: usize,
    /// Per (source terminal, destination terminal) pair: the first live
    /// path of the pair's chain through `PathSlot::next`, or `NO_PATH`.
    pair_head: Vec<u32>,
    /// Per dense link: member path slots (order maintained by
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
    class_loads: Vec<ClassLoad>,
    // Epoch work buffers, reused across epochs.
    flow_links: Vec<usize>,
    path_mark: Vec<bool>,
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
        // Dense terminal indices, in node order.
        let nodes = fabric.network().node_count();
        let mut src_terminal = vec![NO_PATH; nodes];
        let mut dst_terminal = vec![NO_PATH; nodes];
        let (mut sources, mut destinations) = (0u32, 0u32);
        for node in fabric.network().nodes() {
            let id = node.id();
            if fabric.source_coords(id).is_some() {
                src_terminal[id.index()] = sources;
                sources += 1;
            }
            if fabric.destination_coords(id).is_some() {
                dst_terminal[id.index()] = destinations;
                destinations += 1;
            }
        }
        ChurnEngine {
            capacity: fabric.nominal_capacity(),
            classes: fabric.class_count(),
            stride: fabric.max_path_len(),
            instance,
            policy,
            cfg,
            slots: Vec::new(),
            free: Vec::new(),
            slot_of_key: Vec::new(),
            paths: Vec::new(),
            path_links: Vec::new(),
            path_pos: Vec::new(),
            free_paths: Vec::new(),
            src_terminal,
            dst_terminal,
            dst_terminals: destinations as usize,
            pair_head: vec![NO_PATH; sources as usize * destinations as usize],
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
            path_mark: Vec::new(),
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

    /// Maximum and summed live-flow counts over the interior links of
    /// the path, in one branch-free pass. (Host access links are
    /// class-independent, so they cancel; a degenerate path with no
    /// interior reads all of its links.)
    fn interior_load(&self, len: usize) -> ClassLoad {
        let span = if len >= 3 { 1..len - 1 } else { 0..len };
        let mut load = ClassLoad::default();
        for i in span {
            let count = self.live_count[self.dense(self.path_buf[i])];
            load.max = load.max.max(count);
            load.sum += count;
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

        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    key: 0,
                    flow,
                    path: NO_PATH,
                    live: false,
                });
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

        let path = self.join_path(flow, class);
        let s = &mut self.slots[slot as usize];
        s.key = key;
        s.flow = flow;
        s.path = path;
        s.live = true;
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live as u64);
    }

    /// Adds one flow to the path of `flow` via `class`, opening the path
    /// if it has no live flow yet, and returns its path slot. Bumps the
    /// live counts of the path's links and marks them dirty.
    fn join_path(&mut self, flow: Flow, class: usize) -> u32 {
        let pair = self.src_terminal[flow.src().index()] as usize * self.dst_terminals
            + self.dst_terminal[flow.dst().index()] as usize;
        let mut path = self.pair_head[pair];
        while path != NO_PATH && self.paths[path as usize].class != class as u32 {
            path = self.paths[path as usize].next;
        }
        if path == NO_PATH {
            path = self.open_path(flow, class, pair);
        }
        let p = &mut self.paths[path as usize];
        p.count += 1;
        let (base, len) = (path as usize * self.stride, p.len as usize);
        for i in 0..len {
            let d = self.path_links[base + i] as usize;
            if self.live_count[d] == 0 {
                self.busy_links += 1;
            }
            self.live_count[d] += 1;
            self.mark_dirty(d);
        }
        path
    }

    /// Takes a free path slot for the path of `flow` via `class`, links
    /// it into its terminal pair's chain and onto the member list of
    /// every link it crosses (recording dense indices and positions in
    /// the flat tables), and returns it with a live count of zero.
    fn open_path(&mut self, flow: Flow, class: usize, pair: usize) -> u32 {
        self.path_buf.clear();
        self.fabric
            .append_links_via(flow, class, &mut self.path_buf);
        let len = self.path_buf.len();
        debug_assert!(
            len >= 1 && len <= self.stride,
            "path length within the fabric's declared bound"
        );
        let path = match self.free_paths.pop() {
            Some(path) => path,
            None => {
                self.paths.push(PathSlot {
                    pair: 0,
                    class: 0,
                    next: NO_PATH,
                    count: 0,
                    len: 0,
                    rate: S::zero(),
                    bottleneck: 0,
                });
                self.path_links.resize(self.paths.len() * self.stride, 0);
                self.path_pos.resize(self.paths.len() * self.stride, 0);
                (self.paths.len() - 1) as u32
            }
        };
        let base = path as usize * self.stride;
        for i in 0..len {
            let d = self.dense(self.path_buf[i]);
            self.path_links[base + i] = d as u32;
            self.path_pos[base + i] = self.members[d].len() as u32;
            self.members[d].push(path);
        }
        self.paths[path as usize] = PathSlot {
            pair: pair as u32,
            class: class as u32,
            next: self.pair_head[pair],
            count: 0,
            len: len as u32,
            rate: S::zero(),
            bottleneck: self.path_links[base],
        };
        self.pair_head[pair] = path;
        path
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

        self.leave_path(self.slots[slot as usize].path);

        self.slots[slot as usize].live = false;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Removes one flow from `path`: drops the path's live counts and
    /// marks its links dirty, closing the path once its last flow left.
    fn leave_path(&mut self, path: u32) {
        let (base, len) = (
            path as usize * self.stride,
            self.paths[path as usize].len as usize,
        );
        for i in 0..len {
            let d = self.path_links[base + i] as usize;
            self.live_count[d] -= 1;
            if self.live_count[d] == 0 {
                self.busy_links -= 1;
            }
            self.mark_dirty(d);
        }
        self.paths[path as usize].count -= 1;
        if self.paths[path as usize].count == 0 {
            self.close_path(path);
        }
    }

    /// Removes the empty `path` from the member list of each link it
    /// crosses (swap-remove with position fixup) and from its terminal
    /// pair's chain, and frees its slot.
    fn close_path(&mut self, path: u32) {
        let base = path as usize * self.stride;
        let len = self.paths[path as usize].len as usize;
        for i in 0..len {
            let d = self.path_links[base + i] as usize;
            let p = self.path_pos[base + i] as usize;
            let list = &mut self.members[d];
            let Some(last) = list.pop() else {
                unreachable!("member list of a live path's link cannot be empty")
            };
            if p < list.len() {
                // Swap-remove: the tail path moves into `p`; fix its
                // recorded position for this link (a path never repeats
                // a link, so `d` appears once in the moved path).
                list[p] = last;
                let mbase = last as usize * self.stride;
                let mlen = self.paths[last as usize].len as usize;
                for j in 0..mlen {
                    if self.path_links[mbase + j] as usize == d {
                        self.path_pos[mbase + j] = p as u32;
                    }
                }
            } else {
                debug_assert_eq!(last, path, "position table out of sync");
            }
        }
        let (pair, next) = {
            let p = &self.paths[path as usize];
            (p.pair as usize, p.next)
        };
        if self.pair_head[pair] == path {
            self.pair_head[pair] = next;
        } else {
            let mut prev = self.pair_head[pair];
            while self.paths[prev as usize].next != path {
                prev = self.paths[prev as usize].next;
            }
            self.paths[prev as usize].next = next;
        }
        self.free_paths.push(path);
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
            // whole-fabric exit must select the very same paths.
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

        // One waterfill entry per affected path, standing for all of
        // the path's flows.
        self.scratch.begin();
        let mut recomputed = 0u64;
        for idx in 0..self.affected.len() {
            let path = self.affected[idx] as usize;
            let base = path * self.stride;
            let p = &self.paths[path];
            self.flow_links.clear();
            for j in 0..p.len as usize {
                self.flow_links.push(self.path_links[base + j] as usize);
            }
            self.scratch.push_flows(&self.flow_links, p.count as usize);
            recomputed += u64::from(p.count);
        }
        self.instance.run(&mut self.scratch);

        let rates = self.scratch.rates();
        let bottlenecks = self.scratch.bottlenecks();
        for (i, &path) in self.affected.iter().enumerate() {
            let p = &mut self.paths[path as usize];
            p.rate = rates[i];
            p.bottleneck = bottlenecks[i] as u32;
        }
        let reused = self.live as u64 - recomputed;
        counters::CHURN_RECOMPUTED_FLOWS.add(recomputed);
        counters::CHURN_REUSED_FLOWS.add(reused);
        self.stats.recomputed_flows += recomputed;
        self.stats.recomputed_paths += self.affected.len() as u64;
        self.stats.reused_flows += reused;

        if self.cfg.verify {
            self.check_against_oracle();
        }
    }

    /// Closes the dirty links under path↔link incidence, leaving the
    /// region's paths in `affected` in ascending path-slot order. Every
    /// path on an expanded link joins the region along with all of its
    /// links, so the region covers whole connected components and a run
    /// over just the affected paths is exact (see the module docs).
    ///
    /// On entry `dirty` marks exactly `dirty_list` and `path_mark` is
    /// clear; on exit both are clear. With `whole_fabric_exit` the
    /// search stops as soon as the links it will expand cover every
    /// busy link: each live path crosses one of them, so the region is
    /// then every live path, taken in slot order without a sort.
    fn close_region(&mut self, whole_fabric_exit: bool) {
        self.path_mark.resize(self.paths.len(), false);
        self.affected.clear();
        self.link_stack.clear();
        // Links the closure will expand: seeds with live members, plus
        // every link pushed below. A pushed link carries the live path
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
                let path = self.members[d][idx];
                if self.path_mark[path as usize] {
                    continue;
                }
                self.path_mark[path as usize] = true;
                self.affected.push(path);
                let base = path as usize * self.stride;
                let plen = self.paths[path as usize].len as usize;
                for j in 0..plen {
                    let l = self.path_links[base + j] as usize;
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
        // whole O(links) array is cheaper than revisiting the paths.
        self.dirty.fill(false);
        for &path in &self.affected {
            self.path_mark[path as usize] = false;
        }
        if whole {
            self.affected.clear();
            let paths = &self.paths;
            self.affected
                .extend((0..paths.len() as u32).filter(|&p| paths[p as usize].count > 0));
        } else {
            self.affected.sort_unstable();
        }
    }

    /// Full-recompute oracle check (the `verify` flag): a fresh
    /// per-flow run (one entry per live flow, no aggregation) must agree
    /// bit for bit with every flow's path rate and bottleneck.
    fn check_against_oracle(&mut self) {
        self.oracle_scratch.begin();
        for si in 0..self.slots.len() {
            if !self.slots[si].live {
                continue;
            }
            let path = self.slots[si].path as usize;
            let base = path * self.stride;
            self.flow_links.clear();
            for j in 0..self.paths[path].len as usize {
                self.flow_links.push(self.path_links[base + j] as usize);
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
            let path = &self.paths[slot.path as usize];
            assert!(
                path.rate == rates[i],
                "incremental rate diverged from the oracle for key {}",
                slot.key
            );
            assert!(
                path.bottleneck as usize == bottlenecks[i],
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
    /// updating path counts, member lists, live counts, and dirty marks
    /// on both the old and new links. The flow's published rate is the
    /// new path's until the next flush recomputes it.
    fn relocate(&mut self, slot: u32, class: usize) {
        self.leave_path(self.slots[slot as usize].path);
        let flow = self.slots[slot as usize].flow;
        self.slots[slot as usize].path = self.join_path(flow, class);
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
            let flow = s.flow;
            let len = self.paths[s.path as usize].len as usize;
            let base = s.path as usize * self.stride;
            let dead = (0..len).any(|j| {
                self.instance
                    .capacity(self.path_links[base + j] as usize)
                    .is_zero()
            });
            if !dead {
                continue;
            }
            // Host access links are shared by every class choice: if
            // one is dead, no detour exists.
            let host_dead = self
                .instance
                .capacity(self.path_links[base] as usize)
                .is_zero()
                || self
                    .instance
                    .capacity(self.path_links[base + len - 1] as usize)
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

    /// The live slot of `key`, if any.
    fn live_slot(&self, key: FlowKey) -> Option<&Slot> {
        let slot = *self.slot_of_key.get(key as usize)?;
        if slot == NO_SLOT {
            return None;
        }
        Some(&self.slots[slot as usize])
    }

    /// The rate of the live flow with `key` as of the last flush, or
    /// `None` if no live flow has that key. (A flow that joined a live
    /// path since then reads that path's rate; one that opened a new
    /// path reads zero.)
    #[must_use]
    pub fn rate(&self, key: FlowKey) -> Option<S> {
        self.live_slot(key)
            .map(|s| self.paths[s.path as usize].rate)
    }

    /// The endpoints of the live flow with `key`, or `None` if no live
    /// flow has that key.
    #[must_use]
    pub fn flow(&self, key: FlowKey) -> Option<Flow> {
        self.live_slot(key).map(|s| s.flow)
    }

    /// The routing class the live flow with `key` was placed on (on a
    /// Clos fabric, the middle-switch index), or `None` if no live flow
    /// has that key. Placement is final for the flow's lifetime
    /// (unsplittable flows are never moved) except through
    /// [`reroute_failed`](Self::reroute_failed).
    #[must_use]
    pub fn class_of(&self, key: FlowKey) -> Option<usize> {
        self.live_slot(key)
            .map(|s| self.paths[s.path as usize].class as usize)
    }

    /// The bottleneck link of the live flow with `key` as of the last
    /// flush.
    #[must_use]
    pub fn bottleneck(&self, key: FlowKey) -> Option<LinkId> {
        self.live_slot(key).map(|s| {
            self.instance
                .link_id(self.paths[s.path as usize].bottleneck as usize)
        })
    }

    /// Iterates over `(key, rate)` of every live flow in slot order (a
    /// deterministic function of the event prefix, independent of the
    /// batch size).
    pub fn live_flows(&self) -> impl Iterator<Item = (FlowKey, S)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.live)
            .map(|s| (s.key, self.paths[s.path as usize].rate))
    }

    /// The global fill levels as of the last flush: the sorted,
    /// deduplicated live rates. Every round level freezes at least one
    /// flow at that rate and every rate is its freezing round's level,
    /// so this equals the sorted deduplication of a fresh full run's
    /// `levels()` in every scalar mode — and the raw sequence itself
    /// under exact rationals, where round levels strictly increase.
    /// (Under `TotalF64`, rounding can make a recomputed link level
    /// land exactly back on the previous round's level, so a fresh
    /// run's raw sequence may contain duplicates.) Every live path
    /// carries at least one live flow, so the live paths' rates are the
    /// live flows' rates.
    #[must_use]
    pub fn levels(&self) -> Vec<S> {
        let mut levels: Vec<S> = self
            .paths
            .iter()
            .filter(|p| p.count > 0)
            .map(|p| p.rate)
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
        for (key, rate) in self.live_flows() {
            fold(key);
            fold(rate.to_f64().to_bits());
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

    /// Path aggregation fires: on a C_2 trace concentrated on three
    /// host pairs, every epoch recomputes at most one entry per path key
    /// (2 classes × 8 sources × 8 destinations), and far fewer paths
    /// than flows. Draining one pair empties its paths, which leave the
    /// pair chain, the member lists, and the region; `verify` pins every
    /// epoch against the per-flow oracle.
    #[test]
    fn hot_pairs_recompute_paths_not_flows() {
        use rand::{Rng, SeedableRng};
        let mut e = engine(2, usize::MAX, true);
        let pairs = [((0, 0), (2, 0)), ((0, 1), (3, 1)), ((1, 0), (2, 1))];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Live flows as `(key, pair)`.
        let mut live: Vec<(u64, usize)> = Vec::new();
        let mut next_key = 0u64;
        let live_paths = |e: &ChurnEngine<Rational>| e.paths.iter().filter(|p| p.count > 0).count();
        // Warm up to 90 flows (30 per pair, ~15 per path) in one epoch.
        for i in 0..90 {
            let (src, dst) = pairs[i % 3];
            arrive(&mut e, next_key, src, dst);
            live.push((next_key, i % 3));
            next_key += 1;
        }
        let before = e.stats();
        e.flush();
        let warm_paths = live_paths(&e);
        assert!((3..=6).contains(&warm_paths));
        assert_eq!(
            e.stats().recomputed_paths - before.recomputed_paths,
            warm_paths as u64
        );
        assert_eq!(e.stats().recomputed_flows - before.recomputed_flows, 90);
        // Then one event per epoch.
        for _ in 0..200 {
            if rng.gen_bool(0.5) {
                let p = rng.gen_range(0..3);
                let (src, dst) = pairs[p];
                arrive(&mut e, next_key, src, dst);
                live.push((next_key, p));
                next_key += 1;
            } else {
                let (key, _) = live.swap_remove(rng.gen_range(0..live.len()));
                e.apply(FlowEvent::Depart { key });
            }
            let before = e.stats();
            e.flush();
            let after = e.stats();
            let paths = after.recomputed_paths - before.recomputed_paths;
            let flows = after.recomputed_flows - before.recomputed_flows;
            assert!(paths <= 2 * 8 * 8, "{paths} paths in one epoch");
            assert!(4 * paths <= flows, "{paths} paths for {flows} flows");
        }
        // Drain pair 0: its paths close and leave the pair's chain and
        // every member list.
        let ((s_tor, s_host), (d_tor, d_host)) = pairs[0];
        let src = e.fabric().source(s_tor, s_host);
        let dst = e.fabric().destination(d_tor, d_host);
        let pair = e.src_terminal[src.index()] as usize * e.dst_terminals
            + e.dst_terminal[dst.index()] as usize;
        let pair_paths = e
            .paths
            .iter()
            .filter(|p| p.count > 0 && p.pair as usize == pair)
            .count();
        assert!(pair_paths >= 1);
        let (open, free) = (live_paths(&e), e.free_paths.len());
        let drained: Vec<u64> = live
            .iter()
            .filter(|&&(_, p)| p == 0)
            .map(|&(k, _)| k)
            .collect();
        live.retain(|&(_, p)| p != 0);
        for key in drained {
            e.apply(FlowEvent::Depart { key });
        }
        e.flush();
        assert_eq!(live_paths(&e), open - pair_paths);
        assert_eq!(e.free_paths.len(), free + pair_paths);
        assert_eq!(e.pair_head[pair], NO_PATH);
        assert!(e
            .members
            .iter()
            .flatten()
            .all(|&p| e.paths[p as usize].count > 0));
        // The reopened pair reuses a freed path slot.
        arrive(&mut e, next_key, pairs[0].0, pairs[0].1);
        e.flush();
        assert_eq!(live_paths(&e), open - pair_paths + 1);
        assert_eq!(e.free_paths.len(), free + pair_paths - 1);
        assert_eq!(e.live(), live.len() + 1);
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
