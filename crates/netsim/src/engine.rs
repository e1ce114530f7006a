//! Event-driven incremental fluid engine on flat index-based storage.
//!
//! The engine advances the simulation from event to event over an explicit
//! priority queue of three event kinds:
//!
//! * **flow arrival** — a flow's `start_s` is reached and it joins the
//!   active set;
//! * **flow completion** — a flow's predicted finish time fires (stale
//!   predictions are lazily invalidated by a per-flow version counter);
//! * **fabric reconfiguration** — the link capacities are swapped at a
//!   scheduled instant (OCS/patch-panel rewiring between jobs);
//! * **fault** — a [`FaultEvent`]: a link/transceiver dies or recovers, an
//!   OCS port takes every matched link on it down, or a server straggles
//!   (its egress flows are rate-scaled). Flows crossing a dead link stall
//!   at rate 0 — they are *not* dropped, and resume if the link recovers
//!   before the run drains.
//!
//! # Flat storage
//!
//! Links are interned once into a dense [`crate::arena::LinkArena`]
//! (`LinkId = u32`), and each flow's path is resolved to link ids at
//! [`FluidEngine::add_flow`] time into one flat CSR-style buffer
//! (`flow_links`, per-flow contiguous slices). Everything the hot path
//! touches — capacities, per-link byte counters, the active-flows-per-link
//! adjacency, BFS visit marks — is a `Vec` indexed by `LinkId`/[`FlowId`],
//! so event handling and water-filling do zero tree or hash lookups. The
//! old `BTreeMap`-ordered semantics survive at the API boundary
//! ([`FluidEngine::from_capacities`], [`FluidEngine::result`]) and in the
//! arena's key-sorted id list, which fixes the iteration order of every
//! order-sensitive float reduction; the refactor is bit-identical to the
//! map-keyed engine (see `tests/engine.rs` and the committed artifacts).
//!
//! # Incremental recomputation
//!
//! The key optimisation over the from-scratch loop
//! ([`crate::fluid::simulate_flows_reference`]) is *incremental* max-min
//! recomputation: an event can only change the rates of flows that share a
//! link — transitively — with the flows it touches, i.e. the connected
//! component of the flow/link sharing graph around the event. The engine
//! re-waterfills exactly that component and leaves every other flow's rate
//! (and its already-scheduled completion event) untouched. On a sharded
//! shared cluster (Figure 16), where each job's flows live on a disjoint
//! slice of the fabric, this turns every event from an O(all flows)
//! recomputation into an O(one job) one; [`EngineStats::max_component`]
//! makes the effect observable. When one event batch touches *several*
//! disjoint components, each is water-filled in turn on the calling thread,
//! reusing one pooled scratch, with rates applied in component order.
//! (A rayon fan-out per batch was measured slower at every size tried:
//! each batch is short, and the vendored pool spawns threads per call.)
//!
//! # Sharded event loops
//!
//! [`FluidEngine::run`] is the one event loop. The shared-cluster window
//! (`multijob::SharedFabricEngine::run_window`) already knows which resident
//! jobs form disjoint link components, so it hands those components to
//! `FluidEngine::run_shards`, which runs each in a fresh sub-engine on a
//! rayon thread and merges the outcomes. Shards only ever start at a window
//! origin — clock at 0, every listed flow armed, the heap holding exactly
//! their arrivals — and `run_shards` asserts it, so a shard is rebuilt from
//! flow specs alone: the parent's *effective* capacities on the shard's
//! links, its straggler factors, and the members added in ascending id
//! order, which pushes their arrivals in the same relative sequence as the
//! parent heap. Components never interact — no shared links means no shared
//! rates, no shared events, and no shared byte counters — so each shard is
//! the single loop restricted to its own links, and the merge (flow
//! outcomes and per-link bytes copied per shard, the carried-bytes sum
//! taken globally in key order, stats summed in shard order) is
//! bit-identical to [`FluidEngine::run`] regardless of thread count;
//! `RAYON_NUM_THREADS=1` and the default produce byte-identical results.
//!
//! # Window-level reuse
//!
//! The dynamic shared cluster re-rates co-resident jobs after every
//! arrival/departure. Instead of rebuilding an engine per window, one
//! engine now lives as long as the cluster: links intern once,
//! `FluidEngine::add_flow_parked` registers a job's flows without
//! scheduling them, `FluidEngine::remove_flows` retires a departing
//! job's flows (deregistering them from the adjacency and invalidating
//! their pending events), and `FluidEngine::restart_flows` rewinds the
//! clock and re-arms exactly the flows whose component an event window
//! touched — untouched components keep their cached results, which is
//! sound because disjoint components produce bit-identical results whether
//! or not they are re-simulated (see `multijob::SharedFabricEngine`).
//!
//! Rates between events are constant, so flow progress is settled lazily:
//! each flow remembers the last instant its remaining bytes were reconciled
//! and is only touched when its component is re-waterfilled, when it
//! completes, or when [`FluidEngine::run_until`] settles the world at a
//! window boundary.

use crate::arena::{dense_u32, waterfill_ids_with, LinkArena, LinkId, WaterfillScratch};
use crate::fluid::{link_capacities, FlowSpec, FluidResult, LinkKey, COMPLETION_EPS_BYTES};
use rayon::prelude::*;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use topoopt_graph::Graph;

/// Index of a flow inside a [`FluidEngine`], in insertion order. Flows are
/// already arena-allocated (dense `Vec` storage), so the id doubles as the
/// index into every per-flow side array.
pub type FlowId = usize;

/// Lifecycle of one engine flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowState {
    /// Not yet started (waiting for its arrival event).
    Pending,
    /// Transferring bytes.
    Active,
    /// Finished (or declared unroutable at the end of the run).
    Done,
}

#[derive(Debug, Clone)]
struct EngineFlow {
    spec: FlowSpec,
    state: FlowState,
    remaining_bytes: f64,
    rate_bps: f64,
    /// Last instant `remaining_bytes` / `link_bytes` were reconciled.
    settled_s: f64,
    /// Bumped on every rate change; stale completion events carry an older
    /// version and are skipped when popped.
    version: u64,
    completion_s: f64,
    /// Start of this flow's link-id slice in the engine's flat `flow_links`
    /// buffer; the slice is `spec.hops()` long.
    links_start: usize,
}

#[derive(Debug, Clone)]
enum EventKind {
    Arrival(FlowId),
    Completion { flow: FlowId, version: u64 },
    Reconfigure(usize),
    Fault(usize),
}

/// A fabric fault (or recovery) injected into the event queue via
/// [`FluidEngine::schedule_fault`]. Link keys are directed `(src, dst)`
/// pairs; an OCS port is identified by the server whose interface is
/// matched through it, so a port failure kills every directed link
/// incident to that server. Failures stack: a link taken down twice (say,
/// by a transceiver fault *and* its OCS port) needs both recoveries before
/// it carries traffic again, and a reconfiguration cannot revive a link
/// whose transceiver is still dead. Stragglers scale the egress rate of
/// every flow sourced at the server: an `egress_factor` below 1.0 caps the
/// flow at that fraction of its path bottleneck capacity (composed with
/// the flow's relay factor); a factor of 1.0 (or more) marks the server
/// healthy again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A link (transceiver) fails: capacity drops to zero, flows on it
    /// stall at rate 0 until recovery.
    LinkDown(LinkKey),
    /// The matching link recovery: the link returns at the capacity it
    /// would otherwise have (current fabric capacity, not a snapshot).
    LinkUp(LinkKey),
    /// An OCS port fails: every directed link incident to the server wired
    /// through that port goes down.
    OcsPortDown(usize),
    /// The matching port recovery.
    OcsPortUp(usize),
    /// A server straggles: flows sourced there are capped at
    /// `egress_factor` × their path bottleneck capacity. 1.0 = healthy.
    Straggler { server: usize, egress_factor: f64 },
}

#[derive(Debug, Clone)]
struct Event {
    time_s: f64,
    /// Insertion order, breaking time ties deterministically.
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time_s.total_cmp(&other.time_s).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Counters describing how much work a run did — the observable payoff of
/// incremental recomputation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed (stale completion events excluded).
    pub events: usize,
    /// Water-filling passes executed.
    pub waterfills: usize,
    /// Total flows re-rated across all water-filling passes. The
    /// from-scratch loop would re-rate every active flow at every event.
    pub flows_rerated: usize,
    /// Largest connected component ever re-waterfilled at once.
    pub max_component: usize,
    /// Fabric reconfigurations applied.
    pub reconfigurations: usize,
    /// Fault/recovery events applied.
    pub faults: usize,
}

impl EngineStats {
    /// Fold another run's counters in (shard merge: sums, except the
    /// component high-water mark which takes the max).
    fn absorb(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.waterfills += other.waterfills;
        self.flows_rerated += other.flows_rerated;
        self.max_component = self.max_component.max(other.max_component);
        self.reconfigurations += other.reconfigurations;
        self.faults += other.faults;
    }
}

/// Event-driven max-min fluid simulator with incremental rate updates over
/// flat index-based storage (see the module docs).
#[derive(Debug, Clone)]
pub struct FluidEngine {
    links: LinkArena,
    per_hop_latency_s: f64,
    flows: Vec<EngineFlow>,
    /// CSR buffer of per-flow link ids (one entry per path window, in path
    /// order, duplicates preserved); sliced via `EngineFlow::links_start`.
    flow_links: Vec<LinkId>,
    /// Active flows crossing each link, indexed by `LinkId`, one entry per
    /// traversal.
    active_on_link: Vec<Vec<FlowId>>,
    /// Bytes carried per link, indexed by `LinkId`.
    link_bytes: Vec<f64>,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    now_s: f64,
    /// Scheduled capacity swaps, interned at schedule time.
    pending_reconfigs: Vec<Vec<(LinkId, f64)>>,
    /// Scheduled fault events, link keys interned at schedule time.
    pending_faults: Vec<FaultEvent>,
    stats: EngineStats,
    /// Per-link failure count, indexed by `LinkId`: a link is dead while
    /// its count is positive (overlapping link- and port-level faults
    /// stack, so recoveries pair with their failures).
    down: Vec<u32>,
    /// The capacity each link would have if healthy, indexed by `LinkId`;
    /// the arena always holds the *effective* capacity (0 while down).
    healthy_caps: Vec<f64>,
    /// Per-server egress scale factors for straggling servers; only
    /// entries below 1.0 are stored, so an empty map is the healthy fast
    /// path (and `x * 1.0 == x` bitwise keeps factor composition exact).
    stragglers: BTreeMap<usize, f64>,
    /// Epoch-stamped BFS scratch (per flow / per link): a mark equal to
    /// `epoch` means "visited in the current traversal", so component
    /// gathering allocates nothing per event.
    flow_mark: Vec<u64>,
    link_mark: Vec<u64>,
    epoch: u64,
    /// Pooled water-filling buffers for the sequential recompute path.
    wf_scratch: WaterfillScratch,
}

impl FluidEngine {
    /// Engine over `graph`'s aggregated directed-link capacities, with a
    /// fixed per-hop propagation delay added to every completion time.
    pub fn new(graph: &Graph, per_hop_latency_s: f64) -> Self {
        Self::from_capacities(link_capacities(graph), per_hop_latency_s)
    }

    /// Engine over an explicit link-capacity map (bps per directed pair).
    /// The sorted map is interned into the flat arena here, once; the hot
    /// path never touches a tree again.
    pub fn from_capacities(capacity: BTreeMap<LinkKey, f64>, per_hop_latency_s: f64) -> Self {
        let links = LinkArena::from_sorted_capacities(capacity);
        let n = links.len();
        let healthy_caps: Vec<f64> = (0..n).map(|i| links.cap(dense_u32(i))).collect();
        FluidEngine {
            links,
            per_hop_latency_s,
            flows: Vec::new(),
            flow_links: Vec::new(),
            active_on_link: vec![Vec::new(); n],
            link_bytes: vec![0.0; n],
            events: BinaryHeap::new(),
            next_seq: 0,
            now_s: 0.0,
            pending_reconfigs: Vec::new(),
            pending_faults: Vec::new(),
            stats: EngineStats::default(),
            down: vec![0; n],
            healthy_caps,
            stragglers: BTreeMap::new(),
            flow_mark: Vec::new(),
            link_mark: vec![0; n],
            epoch: 0,
            wf_scratch: WaterfillScratch::default(),
        }
    }

    /// Current simulation clock.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Work counters for this run so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of distinct directed links interned so far (fabric links plus
    /// any virtual links appearing only on flow paths).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Intern a link id, growing every `LinkId`-indexed side array in step
    /// with the arena.
    fn intern_link(&mut self, key: LinkKey) -> LinkId {
        let id = self.links.intern(key);
        let n = self.links.len();
        if n > self.link_bytes.len() {
            self.link_bytes.resize(n, 0.0);
            self.active_on_link.resize_with(n, Vec::new);
            self.link_mark.resize(n, 0);
            self.down.resize(n, 0);
            self.healthy_caps.resize(n, 0.0); // fresh interns start at cap 0
        }
        id
    }

    /// The link-id slice of a flow's path.
    pub(crate) fn span(&self, id: FlowId) -> &[LinkId] {
        let f = &self.flows[id];
        &self.flow_links[f.links_start..f.links_start + f.spec.hops()]
    }

    /// Current capacity of a directed link, 0.0 when the pair was never
    /// interned (links absent from the fabric carry nothing).
    pub(crate) fn capacity_of(&self, key: LinkKey) -> f64 {
        self.links.lookup(key).map(|id| self.links.cap(id)).unwrap_or(0.0)
    }

    /// Add a flow; its arrival event fires at `spec.start_s` (clamped to the
    /// current clock if that instant already passed). Flows with zero hops
    /// or zero bytes complete immediately, matching the reference loop.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        let id = self.add_flow_parked(spec);
        self.arm(id);
        id
    }

    /// Add a flow without scheduling it: links are interned and the CSR
    /// span is built, but the flow is parked `Done` with an infinite
    /// completion until [`Self::restart_flows`] arms it for a window. This
    /// is the admission half of window-level reuse — a long-lived engine
    /// interns a job's paths once, and each event window restarts only the
    /// flows it touches.
    pub(crate) fn add_flow_parked(&mut self, spec: FlowSpec) -> FlowId {
        let id = self.flows.len();
        let links_start = self.flow_links.len();
        for w in spec.path.windows(2) {
            let lid = self.intern_link((w[0], w[1]));
            self.flow_links.push(lid);
        }
        self.flows.push(EngineFlow {
            state: FlowState::Done,
            remaining_bytes: spec.bytes.max(0.0),
            rate_bps: 0.0,
            settled_s: spec.start_s,
            version: 0,
            completion_s: f64::INFINITY,
            links_start,
            spec,
        });
        self.flow_mark.push(0);
        id
    }

    /// Arm a flow for a run with its full byte demand: zero hops complete
    /// at `start_s`, zero bytes at 0, and anything else goes `Pending`
    /// with an arrival at `start_s` (clamped to the current clock).
    fn arm(&mut self, id: FlowId) {
        let flow = &mut self.flows[id];
        flow.rate_bps = 0.0;
        flow.remaining_bytes = flow.spec.bytes.max(0.0);
        flow.settled_s = flow.spec.start_s;
        if flow.spec.hops() == 0 {
            flow.state = FlowState::Done;
            flow.completion_s = flow.spec.start_s;
        } else if flow.remaining_bytes <= 0.0 {
            flow.state = FlowState::Done;
            flow.completion_s = 0.0;
        } else {
            flow.state = FlowState::Pending;
            flow.completion_s = 0.0;
            let t = flow.spec.start_s.max(self.now_s);
            self.push_event(t, EventKind::Arrival(id));
        }
    }

    /// Retire a flow set (a departing job): unhook each flow from the
    /// per-link adjacency, cancel its pending completion/arrival events
    /// (lazily, via the version counter and the `Pending` state check in
    /// the event loop), and mark it `Done`. Flows that had not finished
    /// report an infinite completion; already-finished flows keep theirs.
    /// Retired flows stay in the arena — ids remain stable and the CSR
    /// buffer is append-only — but they are invisible to recomputation and
    /// future windows.
    pub(crate) fn remove_flows(&mut self, ids: &[FlowId]) {
        for &id in ids {
            match self.flows[id].state {
                FlowState::Done => {}
                FlowState::Active => {
                    self.settle(id);
                    let start = self.flows[id].links_start;
                    let end = start + self.flows[id].spec.hops();
                    for k in start..end {
                        let lid = self.flow_links[k] as usize;
                        self.active_on_link[lid].retain(|&f| f != id);
                    }
                    let flow = &mut self.flows[id];
                    flow.state = FlowState::Done;
                    flow.rate_bps = 0.0;
                    flow.version += 1;
                    flow.completion_s = f64::INFINITY;
                }
                FlowState::Pending => {
                    let flow = &mut self.flows[id];
                    flow.state = FlowState::Done;
                    flow.version += 1;
                    flow.completion_s = f64::INFINITY;
                }
            }
        }
    }

    /// Rewind the clock to 0 and re-arm exactly `ids` for a fresh window:
    /// each flow gets its full byte demand back, a bumped version (stale
    /// predictions die), zeroed window-local byte counters on its links,
    /// and a new arrival event at `spec.start_s` — scheduled in `ids`
    /// order, so passing ascending ids reproduces [`Self::add_flow`]'s
    /// event-sequence assignment on a fresh engine exactly. Flows *not* in
    /// `ids` are untouched: a finished flow in a disjoint component keeps
    /// its cached completion, which is bit-identical to what re-simulating
    /// it would produce (disjoint components share no float operations).
    ///
    /// Requires a quiescent engine: the previous window must have run to
    /// completion (empty event heap).
    pub(crate) fn restart_flows(&mut self, ids: &[FlowId]) {
        assert!(
            self.events.is_empty(),
            "restart_flows needs a quiescent engine (run the previous window to completion)"
        );
        self.now_s = 0.0;
        for &id in ids {
            let start = self.flows[id].links_start;
            let end = start + self.flows[id].spec.hops();
            if self.flows[id].state == FlowState::Active {
                // Defensive: a zero-rate flow can be live with an empty
                // heap; deregister it before resetting.
                for k in start..end {
                    let lid = self.flow_links[k] as usize;
                    self.active_on_link[lid].retain(|&f| f != id);
                }
            }
            // Zero the window-local byte counters of this flow's links
            // (idempotent across flows sharing a link).
            for k in start..end {
                self.link_bytes[self.flow_links[k] as usize] = 0.0;
            }
            self.flows[id].version += 1;
            self.arm(id);
        }
    }

    /// Schedule a fabric reconfiguration: at `time_s` the link capacities
    /// are replaced by `graph`'s and every active flow is re-rated.
    pub fn schedule_reconfig(&mut self, time_s: f64, graph: &Graph) {
        self.schedule_reconfig_capacities(time_s, link_capacities(graph));
    }

    /// [`Self::schedule_reconfig`] with an explicit capacity map. Keys are
    /// interned immediately, so the swap itself is a flat pass at event
    /// time.
    pub fn schedule_reconfig_capacities(&mut self, time_s: f64, capacity: BTreeMap<LinkKey, f64>) {
        let entries: Vec<(LinkId, f64)> =
            capacity.into_iter().map(|(key, cap)| (self.intern_link(key), cap)).collect();
        let idx = self.pending_reconfigs.len();
        self.pending_reconfigs.push(entries);
        let t = time_s.max(self.now_s);
        self.push_event(t, EventKind::Reconfigure(idx));
    }

    /// Schedule a [`FaultEvent`] at `time_s` (clamped to the current
    /// clock). The fault enters through the ordinary event queue: when it
    /// fires, exactly the flows whose effective rates it can change are
    /// re-rated. Flows stalled on a dead link stay active at rate 0 — a
    /// later recovery revives them; only a run that drains with the link
    /// still down declares them unroutable (infinite completion).
    pub fn schedule_fault(&mut self, time_s: f64, fault: FaultEvent) {
        if let FaultEvent::LinkDown(key) | FaultEvent::LinkUp(key) = fault {
            self.intern_link(key);
        }
        let idx = self.pending_faults.len();
        self.pending_faults.push(fault);
        let t = time_s.max(self.now_s);
        self.push_event(t, EventKind::Fault(idx));
    }

    /// Apply a fault immediately, bypassing the event queue, and re-rate
    /// the flows it touched. Used to transplant an accumulated health
    /// state onto a fresh engine (the rebuild oracle pre-applies the fault
    /// history its persistent counterpart absorbed event by event); on a
    /// quiescent engine this is pure state, no recomputation.
    pub(crate) fn apply_fault_now(&mut self, fault: FaultEvent) {
        let mut seeds: Vec<FlowId> = Vec::new();
        self.apply_fault_state(fault, &mut seeds);
        if !seeds.is_empty() {
            seeds.sort_unstable();
            seeds.dedup();
            self.recompute_components(&seeds);
        }
    }

    /// Mutate the health state for one fault, pushing every active flow
    /// whose effective rate can change into `seeds`.
    fn apply_fault_state(&mut self, fault: FaultEvent, seeds: &mut Vec<FlowId>) {
        match fault {
            FaultEvent::LinkDown(key) => {
                let lid = self.intern_link(key);
                self.fail_link(lid, seeds);
            }
            FaultEvent::LinkUp(key) => {
                let lid = self.intern_link(key);
                self.recover_link(lid, seeds);
            }
            FaultEvent::OcsPortDown(server) => {
                for lid in self.port_links(server) {
                    self.fail_link(lid, seeds);
                }
            }
            FaultEvent::OcsPortUp(server) => {
                for lid in self.port_links(server) {
                    self.recover_link(lid, seeds);
                }
            }
            FaultEvent::Straggler { server, egress_factor } => {
                if egress_factor >= 1.0 {
                    self.stragglers.remove(&server);
                } else {
                    self.stragglers.insert(server, egress_factor.max(0.0));
                }
                for (id, flow) in self.flows.iter().enumerate() {
                    if flow.state == FlowState::Active && flow.spec.src == server {
                        seeds.push(id);
                    }
                }
            }
        }
    }

    /// One more failure on a link; the first takes its capacity to zero.
    /// Seeding is skipped when the healthy capacity is already zero (a
    /// virtual path link): the effective capacity does not change, so
    /// which zero-capacity links happen to be interned cannot influence
    /// the recomputation.
    fn fail_link(&mut self, lid: LinkId, seeds: &mut Vec<FlowId>) {
        let l = lid as usize;
        self.down[l] += 1;
        if self.down[l] == 1 {
            self.links.set_cap(lid, 0.0);
            if self.healthy_caps[l] != 0.0 {
                seeds.extend(self.active_on_link[l].iter().copied());
            }
        }
    }

    /// One failure recovered; the last restores the healthy capacity.
    /// Recoveries without a matching failure are ignored.
    fn recover_link(&mut self, lid: LinkId, seeds: &mut Vec<FlowId>) {
        let l = lid as usize;
        if self.down[l] == 0 {
            return; // spurious recovery
        }
        self.down[l] -= 1;
        if self.down[l] == 0 {
            let cap = self.healthy_caps[l];
            self.links.set_cap(lid, cap);
            if cap != 0.0 {
                seeds.extend(self.active_on_link[l].iter().copied());
            }
        }
    }

    /// Every interned directed link incident to `server`, in ascending
    /// `LinkKey` order (the determinism contract: the same fault applies
    /// its per-link updates in the same order on every engine).
    fn port_links(&self, server: usize) -> Vec<LinkId> {
        self.links
            .ids_by_key()
            .iter()
            .copied()
            .filter(|&id| {
                let (src, dst) = self.links.key(id);
                src == server || dst == server
            })
            .collect()
    }

    /// The current per-server straggler factors (empty = all healthy).
    pub(crate) fn straggler_factors(&self) -> &BTreeMap<usize, f64> {
        &self.stragglers
    }

    /// Transplant straggler factors onto this engine (the admission probe
    /// must rate flows exactly as the source engine would).
    pub(crate) fn set_straggler_factors(&mut self, factors: BTreeMap<usize, f64>) {
        self.stragglers = factors;
    }

    /// Ids of the links a fault would touch right now — the dirty set the
    /// window-level cache uses to decide which residents to re-rate.
    /// Straggler faults touch no links (they dirty by flow source instead).
    pub(crate) fn fault_link_ids(&self, fault: &FaultEvent) -> Vec<LinkId> {
        match *fault {
            FaultEvent::LinkDown(key) | FaultEvent::LinkUp(key) => {
                self.links.lookup(key).into_iter().collect()
            }
            FaultEvent::OcsPortDown(server) | FaultEvent::OcsPortUp(server) => {
                self.port_links(server)
            }
            FaultEvent::Straggler { .. } => Vec::new(),
        }
    }

    /// Source server of a flow (window-level straggler dirtying).
    pub(crate) fn flow_src(&self, id: FlowId) -> usize {
        self.flows[id].spec.src
    }

    /// Process every event; flows still active afterwards (zero-rate on a
    /// zero-capacity link) are declared unroutable with infinite completion.
    pub fn run(&mut self) {
        self.run_until(f64::INFINITY);
        for flow in &mut self.flows {
            if flow.state != FlowState::Done {
                flow.state = FlowState::Done;
                flow.completion_s = f64::INFINITY;
            }
        }
        for v in &mut self.active_on_link {
            v.clear();
        }
    }

    /// [`Self::run`] split into independent event loops, one per entry of
    /// `shards` (each an ascending flow-id list; the lists must not share
    /// a link). Each shard runs in a fresh sub-engine on a rayon thread —
    /// built with [`Self::add_flow`] from its members' specs over this
    /// engine's effective capacities and straggler factors — and its
    /// completions, link bytes and stats merge back in shard order, so the
    /// outcome is bit-identical to [`Self::run`] (see the module docs).
    ///
    /// # Panics
    ///
    /// Unless the engine is at a window origin: the clock at 0, no listed
    /// flow active, and the heap holding exactly the arrivals of the
    /// listed pending flows (a fresh engine, or one
    /// [`Self::restart_flows`] just rewound). No fault or reconfiguration
    /// may be queued.
    pub(crate) fn run_shards(&mut self, shards: &[Vec<FlowId>]) {
        // Listed flows still live after arming; an active one (mid-run)
        // has no queued arrival, so the comparison below rejects it.
        let mut armed: Vec<FlowId> = shards
            .iter()
            .flatten()
            .copied()
            .filter(|&f| self.flows[f].state != FlowState::Done)
            .collect();
        armed.sort_unstable();
        let mut queued: Vec<FlowId> = std::mem::take(&mut self.events)
            .into_iter()
            .map(|Reverse(ev)| match ev.kind {
                EventKind::Arrival(id) => id,
                _ => usize::MAX,
            })
            .collect();
        queued.sort_unstable();
        assert!(
            self.now_s == 0.0 && armed == queued,
            "run_shards needs a window origin: clock at 0 and only the listed flows' arrivals queued"
        );
        let outcomes: Vec<ShardOutcome> =
            shards.par_iter().map(|ids| ShardOutcome::run(self.shard_engine(ids))).collect();
        for (ids, out) in shards.iter().zip(outcomes) {
            for (&f, done) in ids.iter().zip(&out.flows) {
                let flow = &mut self.flows[f];
                flow.state = done.state;
                flow.remaining_bytes = done.remaining_bytes;
                flow.settled_s = done.settled_s;
                flow.completion_s = done.completion_s;
            }
            for &(key, bytes) in &out.link_bytes {
                let gid = self
                    .links
                    .lookup(key)
                    // lint:allow(panic-in-engine): every shard link was copied
                    // out of this engine's arena by shard_engine.
                    .expect("shard links are interned in the parent");
                self.link_bytes[gid as usize] = bytes;
            }
            self.stats.absorb(&out.stats);
            self.now_s = self.now_s.max(out.now_s);
        }
    }

    /// A fresh engine holding only `ids`, armed as [`Self::add_flow`] arms
    /// them, over this engine's effective capacities on their links.
    fn shard_engine(&self, ids: &[FlowId]) -> FluidEngine {
        let mut caps: BTreeMap<LinkKey, f64> = BTreeMap::new();
        for &f in ids {
            for &lid in self.span(f) {
                caps.insert(self.links.key(lid), self.links.cap(lid));
            }
        }
        let mut sub = FluidEngine::from_capacities(caps, self.per_hop_latency_s);
        sub.stragglers = self.stragglers.clone();
        for &f in ids {
            sub.add_flow(self.flows[f].spec.clone());
        }
        sub
    }

    /// Process events up to and including `t_end`, then settle every active
    /// flow's progress to `t_end` so remaining bytes can be read exactly.
    /// The engine can continue afterwards (add flows, schedule reconfigs,
    /// call `run_until` again with a later deadline).
    ///
    /// Events scheduled for the *same instant* are drained as one batch and
    /// followed by a single recomputation pass, so a wave of simultaneous
    /// arrivals (every job starting a round at t = 0) or completions costs
    /// one waterfill per touched component instead of one per event.
    pub fn run_until(&mut self, t_end: f64) {
        while let Some(Reverse(head)) = self.events.peek() {
            if head.time_s > t_end {
                break;
            }
            let batch_time = head.time_s;
            self.now_s = self.now_s.max(batch_time);
            let mut seeds: Vec<FlowId> = Vec::new();
            let mut reconfigured = false;
            while let Some(Reverse(ev)) = self.events.peek() {
                if ev.time_s.total_cmp(&batch_time) != Ordering::Equal {
                    break;
                }
                // lint:allow(panic-in-engine): the heap is non-empty — the
                // surrounding `while let` just peeked this event.
                let Reverse(ev) = self.events.pop().expect("peeked event vanished");
                match ev.kind {
                    EventKind::Arrival(id) => {
                        if self.flows[id].state != FlowState::Pending {
                            continue; // flow retired (or restarted) since scheduling
                        }
                        self.stats.events += 1;
                        self.activate(id);
                        seeds.push(id);
                    }
                    EventKind::Completion { flow, version } => {
                        if self.flows[flow].state != FlowState::Active
                            || self.flows[flow].version != version
                        {
                            continue; // stale prediction
                        }
                        self.stats.events += 1;
                        self.settle(flow);
                        seeds.extend(self.finish_now(flow));
                    }
                    EventKind::Reconfigure(idx) => {
                        self.stats.events += 1;
                        self.stats.reconfigurations += 1;
                        self.apply_reconfig(idx);
                        reconfigured = true;
                    }
                    EventKind::Fault(idx) => {
                        self.stats.events += 1;
                        self.stats.faults += 1;
                        let fault = self.pending_faults[idx];
                        self.apply_fault_state(fault, &mut seeds);
                    }
                }
            }
            if reconfigured {
                // New capacities can re-rate every active flow.
                seeds = (0..self.flows.len())
                    .filter(|&i| self.flows[i].state == FlowState::Active)
                    .collect();
            } else {
                seeds.sort_unstable();
                seeds.dedup();
            }
            self.recompute_components(&seeds);
        }
        // `>=`, not `>`: when the last processed event lands exactly on
        // t_end, flows in *other* components are still settled only up to
        // their previous event and need reconciling to the deadline.
        if t_end.is_finite() && t_end >= self.now_s {
            self.now_s = t_end;
            for id in 0..self.flows.len() {
                if self.flows[id].state == FlowState::Active {
                    self.settle(id);
                }
            }
        }
    }

    /// True when no flow is still making progress: everything is done,
    /// pending after `now`, or stuck at rate zero.
    pub fn drained(&self) -> bool {
        self.flows.iter().all(|f| f.state != FlowState::Active || f.rate_bps <= 0.0)
            && self.flows.iter().all(|f| f.state != FlowState::Pending)
    }

    /// Whether a flow has finished (routable flows only; see
    /// [`Self::completion_s`] for the unroutable marker).
    pub fn is_done(&self, id: FlowId) -> bool {
        self.flows[id].state == FlowState::Done
    }

    /// Completion time of a finished flow (infinite if declared
    /// unroutable); meaningless while the flow is still pending/active.
    pub fn completion_s(&self, id: FlowId) -> f64 {
        self.flows[id].completion_s
    }

    /// Bytes a flow still has to send, exact as of the last `run_until`
    /// deadline or processed event.
    pub fn remaining_bytes(&self, id: FlowId) -> f64 {
        self.flows[id].remaining_bytes
    }

    /// Latest finite completion time observed so far (0.0 if none).
    pub fn makespan_so_far(&self) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.state == FlowState::Done && f.completion_s.is_finite())
            .map(|f| f.completion_s)
            .fold(0.0, f64::max)
    }

    /// Total bytes carried over all links, summed in ascending `LinkKey`
    /// order via the arena's key-sorted id list: O(links), allocation-free,
    /// and bit-stable run-over-run (float addition does not commute at the
    /// last ulp, so the order is part of the determinism contract — see
    /// [`crate::arena`]). Links that carried nothing contribute exact
    /// zeros, which leave every partial sum bit-unchanged.
    pub fn carried_bytes(&self) -> f64 {
        self.links.ids_by_key().iter().map(|&id| self.link_bytes[id as usize]).sum()
    }

    /// Snapshot the run as a [`FluidResult`] (flows indexed in insertion
    /// order). Call after [`Self::run`]; flows not yet finished report
    /// infinite completion.
    pub fn result(&self) -> FluidResult {
        let completion: Vec<f64> = self
            .flows
            .iter()
            .map(|f| if f.state == FlowState::Done { f.completion_s } else { f64::INFINITY })
            .collect();
        // Only links that actually carried bytes get a map entry, matching
        // the map-keyed engine which created entries on first positive
        // addition.
        let mut link_bytes: HashMap<LinkKey, f64> = HashMap::new();
        for (id, &bytes) in self.link_bytes.iter().enumerate() {
            if bytes > 0.0 {
                link_bytes.insert(self.links.key(dense_u32(id)), bytes);
            }
        }
        let carried = self.carried_bytes();
        let demand: f64 =
            self.flows.iter().map(|f| if f.spec.hops() > 0 { f.spec.bytes } else { 0.0 }).sum();
        let makespan = completion.iter().cloned().filter(|c| c.is_finite()).fold(0.0, f64::max);
        FluidResult {
            completion_s: completion,
            makespan_s: makespan,
            link_bytes,
            carried_bytes: carried,
            demand_bytes: demand,
        }
    }

    fn push_event(&mut self, time_s: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { time_s, seq, kind }));
    }

    /// Swap in a scheduled capacity set: zero everything, then write the
    /// new fabric's capacities (links absent from it carry nothing). The
    /// new capacities are the *healthy* ones — a rewiring cannot revive a
    /// link whose transceiver (or OCS port) is still dead, so links with a
    /// positive failure count keep an effective capacity of zero.
    fn apply_reconfig(&mut self, idx: usize) {
        self.links.zero_caps();
        for h in &mut self.healthy_caps {
            *h = 0.0;
        }
        for k in 0..self.pending_reconfigs[idx].len() {
            let (lid, cap) = self.pending_reconfigs[idx][k];
            self.healthy_caps[lid as usize] = cap;
            self.links.set_cap(lid, if self.down[lid as usize] > 0 { 0.0 } else { cap });
        }
    }

    /// Reconcile a flow's remaining bytes (and the per-link byte counters)
    /// up to the current clock at its constant rate.
    fn settle(&mut self, id: FlowId) {
        let flow = &self.flows[id];
        let dt = self.now_s - flow.settled_s;
        if dt <= 0.0 || flow.rate_bps <= 0.0 {
            self.flows[id].settled_s = self.now_s;
            return;
        }
        let sent = (flow.rate_bps * dt / 8.0).min(flow.remaining_bytes);
        if sent > 0.0 {
            let start = flow.links_start;
            let end = start + flow.spec.hops();
            for k in start..end {
                self.link_bytes[self.flow_links[k] as usize] += sent;
            }
        }
        let flow = &mut self.flows[id];
        flow.remaining_bytes -= sent;
        flow.settled_s = self.now_s;
    }

    /// Make a pending flow active and register it on its links; the caller
    /// re-rates its component at the end of the event batch.
    fn activate(&mut self, id: FlowId) {
        let flow = &mut self.flows[id];
        flow.state = FlowState::Active;
        flow.settled_s = self.now_s;
        let start = flow.links_start;
        let end = start + flow.spec.hops();
        for k in start..end {
            self.active_on_link[self.flow_links[k] as usize].push(id);
        }
    }

    /// Mark a settled flow finished at the current clock: drain any float
    /// residue into the byte counters, deregister it from its links, and
    /// return the still-active flows that shared a link with it (the seeds
    /// of the component to re-rate). Idempotent callers must check state.
    fn finish_now(&mut self, id: FlowId) -> Vec<FlowId> {
        let start = self.flows[id].links_start;
        let end = start + self.flows[id].spec.hops();
        let leftover = self.flows[id].remaining_bytes;
        if leftover > 0.0 {
            for k in start..end {
                self.link_bytes[self.flow_links[k] as usize] += leftover;
            }
            self.flows[id].remaining_bytes = 0.0;
        }
        let flow = &mut self.flows[id];
        flow.state = FlowState::Done;
        flow.rate_bps = 0.0;
        flow.version += 1;
        flow.completion_s = self.now_s + self.per_hop_latency_s * flow.spec.hops() as f64;

        let mut neighbours: Vec<FlowId> = Vec::new();
        for k in start..end {
            let lid = self.flow_links[k] as usize;
            let sharers = &mut self.active_on_link[lid];
            sharers.retain(|&f| f != id);
            neighbours.extend(sharers.iter().copied());
        }
        neighbours.sort_unstable();
        neighbours.dedup();
        neighbours
    }

    /// Re-waterfill every connected component (over link sharing) that
    /// contains a seed flow. Disjoint components — e.g. two jobs whose
    /// rounds end at the same instant on separate shards, or a wave of
    /// t = 0 arrivals across all shards — are re-rated independently, one
    /// after another in seed order on the calling thread, with pooled
    /// scratch buffers.
    ///
    /// Each component is re-rated as soon as it is gathered: re-rating
    /// touches only the component's own flows and links, so it cannot
    /// change what a later seed gathers.
    fn recompute_components(&mut self, seeds: &[FlowId]) {
        self.epoch += 1;
        let epoch = self.epoch;
        let mut component: Vec<FlowId> = Vec::new();
        let mut frontier: Vec<FlowId> = Vec::new();
        let mut live: Vec<FlowId> = Vec::new();
        for &s in seeds {
            if self.flows[s].state != FlowState::Active || self.flow_mark[s] == epoch {
                continue;
            }
            self.gather_component(s, epoch, &mut component, &mut frontier);
            self.rerate_component(&component, &mut live);
        }
    }

    /// Collect `seed`'s connected component (ascending) by BFS over the
    /// flow/link sharing graph, marking flows and links with `epoch`
    /// instead of allocating per-event sets. Links visited by one
    /// component can never belong to another in the same batch — a shared
    /// link would have merged the components.
    fn gather_component(
        &mut self,
        seed: FlowId,
        epoch: u64,
        component: &mut Vec<FlowId>,
        frontier: &mut Vec<FlowId>,
    ) {
        component.clear();
        frontier.clear();
        self.flow_mark[seed] = epoch;
        component.push(seed);
        frontier.push(seed);
        while let Some(f) = frontier.pop() {
            let start = self.flows[f].links_start;
            let end = start + self.flows[f].spec.hops();
            for &link in &self.flow_links[start..end] {
                let lid = link as usize;
                if self.link_mark[lid] == epoch {
                    continue;
                }
                self.link_mark[lid] = epoch;
                for &g in &self.active_on_link[lid] {
                    if self.flow_mark[g] != epoch {
                        self.flow_mark[g] = epoch;
                        component.push(g);
                        frontier.push(g);
                    }
                }
            }
        }
        component.sort_unstable();
    }

    /// Re-rate one gathered component: settle each member, finish any that
    /// already ran dry (exact ties with the event that triggered this
    /// recompute, like the reference loop completing several flows in one
    /// step), water-fill the rest on the engine's pooled scratch (every
    /// buffer is fully rewritten per pass, so pooling cannot change
    /// results), apply the new rates and reschedule completion predictions.
    fn rerate_component(&mut self, component: &[FlowId], live: &mut Vec<FlowId>) {
        live.clear();
        for &f in component {
            self.settle(f);
            // The threshold is relative to the flow size so that
            // equal-share flows predicted to finish at float-identical
            // instants all complete on the first of their events (one
            // waterfill instead of one per flow); the time error is
            // O(1e-12) of the transfer.
            let eps = COMPLETION_EPS_BYTES.max(self.flows[f].spec.bytes * 1e-12);
            if self.flows[f].remaining_bytes <= eps {
                self.finish_now(f);
            } else {
                live.push(f);
            }
        }
        self.stats.waterfills += 1;
        self.stats.flows_rerated += live.len();
        self.stats.max_component = self.stats.max_component.max(live.len());
        let rates = waterfill_live(
            &self.links,
            &self.flow_links,
            &self.flows,
            &self.stragglers,
            live,
            &mut self.wf_scratch,
        );
        for (&f, &rate) in live.iter().zip(&rates) {
            let flow = &mut self.flows[f];
            flow.rate_bps = rate;
            flow.version += 1;
            if rate > 0.0 {
                let t = self.now_s + flow.remaining_bytes * 8.0 / rate;
                let version = flow.version;
                self.push_event(t, EventKind::Completion { flow: f, version });
            }
        }
    }
}

/// What [`FluidEngine::run_shards`] merges back from one shard. The
/// shard engine runs and is dropped on its worker thread, so its event
/// heap, adjacency and scratch are freed as each shard finishes rather
/// than all staying alive until the merge.
struct ShardOutcome {
    /// Final flow records, in the shard's member order.
    flows: Vec<EngineFlow>,
    /// Final byte counter of every shard link.
    link_bytes: Vec<(LinkKey, f64)>,
    stats: EngineStats,
    now_s: f64,
}

impl ShardOutcome {
    fn run(mut sub: FluidEngine) -> Self {
        sub.run();
        let link_bytes = (0..sub.links.len())
            .map(|sid| (sub.links.key(dense_u32(sid)), sub.link_bytes[sid]))
            .collect();
        ShardOutcome {
            flows: std::mem::take(&mut sub.flows),
            link_bytes,
            stats: sub.stats,
            now_s: sub.now_s,
        }
    }
}

/// Max-min rates of one component's live flows, aligned with `live`
/// positions (pure function of the arena and the flat spans; `scratch` is
/// only reused storage).
/// Straggler factors compose multiplicatively with each flow's relay
/// factor; with no stragglers the factors are passed through untouched
/// (not even a `* 1.0`), so healthy runs stay bit-identical to the
/// pre-fault engine.
fn waterfill_live(
    links: &LinkArena,
    flow_links: &[LinkId],
    flows: &[EngineFlow],
    stragglers: &BTreeMap<usize, f64>,
    live: &[FlowId],
    scratch: &mut WaterfillScratch,
) -> Vec<f64> {
    if live.is_empty() {
        return Vec::new();
    }
    let spans: Vec<&[LinkId]> = live
        .iter()
        .map(|&f| {
            let flow = &flows[f];
            &flow_links[flow.links_start..flow.links_start + flow.spec.hops()]
        })
        .collect();
    let factors: Vec<f64> = if stragglers.is_empty() {
        live.iter().map(|&f| flows[f].spec.relay_factor).collect()
    } else {
        live.iter()
            .map(|&f| {
                let spec = &flows[f].spec;
                match stragglers.get(&spec.src) {
                    Some(&s) => spec.relay_factor * s,
                    None => spec.relay_factor,
                }
            })
            .collect()
    };
    waterfill_ids_with(links, &spans, &factors, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize, cap: f64) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, cap);
        }
        g
    }

    #[test]
    fn disjoint_components_are_not_rerated_together() {
        // Two disjoint 4-rings with one flow per edge: every waterfill must
        // stay inside one ring (4 flows), never touch all 8.
        let mut g = Graph::new(8);
        for base in [0usize, 4] {
            for i in 0..4 {
                g.add_edge(base + i, base + (i + 1) % 4, 100.0);
            }
        }
        let mut engine = FluidEngine::new(&g, 0.0);
        for base in [0usize, 4] {
            for i in 0..4 {
                engine.add_flow(FlowSpec::new(
                    vec![base + i, base + (i + 1) % 4],
                    100.0 * (1.0 + i as f64),
                ));
            }
        }
        engine.run();
        let stats = engine.stats();
        assert!(stats.max_component <= 4, "component leaked across shards: {stats:?}");
        let r = engine.result();
        assert!(r.completion_s.iter().all(|c| c.is_finite()));
    }

    /// Run a clone of `engine` through `run_shards(shards)` and another
    /// through `run()`, and demand every observable agree bit for bit.
    fn assert_shards_match_run(engine: &FluidEngine, shards: &[Vec<FlowId>]) {
        let mut sharded = engine.clone();
        let mut single = engine.clone();
        sharded.run_shards(shards);
        single.run();
        let a = sharded.result();
        let b = single.result();
        assert_eq!(a.completion_s.len(), b.completion_s.len());
        for (x, y) in a.completion_s.iter().zip(&b.completion_s) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.carried_bytes.to_bits(), b.carried_bytes.to_bits());
        assert_eq!(a.link_bytes, b.link_bytes);
        assert_eq!(sharded.stats(), single.stats());
        assert_eq!(sharded.now_s().to_bits(), single.now_s().to_bits());
    }

    /// Disjoint 4-rings over `rings * 4` nodes.
    fn disjoint_rings(rings: usize) -> Graph {
        let mut g = Graph::new(rings * 4);
        for r in 0..rings {
            let base = r * 4;
            for i in 0..4 {
                g.add_edge(base + i, base + (i + 1) % 4, 100.0);
            }
        }
        g
    }

    #[test]
    fn sharded_run_matches_the_monolithic_loop_bit_for_bit() {
        // Three disjoint rings with staggered second-wave arrivals, one
        // shard per ring (plus a zero-byte and a zero-hop flow that arming
        // resolves): run_shards() and the single loop run() must agree on
        // every observable — completions, bytes, carried sum, stats.
        let g = disjoint_rings(3);
        let mut engine = FluidEngine::new(&g, 1.0e-6);
        let mut shards: Vec<Vec<FlowId>> = vec![Vec::new(); 3];
        for (r, shard) in shards.iter_mut().enumerate() {
            let base = r * 4;
            for i in 0..4 {
                let first =
                    FlowSpec::new(vec![base + i, base + (i + 1) % 4], 50.0 * (1.0 + i as f64));
                let mut second = first.clone();
                second.start_s = 2.0 + base as f64;
                shard.push(engine.add_flow(first));
                shard.push(engine.add_flow(second));
            }
        }
        shards[0].push(engine.add_flow(FlowSpec::new(vec![0, 1], 0.0)));
        shards[1].push(engine.add_flow(FlowSpec::new(vec![4], 10.0)));
        assert_shards_match_run(&engine, &shards);
    }

    #[test]
    fn coupled_flows_do_not_shard() {
        // Two flows coupled by one shared link must stay in one shard: that
        // shard's loop is exact (both finish at 16 s), next to a disjoint
        // singleton shard.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(2, 3, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let b = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let c = engine.add_flow(FlowSpec::new(vec![2, 3], 100.0));
        assert_shards_match_run(&engine, &[vec![a, b], vec![c]]);
        engine.run_shards(&[vec![a, b], vec![c]]);
        assert!((engine.completion_s(a) - 16.0).abs() < 1e-9);
        assert!((engine.completion_s(b) - 16.0).abs() < 1e-9);
        assert!((engine.completion_s(c) - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "run_shards needs a window origin")]
    fn run_shards_rejects_an_engine_past_its_window_origin() {
        let g = disjoint_rings(2);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let mut late = FlowSpec::new(vec![4, 5], 100.0);
        late.start_s = 5.0;
        let b = engine.add_flow(late);
        engine.run_until(1.0);
        engine.run_shards(&[vec![a], vec![b]]);
    }

    #[test]
    fn reconfig_event_changes_rates_mid_flow() {
        // 100 bytes over a 100 bps link; at t = 4 s the link drops to 50
        // bps: 400 bits sent, 400 left at 50 bps -> completes at 12 s.
        let g = ring(2, 100.0);
        let mut slow = Graph::new(2);
        slow.add_edge(0, 1, 50.0);
        slow.add_edge(1, 0, 50.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.schedule_reconfig(4.0, &slow);
        engine.run();
        assert!((engine.completion_s(id) - 12.0).abs() < 1e-9);
        assert_eq!(engine.stats().reconfigurations, 1);
    }

    #[test]
    fn reconfig_can_rescue_an_unroutable_flow() {
        // The 1 -> 0 link does not exist until the reconfiguration at t = 2.
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 80.0);
        let mut full = Graph::new(2);
        full.add_edge(0, 1, 80.0);
        full.add_edge(1, 0, 80.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![1, 0], 10.0)); // 80 bits
        engine.schedule_reconfig(2.0, &full);
        engine.run();
        assert!((engine.completion_s(id) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn run_until_reports_exact_partial_progress() {
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0)); // 8 s total
        engine.run_until(3.0);
        assert!(!engine.is_done(id));
        assert!((engine.remaining_bytes(id) - 62.5).abs() < 1e-9); // 300 bits sent
        engine.run_until(100.0);
        assert!(engine.is_done(id));
        assert!((engine.completion_s(id) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn run_until_settles_other_components_when_an_event_lands_on_the_deadline() {
        // Flow A (625 bytes at 100 bps) completes at exactly t = 50; flow B
        // lives in a disjoint component and must still be settled to the
        // deadline rather than left at its last event.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(2, 3, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 625.0));
        let b = engine.add_flow(FlowSpec::new(vec![2, 3], 1000.0));
        engine.run_until(50.0);
        assert!(engine.is_done(a));
        assert!((engine.completion_s(a) - 50.0).abs() < 1e-9);
        assert!(!engine.is_done(b));
        assert!((engine.remaining_bytes(b) - 375.0).abs() < 1e-9); // 5000 bits sent
    }

    #[test]
    fn link_failure_stalls_and_recovery_revives_a_flow() {
        // 100 bytes at 100 bps; the link dies at t = 2 (200 bits sent, 75
        // bytes left) and recovers at t = 5: 75*8/100 = 6 s more -> 11 s.
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.schedule_fault(2.0, FaultEvent::LinkDown((0, 1)));
        engine.schedule_fault(5.0, FaultEvent::LinkUp((0, 1)));
        engine.run();
        assert!((engine.completion_s(id) - 11.0).abs() < 1e-9);
        assert_eq!(engine.stats().faults, 2);
    }

    #[test]
    fn flow_on_a_dead_link_is_stalled_not_dropped() {
        // While the run is in flight the flow stays active at rate 0 with
        // its remaining bytes intact; only a drained run declares it
        // unroutable (infinite completion).
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.schedule_fault(2.0, FaultEvent::LinkDown((0, 1)));
        engine.run_until(6.0);
        assert!(!engine.is_done(id), "a stalled flow must stay in flight");
        assert!((engine.remaining_bytes(id) - 75.0).abs() < 1e-9);
        // A recovery scheduled after the checkpoint still rescues it.
        engine.schedule_fault(7.0, FaultEvent::LinkUp((0, 1)));
        engine.run();
        assert!((engine.completion_s(id) - 13.0).abs() < 1e-9);
    }

    #[test]
    fn ocs_port_failure_kills_every_matched_link() {
        // Port 1 carries both directions of (0, 1) and (1, 2): flows on
        // either stall, the disjoint (2, 3)... flow 2->3 is unaffected.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 100.0);
        g.add_edge(1, 2, 100.0);
        g.add_edge(2, 3, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let b = engine.add_flow(FlowSpec::new(vec![1, 2], 100.0));
        let c = engine.add_flow(FlowSpec::new(vec![2, 3], 100.0));
        engine.schedule_fault(2.0, FaultEvent::OcsPortDown(1));
        engine.schedule_fault(4.0, FaultEvent::OcsPortUp(1));
        engine.run();
        // a and b: 2 s at 100 bps, 2 s dark, 6 s to drain the rest.
        assert!((engine.completion_s(a) - 10.0).abs() < 1e-9);
        assert!((engine.completion_s(b) - 10.0).abs() < 1e-9);
        // c never noticed.
        assert!((engine.completion_s(c) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_link_and_port_faults_stack() {
        // The link dies twice (transceiver + port): one recovery is not
        // enough, the second brings it back.
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.schedule_fault(1.0, FaultEvent::LinkDown((0, 1)));
        engine.schedule_fault(1.0, FaultEvent::OcsPortDown(0));
        engine.schedule_fault(2.0, FaultEvent::LinkUp((0, 1)));
        engine.schedule_fault(5.0, FaultEvent::OcsPortUp(0));
        engine.run();
        // 1 s at 100 bps (87.5 bytes left), dark until t = 5, 7 s more.
        assert!((engine.completion_s(id) - 12.0).abs() < 1e-9);
        assert_eq!(engine.stats().faults, 4);
    }

    #[test]
    fn straggler_scales_egress_and_recovery_restores_it() {
        // At t = 4 server 0 straggles at half speed: 50 bytes left at 50
        // bps -> 8 s more (12 s total). A second flow *into* the server is
        // untouched by the egress cap.
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let out = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let inbound = engine.add_flow(FlowSpec::new(vec![1, 0], 100.0));
        engine.schedule_fault(4.0, FaultEvent::Straggler { server: 0, egress_factor: 0.5 });
        engine.run();
        assert!((engine.completion_s(out) - 12.0).abs() < 1e-9);
        assert!((engine.completion_s(inbound) - 8.0).abs() < 1e-9);

        // With a recovery at t = 6 the tail runs at full rate again:
        // 4 s at 100, 2 s at 50 (37.5 bytes left), 3 s at 100 -> 9 s.
        let mut engine = FluidEngine::new(&g, 0.0);
        let out = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.schedule_fault(4.0, FaultEvent::Straggler { server: 0, egress_factor: 0.5 });
        engine.schedule_fault(6.0, FaultEvent::Straggler { server: 0, egress_factor: 1.0 });
        engine.run();
        assert!((engine.completion_s(out) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn reconfig_cannot_revive_a_dead_transceiver() {
        // The link dies at t = 2; a rewiring at t = 3 doubles its healthy
        // capacity but the transceiver is still dead, so nothing moves
        // until the recovery at t = 4 — which restores the *new* capacity.
        let g = ring(2, 100.0);
        let mut fat = Graph::new(2);
        fat.add_edge(0, 1, 200.0);
        fat.add_edge(1, 0, 200.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let id = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        engine.schedule_fault(2.0, FaultEvent::LinkDown((0, 1)));
        engine.schedule_reconfig(3.0, &fat);
        engine.schedule_fault(4.0, FaultEvent::LinkUp((0, 1)));
        engine.run();
        // 2 s at 100 bps (75 bytes left), dark 2-4, then 75*8/200 = 3 s.
        assert!((engine.completion_s(id) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_run_stays_bit_identical_after_faults_are_applied() {
        // Two disjoint rings take a fault each (a dead link, a straggler)
        // as applied state at the window origin, as the rebuild oracle
        // carries a fault history. The shards inherit effective capacities
        // and straggler factors, so they must match the single loop bit for
        // bit.
        let g = disjoint_rings(2);
        let mut engine = FluidEngine::new(&g, 1.0e-6);
        let mut shards: Vec<Vec<FlowId>> = vec![Vec::new(); 2];
        for (r, shard) in shards.iter_mut().enumerate() {
            let base = r * 4;
            for i in 0..4 {
                shard.push(engine.add_flow(FlowSpec::new(
                    vec![base + i, base + (i + 1) % 4],
                    80.0 * (1.0 + i as f64),
                )));
            }
        }
        engine.apply_fault_now(FaultEvent::LinkDown((0, 1)));
        engine.apply_fault_now(FaultEvent::Straggler { server: 5, egress_factor: 0.3 });
        assert_shards_match_run(&engine, &shards);
        engine.run_shards(&shards);
        assert!(engine.completion_s(shards[0][0]).is_infinite(), "flow on the dead link");
        assert!(engine.completion_s(shards[1][1]).is_finite());
    }

    #[test]
    fn zero_capacity_links_never_produce_nan_rates() {
        // A fabric where every link a flow crosses is dead (explicit zero
        // capacity or killed by a fault): rates must be exactly 0, with no
        // NaN/inf leaking out of the water-filler and no division panic.
        let mut caps = BTreeMap::new();
        caps.insert((0usize, 1usize), 0.0f64);
        caps.insert((1, 2), 100.0);
        let mut engine = FluidEngine::from_capacities(caps, 0.0);
        let dead = engine.add_flow(FlowSpec::new(vec![0, 1], 10.0));
        let live = engine.add_flow(FlowSpec::new(vec![1, 2], 10.0));
        engine.schedule_fault(0.5, FaultEvent::LinkDown((1, 2)));
        engine.run_until(1.0);
        assert!(!engine.is_done(dead));
        assert!(engine.remaining_bytes(dead) == 10.0);
        assert!(engine.remaining_bytes(live).is_finite());
        engine.run();
        assert!(engine.completion_s(dead).is_infinite());
        assert!(engine.completion_s(live).is_infinite());
        assert!(engine.drained());
    }

    #[test]
    fn mid_simulation_arrival_splits_bandwidth() {
        // Flow A alone for 4 s (50 bytes left), then shares with B: A
        // finishes at 4 + 50*8/50 = 12 s; B needs 100*8 bits at 50 bps from
        // t=4 until A leaves at 12 (50 bytes sent), then 100 bps -> 16 s.
        let g = ring(2, 100.0);
        let mut engine = FluidEngine::new(&g, 0.0);
        let a = engine.add_flow(FlowSpec::new(vec![0, 1], 100.0));
        let mut late = FlowSpec::new(vec![0, 1], 100.0);
        late.start_s = 4.0;
        let b = engine.add_flow(late);
        engine.run();
        assert!((engine.completion_s(a) - 12.0).abs() < 1e-9);
        assert!((engine.completion_s(b) - 16.0).abs() < 1e-9);
    }
}
