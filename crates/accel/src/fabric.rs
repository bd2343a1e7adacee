//! Multi-accelerator fabric: sharded scale-out simulation with an
//! inter-accelerator network model and a reliable transport on top.
//!
//! A [`Fabric`] instantiates N independent [`System`] devices, each owning
//! a contiguous, interval-aligned slice of the node-id space (see
//! [`DeviceMap`]): a device holds *all* in-edges of its owned
//! destinations, so every vertex's reduction runs on exactly one device.
//! The monotone algorithms (BFS, SSSP, SCC) therefore reach exactly the
//! single-device fixpoint on any device count; PageRank stays within an
//! ulp of the golden executor, because a PE gathers its f32 contributions
//! in MOMS response-arrival order, which shifts with timing just as it
//! does under the DRAM fault profiles.
//!
//! Execution is globally synchronous (the paper's synchronous mode,
//! Template 1): every iteration, all devices run their local shards
//! unmodified, meet at a barrier, and exchange the vertex values that
//! changed over a cycle-level link network — ring or all-to-all topology,
//! configurable per-link bandwidth in words/cycle and per-hop latency,
//! built on [`simkit::Fifo`] two-phase queues. Devices that finish their
//! compute phase early (or had no local work) park at the barrier; the gap
//! is attributed to the `link_wait` class of
//! [`PeCycleBreakdown`](crate::PeCycleBreakdown), which `repro explain`
//! renders as the Link section.
//!
//! # Host threading
//!
//! Between barriers the device shards share no mutable state, so the
//! compute phase of each global iteration runs them on up to
//! [`RunConfig::sim_threads`](crate::RunConfig) host worker threads
//! ([`simkit::epoch::run_epoch`]): inputs are fixed at the epoch
//! boundary, every stepped device runs its iteration to completion, and
//! outcomes are collected into per-device slots and handled in ascending
//! device order. Everything that couples devices — the link exchange,
//! fault injection, retransmission, checkpoint/rollback, and stats/trace
//! merging — stays single-threaded in fixed device order. Every
//! observable (values, cycles, link stats, trace streams, diagnostics)
//! is therefore byte-identical for every thread count; `sim_threads = 1`
//! takes the exact sequential code path.
//!
//! # Reliable transport
//!
//! The network is treated as unreliable end to end. Every (owner,
//! consumer) device pair is a *flow*: update batches are chunked into
//! sequenced payload messages ([`LinkRetryConfig::max_updates_per_message`]),
//! admitted under a sliding window, and acknowledged by cumulative acks
//! flowing back over the same links. Receivers hold out-of-order payloads
//! in a bounded reorder window, discard duplicates by sequence number, and
//! re-ack; transmitters retransmit on an ack timeout with exponential
//! backoff. A [`FaultInjector`] sits on the delivery path of every final
//! hop — payloads *and* acks — so every GRACEFUL profile plus sustained
//! [`Lossy`](simkit::FaultProfile::Lossy)/[`Duplicate`](simkit::FaultProfile::Duplicate)
//! delivery still converges to the fault-free values, with loss showing up
//! as extra `link_wait` cycles rather than a dead run. The barrier
//! releases only when the exchange fully quiesces: every payload applied
//! in order, every flow acked, every queue drained.
//!
//! # Checkpointing and rollback
//!
//! A fault the transport cannot mask (a black-holed link, a stalled
//! device) trips a watchdog. With [`RecoveryConfig`] enabled the fabric
//! snapshots vertex state into a [`CheckpointStore`] at barrier
//! boundaries, and answers a watchdog trip by rolling every shard back to
//! the newest checkpoint, resetting the link protocol (which also clears
//! the fault — a link reset re-arms [`simkit::FaultProfile::BlackHole`]'s grace
//! window), and replaying. Attempts are bounded; what happened is
//! recorded in the [`RecoveryReport`] of the result instead of a
//! [`FabricError`].
//!
//! # Example
//!
//! ```
//! use accel::fabric::Fabric;
//! use accel::Driver;
//! use algos::{golden, Algorithm};
//! use graph::GraphSpec;
//!
//! let g = GraphSpec::rmat(8, 4).build(11);
//! let rc = Driver::new().devices(2).run_config(&g);
//! let r = Fabric::new(&g, Algorithm::bfs(0), &rc).run();
//! assert_eq!(r.values, golden::run(&Algorithm::bfs(0), &g));
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::str::FromStr;
use std::time::Instant;

use algos::Algorithm;
use graph::partition::DeviceMap;
use graph::{CooGraph, Partitioner};
use simkit::trace::{merge_events, EventKind, TraceConfig, TraceReport, Tracer, Track};
use simkit::watchdog::{DiagnosticSection, DiagnosticSnapshot};
use simkit::{Cycle, FaultConfig, FaultInjector, Fifo, Stats, Watchdog};

use crate::checkpoint::{
    Checkpoint, CheckpointStore, RecoveryAttempt, RecoveryCause, RecoveryConfig, RecoveryReport,
};
use crate::config::{ExecutionMode, SystemConfig, DEFAULT_WATCHDOG_CYCLES};
use crate::pe::PeCycleBreakdown;
use crate::run_config::RunConfig;
use crate::system::{RunError, System, WorkCounters};

/// How the devices are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkTopology {
    /// Every ordered device pair has a dedicated direct link.
    #[default]
    AllToAll,
    /// A unidirectional ring: device `i` links only to `(i + 1) % n`;
    /// messages store-and-forward through intermediate devices.
    Ring,
}

impl LinkTopology {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            LinkTopology::AllToAll => "all-to-all",
            LinkTopology::Ring => "ring",
        }
    }
}

impl FromStr for LinkTopology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "all-to-all" => Ok(LinkTopology::AllToAll),
            "ring" => Ok(LinkTopology::Ring),
            other => Err(format!(
                "unknown link topology {other:?} (expected all-to-all|ring)"
            )),
        }
    }
}

/// Parameters of the per-flow ack/retransmit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkRetryConfig {
    /// Initial retransmission timeout in cycles, measured from injection.
    /// The fabric floors this at a few network round-trips so congested
    /// (not lossy) links don't retransmit spuriously.
    pub rto: Cycle,
    /// Ceiling of the exponential backoff.
    pub rto_cap: Cycle,
    /// Retransmissions of a single payload before the flow is declared
    /// dead ([`FabricError::LinkStalled`]).
    pub max_attempts: u32,
    /// Sliding-window size: unacked payloads a flow keeps in flight (and
    /// buffers for retransmission) at once.
    pub window: usize,
    /// Out-of-order payloads a receiver holds per flow; anything beyond
    /// is dropped and covered by retransmission.
    pub reorder_window: usize,
    /// Updates per payload message — update batches are chunked so a
    /// single lost message costs one chunk, not the whole batch.
    pub max_updates_per_message: usize,
}

impl Default for LinkRetryConfig {
    fn default() -> Self {
        LinkRetryConfig {
            rto: 512,
            rto_cap: 8192,
            max_attempts: 16,
            window: 32,
            reorder_window: 64,
            max_updates_per_message: 64,
        }
    }
}

impl LinkRetryConfig {
    /// Panics unless the protocol parameters are usable.
    pub fn validate(&self) {
        assert!(self.rto > 0, "link rto must be nonzero");
        assert!(self.rto_cap >= self.rto, "rto cap below rto");
        assert!(self.max_attempts > 0, "at least one transmission attempt");
        assert!(self.window > 0, "link window must be nonzero");
        assert!(self.reorder_window > 0, "reorder window must be nonzero");
        assert!(
            self.max_updates_per_message > 0,
            "payload chunk size must be nonzero"
        );
    }

    /// The retransmission timeout that follows `current`: exponential
    /// backoff (doubling) saturated at [`rto_cap`](Self::rto_cap). The
    /// multiply saturates before the cap is applied, so even a cap of
    /// `u64::MAX` with a huge current timeout cannot overflow.
    pub fn next_rto(&self, current: Cycle) -> Cycle {
        current.saturating_mul(2).min(self.rto_cap)
    }

    /// The full backoff schedule from `initial`: the timeout charged for
    /// each of the up-to-`max_attempts` retransmissions of one payload.
    /// Deterministic for a fixed config — this *is* the arithmetic the
    /// transport's retransmission scan applies, exposed for tests.
    pub fn backoff_schedule(&self, initial: Cycle) -> Vec<Cycle> {
        let mut delays = Vec::with_capacity(self.max_attempts as usize);
        let mut rto = initial;
        for _ in 0..self.max_attempts {
            rto = self.next_rto(rto);
            delays.push(rto);
        }
        delays
    }
}

/// Configuration of the inter-accelerator link network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// How devices are wired.
    pub topology: LinkTopology,
    /// Per-link serialization bandwidth in 32-bit words per cycle.
    pub bandwidth_words_per_cycle: u32,
    /// Per-hop flight latency in cycles, paid after serialization.
    pub latency: Cycle,
    /// Fixed header words charged per message on every traversed link.
    pub header_words: u32,
    /// Per-link input queue depth in messages (backpressure threshold).
    pub queue_capacity: usize,
    /// Fault schedule applied on the delivery path of every message.
    pub fault: FaultConfig,
    /// No-progress threshold for the exchange phase; `None` disables the
    /// fabric watchdog.
    pub watchdog_cycles: Option<Cycle>,
    /// Ack/retransmit protocol parameters.
    pub retry: LinkRetryConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            topology: LinkTopology::AllToAll,
            bandwidth_words_per_cycle: 4,
            latency: 32,
            header_words: 2,
            queue_capacity: 64,
            fault: FaultConfig::none(),
            watchdog_cycles: Some(DEFAULT_WATCHDOG_CYCLES),
            retry: LinkRetryConfig::default(),
        }
    }
}

impl LinkConfig {
    /// Panics unless the configuration is usable.
    pub fn validate(&self) {
        assert!(
            self.bandwidth_words_per_cycle > 0,
            "link bandwidth must be nonzero"
        );
        assert!(
            self.queue_capacity > 0,
            "link queue capacity must be nonzero"
        );
        self.retry.validate();
    }
}

/// Payload of one link message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkBody {
    /// A sequenced chunk of vertex updates on the flow `src -> dst`.
    Updates {
        /// Per-flow sequence number, starting at 1.
        seq: u64,
        /// `(vertex, raw value)` updates carried by this chunk.
        updates: Vec<(u32, u32)>,
    },
    /// Cumulative acknowledgement for the reverse flow `dst -> src`:
    /// every payload with `seq <= cum` was received.
    Ack {
        /// Highest in-order sequence number received.
        cum: u64,
    },
}

/// One message between two devices (a payload chunk or an ack).
#[derive(Debug, Clone)]
pub struct LinkMessage {
    /// Originating device.
    pub src: usize,
    /// Device the message is destined for.
    pub dst: usize,
    /// Payload or acknowledgement.
    pub body: LinkBody,
    /// Last link index this message traversed (for trace attribution).
    last_link: usize,
}

impl LinkMessage {
    /// Message size in 32-bit words on the wire: header plus two words
    /// per update, or header plus one word for an ack.
    pub fn words(&self, header_words: u32) -> u64 {
        match &self.body {
            LinkBody::Updates { updates, .. } => header_words as u64 + 2 * updates.len() as u64,
            LinkBody::Ack { .. } => header_words as u64 + 1,
        }
    }
}

/// Transmit side of one flow: sliding window plus retransmit buffer.
#[derive(Debug, Default)]
struct FlowTx {
    /// Next sequence number to assign (sequences start at 1).
    next_seq: u64,
    /// Highest cumulatively acked sequence number.
    cum_acked: u64,
    /// Sent-but-unacked payloads, in sequence order (the bounded
    /// retransmit buffer — its length never exceeds the window).
    unacked: VecDeque<TxEntry>,
    /// Chunks waiting for window space.
    backlog: VecDeque<Vec<(u32, u32)>>,
}

#[derive(Debug)]
struct TxEntry {
    seq: u64,
    updates: Vec<(u32, u32)>,
    /// Cycle at which the pending ack times out.
    deadline: Cycle,
    /// Current timeout (doubles per retransmission up to the cap).
    rto: Cycle,
    /// Transmissions so far (1 = original only).
    attempts: u32,
}

impl FlowTx {
    fn quiesced(&self) -> bool {
        self.unacked.is_empty() && self.backlog.is_empty()
    }
}

/// Receive side of one flow: in-order cursor plus reorder window.
#[derive(Debug)]
struct FlowRx {
    /// Sequence number the next in-order payload must carry.
    next_expected: u64,
    /// Out-of-order payloads held for reassembly.
    reorder: BTreeMap<u64, Vec<(u32, u32)>>,
}

impl Default for FlowRx {
    fn default() -> Self {
        FlowRx {
            next_expected: 1,
            reorder: BTreeMap::new(),
        }
    }
}

/// One directed physical link of the network.
#[derive(Debug)]
struct LinkState {
    from: usize,
    to: usize,
    /// Input queue at the transmitting side (two-phase, bounded).
    q: Fifo<LinkMessage>,
    /// Cycle at which the in-progress serialization completes.
    busy_until: Cycle,
    /// Serialized messages in flight, `(arrival cycle, message)`;
    /// arrival times are monotone because serialization is serial.
    inflight: VecDeque<(Cycle, LinkMessage)>,
    busy_cycles: u64,
    words: u64,
    messages: u64,
    retransmits: u64,
    acks: u64,
    dup_drops: u64,
    tracer: Tracer,
}

impl LinkState {
    fn idle(&self) -> bool {
        self.q.is_empty() && self.inflight.is_empty()
    }

    fn reset_traffic(&mut self) {
        self.q.clear();
        self.inflight.clear();
        self.busy_until = 0;
    }

    fn diagnostic(&self, i: usize) -> DiagnosticSection {
        let mut s = DiagnosticSection::new(format!("link[{i}]"));
        s.push("route", format!("{} -> {}", self.from, self.to));
        s.push("queued", self.q.len());
        s.push("inflight", self.inflight.len());
        s.push("messages", self.messages);
        s.push("words", self.words);
        s.push("busy_cycles", self.busy_cycles);
        s.push("retransmits", self.retransmits);
        s.push("acks", self.acks);
        s.push("dup_drops", self.dup_drops);
        s
    }
}

/// Cumulative statistics of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Transmitting device.
    pub from: usize,
    /// Receiving device.
    pub to: usize,
    /// Cycles the link spent serializing.
    pub busy_cycles: u64,
    /// Words transferred.
    pub words: u64,
    /// Messages transferred.
    pub messages: u64,
    /// Payloads retransmitted over this link (first hop of the flow).
    pub retransmits: u64,
    /// Acks delivered over this link (final hop of the reverse flow).
    pub acks: u64,
    /// Duplicate payloads discarded at this link's receiving device.
    pub dup_drops: u64,
}

/// Aggregated link-network statistics of one fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkNetworkStats {
    /// Wiring in effect.
    pub topology: LinkTopology,
    /// Total cycles spent in exchange phases (the barrier-to-barrier link
    /// time added on top of compute).
    pub exchange_cycles: Cycle,
    /// Payload chunks injected by owner devices (first transmissions
    /// only; retransmissions and acks are counted separately).
    pub messages_sent: u64,
    /// Payload chunks applied in order at their final consumer.
    pub messages_delivered: u64,
    /// Messages (payloads and acks) dropped by the link fault injector.
    pub messages_dropped: u64,
    /// Vertex updates carried (each is two payload words).
    pub updates: u64,
    /// Payload retransmissions triggered by ack timeouts.
    pub retransmissions: u64,
    /// Cumulative acks delivered.
    pub acks: u64,
    /// Duplicate payloads discarded by receivers.
    pub dup_drops: u64,
    /// Per-directed-link cumulative statistics.
    pub per_link: Vec<LinkStats>,
}

impl LinkNetworkStats {
    /// Mean busy fraction over all links, relative to `total_cycles` of
    /// the run. Zero for a single-device fabric (no links).
    pub fn mean_occupancy(&self, total_cycles: Cycle) -> f64 {
        if self.per_link.is_empty() || total_cycles == 0 {
            return 0.0;
        }
        let busy: u64 = self.per_link.iter().map(|l| l.busy_cycles).sum();
        busy as f64 / (self.per_link.len() as u64 * total_cycles) as f64
    }

    /// Busiest single link's busy fraction relative to `total_cycles`.
    pub fn peak_occupancy(&self, total_cycles: Cycle) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        self.per_link
            .iter()
            .map(|l| l.busy_cycles as f64 / total_cycles as f64)
            .fold(0.0, f64::max)
    }
}

/// Result of a completed fabric run.
#[derive(Debug)]
pub struct FabricRunResult {
    /// Total simulated cycles (all device clocks agree at the end).
    pub cycles: Cycle,
    /// Globally synchronous iterations executed.
    pub iterations: u32,
    /// Edges processed, summed over devices.
    pub edges_processed: u64,
    /// Final per-node values, assembled from each owner device.
    pub values: Vec<u32>,
    /// Number of devices in the fabric.
    pub devices: usize,
    /// Merged statistics from every device.
    pub stats: Stats,
    /// PE cycle attribution summed over every device's PEs, including the
    /// fabric-only `link_wait` class.
    pub pe_cycles: PeCycleBreakdown,
    /// Component ticks executed vs skipped, summed over every device.
    pub work: WorkCounters,
    /// Link-network statistics.
    pub link: LinkNetworkStats,
    /// Checkpoint/rollback account (empty attempts when nothing tripped).
    pub recovery: RecoveryReport,
    /// Link-track event stream (device-internal traces are not merged:
    /// track ids would collide across devices).
    pub trace: TraceReport,
}

impl FabricRunResult {
    /// Throughput in edges per cycle.
    pub fn edges_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.edges_processed as f64 / self.cycles as f64
        }
    }

    /// Throughput in GTEPS at the given clock frequency.
    pub fn gteps(&self, freq_mhz: f64) -> f64 {
        self.edges_per_cycle() * freq_mhz / 1000.0
    }
}

/// Why a fabric run terminated without a result.
#[derive(Debug)]
pub enum FabricError {
    /// The host wall-clock deadline expired mid-run.
    TimedOut,
    /// A device's own no-progress watchdog tripped during its compute
    /// phase.
    DeviceStalled {
        /// Which device stalled.
        device: usize,
        /// The device's diagnostic dump.
        snapshot: Box<DiagnosticSnapshot>,
    },
    /// The link exchange made no progress for the fabric watchdog
    /// threshold, or a payload exhausted its retransmission budget
    /// (e.g. a black-hole link fault starving the barrier).
    LinkStalled(Box<DiagnosticSnapshot>),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::TimedOut => write!(f, "wall-clock deadline expired"),
            FabricError::DeviceStalled { device, snapshot } => {
                write!(f, "device {device} stalled: {snapshot}")
            }
            FabricError::LinkStalled(snapshot) => {
                write!(f, "link exchange stalled: {snapshot}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Index of the link a message waiting at `at` takes toward `dst`.
fn route_idx(topology: LinkTopology, n: usize, at: usize, dst: usize) -> usize {
    debug_assert!(at != dst);
    match topology {
        // Links were built from-major with the self-link skipped.
        LinkTopology::AllToAll => at * (n - 1) + if dst > at { dst - 1 } else { dst },
        LinkTopology::Ring => at,
    }
}

/// N sharded [`System`] devices joined by a cycle-level link network.
#[derive(Debug)]
pub struct Fabric {
    devices: Vec<System>,
    map: DeviceMap,
    algo: Algorithm,
    link_cfg: LinkConfig,
    links: Vec<LinkState>,
    /// Host-side mirror of the globally consistent `V_in` values; the
    /// per-iteration diff against it yields the remote updates.
    mirror: Vec<u32>,
    qs: usize,
    max_iter: u32,
    fault: FaultInjector<LinkMessage>,
    /// Drops accumulated by fault injectors replaced on rollback.
    dropped_carried: u64,
    /// Effective initial retransmission timeout (configured rto floored
    /// at a few worst-case round-trips).
    rto_base: Cycle,
    /// Per-flow transmit state, indexed `src * n + dst`.
    flows_tx: Vec<FlowTx>,
    /// Per-flow receive state, indexed `src * n + dst`.
    flows_rx: Vec<FlowRx>,
    /// Cumulative exchange-phase cycles.
    exchange_cycles: Cycle,
    messages_sent: u64,
    messages_delivered: u64,
    updates_total: u64,
    retransmits_total: u64,
    acks_total: u64,
    dup_drops_total: u64,
    /// Rollback machinery: policy, checkpoint ring, and the materials to
    /// rebuild devices from scratch (graph kept only when recovery is on).
    recovery: Option<RecoveryConfig>,
    store: CheckpointStore,
    report: RecoveryReport,
    graph: Option<CooGraph>,
    partitioner: Partitioner,
    sys_cfg: SystemConfig,
    /// Stats harvested from devices torn down during recovery.
    carried_stats: Stats,
    carried_pe: PeCycleBreakdown,
    carried_work: WorkCounters,
    tracer: Tracer,
    trace_cfg: TraceConfig,
    /// Resolved host worker threads for the compute phase (1 = the plain
    /// sequential loop).
    sim_threads: usize,
}

impl Fabric {
    /// Builds a fabric of `rc.devices` devices for `g`, forcing the
    /// paper's synchronous execution mode globally (the barrier protocol
    /// requires it; a synchronous single-device run is the `devices = 1`
    /// special case and stays cycle-identical).
    ///
    /// # Panics
    ///
    /// Panics if the run or link configuration is invalid.
    pub fn new(g: &CooGraph, algo: Algorithm, rc: &RunConfig) -> Self {
        let n = rc.devices.max(1);
        rc.link.validate();
        let mut dev_rc = rc.clone();
        dev_rc.execution = ExecutionMode::ForceSynchronous;
        let (cfg, partitioner) = dev_rc.build();
        let map = DeviceMap::new(partitioner, g.num_nodes(), n);
        let devices: Vec<System> = (0..n)
            .map(|dev| {
                let local = map.extract_local(g, dev);
                let owned = map.device_d_intervals(dev);
                System::new_sharded(g, &local, owned, partitioner, algo, cfg.clone())
            })
            .collect();
        let mirror: Vec<u32> = (0..g.num_nodes())
            .map(|v| devices[0].read_node_in(v))
            .collect();
        let qs = devices[0].num_source_intervals();
        let max_iter = devices[0].resolved_max_iterations();
        let links = Self::build_links(n, &rc.link, &rc.trace);
        // Floor the rto at two worst-case round-trips so congested (not
        // lossy) links don't retransmit spuriously: a full chunk
        // serialized at the configured bandwidth plus flight latency, per
        // hop of the longest route.
        let retry = rc.link.retry;
        let hops = match rc.link.topology {
            LinkTopology::AllToAll => 1,
            LinkTopology::Ring => n.saturating_sub(1).max(1),
        } as u64;
        let chunk_words = rc.link.header_words as u64 + 2 * retry.max_updates_per_message as u64;
        let ser = chunk_words
            .div_ceil(rc.link.bandwidth_words_per_cycle as u64)
            .max(1);
        let rto_base = retry.rto.max(2 * hops * (ser + rc.link.latency) + 64);
        Fabric {
            qs,
            max_iter,
            devices,
            map,
            algo,
            link_cfg: rc.link,
            links,
            mirror,
            fault: FaultInjector::new(rc.link.fault),
            dropped_carried: 0,
            rto_base,
            flows_tx: (0..n * n).map(|_| FlowTx::default()).collect(),
            flows_rx: (0..n * n).map(|_| FlowRx::default()).collect(),
            exchange_cycles: 0,
            messages_sent: 0,
            messages_delivered: 0,
            updates_total: 0,
            retransmits_total: 0,
            acks_total: 0,
            dup_drops_total: 0,
            recovery: rc.recovery,
            store: CheckpointStore::new(rc.recovery.map(|r| r.retention).unwrap_or(1)),
            report: RecoveryReport::default(),
            graph: rc.recovery.map(|_| g.clone()),
            partitioner,
            sys_cfg: cfg,
            carried_stats: Stats::new(),
            carried_pe: PeCycleBreakdown::default(),
            carried_work: WorkCounters::default(),
            tracer: Tracer::for_track(Track::fabric(), &rc.trace),
            trace_cfg: rc.trace,
            sim_threads: simkit::epoch::resolve_threads(rc.sim_threads, n),
        }
    }

    fn build_links(n: usize, cfg: &LinkConfig, trace: &TraceConfig) -> Vec<LinkState> {
        let mut links = Vec::new();
        if n < 2 {
            return links;
        }
        let mut mk = |from: usize, to: usize| {
            let i = links.len();
            links.push(LinkState {
                from,
                to,
                q: Fifo::new(cfg.queue_capacity),
                busy_until: 0,
                inflight: VecDeque::new(),
                busy_cycles: 0,
                words: 0,
                messages: 0,
                retransmits: 0,
                acks: 0,
                dup_drops: 0,
                tracer: Tracer::for_track(Track::link(i), trace),
            });
        };
        match cfg.topology {
            LinkTopology::AllToAll => {
                for from in 0..n {
                    for to in 0..n {
                        if from != to {
                            mk(from, to);
                        }
                    }
                }
            }
            LinkTopology::Ring => {
                for from in 0..n {
                    mk(from, (from + 1) % n);
                }
            }
        }
        links
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Resolved host worker threads for the compute phase.
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// The device-ownership map in effect.
    pub fn device_map(&self) -> &DeviceMap {
        &self.map
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics with the rendered diagnostics if a device or the link
    /// exchange stalls; use [`run_to_outcome`](Self::run_to_outcome) to
    /// handle stalls programmatically.
    pub fn run(&mut self) -> FabricRunResult {
        match self.run_to_outcome(None) {
            Ok(r) => r,
            Err(FabricError::TimedOut) => {
                unreachable!("run without a deadline cannot time out")
            }
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs to completion, reporting timeouts and stalls as structured
    /// [`FabricError`]s. When [`RecoveryConfig`] is set, watchdog trips
    /// roll back to the newest checkpoint and replay instead (bounded by
    /// `max_attempts`); the result's [`RecoveryReport`] records every
    /// rollback.
    ///
    /// After any `Err` the partially simulated state is inconsistent; do
    /// not run the same instance again.
    ///
    /// # Errors
    ///
    /// [`FabricError::TimedOut`] when the host wall clock passes
    /// `deadline`; [`FabricError::DeviceStalled`] /
    /// [`FabricError::LinkStalled`] when a watchdog trips and recovery is
    /// off or exhausted.
    pub fn run_to_outcome(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<FabricRunResult, FabricError> {
        let n = self.devices.len();
        let mut active = vec![true; self.qs];
        let mut iterations = 0u32;
        let mut edges_per_device = vec![0u64; n];
        let mut stepped = vec![false; n];

        // Implicit initial checkpoint: a failure in the very first
        // iterations still has somewhere to roll back to.
        if self.recovery.is_some() {
            self.save_checkpoint(0, 0, &active, &edges_per_device);
        }

        'iterations: while iterations < self.max_iter {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(FabricError::TimedOut);
                }
            }
            // Compute phase: every device publishes the same global active
            // flags, schedules its local jobs, and runs its iteration
            // unmodified. Devices share no state between barriers, so the
            // epoch runs them on `sim_threads` workers; outcomes land in
            // per-device slots and are handled below in ascending device
            // order, which keeps every observable byte-identical to
            // `sim_threads = 1` (the plain in-order loop). Every stepped
            // device finishes its iteration before any stall is answered —
            // rollback discards their state anyway, and processing the
            // lowest-index stall first makes the recovery order
            // independent of worker scheduling.
            let mut total_jobs = 0usize;
            for (i, dev) in self.devices.iter_mut().enumerate() {
                let jobs = dev.begin_iteration(iterations, &active);
                stepped[i] = jobs > 0;
                total_jobs += jobs;
            }
            if total_jobs == 0 {
                break;
            }
            let outcomes = {
                let stepped = &stepped;
                simkit::epoch::run_epoch(&mut self.devices, self.sim_threads, |i, dev| {
                    stepped[i].then(|| dev.step_iteration(iterations, deadline))
                })
            };
            let mut stall: Option<(usize, Box<DiagnosticSnapshot>)> = None;
            for (i, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    None => {}
                    Some(Ok(edges)) => edges_per_device[i] += edges,
                    Some(Err(RunError::TimedOut)) => return Err(FabricError::TimedOut),
                    // The lowest device index wins, matching the order the
                    // sequential loop would have surfaced the stall in.
                    Some(Err(RunError::Stalled(snapshot))) if stall.is_none() => {
                        stall = Some((i, snapshot));
                    }
                    Some(Err(RunError::Stalled(_))) => {}
                }
            }
            if let Some((device, snapshot)) = stall {
                let err = FabricError::DeviceStalled { device, snapshot };
                self.recover(err, &mut active, &mut iterations, &mut edges_per_device)?;
                continue 'iterations;
            }
            iterations += 1;

            // Global Template-1 control: OR over the devices that ran.
            let cont = self.algo.always_active()
                || (0..n).any(|i| stepped[i] && self.devices[i].continues());
            if !cont || iterations >= self.max_iter {
                break;
            }
            let mut next = vec![self.algo.always_active(); self.qs];
            if !self.algo.always_active() {
                for (dev, &ran) in self.devices.iter().zip(&stepped) {
                    if !ran {
                        continue;
                    }
                    for (f, d) in next.iter_mut().zip(dev.next_active_srcs()) {
                        *f |= d;
                    }
                }
            }

            // Every device performs the synchronous inter-iteration host
            // work on its own replica (carry + buffer swap), exactly as
            // the single-device loop does.
            for dev in &mut self.devices {
                dev.advance_synchronous_frontier();
            }

            // Diff each owner's slice against the global mirror to find
            // the remote updates this iteration produced.
            let updates = self.collect_updates();

            // Barrier + link exchange: devices park at the barrier while
            // the network carries the updates to every consumer replica.
            let barrier = self.devices.iter().map(System::now).max().unwrap_or(0);
            let exchange = match self.exchange(barrier, updates, deadline) {
                Ok(exchange) => exchange,
                Err(FabricError::TimedOut) => return Err(FabricError::TimedOut),
                Err(err) => {
                    self.recover(err, &mut active, &mut iterations, &mut edges_per_device)?;
                    continue 'iterations;
                }
            };
            self.exchange_cycles += exchange;
            let resume = barrier + exchange;
            for dev in &mut self.devices {
                dev.wait_at_barrier(resume);
            }

            active = next;

            // Barrier checkpoint: mirror and replicas are globally
            // consistent here, so this is a complete recovery point.
            if let Some(rec) = self.recovery {
                if iterations.is_multiple_of(rec.checkpoint_interval.max(1)) {
                    self.save_checkpoint(iterations, resume, &active, &edges_per_device);
                }
            }
        }

        // Final barrier: align every device clock so `cycles` is the
        // global completion time.
        let end = self.devices.iter().map(System::now).max().unwrap_or(0);
        for dev in &mut self.devices {
            dev.wait_at_barrier(end);
        }
        Ok(self.finish(iterations, &edges_per_device))
    }

    /// Snapshots the globally consistent barrier state.
    fn save_checkpoint(&mut self, iteration: u32, cycle: Cycle, active: &[bool], edges: &[u64]) {
        self.store.save(Checkpoint {
            iteration,
            cycle,
            values: self.mirror.clone(),
            active: active.to_vec(),
            edges: edges.to_vec(),
        });
        self.report.checkpoints_taken += 1;
        self.tracer
            .event(cycle, EventKind::CheckpointSave, iteration as u64);
    }

    /// Answers a watchdog trip: rolls every shard back to the newest
    /// checkpoint, resets the link protocol (queues, flows, and the fault
    /// injector — a link reset also re-arms a black-holed link's grace
    /// window), and charges `reset_cycles` of downtime. Returns the
    /// original error when recovery is off, exhausted, or impossible.
    fn recover(
        &mut self,
        err: FabricError,
        active: &mut Vec<bool>,
        iterations: &mut u32,
        edges: &mut [u64],
    ) -> Result<(), FabricError> {
        let Some(rec) = self.recovery else {
            return Err(err);
        };
        if self.report.attempts.len() as u32 >= rec.max_attempts {
            return Err(err);
        }
        let Some(ckpt) = self.store.latest().cloned() else {
            return Err(err);
        };
        let cause = match &err {
            FabricError::DeviceStalled { device, .. } => {
                RecoveryCause::DeviceStalled { device: *device }
            }
            FabricError::LinkStalled(_) => RecoveryCause::LinkStalled,
            FabricError::TimedOut => return Err(err),
        };
        let crash = self.devices.iter().map(System::now).max().unwrap_or(0);
        let resume = crash + rec.reset_cycles;

        match cause {
            RecoveryCause::DeviceStalled { .. } => {
                // The stalled device is wedged mid-iteration and its peers
                // hold partially advanced state: rebuild every shard from
                // the graph and reload the checkpointed values.
                self.rebuild_devices(&ckpt, resume);
            }
            RecoveryCause::LinkStalled => {
                // Devices are parked at the barrier with clean pipelines;
                // reloading `V_in` is sufficient (the MOMS caches are a
                // timing model — data is read from the image at response
                // time, so no invalidation is needed).
                for dev in &mut self.devices {
                    for (v, &val) in ckpt.values.iter().enumerate() {
                        dev.write_node_in(v as u32, val);
                    }
                    dev.wait_at_barrier(resume);
                }
            }
        }

        self.mirror.copy_from_slice(&ckpt.values);
        *active = ckpt.active.clone();
        *iterations = ckpt.iteration;
        edges.copy_from_slice(&ckpt.edges);
        self.reset_network();
        self.tracer
            .event(resume, EventKind::Rollback, ckpt.iteration as u64);
        let cycles_lost = resume.saturating_sub(ckpt.cycle);
        self.report.attempts.push(RecoveryAttempt {
            cause,
            at_cycle: crash,
            resumed_iteration: ckpt.iteration,
            cycles_lost,
        });
        self.report.total_cycles_lost += cycles_lost;
        Ok(())
    }

    /// Replaces every device with a freshly built shard loaded from
    /// `ckpt`, harvesting the torn-down devices' statistics first.
    fn rebuild_devices(&mut self, ckpt: &Checkpoint, resume: Cycle) {
        for dev in &mut self.devices {
            let r = dev.finish(0, 0);
            self.carried_stats.merge(&r.stats);
            self.carried_pe.accumulate(&r.metrics.pe_cycles);
            self.carried_work.accumulate(&r.metrics.work);
        }
        let g = self
            .graph
            .as_ref()
            .expect("recovery keeps the source graph");
        let n = self.devices.len();
        let partitioner = self.partitioner;
        let algo = self.algo;
        let cfg = self.sys_cfg.clone();
        self.devices = (0..n)
            .map(|dev| {
                let local = self.map.extract_local(g, dev);
                let owned = self.map.device_d_intervals(dev);
                System::new_sharded(g, &local, owned, partitioner, algo, cfg.clone())
            })
            .collect();
        for dev in &mut self.devices {
            for (v, &val) in ckpt.values.iter().enumerate() {
                dev.write_node_in(v as u32, val);
            }
            dev.align_clock(resume);
        }
    }

    /// Clears every link queue, resets all flow protocol state, and
    /// replaces the fault injector (same config and seed: the schedule is
    /// deterministic per reset epoch).
    fn reset_network(&mut self) {
        for link in &mut self.links {
            link.reset_traffic();
        }
        for tx in &mut self.flows_tx {
            *tx = FlowTx::default();
        }
        for rx in &mut self.flows_rx {
            *rx = FlowRx::default();
        }
        self.dropped_carried += self.fault.dropped();
        self.fault = FaultInjector::new(self.link_cfg.fault);
    }

    /// Per-owner changed `(vertex, value)` lists, updating the mirror.
    fn collect_updates(&mut self) -> Vec<Vec<(u32, u32)>> {
        let n = self.devices.len();
        let mut updates = vec![Vec::new(); n];
        for (dev, list) in updates.iter_mut().enumerate() {
            for v in self.map.device_nodes(dev) {
                let cur = self.devices[dev].read_node_in(v);
                if cur != self.mirror[v as usize] {
                    self.mirror[v as usize] = cur;
                    list.push((v, cur));
                }
            }
        }
        updates
    }

    /// Admits backlogged chunks of `flow` (from device `src` to `dst`)
    /// into the sliding window, handing the messages to `outbox`.
    fn pump_flow(
        flow: &mut FlowTx,
        src: usize,
        dst: usize,
        now: Cycle,
        rto_base: Cycle,
        window: usize,
        outbox: &mut [VecDeque<LinkMessage>],
    ) {
        while flow.unacked.len() < window {
            let Some(updates) = flow.backlog.pop_front() else {
                break;
            };
            flow.next_seq += 1;
            let seq = flow.next_seq;
            outbox[src].push_back(LinkMessage {
                src,
                dst,
                body: LinkBody::Updates {
                    seq,
                    updates: updates.clone(),
                },
                last_link: usize::MAX,
            });
            flow.unacked.push_back(TxEntry {
                seq,
                updates,
                deadline: now + rto_base,
                rto: rto_base,
                attempts: 1,
            });
        }
    }

    /// Simulates one barrier exchange starting at absolute cycle `start`;
    /// returns its length in cycles. Updates are applied to every
    /// consumer replica as their payloads are delivered in order; the
    /// exchange ends when the network fully quiesces (every payload
    /// applied, every flow acked, every queue drained).
    fn exchange(
        &mut self,
        start: Cycle,
        updates: Vec<Vec<(u32, u32)>>,
        deadline: Option<Instant>,
    ) -> Result<Cycle, FabricError> {
        let n = self.devices.len();
        if n < 2 {
            return Ok(0);
        }
        let retry = self.link_cfg.retry;
        let topology = self.link_cfg.topology;
        // Owner broadcasts: sequenced payload chunks per (owner, consumer)
        // flow; the topology decides the path and cost.
        let mut outbox: Vec<VecDeque<LinkMessage>> = vec![VecDeque::new(); n];
        let mut expected = 0u64;
        for (src, list) in updates.into_iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            self.updates_total += (n as u64 - 1) * list.len() as u64;
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                let flow = &mut self.flows_tx[src * n + dst];
                for chunk in list.chunks(retry.max_updates_per_message) {
                    flow.backlog.push_back(chunk.to_vec());
                    expected += 1;
                }
                Self::pump_flow(
                    flow,
                    src,
                    dst,
                    start,
                    self.rto_base,
                    retry.window,
                    &mut outbox,
                );
            }
        }
        self.messages_sent += expected;
        if expected == 0 {
            return Ok(0);
        }

        let mut watchdog = self.link_cfg.watchdog_cycles.map(Watchdog::new);
        if let Some(w) = &mut watchdog {
            w.note_progress(start);
        }
        let header = self.link_cfg.header_words;
        let bw = self.link_cfg.bandwidth_words_per_cycle as u64;
        let latency = self.link_cfg.latency;
        let mut delivered = 0u64;
        let mut t: Cycle = 0;
        loop {
            let now = start + t;

            // 1. Arrivals: messages whose flight latency elapsed reach the
            //    link's receiving device — final consumers go through the
            //    fault injector, intermediates re-enter the router.
            for li in 0..self.links.len() {
                while let Some(&(arrive, _)) = self.links[li].inflight.front() {
                    if arrive > now {
                        break;
                    }
                    let (_, mut msg) = self.links[li].inflight.pop_front().unwrap();
                    msg.last_link = li;
                    let at = self.links[li].to;
                    if msg.dst == at {
                        let before = self.fault.dropped();
                        self.fault.offer(now, msg);
                        if self.fault.dropped() > before {
                            self.links[li]
                                .tracer
                                .event(now, EventKind::LinkDrop, at as u64);
                        }
                    } else {
                        outbox[at].push_back(msg);
                    }
                }
            }

            // 2. Deliveries: released payloads are deduped/reassembled per
            //    flow and applied in order; every payload arrival is
            //    answered with a cumulative ack; released acks advance the
            //    transmit window.
            while let Some(msg) = self.fault.pop_ready(now) {
                let li = msg.last_link;
                match msg.body {
                    LinkBody::Updates { seq, updates } => {
                        let flow = &mut self.flows_rx[msg.src * n + msg.dst];
                        if seq < flow.next_expected || flow.reorder.contains_key(&seq) {
                            // Already applied or already held: discard,
                            // but re-ack (the original ack may be lost).
                            self.links[li].dup_drops += 1;
                            self.dup_drops_total += 1;
                            self.links[li]
                                .tracer
                                .event(now, EventKind::LinkDupDrop, seq);
                        } else if seq == flow.next_expected {
                            self.links[li]
                                .tracer
                                .event(now, EventKind::LinkRx, msg.src as u64);
                            for &(v, val) in &updates {
                                self.devices[msg.dst].write_node_in(v, val);
                            }
                            flow.next_expected += 1;
                            delivered += 1;
                            // Reassemble any consecutive held payloads.
                            while let Some(held) = flow.reorder.remove(&flow.next_expected) {
                                for &(v, val) in &held {
                                    self.devices[msg.dst].write_node_in(v, val);
                                }
                                flow.next_expected += 1;
                                delivered += 1;
                            }
                            if let Some(w) = &mut watchdog {
                                w.note_progress(now);
                            }
                        } else if flow.reorder.len() < retry.reorder_window {
                            self.links[li]
                                .tracer
                                .event(now, EventKind::LinkRx, msg.src as u64);
                            flow.reorder.insert(seq, updates);
                        }
                        // Beyond the reorder window the payload is
                        // silently discarded; retransmission covers it.
                        let cum = flow.next_expected - 1;
                        outbox[msg.dst].push_back(LinkMessage {
                            src: msg.dst,
                            dst: msg.src,
                            body: LinkBody::Ack { cum },
                            last_link: usize::MAX,
                        });
                    }
                    LinkBody::Ack { cum } => {
                        self.links[li].acks += 1;
                        self.acks_total += 1;
                        self.links[li].tracer.event(now, EventKind::LinkAck, cum);
                        let flow = &mut self.flows_tx[msg.dst * n + msg.src];
                        if cum > flow.cum_acked {
                            flow.cum_acked = cum;
                            while flow.unacked.front().is_some_and(|e| e.seq <= cum) {
                                flow.unacked.pop_front();
                            }
                            Self::pump_flow(
                                flow,
                                msg.dst,
                                msg.src,
                                now,
                                self.rto_base,
                                retry.window,
                                &mut outbox,
                            );
                            if let Some(w) = &mut watchdog {
                                w.note_progress(now);
                            }
                        }
                    }
                }
            }

            // 3. Quiesce check: every payload applied in order, every
            //    flow's window empty, nothing queued, staged, in flight,
            //    or held by the injector.
            if delivered == expected
                && self.flows_tx.iter().all(FlowTx::quiesced)
                && self.links.iter().all(LinkState::idle)
                && self.fault.pending() == 0
                && outbox.iter().all(VecDeque::is_empty)
            {
                self.messages_delivered += delivered;
                // The exchange ends one cycle after the last delivery.
                return Ok(t + 1);
            }

            // 4. Retransmissions: unacked payloads whose timeout elapsed
            //    re-enter the network with doubled timeouts; a payload
            //    that exhausts its attempts declares the flow dead.
            let mut exhausted = false;
            #[allow(clippy::needless_range_loop)] // outbox is pushed to while flows are iterated
            'scan: for src in 0..n {
                for dst in 0..n {
                    if src == dst {
                        continue;
                    }
                    let li = route_idx(topology, n, src, dst);
                    let flow = &mut self.flows_tx[src * n + dst];
                    for entry in &mut flow.unacked {
                        if now < entry.deadline {
                            continue;
                        }
                        if entry.attempts >= retry.max_attempts {
                            exhausted = true;
                            break 'scan;
                        }
                        entry.attempts += 1;
                        entry.rto = retry.next_rto(entry.rto);
                        entry.deadline = now + entry.rto;
                        self.links[li].retransmits += 1;
                        self.retransmits_total += 1;
                        self.links[li]
                            .tracer
                            .event(now, EventKind::LinkRetransmit, entry.seq);
                        outbox[src].push_back(LinkMessage {
                            src,
                            dst,
                            body: LinkBody::Updates {
                                seq: entry.seq,
                                updates: entry.updates.clone(),
                            },
                            last_link: usize::MAX,
                        });
                    }
                }
            }
            if exhausted {
                self.exchange_cycles += t;
                self.messages_delivered += delivered;
                return Err(FabricError::LinkStalled(Box::new(self.link_diagnostics(
                    now,
                    watchdog.as_ref(),
                    expected,
                    delivered,
                ))));
            }

            // 5. Serialization: an idle link starts transmitting the
            //    oldest queued message.
            for link in &mut self.links {
                if now < link.busy_until || link.q.visible_len() == 0 {
                    continue;
                }
                let msg = link.q.pop().unwrap();
                let words = msg.words(header);
                let ser = words.div_ceil(bw).max(1);
                link.busy_until = now + ser;
                link.busy_cycles += ser;
                link.words += words;
                link.messages += 1;
                link.tracer.event(now, EventKind::LinkTx, msg.dst as u64);
                link.inflight.push_back((now + ser + latency, msg));
            }

            // 6. Routing: devices inject waiting messages into their
            //    outgoing link queues while there is room (bounded queues
            //    exert backpressure).
            for (at, waiting) in outbox.iter_mut().enumerate() {
                while let Some(front) = waiting.front() {
                    let li = route_idx(topology, n, at, front.dst);
                    if !self.links[li].q.can_push() {
                        break;
                    }
                    let msg = waiting.pop_front().unwrap();
                    self.links[li].q.push(msg).expect("checked can_push");
                }
            }

            // 7. Clock edge: staged queue entries become visible.
            for link in &mut self.links {
                link.q.tick();
            }

            if let Some(w) = &watchdog {
                if w.is_stalled(now) {
                    self.exchange_cycles += t;
                    self.messages_delivered += delivered;
                    return Err(FabricError::LinkStalled(Box::new(self.link_diagnostics(
                        now,
                        Some(w),
                        expected,
                        delivered,
                    ))));
                }
            }
            if t.is_multiple_of(4096) {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(FabricError::TimedOut);
                    }
                }
            }
            t += 1;
        }
    }

    fn link_diagnostics(
        &self,
        now: Cycle,
        watchdog: Option<&Watchdog>,
        expected: u64,
        delivered: u64,
    ) -> DiagnosticSnapshot {
        let n = self.devices.len();
        let mut sections = Vec::new();
        let mut fabric = DiagnosticSection::new("fabric");
        fabric.push("devices", n);
        fabric.push("topology", self.link_cfg.topology.name());
        fabric.push("expected_messages", expected);
        fabric.push("delivered_messages", delivered);
        fabric.push("retransmissions", self.retransmits_total);
        fabric.push("acks", self.acks_total);
        fabric.push("dup_drops", self.dup_drops_total);
        fabric.push("recovery_attempts", self.report.attempts.len());
        sections.push(fabric);
        // Transport state of every flow that still has protocol work in
        // flight — the first thing to read on a stall.
        let mut transport = DiagnosticSection::new("transport");
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let tx = &self.flows_tx[src * n + dst];
                let rx = &self.flows_rx[src * n + dst];
                if tx.quiesced() && rx.reorder.is_empty() {
                    continue;
                }
                transport.push(
                    format!("flow[{src}->{dst}]"),
                    format!(
                        "next_seq={} cum_acked={} unacked={} backlog={} \
                         rx_expected={} reorder_held={}",
                        tx.next_seq,
                        tx.cum_acked,
                        tx.unacked.len(),
                        tx.backlog.len(),
                        rx.next_expected,
                        rx.reorder.len()
                    ),
                );
            }
        }
        if !transport.entries.is_empty() {
            sections.push(transport);
        }
        for (i, link) in self.links.iter().enumerate() {
            if !link.idle() || link.messages > 0 {
                sections.push(link.diagnostic(i));
            }
        }
        sections.push(self.fault.diagnostic());
        DiagnosticSnapshot {
            cycle: now,
            last_progress: watchdog.map_or(now, Watchdog::last_progress),
            threshold: watchdog.map_or(0, Watchdog::threshold),
            sections,
        }
    }

    /// Assembles the fabric result from every device's finished state.
    fn finish(&mut self, iterations: u32, edges_per_device: &[u64]) -> FabricRunResult {
        let n = self.devices.len();
        let cycles = self.devices.iter().map(System::now).max().unwrap_or(0);
        let mut values = vec![0u32; self.mirror.len()];
        let mut stats = Stats::new();
        let mut pe_cycles = PeCycleBreakdown::default();
        let mut work = self.carried_work;
        stats.merge(&self.carried_stats);
        pe_cycles.accumulate(&self.carried_pe);
        for (i, dev) in self.devices.iter_mut().enumerate() {
            let r = dev.finish(iterations, edges_per_device[i]);
            let nodes = self.map.device_nodes(i);
            let range = nodes.start as usize..nodes.end as usize;
            values[range.clone()].copy_from_slice(&r.values[range]);
            stats.merge(&r.stats);
            pe_cycles.accumulate(&r.metrics.pe_cycles);
            work.accumulate(&r.metrics.work);
        }
        let per_link: Vec<LinkStats> = self
            .links
            .iter()
            .map(|l| LinkStats {
                from: l.from,
                to: l.to,
                busy_cycles: l.busy_cycles,
                words: l.words,
                messages: l.messages,
                retransmits: l.retransmits,
                acks: l.acks,
                dup_drops: l.dup_drops,
            })
            .collect();
        let dropped_events: u64 =
            self.links.iter().map(|l| l.tracer.dropped()).sum::<u64>() + self.tracer.dropped();
        let mut streams: Vec<_> = self
            .links
            .iter_mut()
            .map(|l| l.tracer.take())
            .collect::<Vec<_>>();
        streams.push(self.tracer.take());
        let link_events = merge_events(streams);
        let trace = if self.trace_cfg.records_events() {
            TraceReport {
                events: link_events,
                counters: Vec::new(),
                dropped: dropped_events,
                cycles,
            }
        } else {
            TraceReport::default()
        };
        FabricRunResult {
            cycles,
            iterations,
            edges_processed: edges_per_device.iter().sum(),
            values,
            devices: n,
            stats,
            pe_cycles,
            work,
            link: LinkNetworkStats {
                topology: self.link_cfg.topology,
                exchange_cycles: self.exchange_cycles,
                messages_sent: self.messages_sent,
                messages_delivered: self.messages_delivered,
                messages_dropped: self.dropped_carried + self.fault.dropped(),
                updates: self.updates_total,
                retransmissions: self.retransmits_total,
                acks: self.acks_total,
                dup_drops: self.dup_drops_total,
                per_link,
            },
            recovery: std::mem::take(&mut self.report),
            trace,
        }
    }
}
