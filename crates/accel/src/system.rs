//! Top-level accelerator (Fig. 6): scheduler, PEs, MOMS, DRAM, and the
//! Template 1 iteration loop.

use std::collections::VecDeque;
use std::time::Instant;

use simkit::stats::TimeBuckets;
use simkit::trace::{
    merge_events, CounterSeries, EventKind, TraceEvent, TraceReport, Tracer, Track,
};
use simkit::watchdog::{DiagnosticSection, DiagnosticSnapshot};
use simkit::{BitSet, Cycle, FaultInjector, Stats, TickCount, Watchdog};

use algos::Algorithm;
use dram::{DramChannelSnapshot, DramRequest, DramResponse, MemImage, MemorySystem};
use graph::layout::{LayoutBuilder, LayoutInit};
use graph::{CooGraph, GraphImage, Partitioner};
use moms::{MomsSnapshot, MomsSystem};

use crate::config::{ExecutionMode, SystemConfig};
use crate::pe::{Job, Pe, PeCycleBreakdown};

/// Events shown in the watchdog snapshot's `trace-tail` section.
const TRACE_TAIL_EVENTS: usize = 32;

/// Periodic occupancy sampling into time-bucketed series (active at any
/// trace level above `Off`). Sampling only *reads* component state via
/// non-perturbing accessors, so it cannot change simulation outcomes.
#[derive(Debug)]
struct OccupancySampler {
    period: Cycle,
    mshr: TimeBuckets,
    subentries: TimeBuckets,
    dram_pending: TimeBuckets,
    jobs_queued: TimeBuckets,
}

impl OccupancySampler {
    fn new(period: Cycle) -> Self {
        OccupancySampler {
            period,
            mshr: TimeBuckets::new(period),
            subentries: TimeBuckets::new(period),
            dram_pending: TimeBuckets::new(period),
            jobs_queued: TimeBuckets::new(period),
        }
    }

    fn series(&self) -> Vec<CounterSeries> {
        let mk = |name: &str, b: &TimeBuckets| CounterSeries {
            name: name.to_owned(),
            bucket_cycles: b.bucket_cycles(),
            points: b.points(),
        };
        vec![
            mk("mshr_occupancy", &self.mshr),
            mk("subentry_slots_used", &self.subentries),
            mk("dram_pending", &self.dram_pending),
            mk("sched_jobs_queued", &self.jobs_queued),
        ]
    }
}

/// Dynamic job scheduler: exposes one job per destination interval and
/// lets idle PEs pull them (§IV-E), tracking `active_srcs` across
/// iterations.
#[derive(Debug)]
pub struct Scheduler {
    queue: VecDeque<usize>,
    jobs_outstanding: usize,
    /// Per-source-interval activity for the *next* iteration.
    active_srcs_next: Vec<bool>,
    /// Any destination updated this iteration (Template 1 `continue`).
    any_update: bool,
}

impl Scheduler {
    fn new(qs: usize) -> Self {
        Scheduler {
            queue: VecDeque::new(),
            jobs_outstanding: 0,
            active_srcs_next: vec![false; qs],
            any_update: false,
        }
    }

    fn begin_iteration(&mut self, jobs: impl IntoIterator<Item = usize>) {
        debug_assert_eq!(self.jobs_outstanding, 0);
        self.queue = jobs.into_iter().collect();
        for f in self.active_srcs_next.iter_mut() {
            *f = false;
        }
        self.any_update = false;
    }

    fn pull(&mut self) -> Option<usize> {
        let d = self.queue.pop_front()?;
        self.jobs_outstanding += 1;
        Some(d)
    }

    fn complete(&mut self, d: usize, updated: bool, nd: u32, ns: u32, num_nodes: u32) {
        self.jobs_outstanding -= 1;
        if updated {
            self.any_update = true;
            // Mark every source interval overlapping destination interval
            // `d` (its nodes will serve as sources next iteration).
            let lo = d as u32 * nd;
            let hi = (lo + nd).min(num_nodes);
            let s_lo = (lo / ns) as usize;
            let s_hi = ((hi - 1) / ns) as usize;
            for s in s_lo..=s_hi.min(self.active_srcs_next.len() - 1) {
                self.active_srcs_next[s] = true;
            }
        }
    }

    fn iteration_done(&self) -> bool {
        self.queue.is_empty() && self.jobs_outstanding == 0
    }
}

/// Stall and utilisation breakdown summed over every PE (§V-B's "what
/// throttles each algorithm" analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeStallBreakdown {
    /// Cycles with at least one gather retiring.
    pub busy_cycles: u64,
    /// Gather-pipeline stalls on read-after-write hazards (PageRank's
    /// floating-point accumulate).
    pub raw_stalls: u64,
    /// Cycles the weighted-graph interface starved for free IDs.
    pub id_starved: u64,
    /// Requests refused by a full MOMS input port.
    pub moms_backpressure: u64,
}

/// Deterministic work counters of one run: component ticks the tick loop
/// executed vs skipped as provably inert, per component class. With
/// `idle_skip` off nothing is skipped; either way each class's total is
/// its component count times the loop ticks executed
/// ([`RunResult::host_ticks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkCounters {
    /// Processing elements.
    pub pe: TickCount,
    /// MOMS banks, both levels.
    pub moms_bank: TickCount,
    /// DRAM channels.
    pub dram_channel: TickCount,
}

impl WorkCounters {
    /// Adds `other` into `self`, class by class.
    pub fn accumulate(&mut self, other: &WorkCounters) {
        self.pe.accumulate(&other.pe);
        self.moms_bank.accumulate(&other.moms_bank);
        self.dram_channel.accumulate(&other.dram_channel);
    }

    /// `(label, counts)` rows in display order.
    pub fn rows(&self) -> [(&'static str, TickCount); 3] {
        [
            ("pe", self.pe),
            ("moms-bank", self.moms_bank),
            ("dram-channel", self.dram_channel),
        ]
    }
}

/// Structured metrics of one run: the MOMS, DRAM, and PE counters that
/// experiments export, gathered once at the end of [`System::run`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// MOMS occupancy peaks and cache counters across every bank.
    pub moms: MomsSnapshot,
    /// Per-channel DRAM counters, in channel order.
    pub dram: Vec<DramChannelSnapshot>,
    /// Stall breakdown summed over PEs.
    pub pe: PeStallBreakdown,
    /// Exhaustive per-cycle attribution summed over PEs; every PE-cycle
    /// of the run lands in exactly one class (`repro explain` renders
    /// this).
    pub pe_cycles: PeCycleBreakdown,
    /// Component ticks executed vs skipped.
    pub work: WorkCounters,
}

impl MetricsSnapshot {
    /// All-channel DRAM counters summed.
    pub fn dram_total(&self) -> DramChannelSnapshot {
        let mut total = DramChannelSnapshot::default();
        for ch in &self.dram {
            total.accumulate(ch);
        }
        total
    }

    /// Achieved DRAM bandwidth per channel in GB/s over `cycles` at
    /// `freq_mhz`.
    pub fn dram_bandwidth_gbs(&self, cycles: Cycle, freq_mhz: f64) -> Vec<f64> {
        self.dram
            .iter()
            .map(|ch| ch.bandwidth_gbs(cycles, freq_mhz))
            .collect()
    }
}

/// Result of a full run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total simulated clock cycles.
    pub cycles: Cycle,
    /// Host loop iterations actually executed. Equal to `cycles` minus
    /// the cycles fast-forwarded by idle skipping; the gap between the
    /// two is pure host-side work saved with zero simulated effect.
    pub host_ticks: u64,
    /// Iterations executed.
    pub iterations: u32,
    /// Edges processed (gathers retired), summed over iterations.
    pub edges_processed: u64,
    /// Final per-node values (after [`Algorithm::finalize`]).
    pub values: Vec<u32>,
    /// Merged statistics from PEs, MOMS, and DRAM.
    pub stats: Stats,
    /// Combined cache hit rate over both MOMS levels.
    pub cache_hit_rate: f64,
    /// Recorded `(pe, line)` MOMS requests (empty unless
    /// [`crate::SystemConfig::moms_trace_cap`] was set).
    pub moms_trace: Vec<(u16, u64)>,
    /// Structured MOMS/DRAM/PE metrics gathered at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Merged event stream and occupancy series (empty unless
    /// [`crate::SystemConfig::trace`] enabled a level above `Off`).
    pub trace: TraceReport,
}

impl RunResult {
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

/// Why a run terminated without producing a [`RunResult`].
#[derive(Debug)]
pub enum RunError {
    /// The host wall-clock deadline expired mid-run. The partially
    /// simulated state is inconsistent; drop the `System`.
    TimedOut,
    /// The no-progress watchdog tripped: no request retired for the
    /// configured threshold. The snapshot captures every component's
    /// queue state at detection time.
    Stalled(Box<DiagnosticSnapshot>),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TimedOut => write!(f, "wall-clock deadline expired"),
            RunError::Stalled(snap) => write!(f, "{snap}"),
        }
    }
}

impl std::error::Error for RunError {}

/// PE-owned DRAM id namespace: bit 63 clear, PE index in bits 62..48.
fn encode_pe_id(pe: usize, tag: u64) -> u64 {
    debug_assert!(tag < 1 << 48);
    (pe as u64) << 48 | tag
}

fn decode_pe_id(id: u64) -> (usize, u64) {
    ((id >> 48) as usize, id & ((1 << 48) - 1))
}

/// The full accelerator, ready to [`run`](Self::run) one algorithm on one
/// graph.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    algo: Algorithm,
    graph_nodes: u32,
    gi: GraphImage,
    img: MemImage,
    mem: MemorySystem,
    moms: MomsSystem,
    pes: Vec<Pe>,
    sched: Scheduler,
    /// Source graph retained for `finalize()` (out-degrees).
    graph: CooGraph,
    /// Per-PE DRAM segments awaiting channel space.
    seg_q: Vec<VecDeque<DramRequest>>,
    /// Destination intervals scheduled by the last
    /// [`begin_iteration`](Self::begin_iteration), consumed by the
    /// synchronous inter-iteration host work.
    last_jobs: Vec<usize>,
    /// Destination intervals this device reduces: all of them for a
    /// single `System`, the device's own range inside a fabric.
    owned: std::ops::Range<usize>,
    /// Remaining segments per outstanding `(tag, count)` logical burst,
    /// per PE. Only a handful of bursts are ever in flight per PE
    /// (bounded by `edge_tags` plus init/pointer/write bursts), so a
    /// linear scan beats hashing and the vectors never reallocate after
    /// warmup.
    burst_segments: Vec<Vec<(u64, u32)>>,
    /// Fault injector on the DRAM-completion path (bypassed entirely when
    /// the profile is `None`).
    fault: FaultInjector<DramResponse>,
    /// No-progress watchdog (`None` when disabled by configuration).
    watchdog: Option<Watchdog>,
    /// Scheduler-track event tracer (disabled unless events are on).
    tracer: Tracer,
    /// Occupancy sampler (`None` when tracing is off).
    sampler: Option<OccupancySampler>,
    /// Simulation loop iterations executed (cycles minus skipped gaps).
    host_ticks: u64,
    /// PE ticks executed (the rest of `pes × host_ticks` were skipped).
    pe_ticks: u64,
    /// Per PE, with skipping on: the PE's `next_event` as of the end of
    /// the last cycle (`Cycle::MAX` for none), or 0 once a tick, a job,
    /// or a burst completion made it stale. A PE's ticks before its wake
    /// cycle are no-ops unless a MOMS response is waiting for it.
    pe_wake: Vec<Cycle>,
    /// Per PE: skipped cycles not yet credited to its attribution, booked
    /// before anything changes the PE's state (its class is a function of
    /// that frozen state).
    pe_owed: Vec<u64>,
    /// PEs with DMA bursts to move or unissued burst segments.
    dma_pending: BitSet,
    now: Cycle,
}

/// The fabric runs device shards on worker threads between barriers
/// (`simkit::epoch::run_epoch` over `&mut [System]`), which requires
/// `System: Send`. This guard fails to compile if a non-`Send` member
/// (an `Rc`, a raw pointer, a thread-local handle) ever sneaks in.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<System>();
};

impl System {
    /// Partitions `g`, lays it out in memory, and builds the accelerator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, the destination interval
    /// exceeds PE BRAM, or the weighted flags of graph and algorithm
    /// disagree in an unsupported way.
    pub fn new(g: &CooGraph, partitioner: Partitioner, algo: Algorithm, cfg: SystemConfig) -> Self {
        Self::new_sharded(g, g, 0..usize::MAX, partitioner, algo, cfg)
    }

    /// Builds one device of a multi-accelerator fabric: the edge shards
    /// come from `local` (the edges this device owns), while node-level
    /// metadata — initial values, constants, out-degrees for `finalize` —
    /// comes from `full`, so per-node arithmetic matches the single-device
    /// run bit for bit. `local` must span the same node-id space as
    /// `full`; [`new`](Self::new) is the `local == full` special case.
    /// `owned` names the destination intervals this device reduces
    /// (clamped to the interval count); an always-active algorithm
    /// schedules every one of them each iteration, in-edges or not.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`new`](Self::new), or if the
    /// node counts of `full` and `local` disagree.
    pub fn new_sharded(
        full: &CooGraph,
        local: &CooGraph,
        owned: std::ops::Range<usize>,
        partitioner: Partitioner,
        algo: Algorithm,
        cfg: SystemConfig,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            full.num_nodes(),
            local.num_nodes(),
            "device subgraph must span the full node-id space"
        );
        assert!(
            partitioner.nd() <= cfg.pe.bram_nodes,
            "destination interval exceeds PE BRAM"
        );
        let g = full;
        if algo.is_weighted() {
            assert!(
                g.is_weighted(),
                "weighted algorithm requires a weighted graph"
            );
        }
        let parts = partitioner.partition(local);
        let force_sync = matches!(cfg.execution, ExecutionMode::ForceSynchronous);
        let init = LayoutInit {
            vin: algo.initial_vin(g),
            vconst: algo.vconst(g),
            synchronous: algo.synchronous() || force_sync,
        };
        let (gi, img) = LayoutBuilder::build(&parts, &init);
        let mut mem = MemorySystem::new(cfg.dram.clone(), cfg.num_channels());
        let mut moms = MomsSystem::new(cfg.moms.clone());
        mem.set_skip_quiet(cfg.idle_skip);
        moms.set_skip_quiet(cfg.idle_skip);
        if cfg.moms_trace_cap > 0 {
            moms.enable_trace(cfg.moms_trace_cap);
        }
        let mut pes: Vec<Pe> = (0..cfg.num_pes())
            .map(|_| Pe::new(cfg.pe.clone()))
            .collect();
        let mut sampler = None;
        if cfg.trace.is_active() {
            moms.enable_event_tracing(&cfg.trace);
            mem.enable_event_tracing(&cfg.trace);
            for (i, pe) in pes.iter_mut().enumerate() {
                pe.set_tracer(Tracer::for_track(Track::pe(i), &cfg.trace));
            }
            sampler = Some(OccupancySampler::new(cfg.trace.sample_period.max(1)));
        }
        let tracer = Tracer::for_track(Track::scheduler(), &cfg.trace);
        let sched = Scheduler::new(gi.qs());
        System {
            seg_q: vec![VecDeque::new(); cfg.num_pes()],
            last_jobs: Vec::new(),
            owned: owned.start.min(gi.qd())..owned.end.min(gi.qd()),
            burst_segments: (0..cfg.num_pes()).map(|_| Vec::with_capacity(8)).collect(),
            fault: FaultInjector::new(cfg.fault),
            watchdog: cfg.watchdog_cycles.map(Watchdog::new),
            graph_nodes: g.num_nodes(),
            algo,
            gi,
            img,
            mem,
            moms,
            pes,
            sched,
            graph: g.clone(),
            tracer,
            sampler,
            host_ticks: 0,
            pe_ticks: 0,
            pe_wake: vec![0; cfg.num_pes()],
            pe_owed: vec![0; cfg.num_pes()],
            dma_pending: BitSet::new(cfg.num_pes()),
            now: 0,
            cfg,
        }
    }

    fn make_job(&self, d: usize) -> Job {
        let d_base = d as u32 * self.gi.nd();
        let d_len = self.gi.nd().min(self.graph_nodes - d_base);
        Job {
            d,
            d_base,
            d_len,
            vin_base: self.gi.node_in_addr(0),
            vconst_base: self.gi.has_const().then(|| self.gi.node_const_addr(0)),
            vout_base: self.gi.node_out_addr(0),
            ptr_base: self.gi.edge_ptr_addr(d, 0),
            qs: self.gi.qs(),
            ns: self.gi.ns(),
            weighted: self.gi.is_weighted(),
            use_local_src: self.algo.use_local_src() && !self.gi.is_synchronous(),
            algo: self.algo,
            num_nodes: self.graph_nodes,
        }
    }

    /// Destination intervals to schedule: every owned interval for an
    /// always-active algorithm (an interval without in-edges still has
    /// to apply its base value), otherwise those with at least one
    /// active, nonempty incoming shard under the current active flags.
    fn active_jobs(&self, active_srcs: &[bool]) -> Vec<usize> {
        if self.algo.always_active() {
            return self.owned.clone().collect();
        }
        (0..self.gi.qd())
            .filter(|&d| {
                (0..self.gi.qs()).any(|s| {
                    active_srcs[s] && {
                        let p = self.gi.edge_ptr(&self.img, d, s);
                        p.edge_count() > 0
                    }
                })
            })
            .collect()
    }

    /// Runs Template 1 to completion and returns the result.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`DiagnosticSnapshot`] if the no-progress
    /// watchdog trips; use [`run_to_outcome`](Self::run_to_outcome) to
    /// handle a stall programmatically.
    pub fn run(&mut self) -> RunResult {
        match self.run_to_outcome(None) {
            Ok(r) => r,
            Err(RunError::TimedOut) => unreachable!("run without a deadline cannot time out"),
            Err(RunError::Stalled(snap)) => panic!("{snap}"),
        }
    }

    /// Runs Template 1 to completion, giving up when the host wall clock
    /// passes `deadline`.
    ///
    /// Returns `None` on timeout. The check is cooperative — the simulation
    /// loop polls the clock every few tens of thousands of cycles — so no
    /// watchdog threads are involved and a timed-out `System` is simply
    /// dropped. After a timeout the partially simulated state is
    /// inconsistent; do not call `run` again on the same instance.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`DiagnosticSnapshot`] if the no-progress
    /// watchdog trips.
    pub fn run_with_deadline(&mut self, deadline: Option<Instant>) -> Option<RunResult> {
        match self.run_to_outcome(deadline) {
            Ok(r) => Some(r),
            Err(RunError::TimedOut) => None,
            Err(RunError::Stalled(snap)) => panic!("{snap}"),
        }
    }

    /// Runs Template 1 to completion, reporting timeouts and watchdog
    /// stalls as structured [`RunError`]s instead of panicking.
    ///
    /// After any `Err` the partially simulated state is inconsistent; do
    /// not run the same instance again.
    ///
    /// # Errors
    ///
    /// [`RunError::TimedOut`] when the host wall clock passes `deadline`;
    /// [`RunError::Stalled`] when no request retires for the configured
    /// watchdog threshold.
    pub fn run_to_outcome(&mut self, deadline: Option<Instant>) -> Result<RunResult, RunError> {
        let max_iter = self.resolved_max_iterations();
        let mut active_srcs = vec![true; self.gi.qs()];
        let mut iterations = 0u32;
        let mut edges_total = 0u64;

        while iterations < max_iter {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return Err(RunError::TimedOut);
                }
            }
            if self.begin_iteration(iterations, &active_srcs) == 0 {
                break;
            }
            edges_total += self.step_iteration(iterations, deadline)?;
            iterations += 1;

            if !self.continues() {
                break;
            }
            active_srcs = self.next_active_srcs();
            if self.gi.is_synchronous() && iterations < max_iter {
                self.advance_synchronous_frontier();
            }
        }

        Ok(self.finish(iterations, edges_total))
    }

    /// The iteration cap this run resolves to: the configured override, or
    /// the algorithm's bound for this graph.
    pub fn resolved_max_iterations(&self) -> u32 {
        self.cfg
            .max_iterations
            .unwrap_or_else(|| self.algo.max_iterations(self.graph_nodes))
    }

    /// Number of source intervals (the length `begin_iteration` expects of
    /// its active-flag slice).
    pub fn num_source_intervals(&self) -> usize {
        self.gi.qs()
    }

    /// `true` when the memory image keeps separate `V_in`/`V_out` arrays
    /// (synchronous execution).
    pub fn is_synchronous_image(&self) -> bool {
        self.gi.is_synchronous()
    }

    /// Current simulated cycle of this device.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Publishes `active_srcs` into the edge pointers, collects the
    /// destination-interval jobs they activate, and opens iteration `iter`
    /// on the scheduler. Returns the number of jobs scheduled; `0` means
    /// this device has nothing to do (the scheduler is left untouched, so
    /// do not call [`step_iteration`](Self::step_iteration)).
    ///
    /// # Panics
    ///
    /// Panics if `active_srcs` does not have one flag per source interval.
    pub fn begin_iteration(&mut self, iter: u32, active_srcs: &[bool]) -> usize {
        assert_eq!(
            active_srcs.len(),
            self.gi.qs(),
            "one active flag per source interval"
        );
        // Publish active flags into the edge pointers (host work).
        for d in 0..self.gi.qd() {
            for (s, &active) in active_srcs.iter().enumerate() {
                self.gi.set_active(&mut self.img, d, s, active);
            }
        }
        let jobs = self.active_jobs(active_srcs);
        if jobs.is_empty() {
            self.last_jobs.clear();
            return 0;
        }
        self.sched.begin_iteration(jobs.iter().copied());
        self.tracer
            .event(self.now, EventKind::IterStart, iter as u64);
        self.last_jobs = jobs;
        self.last_jobs.len()
    }

    /// Runs the iteration opened by [`begin_iteration`](Self::begin_iteration)
    /// to completion; returns the edges processed.
    ///
    /// This is the fabric's shard-local epoch entry point: it touches only
    /// this device's own state (`System` is `Send` and owns everything it
    /// simulates), so between barriers the fabric may run each shard's
    /// `step_iteration` on its own host worker thread and still collect
    /// byte-identical results in device order.
    ///
    /// # Errors
    ///
    /// [`RunError::TimedOut`] / [`RunError::Stalled`] exactly as
    /// [`run_to_outcome`](Self::run_to_outcome).
    pub fn step_iteration(
        &mut self,
        iter: u32,
        deadline: Option<Instant>,
    ) -> Result<u64, RunError> {
        let edges = self.run_iteration(deadline)?;
        self.tracer.event(self.now, EventKind::IterEnd, iter as u64);
        Ok(edges)
    }

    /// `true` when the iteration just stepped demands another one (any
    /// destination updated, or the algorithm never converges early).
    pub fn continues(&self) -> bool {
        self.sched.any_update || self.algo.always_active()
    }

    /// Source-interval active flags for the next iteration, as observed by
    /// this device's scheduler.
    pub fn next_active_srcs(&self) -> Vec<bool> {
        if self.algo.always_active() {
            vec![true; self.gi.qs()]
        } else {
            self.sched.active_srcs_next.clone()
        }
    }

    /// Synchronous inter-iteration host work: intervals skipped by the
    /// last iteration never wrote `V_out`, so carry their current values
    /// across the buffer swap; then swap `V_in`/`V_out`.
    pub fn advance_synchronous_frontier(&mut self) {
        let scheduled: std::collections::HashSet<usize> = self.last_jobs.iter().copied().collect();
        for d in 0..self.gi.qd() {
            if scheduled.contains(&d) {
                continue;
            }
            let base = d as u32 * self.gi.nd();
            let len = self.gi.nd().min(self.graph_nodes - base);
            for i in base..base + len {
                let v = self.img.read_u32(self.gi.node_in_addr(i));
                self.img.write_u32(self.gi.node_out_addr(i), v);
            }
        }
        self.gi.swap_io();
    }

    /// Raw `V_in` value of node `v` (after
    /// [`advance_synchronous_frontier`](Self::advance_synchronous_frontier)
    /// this is the node's current value).
    pub fn read_node_in(&self, v: u32) -> u32 {
        self.img.read_u32(self.gi.node_in_addr(v))
    }

    /// Overwrites the `V_in` value of node `v` — how a fabric applies a
    /// remote vertex update into this device's replica (host work, like
    /// the inter-iteration pointer maintenance).
    pub fn write_node_in(&mut self, v: u32, value: u32) {
        self.img.write_u32(self.gi.node_in_addr(v), value);
    }

    /// Fast-forwards this device's clock to the fabric barrier at `to`,
    /// booking the gap as link/barrier wait on every PE. No-op when the
    /// device already reached `to`.
    pub fn wait_at_barrier(&mut self, to: Cycle) {
        if to <= self.now {
            return;
        }
        let gap = to - self.now;
        self.now = to;
        for pe in &mut self.pes {
            pe.credit_link_wait(gap);
        }
    }

    /// Aligns this device's clock to `to` without attributing the gap to
    /// any stall class — for freshly built replacement devices joining a
    /// fabric mid-run after a rollback, whose PEs did not actually wait.
    pub fn align_clock(&mut self, to: Cycle) {
        self.now = self.now.max(to);
    }

    /// Gathers final values, merged statistics, and metrics into the
    /// [`RunResult`] for a run that executed `iterations` iterations and
    /// processed `edges_total` edges.
    pub fn finish(&mut self, iterations: u32, edges_total: u64) -> RunResult {
        for i in 0..self.pes.len() {
            self.settle_pe(i);
        }
        let raw = self.gi.read_out_values(&self.img);
        let values = self.algo.finalize(&self.graph, &raw);
        let mut stats = Stats::new();
        for pe in &self.pes {
            stats.merge(&pe.stats());
        }
        stats.merge(&self.moms.stats());
        stats.merge(&self.mem.stats());
        let moms_snap = self.moms.snapshot();
        let mut pe_cycles = PeCycleBreakdown::default();
        for pe in &self.pes {
            pe_cycles.accumulate(&pe.cycle_breakdown());
        }
        let metrics = MetricsSnapshot {
            moms: moms_snap,
            dram: self.mem.snapshot(),
            pe: PeStallBreakdown {
                busy_cycles: stats.get("busy_cycles"),
                raw_stalls: stats.get("raw_stalls"),
                id_starved: stats.get("id_starved"),
                moms_backpressure: stats.get("moms_backpressure"),
            },
            pe_cycles,
            work: WorkCounters {
                pe: TickCount::of(self.pes.len(), self.host_ticks, self.pe_ticks),
                moms_bank: self.moms.bank_work(),
                dram_channel: self.mem.channel_work(),
            },
        };
        RunResult {
            cycles: self.now,
            host_ticks: self.host_ticks,
            iterations,
            edges_processed: edges_total,
            values,
            cache_hit_rate: moms_snap.banks.cache_hit_rate(),
            moms_trace: self.moms.take_trace(),
            stats,
            metrics,
            trace: self.collect_trace(),
        }
    }

    /// Drains every component's event ring and the occupancy sampler into
    /// one report. Cheap no-op (empty report) when tracing is off.
    fn collect_trace(&mut self) -> TraceReport {
        if !self.cfg.trace.is_active() {
            return TraceReport::default();
        }
        // Drops must be summed before draining: `take` resets the rings.
        let dropped = self.tracer.dropped()
            + self.pes.iter().map(|p| p.trace_dropped()).sum::<u64>()
            + self.moms.trace_dropped()
            + self.mem.trace_dropped();
        let mut streams = vec![self.tracer.take()];
        for pe in &mut self.pes {
            streams.push(pe.take_trace_events());
        }
        streams.extend(self.moms.take_trace_events());
        streams.extend(self.mem.take_trace_events());
        TraceReport {
            events: merge_events(streams),
            counters: self
                .sampler
                .as_ref()
                .map(OccupancySampler::series)
                .unwrap_or_default(),
            dropped,
            cycles: self.now,
        }
    }

    /// The last `n` events across every component, merged in time order.
    fn trace_tail(&self, n: usize) -> Vec<TraceEvent> {
        let mut streams = vec![self.tracer.tail(n)];
        streams.extend(self.pes.iter().map(|p| p.trace_tail(n)));
        streams.push(self.moms.trace_tail(n));
        streams.push(self.mem.trace_tail(n));
        let merged = merge_events(streams);
        let skip = merged.len().saturating_sub(n);
        merged.into_iter().skip(skip).collect()
    }

    /// Runs one iteration to completion; returns edges processed, or an
    /// error if the wall-clock deadline expired or the watchdog tripped
    /// mid-iteration.
    fn run_iteration(&mut self, deadline: Option<Instant>) -> Result<u64, RunError> {
        /// Cycles between wall-clock polls (the simulator runs on the
        /// order of a million cycles per host second, so this checks a
        /// few dozen times per second without measurable overhead).
        const DEADLINE_POLL_MASK: u64 = (1 << 15) - 1;
        /// Cycles between watchdog checks: cheap relative to the
        /// threshold, frequent enough that detection latency is bounded
        /// by `threshold + 1024`.
        const WATCHDOG_POLL_MASK: u64 = (1 << 10) - 1;
        let mut edges = 0u64;
        let safety_limit = self.now + 2_000_000_000;
        if let Some(w) = &mut self.watchdog {
            // The inter-iteration host work (pointer maintenance, value
            // carry) is not simulated progress; restart the quiet-period
            // clock at the iteration boundary.
            w.note_progress(self.now);
        }
        loop {
            self.now += 1;
            self.host_ticks += 1;
            let now = self.now;
            let mut progressed = false;
            // Polls key off executed host ticks, not simulated cycles:
            // idle skipping can jump the cycle counter over any fixed
            // cycle mask, but every poll interval of *work* still gets a
            // wall-clock and watchdog check. With skipping off the two
            // counters advance in lockstep, so the cadence is unchanged.
            if let Some(d) = deadline {
                if self.host_ticks & DEADLINE_POLL_MASK == 0 && Instant::now() >= d {
                    return Err(RunError::TimedOut);
                }
            }

            // 1. Idle PEs pull jobs.
            for i in 0..self.pes.len() {
                if self.sched.queue.is_empty() {
                    break;
                }
                if self.pes[i].is_idle() {
                    if let Some(d) = self.sched.pull() {
                        let job = self.make_job(d);
                        self.settle_pe(i);
                        self.pes[i].start_job(job);
                        self.tracer.event(
                            now,
                            EventKind::SchedDispatch,
                            (i as u64) << 32 | d as u64,
                        );
                        self.pes[i].trace_event(now, EventKind::PeJobStart, d as u64);
                    }
                }
            }

            // 2. Tick PEs (they talk to the MOMS and the image). With
            //    skipping on, a PE that cannot act this cycle (no event of
            //    its own due, no MOMS response to accept) is not ticked;
            //    it owes the cycle, booked by `settle_pe`.
            for i in 0..self.pes.len() {
                if self.cfg.idle_skip && self.pe_wake[i] > now && !self.moms.has_response(i) {
                    self.pe_owed[i] += 1;
                    continue;
                }
                self.settle_pe(i);
                self.pes[i].tick(now, &mut self.img, &mut self.moms, i);
                self.pe_ticks += 1;
                if self.pes[i].has_dram_requests() {
                    self.dma_pending.insert(i);
                }
                // Collect results.
                if let Some(r) = self.pes[i].take_result() {
                    edges += r.edges;
                    progressed = true;
                    self.sched.complete(
                        r.d,
                        r.updated,
                        self.gi.nd(),
                        self.gi.ns(),
                        self.graph_nodes,
                    );
                }
            }

            // 3. Move PE bursts into per-channel queues (split at the
            //    interleave boundary) and issue what fits.
            let mut walk = self.dma_pending.cursor();
            while let Some(i) = walk.next(&self.dma_pending) {
                while let Some(req) = self.pes[i].pop_dram_request() {
                    let segs = self.mem.split_burst(req.addr, req.lines);
                    self.burst_segments[i].push((req.tag, segs.len() as u32));
                    for (_, _, lines, gaddr) in segs {
                        self.seg_q[i].push_back(DramRequest {
                            id: encode_pe_id(i, req.tag),
                            addr: gaddr,
                            lines,
                            write: req.write,
                        });
                    }
                }
                while let Some(&seg) = self.seg_q[i].front() {
                    let (ch, _) = self.mem.route(seg.addr);
                    if self.mem.can_accept(ch) {
                        self.mem
                            .push_request(now, seg)
                            .unwrap_or_else(|_| unreachable!("checked can_accept"));
                        self.seg_q[i].pop_front();
                        progressed = true;
                    } else {
                        break;
                    }
                }
                if self.seg_q[i].is_empty() {
                    self.dma_pending.remove(i);
                }
            }

            // 4. Tick MOMS (it pushes its own line fetches) and DRAM.
            self.moms.tick(now, &mut self.mem);
            self.mem.tick(now);

            // Occupancy sampling (reads only; active at counters level+).
            if let Some(s) = &mut self.sampler {
                if now.is_multiple_of(s.period) {
                    s.mshr.record(now, self.moms.mshr_occupancy() as u64);
                    s.subentries.record(now, self.moms.subentry_used() as u64);
                    s.dram_pending.record(now, self.mem.pending() as u64);
                    s.jobs_queued.record(
                        now,
                        (self.sched.queue.len() + self.sched.jobs_outstanding) as u64,
                    );
                }
            }

            // 5. Route DRAM completions, optionally through the fault
            //    injector (delay/reorder/drop on the completion path).
            let fault_on = self.fault.is_active();
            for ch in 0..self.mem.num_channels() {
                while let Some(resp) = self.mem.pop_response(now, ch) {
                    if fault_on {
                        let resp_id = resp.id;
                        let dropped_before = self.fault.dropped();
                        self.fault.offer(now, resp);
                        if self.fault.dropped() > dropped_before {
                            // The injector swallowed this completion; name
                            // it in the trace so a later stall snapshot
                            // points straight at the black-holed request.
                            self.tracer.event(now, EventKind::FaultDrop, resp_id);
                        }
                    } else {
                        self.route_response(resp);
                        progressed = true;
                    }
                }
            }
            if fault_on {
                while let Some(resp) = self.fault.pop_ready(now) {
                    self.route_response(resp);
                    progressed = true;
                }
            }

            // 6. Watchdog: any retirement above restarts the quiet-period
            //    clock; a long enough silence trips the stall report.
            if progressed {
                if let Some(w) = &mut self.watchdog {
                    w.note_progress(now);
                }
            } else if self.host_ticks & WATCHDOG_POLL_MASK == 0 {
                if let Some(w) = &self.watchdog {
                    if w.is_stalled(now) {
                        return Err(RunError::Stalled(Box::new(self.diagnostic_snapshot())));
                    }
                }
            }

            // 7. Iteration barrier.
            if self.sched.iteration_done()
                && self.pes.iter().all(|p| p.is_idle())
                && self.moms.is_idle()
                && self.mem.is_idle()
                && self.seg_q.iter().all(|q| q.is_empty())
                && self.fault.pending() == 0
            {
                break;
            }
            assert!(
                self.now < safety_limit,
                "iteration did not converge within the cycle safety limit"
            );

            // 8. Idle skipping: when every component is provably inert
            //    until some future cycle, fast-forward the clock to just
            //    before it and book the skipped cycles into the same
            //    statistics the unskipped loop would have produced.
            if self.cfg.idle_skip {
                for (i, wake) in self.pe_wake.iter_mut().enumerate() {
                    if *wake == 0 {
                        *wake = self.pes[i].next_event(now).unwrap_or(Cycle::MAX);
                    }
                }
                if let Some(gap) = self.idle_gap(now, safety_limit) {
                    self.now += gap;
                    for owed in &mut self.pe_owed {
                        *owed += gap;
                    }
                }
            }
        }
        Ok(edges)
    }

    /// Cycles that may be fast-forwarded because no component can change
    /// observable state before then; the loop then executes the first
    /// potentially eventful cycle normally. `None` means tick normally.
    ///
    /// The predicate is conservative: every component either names its
    /// earliest possible self-driven event or answers "next cycle" when
    /// it cannot prove inertness. Skipped cycles are exactly the ticks
    /// that would have been no-ops, which is what keeps skip-on and
    /// skip-off runs bit-identical (`tests/determinism.rs`).
    fn idle_gap(&self, now: Cycle, safety_limit: Cycle) -> Option<u64> {
        // Host-side work at the top of the loop: job dispatch and segment
        // issue both act on the very next tick.
        if !self.sched.queue.is_empty() && self.pes.iter().any(|p| p.is_idle()) {
            return None;
        }
        if !self.dma_pending.is_empty() {
            return None; // a PE holds unissued burst segments
        }
        if self.fault.is_active() && self.fault.pending() > 0 {
            return None;
        }
        // Probe components cheapest-first and bail as soon as one reports
        // an event at `now + 1`: no gap is possible then, so the pricier
        // probes (the MOMS iterates every bank) never run on a busy
        // cycle. A source at `now + 1` caps the min at `now + 1` whatever
        // the others say, so bailing early merges to the same answer.
        let mut next: Option<Cycle> = None;
        let mut merge = |c: Cycle| {
            next = Some(next.map_or(c, |n: Cycle| n.min(c)));
            c <= now + 1
        };
        // `pe_wake` holds every PE's `next_event(now)`, refreshed above.
        for &c in &self.pe_wake {
            if c != Cycle::MAX && merge(c) {
                return None;
            }
        }
        if let Some(c) = self.mem.next_event(now) {
            if merge(c) {
                return None;
            }
        }
        if let Some(c) = self.moms.next_event(now) {
            if merge(c) {
                return None;
            }
        }
        let mut target = match next {
            Some(t) => t,
            // No component can ever act again on its own: a genuine
            // deadlock. Jump straight to where the watchdog can trip so
            // detection stays prompt; without a watchdog, tick normally
            // and let the deadline or safety limit catch it.
            None => match &self.watchdog {
                Some(w) => w.last_progress() + w.threshold() + 1,
                None => return None,
            },
        };
        // Never skip over a sampling boundary (the occupancy series must
        // record every period point), the watchdog trip point, or the
        // convergence safety limit.
        if let Some(s) = &self.sampler {
            target = target.min((now / s.period + 1) * s.period);
        }
        if let Some(w) = &self.watchdog {
            target = target.min(w.last_progress() + w.threshold() + 1);
        }
        target = target.min(safety_limit);
        (target > now + 1).then(|| target - 1 - now)
    }

    /// Books PE `i`'s skipped cycles and marks its wake cycle stale:
    /// called before anything changes the PE's state.
    fn settle_pe(&mut self, i: usize) {
        self.pes[i].credit_inert_cycles(std::mem::take(&mut self.pe_owed[i]));
        self.pe_wake[i] = 0;
    }

    /// Delivers one DRAM completion to its owner (MOMS line fetch or PE
    /// burst segment).
    fn route_response(&mut self, resp: DramResponse) {
        if MomsSystem::owns_dram_id(resp.id) {
            self.moms.dram_response(resp.id, resp.lines);
        } else {
            let (pe, tag) = decode_pe_id(resp.id);
            let bursts = &mut self.burst_segments[pe];
            let idx = bursts
                .iter()
                .position(|&(t, _)| t == tag)
                .expect("segment bookkeeping");
            bursts[idx].1 -= 1;
            if bursts[idx].1 == 0 {
                bursts.swap_remove(idx);
                self.settle_pe(pe);
                self.pes[pe].burst_complete(tag, &self.img);
            }
        }
    }

    /// Assembles the per-component state dump reported when the watchdog
    /// trips: scheduler, PE phases and queues, MOMS banks, DRAM channels,
    /// and the fault injector when active.
    fn diagnostic_snapshot(&self) -> DiagnosticSnapshot {
        let (last_progress, threshold) = self
            .watchdog
            .as_ref()
            .map(|w| (w.last_progress(), w.threshold()))
            .unwrap_or((0, 0));
        let mut sections = Vec::new();

        let mut s = DiagnosticSection::new("scheduler");
        s.push("jobs_queued", self.sched.queue.len());
        s.push("jobs_outstanding", self.sched.jobs_outstanding);
        sections.push(s);

        let mut s = DiagnosticSection::new("pes");
        for (i, pe) in self.pes.iter().enumerate() {
            s.push(format!("pe[{i}]"), pe.diagnostic());
        }
        for (i, q) in self.seg_q.iter().enumerate() {
            if !q.is_empty() {
                s.push(format!("seg_q[{i}]"), q.len());
            }
        }
        s.push(
            "bursts_awaiting_segments",
            self.burst_segments.iter().map(Vec::len).sum::<usize>(),
        );
        sections.push(s);

        sections.push(self.moms.diagnostic());
        sections.push(self.mem.diagnostic());
        if self.fault.is_active() {
            sections.push(self.fault.diagnostic());
        }
        // When event tracing is on, embed the tail of the merged event
        // stream: the last thing each component did before going quiet.
        let tail = self.trace_tail(TRACE_TAIL_EVENTS);
        if !tail.is_empty() {
            let mut s = DiagnosticSection::new("trace-tail");
            for (i, ev) in tail.iter().enumerate() {
                s.push(format!("[{i:02}]"), ev);
            }
            sections.push(s);
        }

        DiagnosticSnapshot {
            cycle: self.now,
            last_progress,
            threshold,
            sections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algos::golden;
    use graph::GraphSpec;

    fn small_system(g: &CooGraph, algo: Algorithm) -> System {
        System::new(g, Partitioner::new(256, 256), algo, SystemConfig::small())
    }

    #[test]
    fn bfs_matches_golden_exactly() {
        let g = GraphSpec::rmat(8, 4).build(11);
        let algo = Algorithm::bfs(0);
        let result = small_system(&g, algo).run();
        assert_eq!(result.values, golden::run(&algo, &g));
        assert!(result.cycles > 0);
        assert!(result.edges_processed > 0);
    }

    #[test]
    fn scc_matches_golden_exactly() {
        let g = GraphSpec::rmat(8, 6).build(13);
        let algo = Algorithm::Scc;
        let result = small_system(&g, algo).run();
        assert_eq!(result.values, golden::run(&algo, &g));
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = GraphSpec::rmat(8, 6)
            .build(17)
            .with_random_weights(0, 255, 3);
        let algo = Algorithm::sssp(0);
        let result = small_system(&g, algo).run();
        assert_eq!(result.values, golden::dijkstra(&g, 0));
    }

    #[test]
    fn pagerank_matches_golden_within_fp_tolerance() {
        let g = GraphSpec::rmat(8, 4).build(19);
        let algo = Algorithm::pagerank();
        let result = small_system(&g, algo).run();
        let want = golden::run(&algo, &g);
        assert_eq!(
            golden::pagerank_mismatch(&result.values, &want, 1e-3),
            None,
            "pagerank diverged from reference"
        );
        assert_eq!(result.iterations, 10);
    }

    #[test]
    fn async_converges_in_fewer_iterations_than_bound() {
        let g = GraphSpec::rmat(8, 8).build(23);
        let algo = Algorithm::Scc;
        let result = small_system(&g, algo).run();
        assert!(
            result.iterations < g.num_nodes(),
            "convergence detection failed: {} iterations",
            result.iterations
        );
    }

    #[test]
    fn pagerank_with_multi_chunk_intervals() {
        // Destination intervals larger than one 32-beat init burst force
        // the chunked vin/vconst sequence (regression: the const-burst
        // bookkeeping must consume its pending chunk exactly once).
        let g = GraphSpec::rmat(12, 4).build(97);
        let algo = Algorithm::pagerank();
        let mut cfg = SystemConfig::small();
        cfg.pe.bram_nodes = 2048;
        let result = System::new(&g, Partitioner::new(2048, 2048), algo, cfg).run();
        let want = golden::run(&algo, &g);
        assert_eq!(golden::pagerank_mismatch(&result.values, &want, 1e-3), None);
    }

    #[test]
    fn forced_sync_matches_golden_and_takes_more_iterations() {
        let g = GraphSpec::rmat(9, 6)
            .build(83)
            .with_random_weights(0, 255, 7);
        let algo = Algorithm::sssp(0);

        let async_result = small_system(&g, algo).run();

        let mut cfg = SystemConfig::small();
        cfg.execution = crate::config::ExecutionMode::ForceSynchronous;
        let mut sys = System::new(&g, Partitioner::new(256, 256), algo, cfg);
        let sync_result = sys.run();

        let (want, golden_iters) = golden::run_forced_sync(&algo, &g);
        assert_eq!(sync_result.values, want);
        assert_eq!(sync_result.values, async_result.values, "same fixpoint");
        assert!(
            sync_result.iterations >= async_result.iterations,
            "sync {} < async {} iterations",
            sync_result.iterations,
            async_result.iterations
        );
        // The accelerator's interval-level convergence detection may take
        // a couple of extra confirmation sweeps vs the golden's global
        // check, but not wildly more.
        assert!(sync_result.iterations <= golden_iters + 3);
    }

    #[test]
    fn pagerank_incurs_raw_stalls_on_hot_destinations() {
        // A star graph funnels every edge into one destination: the
        // 4-cycle floating-point gather pipeline must stall on RAW hazards
        // (§V-B: "PageRank is throttled by RAW stalls").
        let n = 512u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|i| (i, 0)).collect();
        let g = CooGraph::from_edges(n, edges);
        let mut cfg = SystemConfig::small();
        cfg.max_iterations = Some(1);
        let mut sys = System::new(&g, Partitioner::new(512, 512), Algorithm::pagerank(), cfg);
        let r = sys.run();
        assert!(
            r.stats.get("raw_stalls") > 100,
            "expected heavy RAW stalling, got {}",
            r.stats.get("raw_stalls")
        );
        // SCC's combinational gather never stalls on the same graph.
        let mut sys = System::new(
            &g,
            Partitioner::new(512, 512),
            Algorithm::Scc,
            SystemConfig::small(),
        );
        let r2 = sys.run();
        assert_eq!(r2.stats.get("raw_stalls"), 0);
    }

    #[test]
    fn recorded_trace_replays_on_other_configs() {
        let g = GraphSpec::rmat(9, 8).build(101);
        let mut cfg = SystemConfig::small();
        cfg.moms_trace_cap = 100_000;
        let mut sys = System::new(&g, Partitioner::new(256, 256), Algorithm::Scc, cfg);
        let result = sys.run();
        assert!(!result.moms_trace.is_empty(), "trace recorded");
        assert_eq!(
            result.moms_trace.len() as u64,
            result.stats.get("moms_reads"),
            "one trace entry per accepted irregular read"
        );
        // Replay the recorded stream against a private-only MOMS.
        let replay_cfg = moms::MomsSystemConfig {
            topology: moms::Topology::Private,
            ..SystemConfig::small().moms
        };
        let replay = moms::harness::TraceRun::new(replay_cfg).execute_tagged(&result.moms_trace);
        assert_eq!(replay.responses, result.moms_trace.len());
        assert!(replay.lines_per_request() > 0.0);
    }

    #[test]
    fn gteps_accounting_is_consistent() {
        let g = GraphSpec::rmat(8, 4).build(29);
        let result = small_system(&g, Algorithm::bfs(0)).run();
        let epc = result.edges_per_cycle();
        assert!(epc > 0.0);
        assert!((result.gteps(200.0) - epc * 0.2).abs() < 1e-12);
    }
}
