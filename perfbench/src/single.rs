//! `pagerank-rv`: two PageRank iterations on the RV stand-in on one
//! `System` with the paper's two-level 18/16 MOMS and 4 DRAM channels.
//!
//! The traced rep drives the same loop as `System::run_to_outcome`
//! through the public per-iteration calls, timing each one. The layer
//! probe then records the workload's own MOMS request stream
//! (`moms_trace_cap`) and replays it through `MomsSystem` and
//! `MemorySystem`, timing each tick.

use std::collections::VecDeque;
use std::time::Instant;

use accel::{MetricsSnapshot, RunConfig, RunError, RunResult, System, SystemConfig};
use algos::Algorithm;
use bench::arch::ArchPoint;
use bench::runner::{prepare_graph, RunSpec};
use dram::MemorySystem;
use graph::benchmarks::BenchmarkId;
use graph::reorder::Preprocess;
use graph::CooGraph;
use moms::bank::MomsReq;
use moms::MomsSystem;

use crate::spans::Recorder;
use crate::{median, Case, Layers, Rep, Tally};

/// Graph shrink factor on top of the default scale.
const SHRINK: u64 = 4;
/// PageRank with its iteration count in the algorithm (no cap).
pub const ALGO: Algorithm = Algorithm::PageRank { iterations: 2 };
/// The documented PageRank tolerance against the golden executor.
pub const TOLERANCE: f32 = 1e-5;
/// Recording capacity for the MOMS request stream (well above the
/// ~718k requests the workload issues; a full buffer is reported).
const TRACE_CAP: usize = 4 << 20;
/// Replay abort threshold.
const REPLAY_MAX_CYCLES: u64 = 50_000_000;

pub(crate) struct PagerankRv {
    g: CooGraph,
    rc: RunConfig,
    built: Option<System>,
}

impl PagerankRv {
    fn build(&self, rc: &RunConfig) -> System {
        let (cfg, partitioner) = rc.build();
        System::new(&self.g, partitioner, ALGO, cfg)
    }

    fn rep_of(
        out: Result<RunResult, RunError>,
        golden: &[u32],
        secs: f64,
    ) -> (Rep, Option<RunResult>) {
        let mut rep = Rep {
            secs,
            attempted: 1,
            ..Rep::default()
        };
        match out {
            Ok(r) => {
                rep.cycles = r.cycles;
                rep.requests = 1;
                rep.fingerprint = fingerprint(&r);
                if let Some(i) = pagerank_mismatch(&r.values, golden) {
                    rep.failed = 1;
                    rep.error = Some(format!("node {i} differs from golden beyond {TOLERANCE}"));
                }
                (rep, Some(r))
            }
            Err(e) => {
                rep.failed = 1;
                rep.error = Some(format!("run_to_outcome: {e}"));
                (rep, None)
            }
        }
    }
}

/// Index of the first value differing from `golden` beyond [`TOLERANCE`]
/// (a length mismatch counts as index 0).
pub(crate) fn pagerank_mismatch(values: &[u32], golden: &[u32]) -> Option<usize> {
    if values.len() != golden.len() {
        return Some(0);
    }
    algos::golden::pagerank_mismatch(values, golden, TOLERANCE)
}

/// Every deterministic observable of a run except the values (checked
/// against golden separately).
fn fingerprint(r: &RunResult) -> String {
    format!(
        "cycles={} ticks={} iters={} edges={} metrics={:?}",
        r.cycles, r.host_ticks, r.iterations, r.edges_processed, r.metrics
    )
}

/// The same loop as `System::run_to_outcome`, one span per call.
fn run_traced(sys: &mut System, rec: &mut Recorder) -> Result<RunResult, RunError> {
    let max_iter = sys.resolved_max_iterations();
    let mut active = vec![true; sys.num_source_intervals()];
    let mut iterations = 0u32;
    let mut edges = 0u64;
    while iterations < max_iter {
        if rec.sub("system.begin", |_| sys.begin_iteration(iterations, &active)) == 0 {
            break;
        }
        edges += rec.sub("system.step", |_| sys.step_iteration(iterations, None))?;
        iterations += 1;
        if !sys.continues() {
            break;
        }
        active = sys.next_active_srcs();
        if sys.is_synchronous_image() && iterations < max_iter {
            rec.sub("system.frontier", |_| sys.advance_synchronous_frontier());
        }
    }
    Ok(rec.sub("system.finish", |_| sys.finish(iterations, edges)))
}

impl Case for PagerankRv {
    fn setup(_seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let g = rec.sub("graph.prepare", |_| {
            prepare_graph(BenchmarkId::Rv, Preprocess::DbgHash, SHRINK, false)
        });
        let mut spec = RunSpec::new(ArchPoint::two_level_18_16());
        spec.shrink = SHRINK;
        let mut case = PagerankRv {
            g,
            rc: spec.run_config(),
            built: None,
        };
        let sys = rec.sub("system.new", |_| case.build(&case.rc));
        case.built = Some(sys);
        Ok(case)
    }

    fn golden(&self) -> Vec<u32> {
        algos::golden::run(&ALGO, &self.g)
    }

    fn rep(&mut self, golden: &[u32], rec: &mut Recorder) -> Rep {
        let mut sys = self.built.take().expect("one rep per set-up");
        let t = Instant::now();
        let out = if rec.enabled() {
            run_traced(&mut sys, rec)
        } else {
            sys.run_to_outcome(None)
        };
        let secs = t.elapsed().as_secs_f64();
        Self::rep_of(out, golden, secs).0
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        reference: &Rep,
        layers: &mut Layers,
        tally: &mut Tally,
    ) {
        let per_rep = |rec: &Recorder, name: &str| {
            let v: Vec<f64> = rec.per_request_secs(name).into_values().collect();
            median(&v)
        };
        layers.insert("graph.prepare_s", per_rep(rec, "graph.prepare"));
        layers.insert("system.new_s", per_rep(rec, "system.new"));
        let mut loop_s = 0.0;
        for (name, metric) in [
            ("system.begin", "system.begin_s"),
            ("system.step", "system.step_s"),
            ("system.frontier", "system.frontier_s"),
            ("system.finish", "system.finish_s"),
        ] {
            let v = per_rep(rec, name);
            loop_s += v;
            layers.insert(metric, v);
        }
        let cycles = reference.cycles as f64;
        layers.insert("system.host_ns_per_cycle", loop_s * 1e9 / cycles);

        // One more rep with the MOMS request stream recorded.
        let mut rc = self.rc.clone();
        rc.moms_trace_cap = TRACE_CAP;
        let cfg: SystemConfig = rc.build().0;
        let mut sys = self.build(&rc);
        let golden = self.golden();
        let (rep, result) = Self::rep_of(sys.run_to_outcome(None), &golden, 0.0);
        tally.book_rep("recording rep", &rep, reference);
        let Some(r) = result else { return };
        layers.insert("system.host_ticks", r.host_ticks as f64);
        layers.insert(
            "system.skip_ratio",
            r.cycles as f64 / r.host_ticks.max(1) as f64,
        );
        snapshot_layers(&r.metrics, layers);
        if r.moms_trace.len() >= TRACE_CAP {
            tally.book(
                1,
                1,
                Some("MOMS stream exceeded the recording capacity".to_owned()),
            );
            return;
        }
        let replayed = rec.span("moms.replay", 0, |rec| replay(rec, &cfg, &r.moms_trace));
        let requests = r.moms_trace.len() as u64;
        let ok = replayed.responses == requests;
        tally.book(
            1,
            u64::from(!ok),
            (!ok).then(|| {
                format!(
                    "replay answered {} of {requests} requests",
                    replayed.responses
                )
            }),
        );
        let replay_s = rec.total_secs("moms.replay");
        let moms_tick_s = rec.total_secs("moms.tick");
        layers.insert("moms.replay_s", replay_s);
        layers.insert("moms.tick_s", moms_tick_s);
        layers.insert("dram.tick_s", rec.total_secs("dram.tick"));
        layers.insert(
            "moms.host_ns_per_request",
            replay_s * 1e9 / requests.max(1) as f64,
        );
        layers.insert("moms.tick_share", moms_tick_s / layers["system.step_s"]);
        layers.insert("moms.replay_requests", requests as f64);
        layers.insert("moms.replay_cycles", replayed.cycles as f64);
    }
}

/// Fills the deterministic MOMS, DRAM and PE metrics from a snapshot.
pub(crate) fn snapshot_layers(m: &MetricsSnapshot, layers: &mut Layers) {
    let banks = &m.moms.banks;
    layers.insert("moms.hit_rate", banks.cache_hit_rate());
    layers.insert("moms.hits", banks.cache_hits as f64);
    layers.insert("moms.misses", banks.cache_misses as f64);
    layers.insert(
        "moms.peak_outstanding_misses",
        m.moms.peak_outstanding_misses as f64,
    );
    layers.insert("moms.stall_mshr_full", banks.stall_mshr_full as f64);
    layers.insert("moms.stall_subentry_full", banks.stall_subentry_full as f64);
    let dram = m.dram_total();
    layers.insert("dram.read_lines", dram.read_lines as f64);
    layers.insert("dram.row_hit_rate", dram.row_hit_rate());
    layers.insert("dram.bus_busy_cycles", dram.bus_busy_cycles as f64);
    pe_layers(&m.pe_cycles, layers);
}

/// Fills the PE attribution shares.
pub(crate) fn pe_layers(pe: &accel::PeCycleBreakdown, layers: &mut Layers) {
    let total = pe.total().max(1) as f64;
    layers.insert("pe.productive_share", pe.stream_productive as f64 / total);
    layers.insert("pe.moms_wait_share", pe.stream_moms_wait as f64 / total);
    layers.insert("pe.dram_wait_share", pe.stream_dram_wait as f64 / total);
    layers.insert("pe.idle_share", pe.idle as f64 / total);
    layers.insert("pe.link_wait_share", pe.link_wait as f64 / total);
}

/// Outcome of a MOMS replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// Responses received.
    pub responses: u64,
    /// Cycles until the last one (or the abort threshold).
    pub cycles: u64,
}

/// Replays a recorded `(pe, line)` stream through a fresh `MomsSystem`
/// and `MemorySystem` built from `cfg`, each request from its original
/// PE, with one span per `MomsSystem::tick` and `MemorySystem::tick`.
pub fn replay(rec: &mut Recorder, cfg: &SystemConfig, stream: &[(u16, u64)]) -> Replay {
    let pes = cfg.moms.num_pes;
    let mut sys = MomsSystem::new(cfg.moms.clone());
    let mut mem = MemorySystem::new(cfg.dram.clone(), cfg.moms.num_channels);
    let mut per_pe: Vec<VecDeque<u64>> = vec![VecDeque::new(); pes];
    for &(pe, line) in stream {
        per_pe[pe as usize % pes].push_back(line);
    }
    let total = stream.len() as u64;
    let mut responses = 0u64;
    let mut now = 0u64;
    while responses < total && now < REPLAY_MAX_CYCLES {
        for (p, q) in per_pe.iter_mut().enumerate() {
            if let Some(&line) = q.front() {
                let req = MomsReq {
                    line,
                    word: (line % 16) as u8,
                    id: (responses % 65536) as u32,
                };
                if sys.try_request(p, req) {
                    q.pop_front();
                }
            }
        }
        rec.sub("moms.tick", |_| sys.tick(now, &mut mem));
        rec.sub("dram.tick", |_| mem.tick(now));
        for ch in 0..mem.num_channels() {
            while let Some(r) = mem.pop_response(now, ch) {
                sys.dram_response(r.id, r.lines);
            }
        }
        for p in 0..pes {
            while sys.pop_response(p).is_some() {
                responses += 1;
            }
        }
        now += 1;
    }
    Replay {
        responses,
        cycles: now,
    }
}
