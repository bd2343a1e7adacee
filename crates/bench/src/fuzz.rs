//! Deterministic conformance fuzzer: random graph × config × fault
//! cases cross-checked through a differential oracle stack.
//!
//! Built on the generic framework in [`simkit::fuzz`] (seed scheduling,
//! greedy shrinking, corpus line format) and the [`accel::fuzz`] bridge
//! (knob application). This module owns the concrete case grammar, the
//! oracle stack, the budgeted run loop, and the corpus files under
//! `tests/fixtures/fuzz_corpus/`.
//!
//! # Case grammar
//!
//! A [`FuzzCase`] samples, from one [`simkit::fuzz::case_seed`]:
//!
//! * a graph — one of the `graph::gen` families (rmat, Erdős–Rényi,
//!   Barabási–Albert, Watts–Strogatz) at small scale, a random explicit
//!   edge list, an explicit list whose edges all sit inside one 64-node
//!   destination interval of a graph just over 64 nodes (so another
//!   interval has no in-edges at all), or a degenerate shape (empty,
//!   single vertex, self-loops only, fully disconnected);
//! * an algorithm — bfs/sssp/scc/wcc/pagerank (WCC runs on the
//!   symmetrized graph, SSSP attaches seeded random weights);
//! * architecture knobs — PE count, channels, MOMS topology, cache
//!   variant, execution mode, destination-interval override;
//! * a fabric shape — 1/2/4/8 devices, link topology/bandwidth/latency,
//!   retransmission and checkpoint config, sim-thread count;
//! * an optional graceful fault schedule for the DRAM response path and
//!   the link delivery path (profiles the transport must mask).
//!
//! # Oracle stack
//!
//! Each case runs through every oracle that applies to it:
//!
//! 1. `system-vs-golden` — single-device [`System`] values must match
//!    the CPU golden executor (exactly for the monotone algorithms,
//!    within the established 1e-5 relative tolerance for PageRank).
//! 2. `conservation` — at the reported fixpoint of a monotone
//!    algorithm, no edge may still relax its destination: every active
//!    vertex must have been reduced before the run declared completion.
//! 3. `sync-vs-async` — the forced-synchronous golden fixpoint must
//!    equal the asynchronous result (monotone algorithms are
//!    schedule-independent).
//! 4. `fabric-vs-golden` — multi-device fabric values against the
//!    golden executor.
//! 5. `threads-identity` — the full `Debug` rendering of the fabric
//!    result must be byte-identical between `sim_threads = 1` and the
//!    sampled thread count.
//! 6. `fault-equivalence` — a graceful fault schedule may cost cycles
//!    but never results: values must match the clean run (exactly for
//!    monotone algorithms; within 1 ulp on one device / 1e-5 across the
//!    fabric for PageRank, the bars the robustness suites establish).
//! 7. `idle-skip-identity` — on one case in [`SKIP_ORACLE_EVERY`]
//!    (chosen by a hash of the case line), the single-device run is
//!    repeated with `idle_skip` off: values, cycles, iterations, edges,
//!    merged statistics, and the PE-cycle breakdown must be identical.
//!
//! A panic anywhere inside a case is caught and reported as the `panic`
//! oracle; a watchdog stall is an `engine-stall`/`fabric-stall` failure;
//! a case that exceeds its wall-clock budget is counted as timed out
//! (and excluded from the deterministic summary's pass count) rather
//! than treated as an oracle violation.
//!
//! # Shrinking and the corpus
//!
//! On the first failure the runner calls [`simkit::fuzz::shrink`] with
//! [`shrink_candidates`]: strip the fault schedule, collapse the fabric
//! (devices, threads, checkpointing, link knobs), convert the graph to
//! an explicit edge list and drop vertices/edges, simplify the
//! algorithm and architecture — re-running the full oracle stack after
//! every proposed reduction. The minimal case is appended to the corpus
//! directory as a commented `key=value` file and the run exits nonzero
//! with a one-line `repro fuzz --replay @<file>` reproduction command.
//! `tests/fuzz_corpus.rs` replays every committed entry in tier-1, so a
//! fuzz-found bug becomes a permanent regression test.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use accel::fuzz::{
    cache_tag, execution_tag, parse_cache, parse_execution, parse_topology, topology_tag,
    FuzzTarget,
};
use accel::{Fabric, FabricError, LinkTopology, RunError, System};
use algos::{golden, Algorithm};
use graph::{CooGraph, GraphSpec};
use moms::Topology;
use simkit::fuzz::{case_seed, shrink, KvLine, ShrinkOutcome};
use simkit::{FaultConfig, FaultProfile, SplitMix64};

/// Deterministic work-to-wall-clock conversion for `--budget-secs`: the
/// budget is spent in *simulated cycles* (summed over every oracle run),
/// so the same seed and budget always run the same case sequence and
/// print the same summary on every host. The constant is conservative
/// against the committed `BENCH_*.json` host throughput (≥ 500k
/// cycles/s in release builds), so a budget of N seconds finishes well
/// inside N wall-clock seconds on a healthy machine; a 2N+10s hard
/// wall-clock stop guards pathological hosts (and is loudly reported,
/// since only that escape hatch is nondeterministic).
pub const WORK_CYCLES_PER_SEC: u64 = 150_000;

/// Default case count when neither `--budget-secs` nor `--cases` is
/// given.
pub const DEFAULT_CASES: u64 = 200;

/// Oracle evaluations the shrinker may spend on one failure.
pub const SHRINK_EVALS: usize = 250;

/// The `idle-skip-identity` oracle runs on one case in this many, picked
/// by a hash of the case line (so replays and shrinks of a case see the
/// same decision).
pub const SKIP_ORACLE_EVERY: u64 = 8;

// ---------------------------------------------------------------------
// Case grammar
// ---------------------------------------------------------------------

/// The graph part of a case: which shape to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphKind {
    /// `GraphSpec::rmat(scale, avg_degree)`.
    Rmat {
        /// log2 of the node count.
        scale: u32,
        /// Average out-degree.
        avg_degree: u32,
    },
    /// `GraphSpec::erdos_renyi(n, m)`.
    ErdosRenyi {
        /// Node count.
        n: u32,
        /// Edge count.
        m: usize,
    },
    /// `GraphSpec::barabasi_albert(n, m_attach)`.
    BarabasiAlbert {
        /// Node count.
        n: u32,
        /// Edges attached per new node.
        m_attach: u32,
    },
    /// `GraphSpec::watts_strogatz(n, k, beta)`; beta carried in
    /// permille so the corpus format stays integer-only.
    WattsStrogatz {
        /// Ring size.
        n: u32,
        /// Ring degree (even).
        k: u32,
        /// Rewiring probability × 1000.
        beta_permille: u32,
    },
    /// Zero nodes, zero edges.
    Empty,
    /// One node, zero edges.
    SingleVertex,
    /// `n` nodes, each with exactly one self-loop.
    SelfLoops {
        /// Node count.
        n: u32,
    },
    /// `n` nodes, zero edges.
    Disconnected {
        /// Node count.
        n: u32,
    },
    /// An explicit edge list — random tiny graphs, and where shrinking
    /// lands every family case before dropping edges.
    Explicit {
        /// Node count.
        n: u32,
        /// Directed edge list (self-loops and duplicates allowed).
        edges: Vec<(u32, u32)>,
    },
}

/// The graph part of a case: shape plus build seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphCase {
    /// Shape.
    pub kind: GraphKind,
    /// Generator seed (ignored by degenerate and explicit shapes).
    pub gseed: u64,
    /// `Some(seed)` attaches random edge weights in 0..=255 (set iff
    /// the algorithm is weighted).
    pub wseed: Option<u64>,
}

impl GraphCase {
    /// Node count without building.
    pub fn num_nodes(&self) -> u32 {
        match &self.kind {
            GraphKind::Rmat { scale, .. } => 1 << scale,
            GraphKind::ErdosRenyi { n, .. }
            | GraphKind::BarabasiAlbert { n, .. }
            | GraphKind::WattsStrogatz { n, .. }
            | GraphKind::SelfLoops { n }
            | GraphKind::Disconnected { n }
            | GraphKind::Explicit { n, .. } => *n,
            GraphKind::Empty => 0,
            GraphKind::SingleVertex => 1,
        }
    }

    /// The raw directed graph, before symmetrization and weights.
    pub fn build_raw(&self) -> CooGraph {
        match &self.kind {
            GraphKind::Rmat { scale, avg_degree } => {
                GraphSpec::rmat(*scale, *avg_degree).build(self.gseed)
            }
            GraphKind::ErdosRenyi { n, m } => GraphSpec::erdos_renyi(*n, *m).build(self.gseed),
            GraphKind::BarabasiAlbert { n, m_attach } => {
                GraphSpec::barabasi_albert(*n, *m_attach).build(self.gseed)
            }
            GraphKind::WattsStrogatz {
                n,
                k,
                beta_permille,
            } => GraphSpec::watts_strogatz(*n, *k, f64::from(*beta_permille) / 1000.0)
                .build(self.gseed),
            GraphKind::Empty => CooGraph::from_edges(0, Vec::new()),
            GraphKind::SingleVertex => CooGraph::from_edges(1, Vec::new()),
            GraphKind::SelfLoops { n } => {
                CooGraph::from_edges(*n, (0..*n).map(|i| (i, i)).collect())
            }
            GraphKind::Disconnected { n } => CooGraph::from_edges(*n, Vec::new()),
            GraphKind::Explicit { n, edges } => CooGraph::from_edges(*n, edges.clone()),
        }
    }

    /// The graph as the case's algorithm sees it: symmetrized for WCC,
    /// weighted when a weight seed is set.
    pub fn build_for(&self, algo: &Algorithm) -> CooGraph {
        let mut g = self.build_raw();
        if matches!(algo, Algorithm::Wcc) {
            g = g.symmetrized();
        }
        if let Some(ws) = self.wseed {
            g = g.with_random_weights(0, 255, ws);
        }
        g
    }
}

/// The fault part of a case: independent schedules for the DRAM
/// response path (per device) and the link delivery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCase {
    /// DRAM-response faults, applied to every device.
    pub dram: FaultConfig,
    /// Link delivery faults (multi-device cases only).
    pub link: FaultConfig,
}

impl FaultCase {
    /// Whether any schedule is active.
    pub fn any(&self) -> bool {
        self.dram.profile != FaultProfile::None || self.link.profile != FaultProfile::None
    }
}

/// One complete fuzz case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Graph shape and seeds.
    pub graph: GraphCase,
    /// Algorithm (with source / iteration parameters).
    pub algo: Algorithm,
    /// Architecture and fabric knobs.
    pub target: FuzzTarget,
    /// Optional graceful fault schedules.
    pub fault: FaultCase,
    /// Test-only corruption hook: when set, the single-device result
    /// has its last value's sign bit flipped *before* the oracles run,
    /// so the stack must detect (and the shrinker must preserve) a
    /// known-injected violation. Serialized as `corrupt=1`, so a saved
    /// injected case replays its failure.
    pub corrupt: bool,
}

// ---------------------------------------------------------------------
// Corpus text format
// ---------------------------------------------------------------------

/// Every key the case line may carry, for unknown-key rejection.
const CASE_KEYS: &[&str] = &[
    "v", "graph", "edges", "gseed", "wseed", "algo", "pes", "channels", "topo", "caches", "mode",
    "nd", "devices", "ltopo", "lbw", "llat", "lrto", "ckpt", "threads", "dfault", "dseed",
    "lfault", "lseed", "corrupt",
];

fn encode_graph(kind: &GraphKind) -> (String, Option<String>) {
    match kind {
        GraphKind::Rmat { scale, avg_degree } => (format!("rmat:{scale}:{avg_degree}"), None),
        GraphKind::ErdosRenyi { n, m } => (format!("er:{n}:{m}"), None),
        GraphKind::BarabasiAlbert { n, m_attach } => (format!("ba:{n}:{m_attach}"), None),
        GraphKind::WattsStrogatz {
            n,
            k,
            beta_permille,
        } => (format!("ws:{n}:{k}:{beta_permille}"), None),
        GraphKind::Empty => ("empty".to_owned(), None),
        GraphKind::SingleVertex => ("single".to_owned(), None),
        GraphKind::SelfLoops { n } => (format!("loops:{n}"), None),
        GraphKind::Disconnected { n } => (format!("disc:{n}"), None),
        GraphKind::Explicit { n, edges } => {
            let list = if edges.is_empty() {
                "none".to_owned()
            } else {
                edges
                    .iter()
                    .map(|(s, d)| format!("{s}-{d}"))
                    .collect::<Vec<_>>()
                    .join(".")
            };
            (format!("coo:{n}"), Some(list))
        }
    }
}

fn split3(s: &str) -> Vec<&str> {
    s.split(':').collect()
}

fn decode_graph(graph: &str, edges: Option<&str>) -> Result<GraphKind, String> {
    let parts = split3(graph);
    let parse_u32 = |s: &str| {
        s.parse::<u32>()
            .map_err(|_| format!("bad number {s:?} in graph spec {graph:?}"))
    };
    let kind = match parts[0] {
        "rmat" if parts.len() == 3 => GraphKind::Rmat {
            scale: parse_u32(parts[1])?,
            avg_degree: parse_u32(parts[2])?,
        },
        "er" if parts.len() == 3 => GraphKind::ErdosRenyi {
            n: parse_u32(parts[1])?,
            m: parts[2]
                .parse()
                .map_err(|_| format!("bad edge count in {graph:?}"))?,
        },
        "ba" if parts.len() == 3 => GraphKind::BarabasiAlbert {
            n: parse_u32(parts[1])?,
            m_attach: parse_u32(parts[2])?,
        },
        "ws" if parts.len() == 4 => GraphKind::WattsStrogatz {
            n: parse_u32(parts[1])?,
            k: parse_u32(parts[2])?,
            beta_permille: parse_u32(parts[3])?,
        },
        "empty" => GraphKind::Empty,
        "single" => GraphKind::SingleVertex,
        "loops" if parts.len() == 2 => GraphKind::SelfLoops {
            n: parse_u32(parts[1])?,
        },
        "disc" if parts.len() == 2 => GraphKind::Disconnected {
            n: parse_u32(parts[1])?,
        },
        "coo" if parts.len() == 2 => {
            let n = parse_u32(parts[1])?;
            let list = edges.ok_or("explicit graph is missing the edges= key")?;
            let mut parsed = Vec::new();
            if list != "none" {
                for tok in list.split('.') {
                    let (s, d) = tok
                        .split_once('-')
                        .ok_or_else(|| format!("bad edge token {tok:?}"))?;
                    parsed.push((parse_u32(s)?, parse_u32(d)?));
                }
            }
            GraphKind::Explicit { n, edges: parsed }
        }
        _ => return Err(format!("unknown graph spec {graph:?}")),
    };
    Ok(kind)
}

fn encode_algo(algo: &Algorithm) -> String {
    match algo {
        Algorithm::Bfs { source } => format!("bfs:{source}"),
        Algorithm::Sssp { source } => format!("sssp:{source}"),
        Algorithm::Scc => "scc".to_owned(),
        Algorithm::Wcc => "wcc".to_owned(),
        Algorithm::PageRank { iterations } => format!("pagerank:{iterations}"),
    }
}

fn decode_algo(s: &str) -> Result<Algorithm, String> {
    let parts = split3(s);
    let parse_u32 = |t: &str| {
        t.parse::<u32>()
            .map_err(|_| format!("bad number in algo spec {s:?}"))
    };
    match parts[0] {
        "bfs" if parts.len() == 2 => Ok(Algorithm::Bfs {
            source: parse_u32(parts[1])?,
        }),
        "sssp" if parts.len() == 2 => Ok(Algorithm::Sssp {
            source: parse_u32(parts[1])?,
        }),
        "scc" => Ok(Algorithm::Scc),
        "wcc" => Ok(Algorithm::Wcc),
        "pagerank" if parts.len() == 2 => Ok(Algorithm::PageRank {
            iterations: parse_u32(parts[1])?,
        }),
        _ => Err(format!("unknown algo spec {s:?}")),
    }
}

fn fault_tag(f: FaultConfig) -> String {
    match f.profile {
        FaultProfile::Lossy { permille } => format!("lossy:{permille}"),
        p => p.name().to_owned(),
    }
}

impl FuzzCase {
    /// Renders the case as one stable corpus line.
    pub fn encode(&self) -> String {
        let mut line = KvLine::new();
        line.push("v", 1);
        let (graph, edges) = encode_graph(&self.graph.kind);
        line.push("graph", graph);
        if let Some(edges) = edges {
            line.push("edges", edges);
        }
        line.push("gseed", self.graph.gseed);
        if let Some(ws) = self.graph.wseed {
            line.push("wseed", ws);
        }
        line.push("algo", encode_algo(&self.algo));
        let t = &self.target;
        line.push("pes", t.pes);
        line.push("channels", t.channels);
        line.push("topo", topology_tag(t.topology));
        line.push("caches", cache_tag(t.caches));
        line.push("mode", execution_tag(t.execution));
        if let Some(nd) = t.nd {
            line.push("nd", nd);
        }
        line.push("devices", t.devices);
        line.push("ltopo", t.link_topology.name());
        line.push("lbw", t.link_bandwidth);
        line.push("llat", t.link_latency);
        if let Some(rto) = t.link_rto {
            line.push("lrto", rto);
        }
        line.push("ckpt", t.checkpoint_interval);
        line.push("threads", t.sim_threads);
        if self.fault.dram.profile != FaultProfile::None {
            line.push("dfault", fault_tag(self.fault.dram));
            line.push("dseed", self.fault.dram.seed);
        }
        if self.fault.link.profile != FaultProfile::None {
            line.push("lfault", fault_tag(self.fault.link));
            line.push("lseed", self.fault.link.seed);
        }
        if self.corrupt {
            line.push("corrupt", 1);
        }
        line.encode()
    }

    /// Parses a corpus line back into a case.
    pub fn decode(line: &str) -> Result<FuzzCase, String> {
        let kv = KvLine::parse(line)?;
        let unknown = kv.unknown_keys(CASE_KEYS);
        if !unknown.is_empty() {
            return Err(format!("unknown case keys {unknown:?}"));
        }
        let v: u32 = kv.parsed("v")?;
        if v != 1 {
            return Err(format!("unsupported case format version {v}"));
        }
        let kind = decode_graph(kv.require("graph")?, kv.get("edges"))?;
        let graph = GraphCase {
            kind,
            gseed: kv.parsed_or("gseed", 0)?,
            wseed: match kv.get("wseed") {
                Some(_) => Some(kv.parsed("wseed")?),
                None => None,
            },
        };
        let algo = decode_algo(kv.require("algo")?)?;
        let defaults = FuzzTarget::default();
        let target = FuzzTarget {
            pes: kv.parsed_or("pes", defaults.pes)?,
            channels: kv.parsed_or("channels", defaults.channels)?,
            topology: parse_topology(kv.get("topo").unwrap_or("two-level"))?,
            caches: parse_cache(kv.get("caches").unwrap_or("full"))?,
            execution: parse_execution(kv.get("mode").unwrap_or("default"))?,
            nd: match kv.get("nd") {
                Some(_) => Some(kv.parsed("nd")?),
                None => None,
            },
            devices: kv.parsed_or("devices", 1)?,
            link_topology: kv
                .get("ltopo")
                .unwrap_or("all-to-all")
                .parse::<LinkTopology>()
                .map_err(|e| format!("bad ltopo: {e}"))?,
            link_bandwidth: kv.parsed_or("lbw", defaults.link_bandwidth)?,
            link_latency: kv.parsed_or("llat", defaults.link_latency)?,
            link_rto: match kv.get("lrto") {
                Some(_) => Some(kv.parsed("lrto")?),
                None => None,
            },
            checkpoint_interval: kv.parsed_or("ckpt", 0)?,
            sim_threads: kv.parsed_or("threads", 1)?,
        };
        let parse_fault = |fkey: &str, skey: &str| -> Result<FaultConfig, String> {
            match kv.get(fkey) {
                None => Ok(FaultConfig::default()),
                Some(p) => Ok(FaultConfig {
                    profile: p.parse::<FaultProfile>()?,
                    seed: kv.parsed_or(skey, 0)?,
                }),
            }
        };
        Ok(FuzzCase {
            graph,
            algo,
            target,
            fault: FaultCase {
                dram: parse_fault("dfault", "dseed")?,
                link: parse_fault("lfault", "lseed")?,
            },
            corrupt: kv.parsed_or("corrupt", 0u32)? != 0,
        })
    }
}

// ---------------------------------------------------------------------
// Case sampling
// ---------------------------------------------------------------------

/// Samples case `index` of the run seeded by `master`. Deterministic:
/// the same `(master, index)` always yields the same case on every
/// host, which is what makes `--replay master:index` work.
pub fn sample_case(master: u64, index: u64, corrupt: bool) -> FuzzCase {
    let mut rng = SplitMix64::new(case_seed(master, index));

    let kind = sample_graph_kind(&mut rng);
    let gseed = rng.next_u64() & 0xffff; // small seeds keep corpus lines short

    let algo = {
        let n = GraphCase {
            kind: kind.clone(),
            gseed,
            wseed: None,
        }
        .num_nodes();
        let source = (rng.next_below(u64::from(n.max(1)))) as u32;
        match rng.next_below(5) {
            0 => Algorithm::Bfs { source },
            1 => Algorithm::Sssp { source },
            2 => Algorithm::Scc,
            3 => Algorithm::Wcc,
            _ => Algorithm::PageRank {
                iterations: 1 + rng.next_below(4) as u32,
            },
        }
    };
    let wseed = algo.is_weighted().then(|| rng.next_u64() & 0xffff);

    let devices = match rng.next_below(10) {
        0..=3 => 1,
        4..=6 => 2,
        7..=8 => 4,
        _ => 8,
    };
    let sim_threads = if devices > 1 {
        match rng.next_below(10) {
            0..=2 => 1,
            3..=6 => 2,
            _ => devices,
        }
    } else {
        1
    };
    let target = FuzzTarget {
        pes: [1, 2, 4][rng.next_below(3) as usize],
        channels: [1, 2][rng.next_below(2) as usize],
        topology: [Topology::Shared, Topology::Private, Topology::TwoLevel]
            [rng.next_below(3) as usize],
        caches: if rng.chance(0.7) {
            accel::CacheVariant::Full
        } else {
            [
                accel::CacheVariant::NoPrivate,
                accel::CacheVariant::NoShared,
                accel::CacheVariant::None,
            ][rng.next_below(3) as usize]
        },
        execution: if rng.chance(0.25) {
            accel::ExecutionMode::ForceSynchronous
        } else {
            accel::ExecutionMode::AlgorithmDefault
        },
        nd: rng
            .chance(0.25)
            .then(|| [64u32, 128, 256][rng.next_below(3) as usize]),
        devices,
        link_topology: if rng.chance(0.5) {
            LinkTopology::AllToAll
        } else {
            LinkTopology::Ring
        },
        link_bandwidth: [1, 4, 16][rng.next_below(3) as usize],
        link_latency: [1, 32, 128][rng.next_below(3) as usize],
        link_rto: rng
            .chance(0.2)
            .then(|| [256u64, 1024][rng.next_below(2) as usize]),
        checkpoint_interval: if devices > 1 && rng.chance(0.3) {
            1 + rng.next_below(2) as u32
        } else {
            0
        },
        sim_threads,
    };

    let dram = if rng.chance(0.35) {
        FaultConfig {
            profile: FaultProfile::GRACEFUL[rng.next_below(5) as usize],
            seed: rng.next_u64() & 0xffff,
        }
    } else {
        FaultConfig::default()
    };
    let link = if devices > 1 && rng.chance(0.4) {
        let profile = match rng.next_below(8) {
            0..=4 => FaultProfile::GRACEFUL[rng.next_below(5) as usize],
            5 => FaultProfile::Lossy { permille: 100 },
            6 => FaultProfile::Lossy { permille: 250 },
            _ => FaultProfile::Duplicate,
        };
        FaultConfig {
            profile,
            seed: rng.next_u64() & 0xffff,
        }
    } else {
        FaultConfig::default()
    };

    FuzzCase {
        graph: GraphCase { kind, gseed, wseed },
        algo,
        target,
        fault: FaultCase { dram, link },
        corrupt,
    }
}

fn sample_graph_kind(rng: &mut SplitMix64) -> GraphKind {
    match rng.next_below(100) {
        // Degenerate shapes: the corners hand-written suites under-sample.
        0..=3 => GraphKind::Empty,
        4..=7 => GraphKind::SingleVertex,
        8..=11 => GraphKind::SelfLoops {
            n: 1 + rng.next_below(8) as u32,
        },
        12..=14 => GraphKind::Disconnected {
            n: 2 + rng.next_below(63) as u32,
        },
        // Random explicit edge lists: tiny, adversarial shapes (self
        // loops, duplicate edges, unreachable vertices).
        15..=39 => {
            let n = 1 + rng.next_below(12) as u32;
            let m = rng.next_below(u64::from(n) * 2 + 1) as usize;
            let edges = (0..m)
                .map(|_| {
                    (
                        rng.next_below(u64::from(n)) as u32,
                        rng.next_below(u64::from(n)) as u32,
                    )
                })
                .collect();
            GraphKind::Explicit { n, edges }
        }
        // Edge-less destination intervals: just over the 64-node
        // smallest interval, with every edge inside one interval, so the
        // other has no in-edges (PageRank must still apply its base
        // rank there).
        40..=47 => {
            let n = 65 + rng.next_below(32) as u32;
            let (lo, hi) = if rng.chance(0.5) { (0, 64) } else { (64, n) };
            let span = u64::from(hi - lo);
            let m = 1 + rng.next_below(span) as usize;
            let edges = (0..m)
                .map(|_| {
                    (
                        lo + rng.next_below(span) as u32,
                        lo + rng.next_below(span) as u32,
                    )
                })
                .collect();
            GraphKind::Explicit { n, edges }
        }
        // The graph::gen families at small scale.
        48..=64 => GraphKind::Rmat {
            scale: 4 + rng.next_below(4) as u32,
            avg_degree: 2 + rng.next_below(5) as u32,
        },
        65..=79 => {
            let n = 8 + rng.next_below(121) as u32;
            GraphKind::ErdosRenyi {
                n,
                m: (u64::from(n) * (1 + rng.next_below(4))) as usize,
            }
        }
        80..=89 => {
            let m_attach = 1 + rng.next_below(3) as u32;
            GraphKind::BarabasiAlbert {
                n: m_attach + 8 + rng.next_below(57) as u32,
                m_attach,
            }
        }
        _ => {
            let k = [2u32, 4][rng.next_below(2) as usize];
            GraphKind::WattsStrogatz {
                n: k + 8 + rng.next_below(57) as u32,
                k,
                beta_permille: [0u32, 100, 500][rng.next_below(3) as usize],
            }
        }
    }
}

// ---------------------------------------------------------------------
// Oracle stack
// ---------------------------------------------------------------------

/// An oracle violation: which oracle fired and what it saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Oracle name (see the module docs).
    pub oracle: &'static str,
    /// One-line description of the mismatch.
    pub detail: String,
}

/// How one case ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Every applicable oracle held; `work` is the summed simulated
    /// cycles of all runs (the deterministic budget currency).
    Pass {
        /// Simulated cycles spent across every oracle run.
        work: u64,
    },
    /// The per-case wall-clock budget expired mid-run.
    TimedOut,
    /// An oracle caught a violation (or a run panicked / stalled).
    Fail(OracleFailure),
}

/// Per-run options for the fuzz loop.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Master seed (`--seed`).
    pub seed: u64,
    /// Deterministic work budget (`--budget-secs`).
    pub budget_secs: Option<u64>,
    /// Case-count cap (`--cases`).
    pub max_cases: Option<u64>,
    /// Wall-clock budget per case.
    pub per_case_timeout: Duration,
    /// Corpus directory for failing cases.
    pub corpus_dir: String,
    /// Enable the test-only corruption hook on every sampled case.
    pub corrupt: bool,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 1,
            budget_secs: None,
            max_cases: None,
            per_case_timeout: Duration::from_secs(30),
            corpus_dir: "tests/fixtures/fuzz_corpus".to_owned(),
            corrupt: false,
        }
    }
}

/// Runs every applicable oracle on one case. Panics anywhere inside the
/// case (graph build, simulation, comparison) are contained and
/// reported as the `panic` oracle.
pub fn check_case(case: &FuzzCase, opts: &FuzzOptions) -> CaseOutcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_oracles(case, opts)))
        .unwrap_or_else(|payload| {
            CaseOutcome::Fail(OracleFailure {
                oracle: "panic",
                detail: crate::engine::panic_message(payload.as_ref()),
            })
        })
}

/// First index where two integer value vectors differ.
fn first_mismatch(got: &[u32], want: &[u32]) -> Option<usize> {
    if got.len() != want.len() {
        return Some(got.len().min(want.len()));
    }
    (0..got.len()).find(|&i| got[i] != want[i])
}

/// Compares simulated values against a reference. Monotone algorithms
/// must match exactly; PageRank uses the established 1e-5 relative
/// tolerance. Returns the mismatch detail.
fn values_mismatch(algo: &Algorithm, got: &[u32], want: &[u32]) -> Option<String> {
    if algo.synchronous() {
        if got.len() != want.len() {
            return Some(format!("length {} vs {}", got.len(), want.len()));
        }
        golden::pagerank_mismatch(got, want, 1e-5).map(|i| {
            format!(
                "node {i}: {:#010x} vs {:#010x} beyond 1e-5 relative tolerance",
                got[i], want[i]
            )
        })
    } else {
        first_mismatch(got, want).map(|i| {
            format!(
                "node {i}: got {:?} want {:?}",
                got.get(i).copied(),
                want.get(i).copied()
            )
        })
    }
}

fn run_oracles(case: &FuzzCase, opts: &FuzzOptions) -> CaseOutcome {
    let deadline = Instant::now() + opts.per_case_timeout;
    let fail =
        |oracle: &'static str, detail: String| CaseOutcome::Fail(OracleFailure { oracle, detail });
    let g = case.graph.build_for(&case.algo);
    let n = g.num_nodes();
    let expect = golden::run(&case.algo, &g);
    let mut work = 0u64;

    // Single-device reference run (always; it anchors every other
    // oracle and is where the corruption hook lands).
    let mut single = case.target.clone();
    single.devices = 1;
    single.sim_threads = 1;
    let rc = single.run_config(&g);
    let (cfg, partitioner) = rc.build();
    let sys = match System::new(&g, partitioner, case.algo, cfg).run_to_outcome(Some(deadline)) {
        Ok(r) => r,
        Err(RunError::TimedOut) => return CaseOutcome::TimedOut,
        Err(RunError::Stalled(snap)) => {
            return fail(
                "engine-stall",
                format!(
                    "no forward progress for {} cycles (threshold {})",
                    snap.cycle.saturating_sub(snap.last_progress),
                    snap.threshold
                ),
            )
        }
    };
    work += sys.cycles;
    let mut observed = sys.values.clone();
    if case.corrupt {
        if let Some(last) = observed.last_mut() {
            *last ^= 0x8000_0000; // documented test-only corruption hook
        }
    }

    // Oracle 1: system vs golden.
    if let Some(detail) = values_mismatch(&case.algo, &observed, &expect) {
        return fail("system-vs-golden", detail);
    }

    // Oracle 2: conservation — the reported fixpoint of a monotone
    // algorithm must leave no edge able to relax its destination.
    if !case.algo.synchronous() {
        // `finalize` is the identity for the monotone algorithms, so
        // the final values can be fed straight back through `gather`.
        for i in 0..g.num_edges() {
            let (s, d, w) = g.edge(i);
            let out = case
                .algo
                .gather(observed[s as usize], [observed[d as usize], 0], w);
            if out.updated {
                return fail(
                    "conservation",
                    format!(
                        "edge {s}->{d} (w={w}) still relaxes node {d} at the reported fixpoint: \
                         {} -> {}",
                        observed[d as usize], out.state[0]
                    ),
                );
            }
        }
    }

    // Oracle 3: forced-synchronous golden fixpoint equals the
    // asynchronous result (schedule independence of monotone fixpoints).
    if !case.algo.synchronous() {
        let (sync_values, _) = golden::run_forced_sync(&case.algo, &g);
        if let Some(i) = first_mismatch(&observed, &sync_values) {
            return fail(
                "sync-vs-async",
                format!(
                    "node {i}: async {:?} vs forced-sync fixpoint {:?}",
                    observed.get(i).copied(),
                    sync_values.get(i).copied()
                ),
            );
        }
    }

    // Oracle 7: idle skipping is a host-side optimisation only.
    if fnv1a_str(&case.encode()).is_multiple_of(SKIP_ORACLE_EVERY) {
        let (mut cfg, partitioner) = rc.build();
        cfg.idle_skip = false;
        let reference =
            match System::new(&g, partitioner, case.algo, cfg).run_to_outcome(Some(deadline)) {
                Ok(r) => r,
                Err(RunError::TimedOut) => return CaseOutcome::TimedOut,
                Err(RunError::Stalled(_)) => {
                    return fail(
                        "idle-skip-identity",
                        "the reference schedule stalled the watchdog".to_owned(),
                    )
                }
            };
        work += reference.cycles;
        let differs = [
            ("values", reference.values != sys.values),
            ("cycles", reference.cycles != sys.cycles),
            ("iterations", reference.iterations != sys.iterations),
            ("edges", reference.edges_processed != sys.edges_processed),
            ("stats", reference.stats != sys.stats),
            (
                "pe-breakdown",
                reference.metrics.pe_cycles != sys.metrics.pe_cycles,
            ),
        ];
        if let Some((what, _)) = differs.iter().find(|(_, d)| *d) {
            return fail(
                "idle-skip-identity",
                format!("{what} differ between idle_skip on and off"),
            );
        }
    }

    // Fabric oracles: only when the case shards across devices.
    if case.target.devices > 1 {
        let mut fab_target = case.target.clone();
        fab_target.sim_threads = 1;
        let rc = fab_target.run_config(&g);
        let clean = match Fabric::new(&g, case.algo, &rc).run_to_outcome(Some(deadline)) {
            Ok(r) => r,
            Err(FabricError::TimedOut) => return CaseOutcome::TimedOut,
            Err(e) => return fail("fabric-stall", fabric_error_line(&e)),
        };
        work += clean.cycles;
        if let Some(detail) = values_mismatch(&case.algo, &clean.values, &expect) {
            return fail("fabric-vs-golden", detail);
        }

        // Oracle 5: sim-threads byte-identity over the full Debug
        // rendering (values, stats, breakdowns, link counters,
        // recovery report, trace stream).
        if case.target.sim_threads > 1 {
            let mut rc_n = rc.clone();
            rc_n.sim_threads = case.target.sim_threads;
            let threaded = match Fabric::new(&g, case.algo, &rc_n).run_to_outcome(Some(deadline)) {
                Ok(r) => r,
                Err(FabricError::TimedOut) => return CaseOutcome::TimedOut,
                Err(e) => return fail("threads-identity", fabric_error_line(&e)),
            };
            work += threaded.cycles;
            let a = format!("{clean:?}");
            let b = format!("{threaded:?}");
            if a != b {
                let at = a
                    .bytes()
                    .zip(b.bytes())
                    .position(|(x, y)| x != y)
                    .unwrap_or(a.len().min(b.len()));
                return fail(
                    "threads-identity",
                    format!(
                        "sim-threads {} diverged from sequential at rendered byte {at}",
                        case.target.sim_threads
                    ),
                );
            }
        }

        // Oracle 6 (fabric): graceful faults cost cycles, never values.
        if case.fault.any() {
            let mut rc_f = rc.clone();
            rc_f.fault = case.fault.dram;
            rc_f.link.fault = case.fault.link;
            let faulty = match Fabric::new(&g, case.algo, &rc_f).run_to_outcome(Some(deadline)) {
                Ok(r) => r,
                Err(FabricError::TimedOut) => return CaseOutcome::TimedOut,
                Err(e) => return fail("fault-equivalence", fabric_error_line(&e)),
            };
            work += faulty.cycles;
            if let Some(detail) = values_mismatch(&case.algo, &faulty.values, &clean.values) {
                return fail("fault-equivalence", format!("faulty vs clean: {detail}"));
            }
        }
    } else if case.fault.dram.profile != FaultProfile::None {
        // Oracle 6 (single device): graceful DRAM faults are bit-exact
        // for the monotone algorithms; PageRank gathers are f32 adds in
        // response arrival order, so reordering shifts results by fp
        // rounding noise — the 1e-5 bar tests/robustness.rs establishes.
        let mut rc_f = single.run_config(&g);
        rc_f.fault = case.fault.dram;
        let (cfg, partitioner) = rc_f.build();
        let faulty =
            match System::new(&g, partitioner, case.algo, cfg).run_to_outcome(Some(deadline)) {
                Ok(r) => r,
                Err(RunError::TimedOut) => return CaseOutcome::TimedOut,
                Err(RunError::Stalled(_)) => {
                    return fail(
                        "fault-equivalence",
                        format!(
                            "graceful profile {} stalled the watchdog",
                            case.fault.dram.profile.name()
                        ),
                    )
                }
            };
        work += faulty.cycles;
        if let Some(detail) = values_mismatch(&case.algo, &faulty.values, &sys.values) {
            return fail(
                "fault-equivalence",
                format!(
                    "faulty vs clean under {}: {detail}",
                    case.fault.dram.profile.name()
                ),
            );
        }
    }

    let _ = n;
    CaseOutcome::Pass { work }
}

fn fabric_error_line(e: &FabricError) -> String {
    match e {
        FabricError::TimedOut => "timed out".to_owned(),
        FabricError::DeviceStalled { device, snapshot } => format!(
            "device {device} stalled after {} cycles without progress",
            snapshot.cycle.saturating_sub(snapshot.last_progress)
        ),
        FabricError::LinkStalled(snap) => format!(
            "link exchange stalled after {} cycles without progress",
            snap.cycle.saturating_sub(snap.last_progress)
        ),
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// Proposes strictly smaller variants of a failing case, biggest
/// reductions first: strip the fault schedule, collapse the fabric,
/// convert the graph to an explicit edge list and halve it, simplify
/// the algorithm, reset the architecture, then drop individual edges.
pub fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut with = |f: &dyn Fn(&mut FuzzCase)| {
        let mut c = case.clone();
        f(&mut c);
        out.push(c);
    };

    // Fault schedule first: a case that still fails without faults is
    // a much stronger repro.
    if case.fault.any() {
        with(&|c| c.fault = FaultCase::default());
    }
    if case.fault.dram.profile != FaultProfile::None {
        with(&|c| c.fault.dram = FaultConfig::default());
    }
    if case.fault.link.profile != FaultProfile::None {
        with(&|c| c.fault.link = FaultConfig::default());
    }

    // Fabric collapse: fewer devices and threads shrink both the config
    // and every subsequent oracle evaluation's cost.
    if case.target.devices > 1 {
        with(&|c| {
            c.target.devices = 1;
            c.target.sim_threads = 1;
            c.fault.link = FaultConfig::default();
        });
        with(&|c| {
            c.target.devices /= 2;
            c.target.sim_threads = c.target.sim_threads.min(c.target.devices);
        });
    }
    if case.target.sim_threads > 1 {
        with(&|c| c.target.sim_threads = 1);
    }
    if case.target.checkpoint_interval > 0 {
        with(&|c| c.target.checkpoint_interval = 0);
    }
    if case.target.link_rto.is_some() {
        with(&|c| c.target.link_rto = None);
    }
    if case.target.link_topology != LinkTopology::AllToAll {
        with(&|c| c.target.link_topology = LinkTopology::AllToAll);
    }

    // Graph: convert to an explicit list once, then halve.
    match &case.graph.kind {
        GraphKind::Explicit { n, edges } => {
            let (n, edges) = (*n, edges.clone());
            if edges.len() > 1 {
                let mid = edges.len() / 2;
                let head = edges[..mid].to_vec();
                let tail = edges[mid..].to_vec();
                with(&move |c| {
                    c.graph.kind = GraphKind::Explicit {
                        n,
                        edges: head.clone(),
                    }
                });
                with(&move |c| {
                    c.graph.kind = GraphKind::Explicit {
                        n,
                        edges: tail.clone(),
                    }
                });
            }
            if n > 1 {
                let half = (n / 2).max(1);
                let kept: Vec<(u32, u32)> = edges
                    .iter()
                    .copied()
                    .filter(|&(s, d)| s < half && d < half)
                    .collect();
                with(&move |c| {
                    c.graph.kind = GraphKind::Explicit {
                        n: half,
                        edges: kept.clone(),
                    };
                    clamp_algo_source(c, half);
                });
            }
            if edges.len() <= 24 {
                for i in 0..edges.len() {
                    let mut dropped = edges.clone();
                    dropped.remove(i);
                    with(&move |c| {
                        c.graph.kind = GraphKind::Explicit {
                            n,
                            edges: dropped.clone(),
                        }
                    });
                }
            }
        }
        GraphKind::SelfLoops { n } if *n > 1 => {
            let half = n / 2;
            with(&move |c| {
                c.graph.kind = GraphKind::SelfLoops { n: half };
                clamp_algo_source(c, half);
            });
        }
        GraphKind::Disconnected { n } if *n > 1 => {
            let half = (n / 2).max(1);
            with(&move |c| {
                c.graph.kind = GraphKind::Disconnected { n: half };
                clamp_algo_source(c, half);
            });
        }
        GraphKind::Empty | GraphKind::SingleVertex | GraphKind::SelfLoops { .. } => {}
        _ => {
            // Family case: freeze the exact built edge list so edge
            // dropping can begin. Weights are re-derived from the same
            // seed over the same edge order, so the rebuilt graph is
            // identical.
            let raw = case.graph.build_raw();
            if raw.num_edges() <= 4096 {
                let n = raw.num_nodes();
                let edges: Vec<(u32, u32)> = (0..raw.num_edges())
                    .map(|i| {
                        let (s, d, _) = raw.edge(i);
                        (s, d)
                    })
                    .collect();
                with(&move |c| {
                    c.graph.kind = GraphKind::Explicit {
                        n,
                        edges: edges.clone(),
                    }
                });
            }
        }
    }

    // Algorithm simplification.
    match case.algo {
        Algorithm::Bfs { source } if source != 0 => {
            with(&|c| c.algo = Algorithm::Bfs { source: 0 });
        }
        Algorithm::Sssp { source } if source != 0 => {
            with(&|c| c.algo = Algorithm::Sssp { source: 0 });
        }
        Algorithm::PageRank { iterations } if iterations > 1 => {
            with(&move |c| {
                c.algo = Algorithm::PageRank {
                    iterations: iterations / 2,
                }
            });
        }
        _ => {}
    }

    // Architecture reset, toward the defaults.
    let d = FuzzTarget::default();
    if case.target.pes != 1 {
        with(&|c| c.target.pes = 1);
    }
    if case.target.channels != 1 {
        with(&|c| c.target.channels = 1);
    }
    if case.target.caches != d.caches {
        with(&move |c| c.target.caches = d.caches);
    }
    if case.target.topology != d.topology {
        with(&move |c| c.target.topology = d.topology);
    }
    if case.target.execution != d.execution {
        with(&move |c| c.target.execution = d.execution);
    }
    if case.target.nd.is_some() {
        with(&|c| c.target.nd = None);
    }

    out
}

/// Keeps a shrunk case well-formed when vertices are dropped: a source
/// outside the remaining range would change the failure into a panic.
fn clamp_algo_source(case: &mut FuzzCase, n: u32) {
    let cap = n.saturating_sub(1);
    match &mut case.algo {
        Algorithm::Bfs { source } | Algorithm::Sssp { source } => *source = (*source).min(cap),
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Corpus I/O
// ---------------------------------------------------------------------

fn fnv1a_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Renders a complete corpus file for a failing case.
pub fn corpus_file_body(case: &FuzzCase, oracle: &str, origin: &str, relpath: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# conformance-fuzz corpus entry (replayed by tests/fuzz_corpus.rs)"
    );
    let _ = writeln!(out, "# oracle: {oracle}");
    let _ = writeln!(out, "# origin: {origin}");
    let _ = writeln!(
        out,
        "# replay: cargo run --release -p bench --bin repro -- fuzz --replay @{relpath}"
    );
    let _ = writeln!(out, "{}", case.encode());
    out
}

/// Parses a corpus file: comment/blank lines are skipped; the first
/// remaining line is the case.
pub fn parse_corpus_file(body: &str) -> Result<FuzzCase, String> {
    let line = body
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .ok_or("corpus file holds no case line")?;
    FuzzCase::decode(line)
}

/// The deterministic corpus file name for a case: injected-corruption
/// cases get a distinct prefix so the tier-1 replay test (which expects
/// entries to replay *green*) can skip them.
pub fn corpus_file_name(case: &FuzzCase) -> String {
    let prefix = if case.corrupt { "injected" } else { "case" };
    format!("{prefix}-{:016x}.txt", fnv1a_str(&case.encode()))
}

fn save_to_corpus(
    case: &FuzzCase,
    oracle: &str,
    origin: &str,
    dir: &str,
) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create corpus dir {dir}: {e}"))?;
    let name = corpus_file_name(case);
    let path = format!("{dir}/{name}");
    let body = corpus_file_body(case, oracle, origin, &path);
    std::fs::write(&path, body).map_err(|e| format!("cannot write corpus file {path}: {e}"))?;
    Ok(path)
}

// ---------------------------------------------------------------------
// Run loop and replay
// ---------------------------------------------------------------------

/// Runs the budgeted fuzz loop. `Ok` carries the summary to print;
/// `Err` carries the one-line failure summary (with the minimized
/// reproduction command) for a nonzero exit, matching the
/// fabric/chaos-fabric convention.
pub fn run(opts: &FuzzOptions) -> Result<String, String> {
    let work_budget = opts
        .budget_secs
        .map(|s| s.saturating_mul(WORK_CYCLES_PER_SEC));
    let wall_stop = opts
        .budget_secs
        .map(|s| Instant::now() + Duration::from_secs(2 * s + 10));
    let cases_cap = match (opts.max_cases, work_budget) {
        (Some(c), _) => c,
        (None, Some(_)) => u64::MAX,
        (None, None) => DEFAULT_CASES,
    };
    let mut work = 0u64;
    let mut passed = 0u64;
    let mut timed_out = 0u64;
    let mut index = 0u64;
    while index < cases_cap {
        if let Some(budget) = work_budget {
            if work >= budget {
                break;
            }
        }
        if let Some(stop) = wall_stop {
            if Instant::now() >= stop {
                eprintln!(
                    "warning: wall-clock safety stop after {index} cases — this host runs \
                     far below the calibrated {WORK_CYCLES_PER_SEC} cycles/s, so the summary \
                     is not comparable across machines"
                );
                break;
            }
        }
        let case = sample_case(opts.seed, index, opts.corrupt);
        match check_case(&case, opts) {
            CaseOutcome::Pass { work: w } => {
                work += w;
                passed += 1;
            }
            CaseOutcome::TimedOut => {
                eprintln!("case {index}: timed out (per-case budget), skipping");
                timed_out += 1;
            }
            CaseOutcome::Fail(failure) => {
                return Err(handle_failure(case, index, failure, opts));
            }
        }
        index += 1;
        if index.is_multiple_of(25) {
            eprintln!("fuzz: {index} cases, {work} work-cycles");
        }
    }
    Ok(format!(
        "fuzz seed={} cases={index} pass={passed} timed-out={timed_out} \
         work-cycles={work} oracle-violations=0\n",
        opts.seed
    ))
}

/// Shrinks a failing case, saves it to the corpus, and renders the
/// one-line failure summary with the replay command.
fn handle_failure(
    case: FuzzCase,
    index: u64,
    failure: OracleFailure,
    opts: &FuzzOptions,
) -> String {
    eprintln!(
        "FAIL case {index} (seed {}): oracle {} — {}",
        opts.seed, failure.oracle, failure.detail
    );
    eprintln!("  case: {}", case.encode());
    eprintln!("  shrinking (budget {SHRINK_EVALS} oracle evaluations)...");
    let last_oracle = std::cell::RefCell::new(failure.clone());
    let ShrinkOutcome {
        minimal,
        accepted,
        evals,
        converged,
    } = shrink(
        case,
        |c| match check_case(c, opts) {
            // Any oracle violation keeps the candidate: shrinking may
            // legitimately walk from one oracle to another as layers
            // are stripped away.
            CaseOutcome::Fail(f) => {
                *last_oracle.borrow_mut() = f;
                true
            }
            _ => false,
        },
        shrink_candidates,
        SHRINK_EVALS,
    );
    let failure = last_oracle.into_inner();
    eprintln!(
        "  shrunk: {accepted} reductions in {evals} evaluations{}",
        if converged { "" } else { " (budget hit)" }
    );
    eprintln!("  minimal: {}", minimal.encode());
    let origin = format!(
        "seed={} case={index} oracle={} shrink-steps={accepted} evals={evals}",
        opts.seed, failure.oracle
    );
    match save_to_corpus(&minimal, failure.oracle, &origin, &opts.corpus_dir) {
        Ok(path) => format!(
            "fuzz: case {index} (seed {}) violated the {} oracle ({}); minimal repro saved \
             to {path}; replay: repro fuzz --replay @{path}",
            opts.seed, failure.oracle, failure.detail
        ),
        Err(save_err) => format!(
            "fuzz: case {index} (seed {}) violated the {} oracle ({}); {save_err}; \
             minimal case line: {}",
            opts.seed,
            failure.oracle,
            failure.detail,
            minimal.encode()
        ),
    }
}

/// Replays one case from a `--replay` spec: `master:index` re-samples
/// from seeds, `@path` loads a corpus file (honouring its `corrupt=`
/// key). `Ok` is the pass summary, `Err` the one-line failure.
pub fn replay(spec: &str, opts: &FuzzOptions) -> Result<String, String> {
    let case = if let Some(path) = spec.strip_prefix('@') {
        let body = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read corpus file {path}: {e}"))?;
        parse_corpus_file(&body)?
    } else {
        let (master, index) = spec
            .split_once(':')
            .and_then(|(m, i)| Some((m.parse::<u64>().ok()?, i.parse::<u64>().ok()?)))
            .ok_or_else(|| format!("--replay wants master:index or @corpus-file, got {spec:?}"))?;
        sample_case(master, index, opts.corrupt)
    };
    eprintln!("replaying: {}", case.encode());
    match check_case(&case, opts) {
        CaseOutcome::Pass { work } => Ok(format!(
            "replay {spec}: pass (all applicable oracles held, work-cycles={work})\n"
        )),
        CaseOutcome::TimedOut => Err(format!(
            "replay {spec}: timed out after {:?} (raise --timeout-secs)",
            opts.per_case_timeout
        )),
        CaseOutcome::Fail(f) => Err(format!(
            "replay {spec}: violated the {} oracle ({})",
            f.oracle, f.detail
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> FuzzOptions {
        FuzzOptions {
            per_case_timeout: Duration::from_secs(60),
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn cases_roundtrip_through_the_corpus_format() {
        for index in 0..64 {
            let case = sample_case(7, index, false);
            let line = case.encode();
            let back = FuzzCase::decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, case, "roundtrip changed the case: {line}");
        }
        // The corrupt hook is part of the spec and survives the trip.
        let case = sample_case(7, 0, true);
        assert!(case.corrupt);
        assert_eq!(FuzzCase::decode(&case.encode()).unwrap(), case);
    }

    #[test]
    fn sampling_is_deterministic_and_varied() {
        for i in 0..16 {
            assert_eq!(sample_case(3, i, false), sample_case(3, i, false));
        }
        let distinct: std::collections::HashSet<String> =
            (0..32).map(|i| sample_case(3, i, false).encode()).collect();
        assert!(distinct.len() >= 30, "sampler barely varies: {distinct:?}");
        // All five algorithms and the degenerate shapes appear within a
        // reasonable horizon.
        let lines: Vec<String> = (0..400)
            .map(|i| sample_case(3, i, false).encode())
            .collect();
        for needle in [
            "algo=bfs",
            "algo=sssp",
            "algo=scc",
            "algo=wcc",
            "algo=pagerank",
        ] {
            assert!(lines.iter().any(|l| l.contains(needle)), "missing {needle}");
        }
        for needle in [
            "graph=empty",
            "graph=single",
            "graph=loops",
            "graph=disc",
            "graph=coo",
        ] {
            assert!(lines.iter().any(|l| l.contains(needle)), "missing {needle}");
        }
        assert!(lines.iter().any(|l| l.contains("devices=8")));
        assert!(lines.iter().any(|l| l.contains("lfault=")));
    }

    #[test]
    fn a_healthy_case_passes_every_oracle() {
        let case = FuzzCase {
            graph: GraphCase {
                kind: GraphKind::Rmat {
                    scale: 5,
                    avg_degree: 4,
                },
                gseed: 11,
                wseed: None,
            },
            algo: Algorithm::Bfs { source: 0 },
            target: FuzzTarget {
                devices: 2,
                sim_threads: 2,
                ..FuzzTarget::default()
            },
            fault: FaultCase {
                dram: FaultConfig::default(),
                link: FaultConfig {
                    profile: FaultProfile::Lossy { permille: 100 },
                    seed: 5,
                },
            },
            corrupt: false,
        };
        match check_case(&case, &quick_opts()) {
            CaseOutcome::Pass { work } => assert!(work > 0),
            other => panic!("healthy case failed: {other:?}"),
        }
    }

    #[test]
    fn the_corruption_hook_is_caught_and_shrinks_to_a_minimal_case() {
        // Find an early corrupted case the oracles catch, then shrink
        // it and check the minimal case still reproduces through the
        // corpus-format roundtrip — the acceptance path of the whole
        // fuzzer, in miniature.
        let opts = quick_opts();
        let (index, case, failure) = (0..50)
            .find_map(|i| {
                let case = sample_case(99, i, true);
                match check_case(&case, &opts) {
                    CaseOutcome::Fail(f) => Some((i, case, f)),
                    _ => None,
                }
            })
            .expect("no corrupted case failed within 50 samples");
        assert!(index < 50);
        let out = shrink(
            case,
            |c| matches!(check_case(c, &opts), CaseOutcome::Fail(_)),
            shrink_candidates,
            120,
        );
        // The minimal case must still fail, also after a roundtrip
        // through the corpus format (what --replay @file does).
        let replayed = FuzzCase::decode(&out.minimal.encode()).unwrap();
        assert!(
            matches!(check_case(&replayed, &opts), CaseOutcome::Fail(_)),
            "minimal case stopped failing after the corpus roundtrip"
        );
        // Corruption flips one result bit, so the defect survives every
        // structural reduction: the shrinker must reach a tiny graph.
        let n = replayed.graph.num_nodes();
        assert!(n <= 8, "shrink left {n} nodes (failure: {failure:?})");
        assert_eq!(replayed.target.devices, 1, "shrink left a fabric case");
        assert!(!replayed.fault.any(), "shrink left a fault schedule");
    }

    #[test]
    fn shrink_candidates_only_propose_smaller_cases() {
        let case = sample_case(5, 3, false);
        for cand in shrink_candidates(&case) {
            assert_ne!(cand, case, "candidate equals its parent");
            // Decoding its encoding must be lossless for every candidate
            // the shrinker can construct.
            assert_eq!(FuzzCase::decode(&cand.encode()).unwrap(), cand);
        }
    }

    #[test]
    fn corpus_files_roundtrip() {
        let case = sample_case(21, 4, false);
        let body = corpus_file_body(&case, "system-vs-golden", "seed=21 case=4", "x/y.txt");
        assert!(body.starts_with('#'));
        assert_eq!(parse_corpus_file(&body).unwrap(), case);
        assert!(parse_corpus_file("# only comments\n").is_err());
        let name = corpus_file_name(&case);
        assert!(name.starts_with("case-") && name.ends_with(".txt"));
        let mut injected = case;
        injected.corrupt = true;
        assert!(corpus_file_name(&injected).starts_with("injected-"));
    }

    #[test]
    fn replay_by_seed_spec_matches_direct_sampling() {
        let opts = quick_opts();
        let direct = sample_case(13, 2, false);
        // A pass through replay must exercise exactly the same case;
        // compare via the deterministic work it reports.
        let direct_outcome = check_case(&direct, &opts);
        let CaseOutcome::Pass { work } = direct_outcome else {
            panic!("pilot case unexpectedly failed: {direct_outcome:?}")
        };
        let summary = replay("13:2", &opts).expect("replay failed");
        assert!(
            summary.contains(&format!("work-cycles={work}")),
            "replay ran a different case: {summary}"
        );
        assert!(replay("not-a-spec", &opts).is_err());
    }
}
