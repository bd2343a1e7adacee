//! Cycle-level model of the multi-die FPGA graph accelerator (Fig. 6).
//!
//! The [`System`] wires together:
//!
//! * multithreaded out-of-order [`pe::Pe`]s — DMA for node init / edge
//!   pointer / edge streaming / writeback bursts, the two MOMS interfaces
//!   of Fig. 10 (free-ID queue + state memory for weighted graphs,
//!   destination-offset-as-ID for unweighted), and a `gather()` pipeline
//!   with RAW stall tracking;
//! * a dynamic job [`system::Scheduler`] exposing one job per destination
//!   interval, pulled by idle PEs (§IV-E: jobs are 1–2 orders of magnitude
//!   more numerous than PEs, so no static balancing is needed);
//! * the [`moms::MomsSystem`] for irregular source-value reads;
//! * the multi-channel [`dram::MemorySystem`] for burst traffic, with PE
//!   bursts split at the 2,048 B channel-interleave boundary.
//!
//! Execution follows Template 1: iterations run to convergence (or the
//! fixed PageRank count), `active_srcs` tracking skips inactive shards,
//! and synchronous algorithms swap `V_DRAM,in`/`V_DRAM,out` between
//! iterations. Results are functionally exact: the `tests/` suite checks
//! them against the golden executors in `algos`.
//!
//! # Example
//!
//! ```
//! use accel::{System, SystemConfig};
//! use algos::{golden, Algorithm};
//! use graph::{GraphSpec, Partitioner};
//!
//! let g = GraphSpec::rmat(8, 4).build(1);
//! let algo = Algorithm::bfs(0);
//! let mut sys = System::new(&g, Partitioner::new(128, 128), algo, SystemConfig::small());
//! let result = sys.run();
//! assert_eq!(result.values, golden::run(&algo, &g));
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
pub mod checkpoint;
pub mod config;
pub mod driver;
pub mod fabric;
pub mod fuzz;
pub mod pe;
pub mod run_config;
pub mod system;

pub use checkpoint::{
    Checkpoint, CheckpointStore, RecoveryAttempt, RecoveryCause, RecoveryConfig, RecoveryReport,
};
pub use config::{ExecutionMode, PeConfig, SystemConfig, DEFAULT_WATCHDOG_CYCLES};
pub use driver::Driver;
pub use fabric::{
    Fabric, FabricError, FabricRunResult, LinkConfig, LinkNetworkStats, LinkRetryConfig, LinkStats,
    LinkTopology,
};
pub use pe::{Pe, PeCycleBreakdown};
pub use run_config::{CacheVariant, RunConfig};
pub use system::{MetricsSnapshot, PeStallBreakdown, RunError, RunResult, System, WorkCounters};
