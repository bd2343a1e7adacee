//! Determinism guarantees of the sweep engine and the idle-skip fast
//! path.
//!
//! * The parallel sweep engine must produce byte-identical exports
//!   regardless of worker count: results are written into per-point
//!   slots and host timing never reaches the exported fields, so
//!   `--jobs 1` and `--jobs 4` cannot be told apart from the output.
//! * Idle skipping is a host-side optimisation only: with it on or off,
//!   a run must report the same simulated cycle count, the same result
//!   values, the same merged statistics, the same PE-cycle breakdown,
//!   and the same trace event stream, on every MOMS topology, with burst
//!   assembly, under a graceful DRAM fault profile, and across a fabric.
//!   Only `host_ticks` and the executed-vs-skipped work counters may
//!   differ, and those must account for every component tick.

use accel::{Driver, Fabric, RunResult, System, SystemConfig};
use algos::Algorithm;
use bench::engine::{run_points, EngineConfig, PointSpec};
use bench::{ArchPoint, RunSpec};
use graph::benchmarks::BenchmarkId;
use graph::{CooGraph, GraphSpec, Partitioner};
use moms::config::BurstAssemblyConfig;
use moms::Topology;
use simkit::record::{to_csv, to_json};
use simkit::trace::{to_canonical, TraceConfig, TraceLevel};
use simkit::{FaultConfig, FaultProfile};

/// The small matrix both engine runs execute: two algorithms on two
/// architectures of the smallest benchmark, heavily shrunk so the whole
/// test stays in CI budget.
fn engine_points() -> Vec<PointSpec> {
    let mut points = Vec::new();
    for arch in [ArchPoint::QUICK[2], ArchPoint::QUICK[3]] {
        for (algo, iters) in [(Algorithm::Scc, None), (Algorithm::pagerank(), Some(2))] {
            let mut spec = RunSpec::new(arch);
            spec.shrink = 16;
            spec.max_iterations = iters;
            points.push(PointSpec {
                bench: BenchmarkId::Wt,
                algo,
                spec,
            });
        }
    }
    points
}

fn engine_config(jobs: usize) -> EngineConfig {
    EngineConfig {
        jobs,
        ..EngineConfig::default()
    }
}

#[test]
fn sweep_exports_are_independent_of_worker_count() {
    let points = engine_points();
    let serial = run_points(&points, &engine_config(1));
    let parallel = run_points(&points, &engine_config(4));
    assert_eq!(serial.len(), parallel.len());
    // Host wall-clock is the one field allowed to differ; everything the
    // exporters see must match byte for byte.
    assert_eq!(
        to_json(&serial),
        to_json(&parallel),
        "JSON export differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        to_csv(&serial),
        to_csv(&parallel),
        "CSV export differs between --jobs 1 and --jobs 4"
    );
}

fn test_graph() -> CooGraph {
    GraphSpec::rmat(8, 6)
        .build(41)
        .with_random_weights(0, 255, 3)
}

fn events_on() -> TraceConfig {
    TraceConfig {
        level: TraceLevel::Events,
        ..TraceConfig::default()
    }
}

/// The single-device configurations the skip identity must hold on.
fn skip_variants() -> Vec<(&'static str, SystemConfig)> {
    let with_topology = |topology| {
        let mut cfg = SystemConfig::small();
        cfg.moms.topology = topology;
        cfg
    };
    let mut burst = with_topology(Topology::Private);
    burst.moms.private = burst.moms.private.with_burst_assembly(BurstAssemblyConfig {
        max_lines: 8,
        wait_cycles: 16,
    });
    let mut faulty = SystemConfig::small();
    faulty.fault = FaultConfig {
        profile: FaultProfile::Reorder,
        seed: 7,
    };
    vec![
        ("two-level", SystemConfig::small()),
        ("shared", with_topology(Topology::Shared)),
        ("private", with_topology(Topology::Private)),
        ("private+burst-assembly", burst),
        ("two-level+dram-reorder", faulty),
    ]
}

fn run_with_skip(g: &CooGraph, algo: Algorithm, cfg: &SystemConfig, idle_skip: bool) -> RunResult {
    let mut cfg = cfg.clone();
    cfg.idle_skip = idle_skip;
    cfg.trace = events_on();
    System::new(g, Partitioner::new(256, 256), algo, cfg).run()
}

#[test]
fn idle_skip_is_a_pure_host_optimisation() {
    let g = test_graph();
    let mut skipped_somewhere = false;
    for (variant, cfg) in skip_variants() {
        for algo in [
            Algorithm::bfs(0),
            Algorithm::Scc,
            Algorithm::sssp(0),
            Algorithm::pagerank(),
        ] {
            let on = run_with_skip(&g, algo, &cfg, true);
            let off = run_with_skip(&g, algo, &cfg, false);
            let name = format!("{variant}/{}", algo.name());
            assert_eq!(
                off.host_ticks, off.cycles,
                "{name}: with skipping off, every cycle must be ticked"
            );
            assert_eq!(on.cycles, off.cycles, "{name}: skipping changed timing");
            assert_eq!(on.values, off.values, "{name}: skipping changed results");
            assert_eq!(
                on.iterations, off.iterations,
                "{name}: skipping changed iteration count"
            );
            assert_eq!(
                on.edges_processed, off.edges_processed,
                "{name}: skipping changed edge count"
            );
            assert_eq!(
                on.stats, off.stats,
                "{name}: skipping changed merged statistics"
            );
            assert_eq!(
                on.metrics.pe_cycles, off.metrics.pe_cycles,
                "{name}: skipping changed the PE-cycle breakdown"
            );
            assert_eq!(
                to_canonical(&on.trace.events),
                to_canonical(&off.trace.events),
                "{name}: skipping changed the trace event stream"
            );
            assert!(
                on.host_ticks <= on.cycles,
                "{name}: host ticks cannot exceed simulated cycles"
            );
            skipped_somewhere |= on.host_ticks < on.cycles;
        }
    }
    assert!(
        skipped_somewhere,
        "idle skipping never engaged on any algorithm; the fast path is dead"
    );

    // A 4-device fabric: every device runs the same skip rules.
    for algo in [Algorithm::bfs(0), Algorithm::pagerank()] {
        let run = |idle_skip: bool| {
            let mut rc = Driver::new().devices(4).run_config(&g);
            rc.idle_skip = idle_skip;
            rc.trace = events_on();
            Fabric::new(&g, algo, &rc).run()
        };
        let (on, off) = (run(true), run(false));
        let name = format!("fabric4/{}", algo.name());
        assert_eq!(on.cycles, off.cycles, "{name}: skipping changed timing");
        assert_eq!(on.values, off.values, "{name}: skipping changed results");
        assert_eq!(on.stats, off.stats, "{name}: skipping changed statistics");
        assert_eq!(
            on.pe_cycles, off.pe_cycles,
            "{name}: skipping changed the PE-cycle breakdown"
        );
        assert_eq!(
            to_canonical(&on.trace.events),
            to_canonical(&off.trace.events),
            "{name}: skipping changed the link event stream"
        );
        assert!(
            on.work.moms_bank.skipped > 0,
            "{name}: no bank tick was ever skipped"
        );
        assert_eq!(off.work.moms_bank.skipped + off.work.pe.skipped, 0);
    }
}

#[test]
fn work_counters_account_for_every_component_tick() {
    let g = test_graph();
    for (variant, cfg) in skip_variants() {
        let pes = cfg.num_pes() as u64;
        let channels = cfg.num_channels() as u64;
        let banks = match cfg.moms.topology {
            Topology::Shared => cfg.moms.shared_banks,
            Topology::Private => cfg.num_pes(),
            Topology::TwoLevel => cfg.num_pes() + cfg.moms.shared_banks,
        } as u64;
        for idle_skip in [true, false] {
            let r = run_with_skip(&g, Algorithm::sssp(0), &cfg, idle_skip);
            let w = r.metrics.work;
            let name = format!("{variant} idle_skip={idle_skip}");
            for (class, count, components) in [
                ("pe", w.pe, pes),
                ("moms-bank", w.moms_bank, banks),
                ("dram-channel", w.dram_channel, channels),
            ] {
                assert_eq!(
                    count.executed + count.skipped,
                    components * r.host_ticks,
                    "{name}: {class} ticks do not add up to components x host ticks"
                );
                if !idle_skip {
                    assert_eq!(count.skipped, 0, "{name}: {class} skipped a tick");
                }
            }
            if idle_skip {
                assert!(
                    w.moms_bank.skipped > 0 && w.pe.skipped > 0,
                    "{name}: per-component skipping never engaged: {w:?}"
                );
            }
        }
    }
}
