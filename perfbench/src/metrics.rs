//! The benchmark's metric vocabulary: every metric it can print, with its
//! unit and which direction is better. `BENCHMARK.json` at the repository
//! root lists the same names and units; the contract test holds the two
//! in step. `README.md` in this directory says which layer metric should
//! move which end-to-end metric on which workload.

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark prints.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics of an untraced run (`--trace 0`), printed for every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_cycles_per_s", "cycles/s", Higher),
    m("requests_per_s", "1/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("sim_cycles", "cycles", Lower),
];

/// Metrics of a traced run (`--trace 1`), printed for every workload. A
/// layer the workload does not call reads 0 and is listed under
/// `layers_absent` in the report.
pub const PER_LAYER: &[MetricDef] = &[
    // graph
    m("graph.prepare_s", "s", Lower),
    // accel::System, driven by the benchmark's copy of run_to_outcome's loop
    m("system.new_s", "s", Lower),
    m("system.begin_s", "s", Lower),
    m("system.step_s", "s", Lower),
    m("system.frontier_s", "s", Lower),
    m("system.finish_s", "s", Lower),
    m("system.host_ns_per_cycle", "ns/cycle", Lower),
    m("system.host_ticks", "count", Lower),
    m("system.skip_ratio", "ratio", Higher),
    // moms + dram: replay of pagerank-rv's own recorded request stream
    m("moms.replay_s", "s", Lower),
    m("moms.tick_s", "s", Lower),
    m("dram.tick_s", "s", Lower),
    m("moms.host_ns_per_request", "ns/request", Lower),
    m("moms.tick_share", "ratio", Lower),
    m("moms.replay_requests", "count", Lower),
    m("moms.replay_cycles", "cycles", Lower),
    // deterministic MOMS / DRAM counts (MetricsSnapshot)
    m("moms.hit_rate", "ratio", Higher),
    m("moms.hits", "count", Higher),
    m("moms.misses", "count", Lower),
    m("moms.peak_outstanding_misses", "count", Higher),
    m("moms.stall_mshr_full", "count", Lower),
    m("moms.stall_subentry_full", "count", Lower),
    m("dram.read_lines", "count", Lower),
    m("dram.row_hit_rate", "ratio", Higher),
    m("dram.bus_busy_cycles", "cycles", Lower),
    // PE attribution (PeCycleBreakdown), deterministic
    m("pe.productive_share", "ratio", Higher),
    m("pe.moms_wait_share", "ratio", Lower),
    m("pe.dram_wait_share", "ratio", Lower),
    m("pe.idle_share", "ratio", Lower),
    m("pe.link_wait_share", "ratio", Lower),
    // accel::Fabric
    m("fabric.new_s", "s", Lower),
    m("fabric.run_s", "s", Lower),
    m("fabric.host_ns_per_device_cycle", "ns/cycle", Lower),
    m("fabric.link_words", "count", Lower),
    m("fabric.messages", "count", Lower),
    m("fabric.exchange_cycles", "cycles", Lower),
    m("fabric.retransmissions", "count", Lower),
    // serve: scheduler
    m("serve.calibrate_s", "s", Lower),
    m("serve.generate_s", "s", Lower),
    m("serve.run_s", "s", Lower),
    // serve: session side driver over every catalog job
    m("session.fresh_s", "s", Lower),
    m("session.slice_s", "s", Lower),
    m("session.checkpoint_s", "s", Lower),
    m("session.resume_s", "s", Lower),
    m("session.finish_s", "s", Lower),
    // serve: deterministic report counts
    m("serve.admitted", "count", Higher),
    m("serve.shed", "count", Lower),
    m("serve.preemptions", "count", Lower),
    m("serve.resumes", "count", Lower),
    m("serve.restarts", "count", Lower),
    m("serve.co_batched", "count", Higher),
    m("serve.utilization", "ratio", Higher),
    m("serve.p99_latency_cycles", "cycles", Lower),
    m("serve.deadline_miss_rate", "ratio", Lower),
    // tracing overhead, measured inside the traced run
    m("trace.untraced_sim_cycles_per_s", "cycles/s", Higher),
    m("trace.traced_sim_cycles_per_s", "cycles/s", Higher),
    m("trace.overhead_share", "ratio", Lower),
];

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
