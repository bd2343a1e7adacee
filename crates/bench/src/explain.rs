//! `repro explain`: per-run stall attribution.
//!
//! Runs the quick-scope benchmark × algorithm matrix and renders, for each
//! run, where every PE cycle went: the exhaustive
//! [`accel::PeCycleBreakdown`] classes (exactly one per PE-cycle, so the
//! table always accounts for 100% of them) plus the MOMS-side pressure
//! split (MSHR-full vs subentry-full vs memory-queue-full refusals) that
//! explains *why* the PEs saw backpressure, and the share of each
//! component class's ticks the loop skipped as provably inert.
//!
//! Points flow through the standard runner funnel, so `--fault-profile`,
//! `--watchdog-cycles`, and `--trace` all apply: `repro explain --trace
//! out.json` both prints the attribution and exports the event timeline.

use std::fmt::Write as _;

use accel::{Fabric, MetricsSnapshot, PeCycleBreakdown, WorkCounters};
use algos::Algorithm;

use crate::arch::ArchPoint;
use crate::experiments::Scope;
use crate::runner::{prepare_graph, run_graph_outcome, RunFailure, RunSpec};

/// Renders the per-class PE-cycle table shared by the single-device and
/// fabric attributions.
fn render_breakdown(out: &mut String, b: &PeCycleBreakdown) {
    let total = b.total().max(1);
    let _ = writeln!(out, "  {:<26} {:>12} {:>7}", "class", "pe-cycles", "%");
    for (name, v) in b.rows() {
        if v == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<26} {:>12} {:>6.1}%",
            name,
            v,
            100.0 * v as f64 / total as f64
        );
    }
}

/// Renders the skipped share of component ticks per class.
fn render_work(out: &mut String, w: &WorkCounters) {
    let shares: Vec<String> = w
        .rows()
        .iter()
        .map(|(class, t)| format!("{class} {:.1}%", 100.0 * t.skipped_share()))
        .collect();
    let _ = writeln!(out, "  ticks skipped as inert: {}", shares.join(", "));
}

/// Renders the attribution table for one finished run.
fn render_one(out: &mut String, label: &str, cycles: u64, m: &MetricsSnapshot) {
    let b: PeCycleBreakdown = m.pe_cycles;
    let _ = writeln!(
        out,
        "-- {label}: {cycles} cycles, {} PE-cycles attributed --",
        b.total()
    );
    render_breakdown(out, &b);
    let stalls = &m.moms.banks;
    let refusals = stalls.stall_mshr_full + stalls.stall_subentry_full + stalls.stall_mem_full;
    if refusals > 0 {
        let _ = writeln!(
            out,
            "  moms refusals: mshr-full={} subentry-full={} mem-queue-full={}",
            stalls.stall_mshr_full, stalls.stall_subentry_full, stalls.stall_mem_full
        );
    }
    let accounted = 100.0 * b.total() as f64 / b.total().max(1) as f64;
    let _ = writeln!(out, "  accounted: {accounted:.1}% of PE cycles");
    render_work(out, &m.work);
}

/// Runs the quick matrix and renders per-run stall attribution.
pub fn run(scope: Scope) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== explain: where did the cycles go? ==");
    let arch = ArchPoint::two_level_16_16();
    for bench in scope.benches() {
        for (algo, max_iterations) in scope.algos() {
            let mut spec = RunSpec::new(arch);
            spec.shrink = scope.shrink;
            spec.max_iterations = max_iterations;
            let g = prepare_graph(bench, spec.pre, spec.shrink, algo.is_weighted());
            let label = format!("{}/{}/{}", bench.tag(), algo.name(), spec.arch.name);
            match run_graph_outcome(&g, bench.tag(), algo, &spec, None) {
                Ok((row, metrics)) => render_one(&mut out, &label, row.cycles, &metrics),
                Err(RunFailure::TimedOut) => {
                    let _ = writeln!(out, "-- {label}: timed out --");
                }
                Err(RunFailure::Failed(msg)) => {
                    let _ = writeln!(out, "-- {label}: failed: {msg} --");
                }
            }
        }
    }
    render_fabric(&mut out, scope, arch);
    render_serve(&mut out, scope);
    out
}

/// Appends one 4-device fabric attribution, so the Link section
/// (`link/barrier-wait` plus the exchange/occupancy summary) shows up in
/// the same report that explains single-device stalls.
fn render_fabric(out: &mut String, scope: Scope, arch: ArchPoint) {
    let bench = scope.benches()[0];
    let algo = Algorithm::pagerank();
    let mut spec = RunSpec::new(arch);
    spec.shrink = scope.shrink;
    let g = prepare_graph(bench, spec.pre, spec.shrink, algo.is_weighted());
    let mut rc = spec.run_config();
    rc.max_iterations = Some(2);
    rc.devices = 4;
    crate::experiments::fabric::apply_link_overlay(&mut rc, &crate::engine::global_config());
    let label = format!(
        "{}/{}/{} x4 devices",
        bench.tag(),
        algo.name(),
        spec.arch.name
    );
    let r = match Fabric::new(&g, algo, &rc).run_to_outcome(None) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(
                out,
                "-- {label}: failed: {} --",
                crate::experiments::fabric::error_summary(&e)
            );
            return;
        }
    };
    let _ = writeln!(
        out,
        "-- {label}: {} cycles, {} PE-cycles attributed --",
        r.cycles,
        r.pe_cycles.total()
    );
    render_breakdown(out, &r.pe_cycles);
    render_work(out, &r.work);
    let _ = writeln!(
        out,
        "  link: {} exchange cycles, occupancy mean {:.1}% peak {:.1}%, \
         {} messages / {} updates",
        r.link.exchange_cycles,
        r.link.mean_occupancy(r.cycles) * 100.0,
        r.link.peak_occupancy(r.cycles) * 100.0,
        r.link.messages_delivered,
        r.link.updates
    );
    let _ = writeln!(
        out,
        "  transport: {} retransmits, {} acks, {} dup-drops, {} dropped",
        r.link.retransmissions, r.link.acks, r.link.dup_drops, r.link.messages_dropped
    );
    if r.recovery.recovered() {
        let _ = writeln!(
            out,
            "  recovery: {} rollbacks, {} cycles lost ({} checkpoints)",
            r.recovery.attempts.len(),
            r.recovery.total_cycles_lost,
            r.recovery.checkpoints_taken
        );
    }
}

/// Appends one serving-layer attribution: a small fixed 2x-overload run
/// whose counters explain where requests went (admitted, shed, batched,
/// preempted) and what latency each scheduling class saw — the serving
/// analogue of the PE-cycle table above it.
fn render_serve(out: &mut String, scope: Scope) {
    let cfg = ::serve::ServeConfig {
        seed: 1,
        requests: 32,
        slots: 2,
        quantum: 2,
        rate_permille: 2000,
        shrink: scope.shrink,
        ..::serve::ServeConfig::default()
    };
    let label = format!(
        "serve: {} requests at {}x load on {} slots",
        cfg.requests,
        cfg.rate_permille as f64 / 1000.0,
        cfg.slots
    );
    let rep = match ::serve::run(&cfg) {
        Ok(rep) => rep,
        Err(e) => {
            let _ = writeln!(out, "-- {label}: failed: {e} --");
            return;
        }
    };
    let _ = writeln!(
        out,
        "-- {label}: {} cycles makespan, {:.0}% pool utilization --",
        rep.makespan,
        rep.utilization() * 100.0
    );
    let _ = writeln!(
        out,
        "  requests: {} admitted, {} shed, {} completed, {} failed, \
         {} co-batched, {} deadline misses",
        rep.admitted, rep.shed, rep.completed, rep.failed, rep.co_batched, rep.deadline_misses
    );
    let _ = writeln!(
        out,
        "  preemption: {} preempts, {} resumes, {} restarts, {} checkpoint evictions",
        rep.preemptions, rep.resumes, rep.restarts, rep.checkpoint_evictions
    );
    let (p50, p90, p99, p999) = rep.latency.summary();
    let _ = writeln!(
        out,
        "  latency: p50 {p50} p90 {p90} p99 {p99} p999 {p999} (cycles); \
         class p99 high {} normal {} low {}",
        rep.class_latency[0].quantile(0.99),
        rep.class_latency[1].quantile(0.99),
        rep.class_latency[2].quantile(0.99)
    );
    let _ = writeln!(
        out,
        "  service: goodput {:.2}/Mcycle, shed rate {:.1}%, tenant fairness {:.3}",
        rep.goodput_per_mcycle(),
        rep.shed_rate() * 100.0,
        rep.fairness()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_accounts_for_every_pe_cycle() {
        let scope = Scope {
            full: false,
            shrink: 64,
        };
        let report = run(scope);
        assert!(report.contains("== explain:"), "{report}");
        assert!(
            report.contains("accounted: 100.0% of PE cycles"),
            "attribution must be exhaustive:\n{report}"
        );
        assert!(report.contains("stream/productive"), "{report}");
        assert!(
            report.contains("ticks skipped as inert: pe "),
            "every run must report its skipped tick shares:\n{report}"
        );
    }

    #[test]
    fn explain_attributes_fabric_link_waits() {
        let scope = Scope {
            full: false,
            shrink: 64,
        };
        let report = run(scope);
        assert!(report.contains("x4 devices"), "{report}");
        assert!(
            report.contains("link/barrier-wait"),
            "fabric section must attribute barrier parking:\n{report}"
        );
        assert!(report.contains("exchange cycles"), "{report}");
        assert!(
            report.contains("transport:"),
            "fabric section must report protocol counters:\n{report}"
        );
        assert!(
            report.contains("-- serve:"),
            "serve section must be present:\n{report}"
        );
        assert!(
            report.contains("tenant fairness"),
            "serve section must report fairness:\n{report}"
        );
    }
}
