//! `serve-1x`: the serving scheduler at its calibrated capacity
//! (`rate_permille = 1000`) with the default pool (2 slots, quantum 2,
//! queue bound 16, catalog shrink 4). The open-loop request stream is
//! generated in virtual time from the benchmark's `--seed`.
//!
//! The traced run adds a side driver that runs every catalog job through
//! `Session::fresh` → `step_slice` → `checkpoint` → `resume` →
//! `step_slice` until finished → `finish`, timing each call and checking
//! each result against the golden executor.

use std::time::Instant;

use accel::{Driver, MetricsSnapshot};
use serve::{Catalog, Request, Scheduler, ServeConfig, ServeReport, Session, SliceEnd};

use crate::spans::Recorder;
use crate::{median, Case, Layers, Rep, Tally};

/// Requests per stream: long enough that the request mix, and with it the
/// summed device cycles and the request rate, differs little between
/// seeds; short enough for reps of one to two seconds.
pub const REQUESTS: u64 = 400;

pub(crate) struct Serve1x {
    cfg: ServeConfig,
    sched: Scheduler,
    requests: Vec<Request>,
    last: Option<ServeReport>,
}

/// Every deterministic field of a report (the trace is off).
fn fingerprint(r: &ServeReport) -> String {
    format!(
        "gen={} adm={} shed={} done={} failed={} pre={} res={} rst={} cob={} miss={} gm={} wd={} ev={} span={} busy={} lat={:?}/{}/{} class={:?} tenants={:?}",
        r.generated,
        r.admitted,
        r.shed,
        r.completed,
        r.failed,
        r.preemptions,
        r.resumes,
        r.restarts,
        r.co_batched,
        r.deadline_misses,
        r.golden_mismatches,
        r.watchdog_trips,
        r.checkpoint_evictions,
        r.makespan,
        r.busy_cycles,
        r.latency.summary(),
        r.latency.count(),
        r.latency.sum(),
        r.class_latency.iter().map(|h| (h.summary(), h.count(), h.sum())).collect::<Vec<_>>(),
        r.tenant_completed,
    )
}

impl Case for Serve1x {
    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String> {
        let cfg = ServeConfig {
            seed,
            requests: REQUESTS,
            rate_permille: 1000,
            ..ServeConfig::default()
        };
        let sched = rec.sub("serve.calibrate", |_| Scheduler::new(&cfg))?;
        let requests = rec.sub("serve.generate", |_| sched.generate());
        Ok(Serve1x {
            cfg,
            sched,
            requests,
            last: None,
        })
    }

    /// None here: the scheduler validates every completion against
    /// `algos::golden` itself (its `golden_mismatches` counter), and the
    /// side driver of the traced run checks each session's values.
    fn golden(&self) -> Vec<u32> {
        Vec::new()
    }

    fn rep(&mut self, _golden: &[u32], rec: &mut Recorder) -> Rep {
        let t = Instant::now();
        let out = rec.sub("serve.run", |_| self.sched.run(&self.requests));
        let secs = t.elapsed().as_secs_f64();
        let n = self.requests.len() as u64;
        let mut r = Rep {
            secs,
            attempted: n,
            ..Rep::default()
        };
        match out {
            Ok(report) => {
                r.cycles = report.busy_cycles;
                r.requests = report.completed;
                r.failed = report.failed + report.golden_mismatches;
                r.fingerprint = fingerprint(&report);
                if r.failed > 0 {
                    r.error = Some(format!(
                        "{} watchdog losses, {} golden mismatches",
                        report.failed, report.golden_mismatches
                    ));
                }
                self.last = Some(report);
            }
            Err(e) => {
                r.failed = n;
                r.error = Some(e);
            }
        }
        r
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        _reference: &Rep,
        layers: &mut Layers,
        tally: &mut Tally,
    ) {
        layers.insert(
            "serve.calibrate_s",
            median(&rec.durations("serve.calibrate")),
        );
        layers.insert("serve.generate_s", median(&rec.durations("serve.generate")));
        layers.insert("serve.run_s", median(&rec.durations("serve.run")));
        // The catalog build inside Scheduler::new, timed on its own.
        let catalog = rec.sub("graph.prepare", |_| Catalog::small(self.cfg.shrink));
        layers.insert("graph.prepare_s", rec.total_secs("graph.prepare"));

        if let Some(r) = &self.last {
            layers.insert("serve.admitted", r.admitted as f64);
            layers.insert("serve.shed", r.shed as f64);
            layers.insert("serve.preemptions", r.preemptions as f64);
            layers.insert("serve.resumes", r.resumes as f64);
            layers.insert("serve.restarts", r.restarts as f64);
            layers.insert("serve.co_batched", r.co_batched as f64);
            layers.insert("serve.utilization", r.utilization());
            layers.insert("serve.p99_latency_cycles", r.latency.quantile(0.99) as f64);
            layers.insert(
                "serve.deadline_miss_rate",
                (r.deadline_misses + r.shed) as f64 / r.generated.max(1) as f64,
            );
        }

        let (metrics, failures) = rec.span("session.pass", 0, |rec| {
            session_pass(rec, &catalog, self.cfg.quantum)
        });
        tally.book(
            catalog.jobs().len() as u64,
            failures.len() as u64,
            failures.first().cloned(),
        );
        for (name, metric) in [
            ("session.fresh", "session.fresh_s"),
            ("session.slice", "session.slice_s"),
            ("session.checkpoint", "session.checkpoint_s"),
            ("session.resume", "session.resume_s"),
            ("session.finish", "session.finish_s"),
        ] {
            layers.insert(metric, rec.total_secs(name));
        }
        crate::single::snapshot_layers(&metrics, layers);
    }
}

/// Runs every catalog job through one preemption and resume, checking
/// each result against the golden executor. Returns the MOMS, DRAM and
/// PE counters summed over every episode of every job (before the
/// checkpoint and after the resume), and one message per failed job.
fn session_pass(
    rec: &mut Recorder,
    catalog: &Catalog,
    quantum: u32,
) -> (MetricsSnapshot, Vec<String>) {
    let mut sum = MetricsSnapshot::default();
    let mut failures = Vec::new();
    for job in catalog.jobs() {
        let idx = catalog.job_index(job) as u64;
        let g = &catalog.graphs[job.graph].1;
        let algo = catalog.queries[job.query];
        let rc = Driver::new().run_config(g);
        let label = catalog.job_label(job);
        let outcome = rec.span("session.job", idx, |rec| -> Result<Vec<u32>, String> {
            let mut s = rec.sub("session.fresh", |_| Session::fresh(g, algo, &rc));
            let mut resumed = false;
            loop {
                let (end, _) = rec
                    .sub("session.slice", |_| s.step_slice(quantum))
                    .map_err(|e| format!("{label}: {e}"))?;
                if end == SliceEnd::Finished {
                    break;
                }
                if !resumed {
                    let ckpt = rec.sub("session.checkpoint", |_| s.checkpoint());
                    let next = rec.sub("session.resume", |_| Session::resume(g, algo, &rc, &ckpt));
                    // The preempted episode's counters, read off its device
                    // before it is dropped (untimed).
                    accumulate(&mut sum, &std::mem::replace(&mut s, next).finish().metrics);
                    resumed = true;
                }
            }
            let r = rec.sub("session.finish", |_| s.finish());
            accumulate(&mut sum, &r.metrics);
            Ok(r.values)
        });
        let golden = algos::golden::run(&algo, g);
        let ok = match &outcome {
            Ok(v) if matches!(algo, algos::Algorithm::PageRank { .. }) => {
                crate::single::pagerank_mismatch(v, &golden).is_none()
            }
            Ok(v) => *v == golden,
            Err(_) => false,
        };
        if !ok {
            failures.push(match outcome {
                Err(e) => e,
                Ok(_) => format!("{label}: session result differs from golden"),
            });
        }
    }
    (sum, failures)
}

/// Adds the counters of `m` into `sum` (peaks take the maximum).
fn accumulate(sum: &mut MetricsSnapshot, m: &MetricsSnapshot) {
    let (a, b) = (&mut sum.moms.banks, &m.moms.banks);
    a.cache_hits += b.cache_hits;
    a.cache_misses += b.cache_misses;
    a.stall_mshr_full += b.stall_mshr_full;
    a.stall_subentry_full += b.stall_subentry_full;
    a.stall_mem_full += b.stall_mem_full;
    sum.moms.peak_outstanding_misses = sum
        .moms
        .peak_outstanding_misses
        .max(m.moms.peak_outstanding_misses);
    let total = m.dram_total();
    match sum.dram.first_mut() {
        Some(d) => d.accumulate(&total),
        None => sum.dram.push(total),
    }
    sum.pe_cycles.accumulate(&m.pe_cycles);
}
