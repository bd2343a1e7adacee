//! The repository benchmark.
//!
//! Three workloads, each driven only through public APIs of the simulator
//! crates and checked against the golden executors:
//!
//! * `pagerank-rv` — one `System`, every edge active, MOMS banks busy;
//! * `bfs-wt-fabric8` — an 8-device fabric at one simulation thread,
//!   mostly idle PEs and barrier exchange;
//! * `serve-1x` — the serving scheduler at its calibrated capacity, many
//!   short device lifetimes with preemption and co-batching.
//!
//! An untraced run (`trace = false`) measures the end-to-end metrics of
//! [`metrics::END_TO_END`], with every host time scaled by the
//! [`yardstick`] run around it; a traced run records spans around each
//! call into a layer and derives [`metrics::PER_LAYER`]. See `README.md` in
//! this directory for why each workload exists and which layer metric
//! should move which end-to-end metric.

mod fabric;
pub mod metrics;
mod serving;
mod single;
pub mod spans;
pub mod yardstick;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use spans::Recorder;

pub use single::{replay, Replay};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PageRank (2 iterations) on the RV stand-in, one `System`.
    PagerankRv,
    /// BFS on WT over an 8-device all-to-all fabric, one sim thread.
    BfsWtFabric8,
    /// The serving scheduler at `rate_permille = 1000`.
    Serve1x,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PagerankRv,
        Workload::BfsWtFabric8,
        Workload::Serve1x,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PagerankRv => "pagerank-rv",
            Workload::BfsWtFabric8 => "bfs-wt-fabric8",
            Workload::Serve1x => "serve-1x",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Layer prefixes of [`metrics::PER_LAYER`] this workload's traced
    /// run measures; every other layer reads 0.
    pub fn layers(self) -> &'static [&'static str] {
        match self {
            Workload::PagerankRv => &["graph", "system", "moms", "dram", "pe", "trace"],
            Workload::BfsWtFabric8 => &["graph", "fabric", "moms", "dram", "pe", "trace"],
            Workload::Serve1x => &["graph", "serve", "session", "moms", "dram", "pe", "trace"],
        }
    }
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed (drives the serve request stream).
    pub seed: u64,
    /// Measurement budget after set-up and warm-up.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Commit or source identity to print in the report.
    pub commit: String,
    /// Directory for the span file of a traced run (`None`: not written).
    pub out_dir: Option<std::path::PathBuf>,
}

impl Options {
    /// Defaults for `workload`: seed 1, 10 s, untraced.
    pub fn new(workload: Workload) -> Self {
        Options {
            workload,
            seed: 1,
            seconds: 10.0,
            trace: false,
            commit: "unknown".to_owned(),
            out_dir: None,
        }
    }
}

/// One rep of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of the measured call.
    pub secs: f64,
    /// Simulated cycles (serve: summed device cycles).
    pub cycles: u64,
    /// Requests completed.
    pub requests: u64,
    /// Operations attempted (one run, or the stream's requests).
    pub attempted: u64,
    /// Operations that failed (golden mismatch, watchdog, error).
    pub failed: u64,
    /// Every deterministic observable of the rep, rendered; must equal
    /// the first rep's.
    pub fingerprint: String,
    /// Why the rep failed, if it did.
    pub error: Option<String>,
}

/// Set-ups timed per measured rep; the rep runs on the last one.
const SETUPS_PER_REP: usize = 3;

/// Per-layer metric values, keyed by [`metrics::PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A workload's set-up, reps and layer probes. Every rep starts from a
/// fresh set-up, so `setup_s` samples the same host conditions as the
/// reps do.
trait Case: Sized {
    /// Prepares inputs and builds the device or scheduler (timed as
    /// `setup_s`; spans go to `rec` when it is enabled).
    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String>;
    /// Computes the golden reference once (not part of `setup_s`).
    fn golden(&self) -> Vec<u32>;
    /// One rep on the device `setup` built; traced (spans around every
    /// layer call) when `rec` is enabled.
    fn rep(&mut self, golden: &[u32], rec: &mut Recorder) -> Rep;
    /// After the traced reps: runs the layer probes and fills `layers`.
    /// Probe failures land in `tally`.
    fn layers(
        &mut self,
        rec: &mut Recorder,
        reference: &Rep,
        layers: &mut Layers,
        tally: &mut Tally,
    );
}

/// Attempted/failed bookkeeping with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failure messages (first 8 kept).
    pub notes: Vec<String>,
}

impl Tally {
    /// Books `n` attempted operations of which `failed` failed.
    pub fn book(&mut self, n: u64, failed: u64, note: Option<String>) {
        self.attempted += n;
        self.failed += failed;
        if let Some(note) = note {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }

    /// Books a rep, comparing it with the reference rep.
    fn book_rep(&mut self, label: &str, rep: &Rep, reference: &Rep) {
        let diverged = rep.fingerprint != reference.fingerprint;
        let failed = if diverged { rep.attempted } else { rep.failed };
        let note = if diverged {
            Some(format!(
                "{label}: deterministic counters diverged from rep 0"
            ))
        } else {
            rep.error.as_ref().map(|e| format!("{label}: {e}"))
        };
        self.book(rep.attempted, failed, note);
    }
}

/// Median and quartiles of `xs` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method); a single sample
/// is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let q = |k: f64| {
                let pos = k * (n as f64 + 1.0) / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let delta = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (q(1.0), q(2.0), q(3.0))
        }
    }
}

/// Median of `xs` (the middle quartile).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric as printed: value plus the samples it came from.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The value printed in the result line.
    pub value: f64,
    /// Per-sample values it summarises (empty for single readings).
    pub samples: Vec<f64>,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Options the run used.
    pub options: Options,
    /// Operations attempted and failed, with failure notes.
    pub tally: Tally,
    /// Metrics in table order.
    pub values: Vec<Value>,
    /// Reps measured (after the warm-up rep).
    pub reps: usize,
    /// Recorded spans (traced runs; empty otherwise).
    pub spans: Recorder,
    /// Extra facts for the report (deterministic outputs).
    pub facts: Vec<(&'static str, String)>,
    /// Host seconds of every measured untraced rep, in order.
    pub rep_secs: Vec<f64>,
    /// Host seconds of the yardstick around each of those reps (untraced
    /// runs only).
    pub yardstick_secs: Vec<f64>,
    /// Unscaled medians of the scaled end-to-end timings (untraced runs
    /// only).
    pub raw: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// `true` when no operation failed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// Value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.name == name).map(|v| v.value)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, v) in self.values.iter().enumerate() {
            let def = metrics::find(v.name).expect("every value has a definition");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.name,
                json_num(v.value),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The self-describing report: host, commit, seed, tracing, reps,
    /// and per metric its unit, direction, quartiles and sample count.
    pub fn report_json(&self) -> String {
        let o = &self.options;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut out = format!(
            "{{\"benchmark\": \"perfbench\", \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"host_cores\": {cores}, \"commit\": \"{}\", \"reps\": {}, \"warmup_reps\": 1",
            o.workload.name(),
            o.seed,
            o.trace,
            json_num(o.seconds),
            json_escape(&o.commit),
            self.reps,
        );
        let failed_share = if self.tally.attempted == 0 {
            1.0
        } else {
            self.tally.failed as f64 / self.tally.attempted as f64
        };
        let _ = write!(
            out,
            ", \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"failures\": [{}]",
            self.tally.attempted,
            self.tally.failed,
            json_num(failed_share),
            self.tally
                .notes
                .iter()
                .map(|n| format!("\"{}\"", json_escape(n)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        if o.trace {
            let absent: Vec<String> = metrics::PER_LAYER
                .iter()
                .filter_map(|d| d.name.split('.').next())
                .filter(|p| !o.workload.layers().contains(p))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .map(|p| format!("\"{p}\""))
                .collect();
            let _ = write!(out, ", \"layers_absent\": [{}]", absent.join(", "));
        }
        for (k, v) in &self.facts {
            let _ = write!(out, ", \"{k}\": \"{}\"", json_escape(v));
        }
        for (key, xs) in [("rep_secs", &self.rep_secs), ("yardstick_secs", &self.yardstick_secs)] {
            let xs: Vec<String> = xs.iter().map(|s| json_num(*s)).collect();
            let _ = write!(out, ", \"{key}\": [{}]", xs.join(", "));
        }
        let raw: Vec<String> = self
            .raw
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        let _ = write!(out, ", \"raw\": {{{}}}", raw.join(", "));
        out.push_str(", \"metrics\": {");
        for (i, v) in self.values.iter().enumerate() {
            let def = metrics::find(v.name).expect("every value has a definition");
            let sep = if i == 0 { "" } else { ", " };
            let (q1, q2, q3) = quartiles(&v.samples);
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"samples\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                v.name,
                json_num(v.value),
                def.unit,
                def.better.as_str(),
                v.samples.len(),
                json_num(q1),
                json_num(q2),
                json_num(q3),
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number; non-finite values (never expected) print as 0.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Only when set-up itself cannot complete (a failing rep is booked in
/// the outcome's tally instead).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::PagerankRv => drive::<single::PagerankRv>(opts),
        Workload::BfsWtFabric8 => drive::<fabric::BfsWtFabric8>(opts),
        Workload::Serve1x => drive::<serving::Serve1x>(opts),
    }
}

fn drive<C: Case>(opts: &Options) -> Result<Outcome, String> {
    let mut rec = if opts.trace {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    let mut off = Recorder::disabled();
    let seed = opts.seed;

    // Warm-up rep: checked, timing discarded, the reference for every
    // later rep's deterministic counters.
    let mut tally = Tally::default();
    let mut warm = C::setup(seed, &mut off)?;
    let golden = warm.golden();
    let reference = warm.rep(&golden, &mut off);
    // Set-up plus one rep is the workload's footprint; read it before the
    // yardstick adds its own.
    let peak_rss = peak_rss_mib();
    let mut last = Some(warm);
    tally.book(
        reference.attempted,
        reference.failed,
        reference.error.as_ref().map(|e| format!("rep 0: {e}")),
    );

    // Measured reps, each on the last of `SETUPS_PER_REP` fresh set-ups
    // and, untraced, bracketed by the two halves of the yardstick. A
    // traced run alternates untraced and traced reps so both see the same
    // host conditions.
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let mut setup_secs = Vec::new();
    let mut yard_secs = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        if !reps.is_empty() && start.elapsed() >= budget {
            break;
        }
        let idx = (reps.len() + traced.len() + 1) as u64;
        // Free the previous rep's device before the clock starts.
        drop(last.take());
        let before = if opts.trace { 0.0 } else { yardstick::half()? };
        let mut setups = Vec::with_capacity(SETUPS_PER_REP);
        for _ in 0..SETUPS_PER_REP {
            drop(last.take());
            let t = Instant::now();
            last = Some(C::setup(seed, &mut off)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        setup_secs.push(median(&setups));
        let mut c = last.take().expect("a set-up ran");
        let r = c.rep(&golden, &mut off);
        if !opts.trace {
            yard_secs.push(before + yardstick::half()?);
        }
        last = Some(c);
        tally.book_rep(&format!("rep {idx}"), &r, &reference);
        reps.push(r);
        if opts.trace {
            let idx = idx + 1;
            drop(last.take());
            let (c, r) = rec.span("rep", idx, |rec| -> Result<(C, Rep), String> {
                let mut c = rec.span("setup", idx, |rec| C::setup(seed, rec))?;
                let r = c.rep(&golden, rec);
                Ok((c, r))
            })?;
            last = Some(c);
            tally.book_rep(&format!("traced rep {idx}"), &r, &reference);
            traced.push(r);
        }
    }
    let mut case = last.expect("at least one measured rep");

    let secs: Vec<f64> = reps.iter().map(|r| r.secs).collect();
    let mut values = Vec::new();
    let mut raw = Vec::new();
    let mut facts = vec![
        ("sim_cycles", reference.cycles.to_string()),
        ("requests_per_rep", reference.requests.to_string()),
    ];
    if opts.trace {
        let mut layers: Layers = metrics::PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
        case.layers(&mut rec, &reference, &mut layers, &mut tally);
        assert_eq!(
            layers.len(),
            metrics::PER_LAYER.len(),
            "layer probes set only listed metrics"
        );
        let traced_secs: Vec<f64> = traced.iter().map(|r| r.secs).collect();
        let cycles = reference.cycles as f64;
        let (untraced_med, traced_med) = (median(&secs), median(&traced_secs));
        layers.insert("trace.untraced_sim_cycles_per_s", cycles / untraced_med);
        layers.insert("trace.traced_sim_cycles_per_s", cycles / traced_med);
        layers.insert("trace.overhead_share", traced_med / untraced_med - 1.0);
        for d in metrics::PER_LAYER {
            values.push(Value {
                name: d.name,
                value: layers[d.name],
                samples: Vec::new(),
            });
        }
        if let Some(dir) = &opts.out_dir {
            let path = dir.join(format!(
                "spans-{}-seed{}.json",
                opts.workload.name(),
                opts.seed
            ));
            let written =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_json()));
            match written {
                Ok(()) => facts.push(("spans_file", path.display().to_string())),
                Err(e) => facts.push(("spans_file_error", e.to_string())),
            }
        }
    } else {
        // Host seconds scaled to the nominal yardstick, per rep.
        let scale: Vec<f64> = yard_secs.iter().map(|y| yardstick::NOMINAL_S / y).collect();
        let scaled_secs: Vec<f64> = reps.iter().zip(&scale).map(|(r, k)| r.secs * k).collect();
        let per_rep = |f: &dyn Fn(&Rep, f64) -> f64| -> Vec<f64> {
            reps.iter().zip(&scaled_secs).map(|(r, &s)| f(r, s)).collect()
        };
        let cps = per_rep(&|r, s| r.cycles as f64 / s);
        let rps = per_rep(&|r, s| r.requests as f64 / s);
        raw = vec![
            ("sim_cycles_per_s", median(&per_rep(&|r, _| r.cycles as f64 / r.secs))),
            ("requests_per_s", median(&per_rep(&|r, _| r.requests as f64 / r.secs))),
            ("setup_s", median(&setup_secs)),
        ];
        let setup_secs: Vec<f64> = setup_secs.iter().zip(&scale).map(|(s, k)| s * k).collect();
        values.push(Value {
            name: "sim_cycles_per_s",
            value: median(&cps),
            samples: cps,
        });
        values.push(Value {
            name: "requests_per_s",
            value: median(&rps),
            samples: rps,
        });
        values.push(Value {
            name: "setup_s",
            value: median(&setup_secs),
            samples: setup_secs,
        });
        values.push(Value {
            name: "peak_rss_mib",
            value: peak_rss,
            samples: Vec::new(),
        });
        values.push(Value {
            name: "sim_cycles",
            value: reference.cycles as f64,
            samples: Vec::new(),
        });
    }
    Ok(Outcome {
        options: opts.clone(),
        tally,
        values,
        reps: reps.len() + traced.len(),
        spans: rec,
        facts,
        rep_secs: secs,
        yardstick_secs: yard_secs,
        raw,
    })
}
