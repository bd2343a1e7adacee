//! The benchmark's own contract: every workload emits every metric with
//! its unit, traced runs produce a consistent span tree, the MOMS replay
//! answers every recorded request, the host-speed yardstick does its
//! fixed work, and `BENCHMARK.json` names exactly the metrics the
//! benchmark prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use accel::System;
use algos::Algorithm;
use graph::{GraphSpec, Partitioner};
use perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::spans::Recorder;
use perfbench::{quartiles, run, Options, Outcome, Workload};

fn one_rep(workload: Workload, trace: bool) -> Outcome {
    let opts = Options {
        seconds: 0.0,
        trace,
        ..Options::new(workload)
    };
    run(&opts).expect("set-up succeeds")
}

fn assert_emits(out: &Outcome, table: &[MetricDef]) {
    let line = out.result_line();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert_eq!(out.values.len(), table.len());
    for def in table {
        let v = out
            .get(def.name)
            .unwrap_or_else(|| panic!("{} missing", def.name));
        assert!(v.is_finite(), "{} = {v}", def.name);
        let entry = format!("\"{}\": {{\"value\": ", def.name);
        let unit = format!("\"unit\": \"{}\"}}", def.unit);
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{} not printed", def.name));
        assert!(
            line[at..].contains(&unit),
            "{} printed without its unit",
            def.name
        );
    }
}

#[test]
fn smoke_run_of_each_workload_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = one_rep(w, false);
        assert!(out.correct(), "{}: {:?}", w.name(), out.tally.notes);
        assert_emits(&out, END_TO_END);
        for def in END_TO_END {
            assert!(
                out.get(def.name).unwrap() > 0.0,
                "{}: {} is 0",
                w.name(),
                def.name
            );
        }
    }
}

#[test]
fn traced_run_of_each_workload_emits_every_layer_metric_and_a_consistent_span_tree() {
    for w in Workload::ALL {
        let out = one_rep(w, true);
        assert!(out.correct(), "{}: {:?}", w.name(), out.tally.notes);
        assert_emits(&out, PER_LAYER);
        let spans = out.spans.spans();
        assert!(!spans.is_empty(), "{}: no spans", w.name());
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                child_ns[p] += s.duration_ns();
            }
        }
        for (s, c) in spans.iter().zip(&child_ns) {
            assert!(
                *c <= s.duration_ns(),
                "{}: negative self time in {}",
                w.name(),
                s.name
            );
        }
        // Self times over each tree sum to its root's duration.
        let selfs = out.spans.self_times();
        let mut root_of: Vec<usize> = (0..spans.len()).collect();
        for i in 0..spans.len() {
            if let Some(p) = spans[i].parent {
                root_of[i] = root_of[p];
            }
        }
        for (r, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            let sum: u64 = (0..spans.len())
                .filter(|&i| root_of[i] == r)
                .map(|i| selfs[i])
                .sum();
            assert_eq!(
                sum,
                root.duration_ns(),
                "{}: tree of {}",
                w.name(),
                root.name
            );
        }
        for layer in w.layers() {
            let measured = PER_LAYER
                .iter()
                .filter(|d| d.name.starts_with(&format!("{layer}.")))
                .any(|d| out.get(d.name).unwrap() != 0.0);
            assert!(measured, "{}: layer {layer} reads all zero", w.name());
        }
    }
}

#[test]
fn moms_replay_answers_exactly_the_recorded_requests() {
    let g = GraphSpec::rmat(9, 8).build(3);
    let mut cfg = accel::SystemConfig::small();
    cfg.moms_trace_cap = 1 << 20;
    let algo = Algorithm::PageRank { iterations: 2 };
    let r = System::new(&g, Partitioner::new(256, 256), algo, cfg.clone())
        .run_to_outcome(None)
        .expect("small run completes");
    assert!(!r.moms_trace.is_empty());
    let mut rec = Recorder::new();
    let replay = perfbench::replay(&mut rec, &cfg, &r.moms_trace);
    assert_eq!(replay.responses, r.moms_trace.len() as u64);
    assert_eq!(rec.totals()["moms.tick"].calls, replay.cycles);
}

#[test]
fn yardstick_does_its_fixed_work() {
    assert_eq!(
        perfbench::yardstick::work(perfbench::yardstick::HALF_CYCLES),
        perfbench::yardstick::HALF_CHECKSUM
    );
    assert!(perfbench::yardstick::half().expect("checksum holds") > 0.0);
}

#[test]
fn untraced_report_carries_the_yardstick_and_raw_medians() {
    let out = one_rep(Workload::PagerankRv, false);
    assert_eq!(out.yardstick_secs.len(), out.rep_secs.len());
    let raw: Vec<&str> = out.raw.iter().map(|(k, _)| *k).collect();
    assert_eq!(raw, ["sim_cycles_per_s", "requests_per_s", "setup_s"]);
    let report = out.report_json();
    assert!(report.contains("\"yardstick_secs\": ["), "{report}");
    assert!(report.contains("\"raw\": {\"sim_cycles_per_s\": "), "{report}");
}

#[test]
fn quartiles_follow_pythons_exclusive_method() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
    assert_eq!(quartiles(&[3.0]), (3.0, 3.0, 3.0));
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, in order.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |item: &str, name: &str| -> Option<String> {
        let at = item.find(&format!("\"{name}\""))?;
        let rest = &item[at + name.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_owned())
    };
    body.split('{')
        .skip(1)
        .filter_map(|item| Some((field(item, "name")?, field(item, "unit")?)))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = section(&json, key);
        let printed: Vec<(String, String)> = table
            .iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect();
        assert_eq!(listed, printed, "{key}");
    }
    let workloads: Vec<String> = json
        .split("\"workloads\"")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("workloads present")
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().unwrap_or_default().to_owned())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
