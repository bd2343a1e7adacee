//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--out-dir <dir>]
//! ```
//!
//! Prints the self-describing report as one `report: {...}` line, then,
//! as the last line of standard output, the result object with exactly
//! `correct`, `attempted`, `failed` and `metrics`; failed operations show
//! there (`correct: false`) and the exit code stays 0. Exits 2 without a
//! result on a usage or set-up error.

use std::process::ExitCode;

use perfbench::{run, Options, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts: Option<Options> = None;
    let mut rest: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--workload" {
            let w = Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
            opts = Some(Options::new(w));
        } else {
            rest.push((flag, value));
        }
    }
    let mut opts = opts.ok_or("--workload is required")?;
    for (flag, value) in rest {
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag {
            "--seed" => opts.seed = num()?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))?
            }
            "--trace" => opts.trace = num()? != 0,
            "--commit" => opts.commit = value.to_owned(),
            "--out-dir" => opts.out_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            for note in &outcome.tally.notes {
                eprintln!("perfbench: failure: {note}");
            }
            println!("report: {}", outcome.report_json());
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            ExitCode::from(2)
        }
    }
}
