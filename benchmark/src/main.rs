#![forbid(unsafe_code)]
//! `coopbench` — one benchmark for coopcache's store, simulators and live
//! cooperative path, with per-layer attribution.
//!
//! ```text
//! coopbench run --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! coopbench compare <a.json>[,<a2.json>...] <b.json>[,...] [--bounds <BENCHMARK.json>] [--skip <metric>]...
//! coopbench list
//! ```
//!
//! `run` generates the workload's inputs from the seed, drives the program
//! through its public functions only, checks the outputs, prints every
//! metric by name with its unit, writes `benchmark/out/<workload>.json`
//! and ends with the driver's one-line JSON result. A failed check is a
//! nonzero exit. See `README.md` for the workloads and metrics.

mod calibrate;
mod compare;
mod layers;
mod live;
mod meta;
mod metrics;
mod procfs;
mod report;
mod spans;
mod stats;
mod workloads;

use report::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  coopbench run --workload <name> [--seed <u64>] [--seconds <1..=60>] [--trace <0|1>] [--out <dir>]
  coopbench compare <a.json>[,<a2.json>...] <b.json>[,...] [--bounds <BENCHMARK.json>] [--skip <metric>]...
  coopbench list";

/// A command line split into `--key value` pairs and the rest.
struct Args {
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        options: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(key) => {
                let value = it.next().ok_or(format!("--{key} needs a value"))?;
                parsed.options.push((key.to_string(), value.clone()));
            }
            None => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, String> {
    let Args {
        options,
        positional,
    } = parse_args(args)?;
    if let Some(stray) = positional.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        seconds: 8.0,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut traced = false;
    for (key, value) in &options {
        let bad = || format!("bad value {value:?} for --{key}");
        match key.as_str() {
            "workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "seed" => ctx.seed = value.parse().map_err(|_| bad())?,
            "seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad())?;
                if !(1.0..=60.0).contains(&ctx.seconds) {
                    return Err(bad());
                }
            }
            "trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "out" => ctx.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown option --{key}")),
        }
    }
    let workload = workload.ok_or("run needs --workload")?;
    let meta = meta::Meta::collect();
    let result = if traced {
        let (checks, mut layers, recorded) = workload.trace(&ctx)?;
        layers.insert("bench.spans_recorded", recorded.len() as f64);
        let path = ctx.out_dir.join(format!("{}.spans.jsonl", workload.name()));
        spans::write_jsonl(&path, &recorded).map_err(|e| format!("cannot write spans: {e}"))?;
        let notes = report::span_table(&recorded);
        let values = report::per_layer_values(&layers);
        RunResult::new(workload, &ctx, true, checks, values, notes)
    } else {
        let (checks, mut e2e) = workload.run(&ctx)?;
        let (values, mut notes) = report::end_to_end_values(&e2e)?;
        notes.append(&mut e2e.notes);
        RunResult::new(workload, &ctx, false, checks, values, notes)
    };
    result.print(&meta);
    let path = result
        .write(&ctx, &meta)
        .map_err(|e| format!("cannot write the result file: {e}"))?;
    println!("   result: {}", path.display());
    println!("{}", result.contract_line());
    Ok(result.checks.correct())
}

fn compare(args: &[String]) -> Result<bool, String> {
    let Args {
        options,
        positional,
    } = parse_args(args)?;
    let [base, new] = positional.as_slice() else {
        return Err("compare needs exactly two result files".to_string());
    };
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut skip = Vec::new();
    for (key, value) in options {
        match key.as_str() {
            "bounds" => bounds_path = value,
            "skip" => skip.push(value),
            _ => return Err(format!("unknown option --{key}")),
        }
    }
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::parse_bounds(&read(&bounds_path)?)?;
    // Each side is one result file or a comma-separated list of them,
    // compared by the medians of their metrics.
    let side = |paths: &str| {
        let runs = paths
            .split(',')
            .map(|path| compare::parse_sample(&read(path)?).map_err(|e| format!("{path}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        compare::median_sample(&runs)
    };
    let (base, new) = (side(base)?, side(new)?);
    let (report, ok) = compare::compare(&bounds, &base, &new, &skip)?;
    print!("{report}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        Some((cmd, [])) if cmd == "list" => {
            for w in Workload::ALL {
                println!("{}", w.name());
            }
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("coopbench: {message}");
            ExitCode::from(2)
        }
    }
}
