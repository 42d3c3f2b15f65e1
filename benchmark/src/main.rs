//! `dfperf` — one wall-clock benchmark for the screening funnel, the
//! rescoring job and the serving fleet. See `benchmark/README.md`.
//!
//! ```text
//! dfperf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! dfperf [--seed <n>] [--seconds <s>] [--trace <0|1>]               all four, a process each
//! dfperf aa --runs <r> [--seconds <s>]                              two interleaved sets of runs
//! ```

mod aa;
mod gen;
mod host;
mod layers;
mod reference;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

/// Seed of a run that names none; `expected.json` holds its digests.
pub const DEFAULT_SEED: u64 = 2021;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    runs: Option<usize>,
    lanes: Option<usize>,
    ops: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => args.seed = Some(parse_number(arg, value("a number")?)?),
            "--seconds" => args.seconds = Some(parse_number(arg, value("a number")?)?),
            "--runs" => args.runs = Some(parse_number(arg, value("a number")?)?),
            "--lanes" => args.lanes = Some(parse_number(arg, value("a number")?)?),
            "--ops" => args.ops = Some(parse_number(arg, value("a number")?)?),
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            name if !name.starts_with('-') && args.command.is_none() => {
                args.command = Some(name.to_string())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag} takes a whole number, not {text:?}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        let seed = args.seed.unwrap_or(DEFAULT_SEED);
        let seconds = args.seconds.unwrap_or(workloads::FROZEN_SECONDS);
        match (args.command.as_deref(), args.workload.as_deref()) {
            (None, Some(name)) => run::one(name, seed, seconds, args.trace),
            (None, None) => run::all(seed, seconds, args.trace),
            (Some("aa"), None) => aa::aa(args.runs.unwrap_or(5), seconds),
            // Internal: the fresh process a traced run times a sample in.
            (Some("sample"), Some(name)) => match (args.lanes, args.ops) {
                (Some(lanes), Some(ops)) => layers::sample(name, seed, lanes, ops),
                _ => Err("sample needs --lanes and --ops".into()),
            },
            (Some(other), _) => Err(format!("unknown command {other:?}")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("dfperf: {message}");
            ExitCode::from(2)
        }
    }
}
