//! `dfperf aa`: two interleaved sets of runs of the same code, compared the
//! way the benchmark contract compares a change with its parent. If the
//! benchmark cannot tell itself from itself within its own bounds, no
//! number it reports about a change means anything.

use crate::host::Host;
use crate::report::{RunResult, END_TO_END};
use crate::run::WORKLOADS;
use crate::stats::{exact_equal, quartile_spread, quartiles, worsening};
use std::collections::BTreeMap;

/// Run `i` of both sets uses seed `FIRST_SEED + i`: the sets see the same
/// inputs, and within a set every run sees different ones.
const FIRST_SEED: u64 = 1;

fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result: RunResult = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| format!("{workload} seed {seed} printed no result:\n{stdout}"))?;
    if !out.status.success() || !result.correct {
        return Err(format!("{workload} seed {seed} failed:\n{stdout}"));
    }
    Ok(result)
}

/// Runs the two sets and prints the comparison; `Ok(false)` when a gap or
/// a spread exceeds its metric's bound.
pub fn aa(runs: usize, seconds: u64) -> Result<bool, String> {
    if runs < 2 {
        return Err("aa needs at least two runs per set".into());
    }
    let host = Host::detect();
    println!("{}", host.line());
    // values[(workload, metric)] = [set A values, set B values]
    let mut values: BTreeMap<(&str, &str), [Vec<f64>; 2]> = BTreeMap::new();
    // Exact per (workload, seed): operations attempted and failed must be
    // the same numbers in both sets.
    let mut counts: BTreeMap<(&str, u64), (f64, f64)> = BTreeMap::new();
    for i in 0..runs {
        for set in 0..2 {
            for workload in WORKLOADS {
                let seed = FIRST_SEED + i as u64;
                let result = run_once(workload, seed, seconds)?;
                let now = (result.attempted as f64, result.failed as f64);
                let before = *counts.entry((workload, seed)).or_insert(now);
                if !(exact_equal(before.0, now.0) && exact_equal(before.1, now.1)) {
                    return Err(format!(
                        "{workload} seed {seed}: {before:?} then {now:?} (attempted, failed)"
                    ));
                }
                for metric in &END_TO_END {
                    let value = result
                        .metrics
                        .get(metric.name)
                        .ok_or_else(|| format!("{workload} reported no {}", metric.name))?
                        .value;
                    values.entry((workload, metric.name)).or_default()[set].push(value);
                }
            }
        }
        println!("aa: run {} of {runs} done in both sets", i + 1);
    }

    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "gap", "bound"
    );
    let mut within = true;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let [a, b] = &values[&(workload, metric.name)];
            let median = |v: &[f64]| quartiles(v).map(|q| q.1).ok_or("too few runs");
            let (ma, mb) = (median(a)?, median(b)?);
            let (sa, sb) = (quartile_spread(a).unwrap_or(0.0), quartile_spread(b).unwrap_or(0.0));
            let gap = worsening(ma, mb, metric.better);
            // Set-up's spread is reported but, as in the contract, only its
            // medians are held to the bound.
            let spread_ok = metric.name == "setup_s" || sa.max(sb) <= metric.bound;
            let ok = gap <= metric.bound && spread_ok;
            within &= ok;
            println!(
                "{workload:<16} {:<18} {ma:>14.3} {mb:>14.3} {:>8.2}% {:>8.2}% {:>7.2}% {:>5.0}%  {}",
                metric.name,
                sa * 100.0,
                sb * 100.0,
                gap * 100.0,
                metric.bound * 100.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    println!(
        "aa: {} runs per set, {seconds} s timed sections: {}{}",
        runs,
        if within { "every gap and spread is within its bound" } else { "a bound was exceeded" },
        if host.busy() { " (host_busy at start)" } else { "" }
    );
    Ok(within)
}
