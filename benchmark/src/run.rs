//! One run of one workload, and the four-workload sweep built from it.

use crate::host::{self, Host};
use crate::reference;
use crate::report::{Metrics, RunResult};
use crate::stats;
use crate::workloads::funnel_campaign::FunnelCampaign;
use crate::workloads::library_screen::LibraryScreen;
use crate::workloads::pose_rescore::PoseRescore;
use crate::workloads::serve_zipf::ServeZipf;
use crate::workloads::{Block, Timed, Workload};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] =
    [LibraryScreen::NAME, PoseRescore::NAME, FunnelCampaign::NAME, ServeZipf::NAME];

/// Set-ups per run. Set-up is seconds of deterministic work; doing it
/// several times and reporting the median keeps one disturbed set-up out of
/// `setup_s`, and every repetition must reproduce the warm-up digest of
/// the first.
const SETUP_REPS: usize = 3;

/// Output digests of the default seed at the frozen sizes, so a later
/// change that alters what the program computes is caught.
#[derive(Debug, Deserialize)]
struct Expected {
    seed: u64,
    seconds: u64,
    digests: BTreeMap<String, BTreeMap<String, String>>,
}

fn expected() -> Expected {
    serde_json::from_str(include_str!("../expected.json")).expect("expected.json is well-formed")
}

/// Runs the named workload once and prints its result line. `Ok(false)`
/// means it ran but an output was wrong.
pub fn one(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    if trace {
        return crate::layers::traced(name, seed);
    }
    match name {
        LibraryScreen::NAME => untraced::<LibraryScreen>(seed, seconds),
        PoseRescore::NAME => untraced::<PoseRescore>(seed, seconds),
        FunnelCampaign::NAME => untraced::<FunnelCampaign>(seed, seconds),
        ServeZipf::NAME => untraced::<ServeZipf>(seed, seconds),
        other => Err(format!("unknown workload {other:?}; the workloads are {WORKLOADS:?}")),
    }
}

/// The end-to-end run: set-up (timed as `setup_s`), the timed section,
/// verification, then the metrics.
fn untraced<W: Workload>(seed: u64, seconds: u64) -> Result<bool, String> {
    let host = Host::detect();
    println!("{}", host.line());

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut reference_ms = Vec::new();
    let mut state: Option<W> = None;
    let mut warmup_digest = None;
    for rep in 0..SETUP_REPS {
        drop(state.take());
        reference_ms.push(reference::measure_ms(host.nproc));
        let t = Instant::now();
        let built = W::setup(seed, host.nproc, &W::FROZEN)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let digest = built.warmup_digest();
        if *warmup_digest.get_or_insert(digest) != digest {
            return Err(format!("set-up {rep} gave another warm-up digest than set-up 0"));
        }
        state = Some(built);
    }
    let mut state = state.expect("SETUP_REPS is at least one");
    let warmup_digest = warmup_digest.expect("SETUP_REPS is at least one");

    let ops = W::ops_for(seconds);
    let mut timed = state.run(ops);
    drop(state);
    reference_ms.extend(&timed.reference_ms);

    let want = expected();
    if seed == want.seed && seconds == want.seconds {
        let stored = want.digests.get(W::NAME);
        for (key, got) in [("warmup", warmup_digest), ("timed", timed.digest)] {
            let got = format!("{got:016x}");
            let stored = stored.and_then(|d| d.get(key));
            timed.checks.require(stored == Some(&got), || {
                format!("{key} digest {got} differs from expected.json ({stored:?})")
            });
        }
        timed.checks.end_op();
    }

    let measured = Measured::of::<W>(&timed, &setup_s, &reference_ms)?;
    println!("why: {}", W::WHY.split_whitespace().collect::<Vec<_>>().join(" "));
    println!(
        "workload: {} seed={seed} ops={ops} unit={} digest.warmup={warmup_digest:016x} \
         digest.timed={:016x}",
        W::NAME,
        W::UNIT,
        timed.digest,
    );
    let join = |values: Vec<String>| values.join(" ");
    println!(
        "  per-block wall, ms: {}",
        join(timed.blocks.iter().map(|b| format!("{:.0}", b.wall_us / 1e3)).collect())
    );
    println!(
        "  host reference, ms: {} (nominal {})",
        join(reference_ms.iter().map(|r| format!("{r:.1}")).collect()),
        reference::NOMINAL_MS
    );
    measured.print_raw::<W>(&timed);
    let metrics = measured.metrics();
    for (name, m) in &metrics.0 {
        println!("  {name:<18} {:>14.3} {}", m.value, m.unit);
    }
    for problem in &timed.checks.problems {
        println!("  FAILED: {problem}");
    }
    let result = RunResult {
        correct: timed.checks.problems.is_empty(),
        attempted: timed.attempted,
        failed: timed.checks.failed_ops,
        metrics: metrics.0,
    };
    println!("{}", result.to_json_line());
    Ok(result.correct)
}

/// What one run measured, as measured: the quiet-quarter means over the
/// timed section's blocks (see `stats::quiet_quarter_mean`), the median
/// set-up, and how fast the host was running the reference kernel.
struct Measured {
    us_per_unit: f64,
    p50_us: f64,
    tail_us: f64,
    setup_s: f64,
    /// Quiet-quarter mean of every reference sample of the run.
    reference_ms: f64,
}

impl Measured {
    fn of<W: Workload>(
        timed: &Timed,
        setup_s: &[f64],
        reference_ms: &[f64],
    ) -> Result<Measured, String> {
        let quiet = |values: Vec<f64>| {
            stats::quiet_quarter_mean(&values).map_err(|e| format!("{}: {e}", W::NAME))
        };
        let per_block = |f: fn(&Block) -> f64| quiet(timed.blocks.iter().map(f).collect());
        Ok(Measured {
            us_per_unit: per_block(|b| b.wall_us / b.units.max(1) as f64)?,
            p50_us: per_block(|b| b.p50_us)?,
            tail_us: per_block(|b| b.tail_us)?,
            setup_s: stats::median(&stats::sorted(setup_s)).map_err(|e| format!("set-up: {e}"))?,
            reference_ms: quiet(reference_ms.to_vec())?,
        })
    }

    /// How fast the host ran during this run, as a share of nominal: below
    /// 1 when something else was slowing it.
    fn host_speed(&self) -> f64 {
        reference::NOMINAL_MS / self.reference_ms
    }

    /// The end-to-end metrics: every time with the host's own slowness
    /// divided out.
    fn metrics(&self) -> Metrics {
        let speed = self.host_speed();
        let mut m = Metrics::default();
        m.set("throughput_per_s", 1e6 / (self.us_per_unit * speed));
        m.set("latency_p50_us", self.p50_us * speed);
        m.set("latency_tail_us", self.tail_us * speed);
        m.set("setup_s", self.setup_s * speed);
        m
    }

    /// The same figures before normalization, and the plain totals.
    fn print_raw<W: Workload>(&self, timed: &Timed) {
        let wall_s = timed.wall().as_secs_f64();
        let walls = stats::sorted(&timed.blocks.iter().map(|b| b.wall_us).collect::<Vec<_>>());
        println!(
            "  as measured: {:.1} {}/s, p50 {:.0} us, tail {:.0} us, set-up {:.3} s; host speed \
             {:.3} of nominal (reference {:.1} ms)",
            1e6 / self.us_per_unit,
            W::UNIT,
            self.p50_us,
            self.tail_us,
            self.setup_s,
            self.host_speed(),
            self.reference_ms,
        );
        println!(
            "  whole section: {} {} in {wall_s:.3} s = {:.1} /s; median block {:.0} us, slowest \
             {:.0} us; process peak RSS {:.1} MiB (not a metric: see README)",
            timed.units(),
            W::UNIT,
            timed.units() as f64 / wall_s,
            walls[walls.len().div_ceil(2) - 1],
            walls.last().copied().unwrap_or(0.0),
            host::peak_rss_mb().unwrap_or(0.0),
        );
    }
}

/// Runs every workload in a fresh process of this same executable: the
/// end-to-end run and, with `trace`, the traced run after it.
pub fn all(seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut correct = true;
    for name in WORKLOADS {
        for traced in ["0", "1"].iter().take(1 + usize::from(trace)) {
            let status = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", traced])
                .status()
                .map_err(|e| format!("starting {name}: {e}"))?;
            correct &= status.success();
        }
    }
    Ok(correct)
}
