//! What the numbers were measured on: printed with every run, because a
//! wall-clock figure means nothing without its host.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// CPUs the benchmark sizes its pool, ranks and scheduler workers by.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Host facts recorded at process start.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// GEMM micro-kernel edition `dftensor` resolved at run time.
    pub simd: &'static str,
    pub rustc: String,
    /// 1-minute load average when the run started.
    pub load1: f64,
}

impl Host {
    pub fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
            .unwrap_or(0.0);
        Host {
            nproc: nproc(),
            cpu_model,
            simd: dftensor::ops::microkernel::detected().label(),
            rustc,
            load1,
        }
    }

    /// Something else was already using the cores when the run started, so
    /// its wall times are suspect.
    pub fn busy(&self) -> bool {
        self.load1 > self.nproc as f64
    }

    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" simd={} rustc=\"{}\" load1={:.2}{}",
            self.nproc,
            self.cpu_model,
            self.simd,
            self.rustc,
            self.load1,
            if self.busy() { " host_busy" } else { "" }
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `benchmark/out`, where traces and per-process scratch go. Resolved at
/// compile time so the benchmark only ever writes inside its checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory for rank files and manifests, removed
/// when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(tag: &str) -> std::io::Result<Scratch> {
        // Numbered, so two workloads alive in one process never share one.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("scratch-{}-{n}-{tag}", std::process::id()));
        // A previous process with this pid may have died before cleaning up.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh empty sub-directory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
