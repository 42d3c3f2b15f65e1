//! Determinism lock and cross-thread merge tests for `dftrace`.
//!
//! The tracer's contract is that telemetry is write-only: enabling it must
//! not change a single result bit, at any thread count. These tests run
//! the pooled hot paths traced and untraced and compare outputs exactly,
//! and verify that counters recorded from inside pool workers merge to
//! exact totals.
//!
//! The enable toggle and shard registry are process-global, so every test
//! in this binary serializes on [`trace_lock`].

use dfchem::featurize::{voxelize_batch, VoxelConfig};
use dfchem::genmol::{generate_molecule, MolGenConfig};
use dfchem::mol::Molecule;
use dfchem::pocket::{BindingPocket, TargetSite};
use dfdock::search::{dock, DockConfig};
use dfpool::Pool;
use dftensor::rng::rng;
use dftensor::Tensor;

fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn test_ligands(n: u64) -> Vec<Molecule> {
    (0..n)
        .map(|i| {
            generate_molecule(
                &MolGenConfig { min_heavy: 6, max_heavy: 12, ..Default::default() },
                "trace",
                i,
            )
        })
        .collect()
}

/// One pass over the pooled hot paths: matmul, batch voxelization and MC
/// docking, all on a 4-thread pool. Returns every produced float as bits.
fn hot_path_bits() -> Vec<u64> {
    Pool::new(4).install(|| {
        let mut bits: Vec<u64> = Vec::new();

        let mut r = rng(7);
        let a = Tensor::randn(&[19, 13], &mut r);
        let b = Tensor::randn(&[13, 21], &mut r);
        bits.extend(a.matmul(&b).data().iter().map(|v| v.to_bits() as u64));

        let ligands = test_ligands(6);
        let refs: Vec<&Molecule> = ligands.iter().collect();
        let pocket = BindingPocket::generate(TargetSite::Protease1, 3);
        let vcfg = VoxelConfig { grid_dim: 8, resolution: 2.0 };
        for v in voxelize_batch(&vcfg, &refs, &pocket) {
            bits.extend(v.data().iter().map(|x| x.to_bits() as u64));
        }

        let dcfg = DockConfig { mc_restarts: 6, mc_steps: 40, ..DockConfig::default() };
        for pose in dock(&dcfg, &ligands[0], &pocket, 55) {
            bits.push(pose.vina.to_bits());
            for atom in &pose.ligand.atoms {
                bits.push(atom.pos.x.to_bits());
                bits.push(atom.pos.y.to_bits());
                bits.push(atom.pos.z.to_bits());
            }
        }
        bits
    })
}

#[test]
fn traced_run_is_bit_identical_to_untraced_run() {
    let _g = trace_lock();
    dftrace::set_enabled(false);
    let untraced = hot_path_bits();

    dftrace::set_enabled(true);
    dftrace::reset();
    let traced = hot_path_bits();
    let report = dftrace::snapshot();
    dftrace::set_enabled(false);

    assert_eq!(untraced, traced, "enabling DFTRACE changed computed bits");
    // The traced pass must actually have recorded something — otherwise
    // this lock proves nothing.
    assert!(report.span("tensor.matmul").is_some(), "matmul span missing");
    assert!(report.span("dock.search").is_some(), "dock span missing");
    assert!(report.counter("dock.mc.steps") > 0, "MC step counter missing");
    assert!(report.counter("pool.jobs") > 0, "pool job counter missing");
    assert!(report.histogram("pool.queue_wait_us").is_some(), "queue-wait histogram missing");
}

#[test]
fn counters_recorded_inside_pool_workers_merge_exactly() {
    let _g = trace_lock();
    dftrace::set_enabled(true);
    dftrace::reset();
    let n = 10_000usize;
    Pool::new(4).install(|| {
        dfpool::current().parallel_map(n, 1, |i| {
            dftrace::counter_add("test.pool_merge", 1);
            if i % 2 == 0 {
                dftrace::counter_add("test.pool_merge_even", 1);
            }
        });
    });
    let report = dftrace::snapshot();
    dftrace::set_enabled(false);
    assert_eq!(report.counter("test.pool_merge"), n as u64);
    assert_eq!(report.counter("test.pool_merge_even"), n as u64 / 2);
}

#[test]
fn histograms_recorded_inside_pool_workers_merge_exactly() {
    let _g = trace_lock();
    dftrace::set_enabled(true);
    dftrace::reset();
    let n = 4_096usize;
    Pool::new(4).install(|| {
        dfpool::current().parallel_map(n, 1, |i| {
            dftrace::observe_us("test.pool_hist", i as u64);
        });
    });
    let report = dftrace::snapshot();
    dftrace::set_enabled(false);
    let h = report.histogram("test.pool_hist").expect("histogram recorded");
    assert_eq!(h.count, n as u64);
    assert_eq!(h.sum_us, (n as u64 - 1) * n as u64 / 2);
    assert_eq!(h.min_us, 0);
    assert_eq!(h.max_us, n as u64 - 1);
    assert_eq!(h.overflow, 0);
    let bucket_total: u64 = h.buckets.iter().map(|b| b.count).sum();
    assert_eq!(bucket_total, n as u64, "every sample lands in exactly one bucket");
}

#[test]
fn disabled_tracing_records_nothing_from_the_hot_paths() {
    let _g = trace_lock();
    dftrace::set_enabled(false);
    dftrace::reset();
    let _ = hot_path_bits();
    let report = dftrace::snapshot();
    assert!(report.spans.is_empty(), "spans recorded while disabled: {:?}", report.spans);
    assert!(report.counters.is_empty(), "counters recorded while disabled");
    assert!(report.histograms.is_empty(), "histograms recorded while disabled");
}
