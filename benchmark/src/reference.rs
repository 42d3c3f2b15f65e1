//! A fixed piece of work, owned by the benchmark and built on `std` alone,
//! timed throughout every run: how fast is the host *right now*?
//!
//! The host this benchmark was frozen on is a shared guest whose cores run
//! the same binary up to 1.6x slower for minutes at a time. Nothing the
//! repository does can change how long this kernel takes, so the ratio of a
//! run's reference time to the nominal one is the host's share of a slow
//! run, and the end-to-end times are reported with it divided out (the raw
//! times are printed beside them). Measured over 12-second windows of
//! alternating reference and work, dividing it out cut the window-to-window
//! quartile spread from 12.7 % to 3.7 % (`library_screen`), 14.7 % to 8.2 %
//! (`pose_rescore`), 12.0 % to 6.8 % (`funnel_campaign`) and 8.0 % to 5.1 %
//! (`serve_zipf`). Slow stretches hit allocation and cache traffic harder
//! than register arithmetic (+65 % against +13 % in the same minutes), so
//! the kernel is a mix of both.

use std::time::Instant;

/// Arithmetic in registers and first-level cache: integer mixing and
/// floating-point multiply-add over 3 KiB.
fn compute_kernel(rounds: u32) -> u64 {
    let mut x = [0u64; 256];
    let mut f = [1.0f32; 256];
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for r in 0..rounds {
        for i in 0..256 {
            h = (h ^ (h >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(r as u64 + i as u64);
            x[i] = x[i].wrapping_add(h);
            f[i] = f[i] * 1.000_001 + (h & 0xff) as f32 * 1e-9;
        }
    }
    x.iter().fold(h, |a, b| a ^ b) ^ f.iter().sum::<f32>() as u64
}

/// Many small allocations, writes and frees, the shape of molecule and
/// graph construction: allocator and cache traffic.
fn allocation_kernel(rounds: u32) -> u64 {
    let mut acc = 0u64;
    for r in 0..rounds {
        let vectors: Vec<Vec<u64>> =
            (0..64u64).map(|i| (0..8 + i % 24).map(|k| k ^ r as u64).collect()).collect();
        let names: Vec<String> = (0..16).map(|i| format!("atom-{r}-{i}")).collect();
        acc = acc
            .wrapping_add(vectors.iter().flatten().sum::<u64>())
            .wrapping_add(names.iter().map(|s| s.len() as u64).sum::<u64>());
    }
    acc
}

/// What [`measure_ms`] reads on the frozen host (2 lanes, 2.1 GHz Xeon
/// guest) when nobody else is using it: the quiet-quarter mean over the
/// builder's runs. On another kind of host the normalized figures are all
/// off by one common factor, and comparisons between commits still hold.
pub const NOMINAL_MS: f64 = 47.5;

/// Wall milliseconds for `lanes` threads to each run both kernels.
pub fn measure_ms(lanes: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..lanes {
            s.spawn(|| {
                std::hint::black_box(compute_kernel(std::hint::black_box(30_000)));
                std::hint::black_box(allocation_kernel(std::hint::black_box(8_000)));
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_are_fixed_work() {
        assert_eq!(compute_kernel(500), compute_kernel(500));
        assert_ne!(compute_kernel(500), compute_kernel(501));
        assert_eq!(allocation_kernel(50), allocation_kernel(50));
        assert_ne!(allocation_kernel(50), allocation_kernel(51));
        assert!(measure_ms(2) > 1.0, "the reference must take long enough to time");
    }
}
