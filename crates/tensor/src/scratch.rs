//! Thread-aware scratch-buffer arena for the dense kernels.
//!
//! The GEMM-lowered kernels need short-lived staging buffers on every call:
//! zero-padded conv inputs, packed A/B panels, transposed gradient views. Allocating
//! them per call would put the allocator on the training and serving hot
//! paths, so each thread keeps one reusable buffer per [`Slot`] in a
//! thread-local arena. A buffer is *checked out* for the duration of a
//! closure and returned afterwards; repeated calls with the same slot on the
//! same thread (a training loop, a `dfserve` micro-batch stream, a pool
//! worker's band jobs) reuse the allocation.
//!
//! ## Contract
//!
//! * Checked-out buffers are **not** cleared: the slice handed to the
//!   closure may contain bytes from a previous checkout. Callers must fully
//!   overwrite every element they later read (the packing and padding
//!   routines do this by construction).
//! * Checkout is re-entrant-safe: if a slot is already checked out on this
//!   thread (a nested kernel using the same slot), the inner checkout falls
//!   back to a fresh allocation, counted as a miss.
//! * The arena is telemetry-visible through `dftrace`:
//!   `tensor.scratch.hits` / `tensor.scratch.misses` count checkouts served
//!   from a warm buffer vs. ones that (re)allocated, and
//!   `tensor.scratch.grow_bytes` sums the bytes newly allocated. With
//!   tracing off the counters cost one relaxed load each.

use std::cell::RefCell;

/// Named scratch buffers; each thread owns one buffer per slot. The slots
/// mirror the concurrent buffer needs of one kernel invocation — a conv3d
/// pass can hold `PaddedInput` + `GemmOut` + `PackB` on the calling thread
/// while band jobs hold `PackA`, without any slot being requested twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// Zero-padded conv3d input (`[samples, in_channels, D+2p, H+2p, W+2p]`)
    /// that the forward and weight-gradient A packer gathers from — the
    /// only copy of the input those passes make, in place of a
    /// `[spatial, in_channels * kernel volume]` column matrix.
    PaddedInput,
    /// GEMM destination staging (e.g. the spatial-major conv output that is
    /// transposed into the tensor layout afterwards), and the conv3d
    /// scatter's spatial-major accumulator.
    GemmOut,
    /// Packed A panels (per band job, inside the GEMM).
    PackA,
    /// Packed B panels (whole-matrix, on the GEMM calling thread), and the
    /// conv3d scatter's `[in_channels, tap, out_channels]` weights.
    PackB,
    /// Transposed upstream gradient (`[spatial, out_channels]`).
    GradT,
}

const NUM_SLOTS: usize = 5;

impl Slot {
    fn index(self) -> usize {
        match self {
            Slot::PaddedInput => 0,
            Slot::GemmOut => 1,
            Slot::PackA => 2,
            Slot::PackB => 3,
            Slot::GradT => 4,
        }
    }
}

thread_local! {
    /// One parked buffer per slot; `None` while checked out.
    static ARENA: RefCell<[Option<Vec<f32>>; NUM_SLOTS]> = const {
        RefCell::new([Some(Vec::new()), Some(Vec::new()), Some(Vec::new()), Some(Vec::new()), Some(Vec::new())])
    };
}

/// Checks out this thread's buffer for `slot`, resized to exactly `len`
/// elements, and runs `f` on it. Contents are unspecified on entry (see the
/// module contract); the buffer returns to the arena when `f` finishes, so
/// the next checkout on this thread reuses the allocation.
pub fn with<R>(slot: Slot, len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let parked = ARENA.with(|a| a.borrow_mut()[slot.index()].take());
    let was_parked = parked.is_some();
    let mut buf = match parked {
        Some(b) => {
            if b.capacity() >= len {
                dftrace::counter_add("tensor.scratch.hits", 1);
            } else {
                dftrace::counter_add("tensor.scratch.misses", 1);
                dftrace::counter_add(
                    "tensor.scratch.grow_bytes",
                    ((len - b.capacity()) * std::mem::size_of::<f32>()) as u64,
                );
            }
            b
        }
        // Slot already checked out on this thread (nested use): fall back
        // to a fresh allocation that is dropped on return.
        None => {
            dftrace::counter_add("tensor.scratch.misses", 1);
            dftrace::counter_add(
                "tensor.scratch.grow_bytes",
                (len * std::mem::size_of::<f32>()) as u64,
            );
            Vec::new()
        }
    };
    // `resize` zero-fills growth beyond the current length but leaves
    // existing elements as-is — callers must overwrite what they read.
    buf.resize(len, 0.0);
    struct Park {
        slot: usize,
        park: bool,
        buf: Vec<f32>,
    }
    impl Drop for Park {
        fn drop(&mut self) {
            if self.park {
                let buf = std::mem::take(&mut self.buf);
                ARENA.with(|a| a.borrow_mut()[self.slot] = Some(buf));
            }
        }
    }
    let mut guard = Park { slot: slot.index(), park: was_parked, buf };
    f(&mut guard.buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_reused_across_checkouts() {
        let first_ptr = with(Slot::PaddedInput, 1024, |b| {
            b.fill(1.0);
            b.as_ptr() as usize
        });
        let second_ptr = with(Slot::PaddedInput, 512, |b| {
            assert_eq!(b.len(), 512);
            b.as_ptr() as usize
        });
        assert_eq!(first_ptr, second_ptr, "same-thread checkout should reuse the allocation");
    }

    #[test]
    fn nested_same_slot_checkout_gets_a_fresh_buffer() {
        with(Slot::PackA, 64, |outer| {
            outer.fill(7.0);
            with(Slot::PackA, 64, |inner| {
                inner.fill(9.0);
            });
            assert!(outer.iter().all(|&v| v == 7.0), "inner checkout must not alias the outer");
        });
    }

    #[test]
    fn distinct_slots_are_live_simultaneously() {
        with(Slot::PaddedInput, 16, |a| {
            a.fill(1.0);
            with(Slot::PackB, 16, |b| {
                b.fill(2.0);
                assert!(a.iter().all(|&v| v == 1.0));
                assert!(b.iter().all(|&v| v == 2.0));
            });
        });
    }

    #[test]
    fn checkout_resizes_to_requested_length() {
        with(Slot::GradT, 3, |b| assert_eq!(b.len(), 3));
        with(Slot::GradT, 9, |b| assert_eq!(b.len(), 9));
        with(Slot::GradT, 0, |b| assert!(b.is_empty()));
    }
}
