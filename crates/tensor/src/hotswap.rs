//! Generation-stamped hot-swap of a model's weights.
//!
//! A [`HotSwap`] owns the **live weights** of one model as an immutable
//! [`ParamStore`] behind an `Arc`, stamped with a monotonically increasing
//! generation number. Publishing a snapshot (a training run's
//! [`ParamSnapshot`], a binary `DFWT` buffer, or a file) validates it
//! against the architecture and swaps the `Arc` — readers that already
//! cloned the previous generation keep scoring against it, later readers
//! pick up the new one, and nothing is ever mutated in place. Cache keys
//! that mix the generation in are therefore invalidated by *missing*, with
//! no flush. The fusion model (`dfserve::SnapshotRegistry`) and the docking
//! surrogate (`dfsurrogate::SurrogateRegistry`) are both instantiations.

use crate::params::{ParamSnapshot, ParamStore};
use crate::serialize::decode_snapshot;
use std::sync::{Arc, Mutex, MutexGuard};

/// What a [`HotSwap`] needs to know about the model whose weights it holds.
pub trait Architecture {
    /// `dftrace` counter bumped once per successful swap.
    const SWAP_COUNTER: &'static str;

    /// A freshly initialized store with this architecture's parameter
    /// names, shapes and order — generation 0, and the mould every
    /// published snapshot is validated against.
    fn fresh_params(&self) -> ParamStore;
}

/// One immutable published weight set.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Monotonic generation number (0 = the architecture's initial weights).
    pub generation: u64,
    /// The weights themselves.
    pub params: Arc<ParamStore>,
}

/// The hot-swap store. Cheap to share (`Arc<HotSwap<A>>`): producers
/// publish from any thread while scoring loops read.
#[derive(Debug)]
pub struct HotSwap<A> {
    arch: A,
    current: Mutex<Generation>,
}

impl<A: Architecture> HotSwap<A> {
    /// Builds the store; generation 0 is the architecture's initial weights.
    pub fn new(arch: A) -> HotSwap<A> {
        let params = Arc::new(arch.fresh_params());
        HotSwap { arch, current: Mutex::new(Generation { generation: 0, params }) }
    }

    /// The architecture snapshots are validated against.
    pub fn arch(&self) -> &A {
        &self.arch
    }

    /// The live generation (clone of the `Arc`, not the weights).
    pub fn current(&self) -> Generation {
        self.lock().clone()
    }

    /// Validates `snap` against the architecture (names, shapes, order)
    /// and swaps it in as the next generation. Returns the new generation
    /// number; a rejected snapshot consumes none.
    pub fn publish(&self, snap: &ParamSnapshot) -> Result<u64, String> {
        // Restore into a freshly-built store: exactly the mismatch checks
        // ParamStore::restore performs, against the real architecture.
        let mut staged = self.arch.fresh_params();
        staged.restore(snap)?;
        let params = Arc::new(staged);
        // Number and store under one lock, so racing publishers can never
        // make the live generation run backwards.
        let generation = {
            let mut live = self.lock();
            let generation = live.generation + 1;
            *live = Generation { generation, params };
            generation
        };
        dftrace::counter_add(A::SWAP_COUNTER, 1);
        Ok(generation)
    }

    /// Publishes from a binary `DFWT` snapshot buffer.
    pub fn publish_bytes(&self, bytes: &[u8]) -> Result<u64, String> {
        let snap = decode_snapshot(bytes).map_err(|e| e.to_string())?;
        self.publish(&snap)
    }

    /// Publishes from a `DFWT` snapshot file on disk.
    pub fn publish_file(&self, path: impl AsRef<std::path::Path>) -> Result<u64, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        self.publish_bytes(&bytes)
    }

    fn lock(&self) -> MutexGuard<'_, Generation> {
        self.current
            .lock()
            .expect("HotSwap critical sections (a clone, an assignment) cannot panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::encode_snapshot;
    use crate::Tensor;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    /// A two-parameter architecture of configurable width.
    #[derive(Debug)]
    struct Toy(usize);

    impl Architecture for Toy {
        const SWAP_COUNTER: &'static str = "test.hotswap.swaps";

        fn fresh_params(&self) -> ParamStore {
            let mut ps = ParamStore::new();
            ps.add("w", Tensor::zeros(&[self.0]));
            ps.add("b", Tensor::zeros(&[1]));
            ps
        }
    }

    /// A valid `Toy(3)` snapshot whose first weight is `mark`.
    fn marked(mark: f32) -> ParamSnapshot {
        let mut ps = Toy(3).fresh_params();
        let id = ps.iter().next().expect("toy has parameters").0;
        ps.value_mut(id).map_inplace(|_| mark);
        ps.snapshot()
    }

    fn first_weight(g: &Generation) -> f32 {
        let id = g.params.iter().next().expect("toy has parameters").0;
        g.params.value(id).data()[0]
    }

    #[test]
    fn generation_zero_serves_initial_weights() {
        let store = HotSwap::new(Toy(3));
        let g = store.current();
        assert_eq!(g.generation, 0);
        assert_eq!(g.params.num_scalars(), store.arch().fresh_params().num_scalars());
    }

    #[test]
    fn publish_swaps_bumps_generation_and_serves_exact_bits() {
        let store = HotSwap::new(Toy(3));
        let snap = marked(1.5);
        let held = store.current();
        assert_eq!(store.publish(&snap).expect("valid snapshot"), 1);
        let live = store.current();
        assert_eq!(live.generation, 1);
        assert_eq!(first_weight(&live).to_bits(), 1.5f32.to_bits());
        assert_eq!(first_weight(&held), 0.0, "a held generation is never mutated in place");
        // The binary round trip publishes generation 2 with identical bits,
        // from a buffer and from a file.
        let bytes = encode_snapshot(&marked(-0.0));
        assert_eq!(store.publish_bytes(&bytes).expect("dfwt"), 2);
        assert_eq!(first_weight(&store.current()).to_bits(), (-0.0f32).to_bits());
        let path = std::env::temp_dir().join(format!("hotswap_{}.dfwt", std::process::id()));
        std::fs::write(&path, &bytes).expect("write snapshot");
        assert_eq!(store.publish_file(&path).expect("dfwt file"), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejected_snapshots_keep_the_current_generation() {
        let store = HotSwap::new(Toy(3));
        let mut rogue = ParamStore::new();
        rogue.add("rogue", Tensor::zeros(&[2]));
        assert!(store.publish(&rogue.snapshot()).is_err(), "wrong names");
        assert!(store.publish(&Toy(4).fresh_params().snapshot()).is_err(), "wrong shape");
        assert!(store.publish_bytes(b"not a snapshot").is_err(), "undecodable bytes");
        assert!(store.publish_file("/nonexistent/weights.dfwt").is_err(), "unreadable file");
        assert_eq!(store.current().generation, 0, "failed publishes must not swap");
        assert_eq!(store.publish(&marked(1.0)).expect("valid"), 1, "and consume no number");
    }

    #[test]
    fn racing_publishers_never_run_the_generation_backwards() {
        const PUBLISHERS: usize = 4;
        const PER_THREAD: usize = 200;
        let store = HotSwap::new(Toy(3));
        let wrong_shape = Toy(4).fresh_params().snapshot();
        let start = Barrier::new(PUBLISHERS + 1);
        let done = AtomicBool::new(false);
        let mut numbers: Vec<u64> = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                start.wait();
                let (mut last, mut reads) = (0u64, 0u64);
                // Checked after the read, so the final generation is seen too.
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let g = store.current();
                    assert!(g.generation >= last, "generation ran {last} -> {}", g.generation);
                    last = g.generation;
                    reads += 1;
                    if finished {
                        return (last, reads);
                    }
                }
            });
            let publishers: Vec<_> = (0..PUBLISHERS)
                .map(|t| {
                    let (store, start, wrong_shape) = (&store, &start, &wrong_shape);
                    s.spawn(move || {
                        let snap = marked(t as f32);
                        start.wait();
                        let mut mine = Vec::with_capacity(PER_THREAD);
                        for i in 0..PER_THREAD {
                            if i % 3 == 0 {
                                assert!(store.publish(wrong_shape).is_err());
                            }
                            mine.push(store.publish(&snap).expect("valid snapshot"));
                        }
                        assert!(mine.windows(2).all(|w| w[0] < w[1]), "one thread's numbers rise");
                        mine
                    })
                })
                .collect();
            let numbers =
                publishers.into_iter().flat_map(|p| p.join().expect("publisher")).collect();
            done.store(true, Ordering::SeqCst);
            let (last, reads) = reader.join().expect("reader");
            assert!(reads > 0);
            assert_eq!(last, (PUBLISHERS * PER_THREAD) as u64, "reader ends on the final swap");
            numbers
        });
        // Every successful publish got its own number, 1..=total with no gap:
        // the rejected publishes in between consumed none.
        numbers.sort_unstable();
        let total = (PUBLISHERS * PER_THREAD) as u64;
        assert_eq!(numbers, (1..=total).collect::<Vec<u64>>());
        assert_eq!(store.current().generation, total);
    }
}
