//! Property-based tests for the `dfpool` work-stealing runtime.
//!
//! The pool's determinism contract — ordered collection, disjoint row
//! bands — must hold for **every** combination of input length, band
//! granularity and thread count, not just the sizes the hot paths happen
//! to use. These properties drive the primitives across that whole space
//! and require exact equality with the serial reference.

use dfpool::Pool;
use proptest::prelude::*;
use std::sync::Mutex;

/// Runs `parallel_rows` over `rows × row_len` elements and returns every
/// band as `(first_row, row_count)`, sorted by first row. Each band also
/// stamps its rows, and the stamps are checked: a band's slice must be
/// exactly the rows it was told it starts at.
fn bands(threads: usize, rows: usize, row_len: usize, min_rows: usize) -> Vec<(usize, usize)> {
    let seen = Mutex::new(Vec::new());
    let mut data = vec![usize::MAX; rows * row_len];
    Pool::new(threads).parallel_rows(&mut data, row_len, min_rows, |first, band| {
        for (r, row) in band.chunks_mut(row_len).enumerate() {
            row.fill(first + r);
        }
        seen.lock().unwrap().push((first, band.len() / row_len));
    });
    for (i, v) in data.iter().enumerate() {
        assert_eq!(*v, i / row_len, "element {i} not written by its own row's band");
    }
    let mut got = seen.into_inner().unwrap();
    got.sort_unstable();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `parallel_map` returns results positioned by input index.
    #[test]
    fn map_is_ordered_by_index(
        len in 0usize..200,
        min_chunk in 1usize..64,
        threads in 1usize..5,
    ) {
        let out = Pool::new(threads).parallel_map(len, min_chunk, |i| i * i + 1);
        prop_assert_eq!(out, (0..len).map(|i| i * i + 1).collect::<Vec<usize>>());
    }

    /// `parallel_rows` covers every row exactly once with contiguous,
    /// non-empty bands regardless of granularity and thread count.
    #[test]
    fn chunked_ranges_partition_the_input(
        rows in 0usize..200,
        row_len in 1usize..5,
        min_rows in 1usize..64,
        threads in 1usize..5,
    ) {
        let mut next = 0usize;
        for (first, count) in bands(threads, rows, row_len, min_rows) {
            prop_assert_eq!(first, next, "gap or overlap at {}", first);
            prop_assert!(count > 0, "empty band");
            next = first + count;
        }
        prop_assert_eq!(next, rows, "coverage stops early");
    }

    /// The invariant the banded GEMM relies on: on a multi-thread pool,
    /// once `min_rows` is at least `rows.div_ceil(4 * threads)`, the caller
    /// chooses the bands exactly — every band but the last is `min_rows`
    /// rows. (A one-thread pool runs one band, and GEMM never pools there.)
    #[test]
    fn min_rows_sets_every_band_but_the_last(
        rows in 1usize..400,
        extra in 0usize..64,
        threads in 2usize..5,
    ) {
        let min_rows = rows.div_ceil(4 * threads) + extra;
        let got = bands(threads, rows, 3, min_rows);
        let (_, last) = got[got.len() - 1];
        prop_assert!(last <= min_rows, "last band of {} rows", last);
        for &(first, count) in &got[..got.len() - 1] {
            prop_assert_eq!(count, min_rows, "band at row {} has {} rows", first, count);
        }
    }
}
