//! Concurrent output-tile stores.
//!
//! `StoreTile` writes each finished output tile directly into the
//! shared **C** buffer from whichever worker thread owns the tile —
//! the same concurrent store pattern a GPU kernel uses. Tiles are
//! disjoint 2-D regions of **C**, and the decomposition invariant
//! "every tile has exactly one owner" (checked by
//! `Decomposition::validate` before execution) guarantees no two
//! threads ever write the same element.
//!
//! Rust cannot prove that disjointness through types, so this module
//! contains the workspace's only `unsafe` code: a raw-pointer window
//! into **C** with the safety argument above. Debug builds
//! additionally assert the one-writer-per-tile invariant at runtime.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use streamk_types::Layout;

/// A write-only window over the output matrix's backing storage,
/// shareable across worker threads.
pub(crate) struct TileWriter<'a, Acc> {
    ptr: *mut Acc,
    rows: usize,
    cols: usize,
    layout: Layout,
    /// One byte per tile, flipped on first store (debug protocol
    /// check).
    written: Vec<AtomicU8>,
    _marker: PhantomData<&'a mut [Acc]>,
}

// SAFETY: `TileWriter` only writes through `ptr`, and the execution
// protocol guarantees each element is written by exactly one thread
// (disjoint tile ownership). The borrow of the underlying slice is
// held for `'a`, preventing any other access to the buffer while the
// writer exists.
unsafe impl<Acc: Send> Send for TileWriter<'_, Acc> {}
unsafe impl<Acc: Send> Sync for TileWriter<'_, Acc> {}

impl<'a, Acc: Copy> TileWriter<'a, Acc> {
    /// Wraps the output buffer. `data` must be the `rows × cols`
    /// backing storage in `layout` order; `tiles` is the output-tile
    /// count (for the debug one-writer check).
    pub(crate) fn new(data: &'a mut [Acc], rows: usize, cols: usize, layout: Layout, tiles: usize) -> Self {
        assert_eq!(data.len(), layout.storage_len(rows, cols), "backing storage size mismatch");
        Self {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            layout,
            written: (0..tiles).map(|_| AtomicU8::new(0)).collect(),
            _marker: PhantomData,
        }
    }
}

impl<Acc: streamk_matrix::Scalar> TileWriter<'_, Acc> {
    /// Stores a finished tile through the epilogue
    /// `C_tile = α·accum + β·C_tile`: `accum` is a row-major
    /// `blk_m × blk_n` scratch tile; only the clamped
    /// `row_range × col_range` region is written. Reading the old
    /// tile value is safe for the same reason writing is: this thread
    /// is the tile's sole owner and no other access to the buffer
    /// exists while the writer holds its exclusive borrow. With
    /// `β = 0` the old value is never read (BLAS convention — an
    /// uninitialized or NaN-filled C is fine).
    ///
    /// # Panics
    ///
    /// Panics if the same tile is stored twice (protocol violation) or
    /// the ranges exceed the matrix extents.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn store_tile_ex(
        &self,
        tile_idx: usize,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
        blk_n: usize,
        accum: &[Acc],
        alpha: Acc,
        beta: Acc,
    ) {
        assert!(row_range.end <= self.rows && col_range.end <= self.cols, "tile range out of bounds");
        let prev = self.written[tile_idx].swap(1, Ordering::Relaxed);
        assert_eq!(prev, 0, "tile {tile_idx} stored twice");

        for (ti, r) in row_range.clone().enumerate() {
            for (tj, c) in col_range.clone().enumerate() {
                let offset = self.layout.index(r, c, self.rows, self.cols);
                let scaled = alpha * accum[ti * blk_n + tj];
                // SAFETY: offset < the layout's storage length by the
                // bounds assertion; unique tile ownership (asserted
                // above) makes this thread the only accessor of the
                // element, and no other access to the buffer exists
                // while the exclusive borrow is held.
                unsafe {
                    let cell = self.ptr.add(offset);
                    *cell = if beta == Acc::ZERO { scaled } else { scaled + beta * *cell };
                }
            }
        }
    }
}

/// A tile writer that *owns* its output buffer — the serve layer's
/// variant of [`TileWriter`].
///
/// The borrowing writer works when one launcher thread owns the
/// output matrix for the whole launch. The serve path has no such
/// thread: a request's output must outlive the submitting caller's
/// stack frame and be finished by whichever worker stores the last
/// tile. `OwnedTileWriter` therefore owns the buffer, accepts
/// concurrent disjoint-tile stores through `&self` exactly like
/// [`TileWriter`], and releases the buffer once through
/// [`take`](Self::take).
///
/// # Safety protocol
///
/// Stores rely on the same "every tile has exactly one owner"
/// decomposition invariant as [`TileWriter`]. `take` is safe because
/// the caller only invokes it after *all* tiles are stored and a
/// happens-before edge from every store exists (in the serve layer: a
/// `fetch_add(AcqRel)` tiles-done counter reaching the total, then a
/// compare-and-swap on the request state that only one thread can
/// win). The `taken` flag additionally makes a second `take` panic
/// instead of racing.
pub(crate) struct OwnedTileWriter<Acc> {
    buf: UnsafeCell<Vec<Acc>>,
    /// Cached data pointer of `buf` — stable because the buffer is
    /// never grown, only written in place and finally swapped out.
    ptr: *mut Acc,
    rows: usize,
    cols: usize,
    layout: Layout,
    written: Vec<AtomicU8>,
    taken: AtomicBool,
}

// SAFETY: all mutation goes through raw-pointer tile stores guarded
// by the one-writer-per-tile invariant (checked by `written`), and
// `take` swaps the buffer out exactly once (guarded by `taken`) after
// the caller has established happens-before with every store. `Acc:
// Send` is required because buffers move across threads.
unsafe impl<Acc: Send> Send for OwnedTileWriter<Acc> {}
unsafe impl<Acc: Send> Sync for OwnedTileWriter<Acc> {}

impl<Acc: Copy + Default> OwnedTileWriter<Acc> {
    /// A zero-filled `rows × cols` output buffer in `layout` order,
    /// accepting `tiles` tile stores.
    pub(crate) fn new(rows: usize, cols: usize, layout: Layout, tiles: usize) -> Self {
        let mut data = vec![Acc::default(); layout.storage_len(rows, cols)];
        let ptr = data.as_mut_ptr();
        Self {
            buf: UnsafeCell::new(data),
            ptr,
            rows,
            cols,
            layout,
            written: (0..tiles).map(|_| AtomicU8::new(0)).collect(),
            taken: AtomicBool::new(false),
        }
    }

    /// Stores a finished tile: [`TileWriter::store_tile_ex`] with
    /// `α = 1, β = 0`.
    ///
    /// # Panics
    ///
    /// Panics if the same tile is stored twice, the ranges exceed the
    /// matrix extents, or the buffer was already taken.
    pub(crate) fn store_tile(
        &self,
        tile_idx: usize,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
        blk_n: usize,
        accum: &[Acc],
    ) {
        assert!(row_range.end <= self.rows && col_range.end <= self.cols, "tile range out of bounds");
        assert!(!self.taken.load(Ordering::Relaxed), "store after take");
        let prev = self.written[tile_idx].swap(1, Ordering::Relaxed);
        assert_eq!(prev, 0, "tile {tile_idx} stored twice");

        for (ti, r) in row_range.clone().enumerate() {
            for (tj, c) in col_range.clone().enumerate() {
                let offset = self.layout.index(r, c, self.rows, self.cols);
                // SAFETY: offset < the layout's storage length by the bounds assertions;
                // no other thread writes this element (unique tile
                // ownership, asserted above) and no reader exists
                // until `take`, which happens-after every store.
                unsafe {
                    *self.ptr.add(offset) = accum[ti * blk_n + tj];
                }
            }
        }
    }

    /// Releases the finished buffer. Callable exactly once, and only
    /// after the caller has synchronized with every store (see the
    /// type-level safety protocol).
    ///
    /// # Panics
    ///
    /// Panics on a second take.
    pub(crate) fn take(&self) -> Vec<Acc> {
        let prev = self.taken.swap(true, Ordering::AcqRel);
        assert!(!prev, "output buffer taken twice");
        // SAFETY: the swap above admits exactly one thread; the caller
        // guarantees all tile stores happen-before this point, so no
        // concurrent access to the cell exists.
        unsafe { std::mem::take(&mut *self.buf.get()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_land_in_layout_order() {
        let mut buf = vec![0.0f64; 6];
        {
            let w = TileWriter::new(&mut buf, 2, 3, Layout::RowMajor, 1);
            w.store_tile_ex(0, 0..2, 0..3, 4, &[1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0], 1.0, 0.0);
        }
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn partial_tile_leaves_rest_untouched() {
        let mut buf = vec![9.0f64; 9];
        {
            let w = TileWriter::new(&mut buf, 3, 3, Layout::RowMajor, 4);
            w.store_tile_ex(3, 2..3, 2..3, 2, &[7.0, 0.0, 0.0, 0.0], 1.0, 0.0);
        }
        assert_eq!(buf[8], 7.0);
        assert!(buf[..8].iter().all(|&v| v == 9.0));
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn double_store_panics() {
        let mut buf = vec![0.0f64; 4];
        let w = TileWriter::new(&mut buf, 2, 2, Layout::RowMajor, 1);
        w.store_tile_ex(0, 0..1, 0..1, 1, &[1.0], 1.0, 0.0);
        w.store_tile_ex(0, 0..1, 0..1, 1, &[2.0], 1.0, 0.0);
    }

    #[test]
    fn owned_writer_round_trips_concurrent_stores() {
        let w = OwnedTileWriter::<f64>::new(4, 4, Layout::RowMajor, 4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let w = &w;
                scope.spawn(move || {
                    let (r0, c0) = (t / 2 * 2, t % 2 * 2);
                    w.store_tile(t, r0..r0 + 2, c0..c0 + 2, 2, &[t as f64; 4]);
                });
            }
        });
        let buf = w.take();
        assert_eq!(buf.len(), 16);
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[2], 1.0);
        assert_eq!(buf[8], 2.0);
        assert_eq!(buf[10], 3.0);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn owned_writer_double_take_panics() {
        let w = OwnedTileWriter::<f64>::new(2, 2, Layout::RowMajor, 1);
        let _ = w.take();
        let _ = w.take();
    }

    #[test]
    #[should_panic(expected = "stored twice")]
    fn owned_writer_double_store_panics() {
        let w = OwnedTileWriter::<f64>::new(2, 2, Layout::RowMajor, 1);
        w.store_tile(0, 0..1, 0..1, 1, &[1.0]);
        w.store_tile(0, 0..1, 0..1, 1, &[2.0]);
    }

    #[test]
    fn concurrent_disjoint_tiles() {
        let mut buf = vec![0.0f64; 16];
        {
            let w = TileWriter::new(&mut buf, 4, 4, Layout::RowMajor, 4);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let w = &w;
                    scope.spawn(move || {
                        let (r0, c0) = (t / 2 * 2, t % 2 * 2);
                        w.store_tile_ex(t, r0..r0 + 2, c0..c0 + 2, 2, &[t as f64; 4], 1.0, 0.0);
                    });
                }
            });
        }
        assert_eq!(buf[0], 0.0);
        assert_eq!(buf[2], 1.0);
        assert_eq!(buf[8], 2.0);
        assert_eq!(buf[10], 3.0);
    }
}
