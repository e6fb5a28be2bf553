//! Grid-shared operand panel cache: pack each panel once per GEMM.
//!
//! Stream-K deliberately makes many CTAs traverse the same output
//! tile's k-iterations (that is the whole fixup story of Algorithms
//! 4-5), and every CTA in a tile *row* reads the same A row-panel
//! while every CTA in a tile *column* reads the same B column-panel.
//! The per-worker [`PackBuffers`] pipeline therefore re-packs each
//! panel once per CTA segment. [`PackCache`] hoists that work to the
//! launch level: one lazily-packed, full-k panel per tile row of A
//! and per tile column of B, shared by every worker.
//!
//! **Claim/publish protocol.** Each panel slot carries a three-state
//! atomic flag, a sibling of the fixup board's:
//!
//! - *empty* → *packing*: the first CTA to touch the panel wins a CAS
//!   and packs into the slot (under its write lock);
//! - *packing* → *ready*: the packer publishes with a release-store;
//!   later CTAs acquire-load the flag and read the shared panel —
//!   the same happens-before edge the fixup `Signal`/`Wait` uses.
//! - A CTA that loses the claim race descends the *same*
//!   spin → yield → park backoff ladder as the fixup wait
//!   ([`WaitPolicy::wait_until`]). If the packer stalls past the
//!   watchdog (it shares the executor's deadline), the waiter falls
//!   back to private per-CTA packing — the cache is a pure
//!   optimization and can never deadlock a launch or change results.
//!
//! Panels span the problem's **full k-extent** and are k-major, so a
//! segment's `[k_begin, k_end)` sub-range is one contiguous slice of
//! each `MR`/`NR` sub-panel — no per-segment copying at all
//! ([`mac_loop_cached`]). [`PackCache::packs`] counts actual pack
//! executions so tests can pin the pack-exactly-once property.
//!
//! **Sharding.** A single grid-shared table makes every worker read
//! panels another core packed, so each panel line ping-pongs between
//! caches for the whole launch. [`PackCache::sharded`] keeps one slot
//! table *per worker group*: workers pass their shard (their pool
//! `wid`) to [`a_panel`](PackCache::a_panel)/
//! [`b_panel`](PackCache::b_panel) and pack private copies that stay
//! resident in their own cache hierarchy. The scheduler hands each
//! worker a contiguous CTA range, so a shard re-packs only the panels
//! its own tiles touch — duplicated pack work is bounded by the range
//! seams — and stolen CTAs use the *thief's* shard, keeping reads
//! local even under imbalance.
//!
//! **Zero-pack bypass.** Block-major operands need no packing at all:
//! a [`Layout::BlockMajor`](streamk_types::Layout) matrix's storage
//! *is* the packed-A panel table with `MR = FRAG` (and a transposed
//! block-major view is the packed-B table with `NR = FRAG`), so
//! [`mac_loop_kernel_cached`] hands the microkernel slices of the
//! matrix's own storage whenever the kernel's register block and the
//! tile geometry line up — no cache slot, no copy, no wait.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

use streamk_core::IterSpace;
use streamk_matrix::{pack_a_into, pack_b_into, MatrixView, Promote, Scalar};
use streamk_types::FRAG;

use crate::fixup::WaitPolicy;
use crate::pad::CachePadded;
use crate::microkernel::{mac_loop_cached, mac_loop_kernel, KernelKind, PackBuffers, PanelSpan};
use crate::simd::SimdLevel;

const EMPTY: u32 = 0;
const PACKING: u32 = 1;
const READY: u32 = 2;

/// One lazily-packed panel: the publish flag plus the panel storage.
#[derive(Debug)]
struct PanelSlot<In> {
    state: AtomicU32,
    data: RwLock<Vec<In>>,
}

impl<In> PanelSlot<In> {
    fn new() -> Self {
        Self { state: AtomicU32::new(EMPTY), data: RwLock::new(Vec::new()) }
    }
}

/// A read-locked view of one published panel.
pub struct PanelGuard<'c, In>(RwLockReadGuard<'c, Vec<In>>);

impl<In> std::ops::Deref for PanelGuard<'_, In> {
    type Target = [In];

    fn deref(&self) -> &[In] {
        &self.0
    }
}

/// Per-launch shared tables of packed operand panels: one full-k A
/// row-panel per tile row, one full-k B column-panel per tile column
/// *per shard*, each packed exactly once per shard by whichever CTA
/// claims it first.
#[derive(Debug)]
pub struct PackCache<In> {
    space: IterSpace,
    mr: usize,
    nr: usize,
    shards: usize,
    a: Vec<CachePadded<PanelSlot<In>>>,
    b: Vec<CachePadded<PanelSlot<In>>>,
    policy: WaitPolicy,
    packs: AtomicUsize,
    fallbacks: AtomicUsize,
}

impl<In> PackCache<In> {
    /// Number of independent slot tables.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The register block this cache packs for.
    #[must_use]
    pub fn register_block(&self) -> (usize, usize) {
        (self.mr, self.nr)
    }

    /// Number of panels actually packed so far (A and B combined,
    /// across all shards). A single-shard launch that used the cache
    /// for every segment packs exactly [`panels`](Self::panels); a
    /// sharded launch packs each panel at most once *per shard that
    /// touched it*.
    #[must_use]
    pub fn packs(&self) -> usize {
        self.packs.load(Ordering::Relaxed)
    }

    /// Number of watchdog-expired waits that fell back to private
    /// packing (expected to be zero outside fault scenarios).
    #[must_use]
    pub fn fallbacks(&self) -> usize {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Total slots this cache manages:
    /// `shards · (tiles_m + tiles_n)`.
    #[must_use]
    pub fn panels(&self) -> usize {
        self.a.len() + self.b.len()
    }
}

impl<In: Copy + Default> PackCache<In> {
    /// A single-shard (grid-shared) cache for `space` with register
    /// block `(mr, nr)`; waiters on an in-flight pack follow
    /// `policy`'s backoff ladder and give up (falling back to private
    /// packing) at its watchdog.
    ///
    /// # Panics
    ///
    /// Panics if `mr` or `nr` is zero.
    #[must_use]
    pub fn new(space: &IterSpace, mr: usize, nr: usize, policy: WaitPolicy) -> Self {
        Self::sharded(space, mr, nr, policy, 1)
    }

    /// A cache with `shards` independent slot tables. Workers address
    /// their own shard (normally their pool `wid`), so published
    /// panels stay resident in the packer's cache hierarchy instead of
    /// ping-ponging between cores.
    ///
    /// # Panics
    ///
    /// Panics if `mr`, `nr`, or `shards` is zero.
    #[must_use]
    pub fn sharded(
        space: &IterSpace,
        mr: usize,
        nr: usize,
        policy: WaitPolicy,
        shards: usize,
    ) -> Self {
        assert!(mr > 0 && nr > 0, "register block must be positive");
        assert!(shards > 0, "cache needs at least one shard");
        Self {
            space: space.clone(),
            mr,
            nr,
            shards,
            a: (0..shards * space.tiles_m()).map(|_| CachePadded::new(PanelSlot::new())).collect(),
            b: (0..shards * space.tiles_n()).map(|_| CachePadded::new(PanelSlot::new())).collect(),
            policy,
            packs: AtomicUsize::new(0),
            fallbacks: AtomicUsize::new(0),
        }
    }

    /// A single-shard cache serving the register block `kind` runs on
    /// `space`'s tiles (see [`KernelKind::fit`]), or `None` for
    /// kernels that do not consume packed panels (scalar / blocked).
    #[must_use]
    pub fn for_kernel(space: &IterSpace, kind: KernelKind, policy: WaitPolicy) -> Option<Self> {
        Self::for_kernel_sharded(space, kind, policy, 1)
    }

    /// A `shards`-way cache serving `kind`'s register block; as
    /// [`for_kernel`](Self::for_kernel).
    #[must_use]
    pub fn for_kernel_sharded(
        space: &IterSpace,
        kind: KernelKind,
        policy: WaitPolicy,
        shards: usize,
    ) -> Option<Self> {
        kind.fit(space.tile().blk_n)
            .register_block()
            .map(|(mr, nr)| Self::sharded(space, mr, nr, policy, shards))
    }

    /// The A row-panel for tile row `tm` in `shard`'s table, packing
    /// it first if this caller wins the claim. `shard` wraps modulo
    /// [`shards`](Self::shards) so callers can pass a raw worker id.
    /// `None` when a competing packer stalled past the watchdog — the
    /// caller must pack privately.
    pub fn a_panel<'c>(
        &'c self,
        a: &MatrixView<'_, In>,
        tm: usize,
        shard: usize,
    ) -> Option<PanelGuard<'c, In>> {
        let shape = self.space.shape();
        let blk_m = self.space.tile().blk_m;
        let rows = tm * blk_m..shape.m.min((tm + 1) * blk_m);
        let mr = self.mr;
        let slot = &self.a[(shard % self.shards) * self.space.tiles_m() + tm];
        self.fetch(slot, tm as u32, 0, |out| pack_a_into(a, rows, 0..shape.k, mr, out))
    }

    /// The B column-panel for tile column `tn` in `shard`'s table; as
    /// [`a_panel`](Self::a_panel).
    pub fn b_panel<'c>(
        &'c self,
        b: &MatrixView<'_, In>,
        tn: usize,
        shard: usize,
    ) -> Option<PanelGuard<'c, In>> {
        let shape = self.space.shape();
        let blk_n = self.space.tile().blk_n;
        let cols = tn * blk_n..shape.n.min((tn + 1) * blk_n);
        let nr = self.nr;
        let slot = &self.b[(shard % self.shards) * self.space.tiles_n() + tn];
        self.fetch(slot, tn as u32, 1, |out| pack_b_into(b, 0..shape.k, cols, nr, out))
    }

    /// The claim/publish core shared by both operand tables. `tag` and
    /// `operand` (0 = A, 1 = B) label the pack span in traces.
    fn fetch<'c>(
        &'c self,
        slot: &'c PanelSlot<In>,
        tag: u32,
        operand: u32,
        pack: impl FnOnce(&mut Vec<In>),
    ) -> Option<PanelGuard<'c, In>> {
        // Fast path: already published. The acquire-load pairs with
        // the packer's release-store, making the panel data visible.
        if slot.state.load(Ordering::Acquire) == READY {
            return Some(Self::read(slot));
        }
        if slot.state.compare_exchange(EMPTY, PACKING, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            // This CTA won the claim: pack, then publish.
            let t0 = crate::trace::start();
            {
                let mut guard =
                    slot.data.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                pack(&mut guard);
            }
            self.packs.fetch_add(1, Ordering::Relaxed);
            slot.state.store(READY, Ordering::Release);
            crate::trace::finish(crate::trace::SpanKind::PackCached, t0, tag, operand);
            return Some(Self::read(slot));
        }
        // Lost the race: another CTA is packing (or just published).
        // Descend the fixup board's backoff ladder on the flag.
        match self
            .policy
            .wait_until(|| (slot.state.load(Ordering::Acquire) == READY).then_some(()))
        {
            Ok(()) => Some(Self::read(slot)),
            Err(_) => {
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn read<'c>(slot: &'c PanelSlot<In>) -> PanelGuard<'c, In> {
        // By protocol no writer touches a READY slot again, so this
        // read lock is uncontended.
        PanelGuard(slot.data.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

/// The slice of a full-matrix block-major panel table covering one
/// output tile's sub-panels, plus its k-window. Returns `None` unless
/// the tile grid lands on fragment boundaries (`blk % FRAG == 0`), so
/// a tile's sub-panels are a contiguous run of the matrix's fragment
/// row-panels.
fn bypass_slice<In>(
    table: &[In],
    k_pad: usize,
    tile_origin: usize,
    extent: usize,
    blk: usize,
) -> Option<(&[In], PanelSpan)> {
    if !blk.is_multiple_of(FRAG) {
        return None;
    }
    let stride = k_pad * FRAG;
    let p0 = tile_origin * blk / FRAG;
    let count = extent.div_ceil(FRAG);
    Some((&table[p0 * stride..(p0 + count) * stride], PanelSpan { k0: 0, k_cap: k_pad }))
}

/// [`mac_loop_kernel`] with packed panels served zero-copy from
/// block-major operand storage or from `cache` when possible. The one
/// cached dispatch point behind the executors:
///
/// - **Zero-pack bypass**: an untransposed full-matrix `BlockMajor` A
///   view whose storage is consumable by an `MR == FRAG` kernel (and
///   likewise a transposed block-major B view for `NR == FRAG`
///   kernels) is handed to the microkernel as slices of its own
///   storage — nothing is packed and the cache is not touched for
///   that operand;
/// - operands the bypass cannot serve come from `cache`'s `shard`
///   table (packed once per shard);
/// - when only **one** operand found a table, the other is packed
///   privately for just the segment's k-range — so e.g. a block-major
///   A still skips all A packing even with no cache at all;
/// - kernels that do not consume panels (scalar / blocked), or a
///   launch where *neither* operand has a table (no bypass and a
///   `None`/mismatched cache or watchdog-expired wait), fall back to
///   [`mac_loop_kernel`]'s private-pack path.
///
/// Every path feeds the microkernel the same ascending-k operand
/// sequence, so the result is bit-exact with the uncached pipeline.
/// `kind` is [fitted](KernelKind::fit) to the tile width first, as in
/// [`mac_loop_kernel`] and [`PackCache::for_kernel`].
///
/// # Panics
///
/// As [`mac_loop_kernel`].
#[allow(clippy::too_many_arguments)]
pub fn mac_loop_kernel_cached<In, Acc>(
    kind: KernelKind,
    cache: Option<&PackCache<In>>,
    shard: usize,
    a: &MatrixView<'_, In>,
    b: &MatrixView<'_, In>,
    space: &IterSpace,
    tile_idx: usize,
    local_begin: usize,
    local_end: usize,
    accum: &mut [Acc],
    bufs: &mut PackBuffers<In>,
) where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let tile = space.tile();
    let kind = kind.fit(tile.blk_n);
    let fallback = |accum: &mut [Acc], bufs: &mut PackBuffers<In>| {
        mac_loop_kernel(kind, a, b, space, tile_idx, local_begin, local_end, accum, bufs);
    };
    let Some((mr, nr)) = kind.register_block() else {
        return fallback(accum, bufs);
    };
    if local_begin >= local_end {
        return;
    }
    let (tm, tn) = space.tile_coords(tile_idx);
    let (rows, cols) = space.tile_extents(tile_idx);

    // Zero-pack bypass: block-major storage already *is* the panel
    // table (see `pack.rs`'s pinning tests), so slice it directly.
    let a_direct = (mr == FRAG)
        .then(|| a.block_panels())
        .flatten()
        .and_then(|(t, k_pad)| bypass_slice(t, k_pad, tm, rows.len(), tile.blk_m));
    let b_direct = (nr == FRAG)
        .then(|| b.t_block_panels())
        .flatten()
        .and_then(|(t, k_pad)| bypass_slice(t, k_pad, tn, cols.len(), tile.blk_n));

    // The cache covers whatever the bypass could not.
    let cache = cache.filter(|c| c.register_block() == (mr, nr));
    let a_guard =
        if a_direct.is_none() { cache.and_then(|c| c.a_panel(a, tm, shard)) } else { None };
    let b_guard =
        if b_direct.is_none() { cache.and_then(|c| c.b_panel(b, tn, shard)) } else { None };
    if a_direct.is_none() && a_guard.is_none() && b_direct.is_none() && b_guard.is_none() {
        return fallback(accum, bufs);
    }

    let k_total = space.shape().k;
    let k_begin = space.k_extents(local_begin).start;
    let k_end = space.k_extents(local_end - 1).end;
    let seg_span = PanelSpan { k0: k_begin, k_cap: k_end - k_begin };

    // Resolve each operand to (slice, span); an operand with neither
    // bypass nor cache is packed privately for just this segment.
    let (a_slice, a_span): (&[In], PanelSpan) = if let Some(direct) = a_direct {
        direct
    } else if let Some(g) = a_guard.as_deref() {
        (g, PanelSpan::full(k_total))
    } else {
        let t0 = crate::trace::start();
        pack_a_into(a, rows, k_begin..k_end, mr, &mut bufs.a);
        crate::trace::finish(crate::trace::SpanKind::PackPrivate, t0, tile_idx as u32, (k_end - k_begin) as u32);
        (&bufs.a, seg_span)
    };
    let (b_slice, b_span): (&[In], PanelSpan) = if let Some(direct) = b_direct {
        direct
    } else if let Some(g) = b_guard.as_deref() {
        (g, PanelSpan::full(k_total))
    } else {
        let t0 = crate::trace::start();
        pack_b_into(b, k_begin..k_end, cols, nr, &mut bufs.b);
        crate::trace::finish(crate::trace::SpanKind::PackPrivate, t0, tile_idx as u32, (k_end - k_begin) as u32);
        (&bufs.b, seg_span)
    };

    let level = kind.is_simd().then(SimdLevel::detect);
    macro_rules! run {
        ($mr:literal, $nr:literal) => {
            mac_loop_cached::<In, Acc, $mr, $nr>(
                level, a_slice, a_span, b_slice, b_span, space, tile_idx, local_begin, local_end,
                accum,
            )
        };
    }
    match kind {
        KernelKind::Packed4x4 => run!(4, 4),
        KernelKind::Packed8x4 => run!(8, 4),
        KernelKind::Packed4x8 => run!(4, 8),
        KernelKind::Packed8x8 => run!(8, 8),
        KernelKind::Simd4x16 => run!(4, 16),
        KernelKind::Simd8x16 => run!(8, 16),
        KernelKind::Simd8x32 => run!(8, 32),
        // register_block() returned Some above, so Scalar/Blocked
        // cannot reach here.
        KernelKind::Scalar | KernelKind::Blocked => unreachable!("non-panel kernels fall back"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_matrix::Matrix;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn fixture(shape: GemmShape, tile: TileShape) -> (IterSpace, Matrix<f64>, Matrix<f64>) {
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 3);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 4);
        (space, a, b)
    }

    #[test]
    fn panels_pack_once_and_match_private_packing() {
        let (space, a, b) = fixture(GemmShape::new(40, 36, 24), TileShape::new(16, 16, 8));
        let cache = PackCache::new(&space, 8, 4, WaitPolicy::default());
        assert_eq!(cache.panels(), space.tiles_m() + space.tiles_n());

        let mut private = Vec::new();
        for tm in 0..space.tiles_m() {
            let panel = cache.a_panel(&a.view(), tm, 0).expect("no contention");
            let rows = tm * 16..space.shape().m.min((tm + 1) * 16);
            pack_a_into(&a.view(), rows, 0..space.shape().k, 8, &mut private);
            assert_eq!(&*panel, &private[..], "A panel {tm}");
        }
        for tn in 0..space.tiles_n() {
            let panel = cache.b_panel(&b.view(), tn, 0).expect("no contention");
            let cols = tn * 16..space.shape().n.min((tn + 1) * 16);
            pack_b_into(&b.view(), 0..space.shape().k, cols, 4, &mut private);
            assert_eq!(&*panel, &private[..], "B panel {tn}");
        }
        // Re-fetching everything packs nothing new.
        for tm in 0..space.tiles_m() {
            let _ = cache.a_panel(&a.view(), tm, 0).unwrap();
        }
        assert_eq!(cache.packs(), cache.panels(), "each panel packed exactly once");
        assert_eq!(cache.fallbacks(), 0);
    }

    #[test]
    fn cached_dispatch_is_bit_exact_for_every_panel_kernel() {
        let shape = GemmShape::new(37, 29, 53);
        let tile = TileShape::new(16, 16, 8);
        let (space, a, b) = fixture(shape, tile);
        let len = tile.blk_m * tile.blk_n;
        let mut bufs = PackBuffers::new();
        for kind in KernelKind::ALL {
            let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default());
            for tile_idx in 0..space.tiles() {
                for (lb, le) in [(0, space.iters_per_tile()), (1, space.iters_per_tile()), (0, 1)] {
                    let mut expect = vec![0.0f64; len];
                    mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, lb, le, &mut expect, &mut bufs);
                    let mut got = vec![0.0f64; len];
                    mac_loop_kernel_cached(
                        kind,
                        cache.as_ref(),
                        0,
                        &a.view(),
                        &b.view(),
                        &space,
                        tile_idx,
                        lb,
                        le,
                        &mut got,
                        &mut bufs,
                    );
                    assert_eq!(got, expect, "{kind} tile {tile_idx} [{lb},{le})");
                }
            }
        }
    }

    #[test]
    fn mismatched_register_block_falls_back() {
        let (space, a, b) = fixture(GemmShape::new(16, 16, 16), TileShape::new(16, 16, 8));
        // Cache built for 4x4 but the kernel wants 8x4: must fall
        // back to private packing rather than mis-slice panels.
        let cache = PackCache::new(&space, 4, 4, WaitPolicy::default());
        let mut bufs = PackBuffers::new();
        let mut expect = vec![0.0f64; 256];
        mac_loop_kernel(KernelKind::Packed8x4, &a.view(), &b.view(), &space, 0, 0, 2, &mut expect, &mut bufs);
        let mut got = vec![0.0f64; 256];
        mac_loop_kernel_cached(
            KernelKind::Packed8x4,
            Some(&cache),
            0,
            &a.view(),
            &b.view(),
            &space,
            0,
            0,
            2,
            &mut got,
            &mut bufs,
        );
        assert_eq!(got, expect);
        assert_eq!(cache.packs(), 0, "mismatched cache must stay untouched");
    }

    #[test]
    fn stalled_packer_times_out_to_private_packing() {
        use std::time::Duration;
        let (space, a, _) = fixture(GemmShape::new(16, 16, 16), TileShape::new(16, 16, 8));
        let cache =
            PackCache::<f64>::new(&space, 8, 4, WaitPolicy::with_watchdog(Duration::from_millis(20)));
        // Simulate a packer that claimed the slot and died: the flag
        // sticks at PACKING forever.
        cache.a[0].state.store(PACKING, Ordering::Release);
        assert!(cache.a_panel(&a.view(), 0, 0).is_none(), "watchdog must give up");
        assert_eq!(cache.fallbacks(), 1);
    }

    /// Shards are independent slot tables: the same panel fetched
    /// through two shards is packed twice, identically, and a stalled
    /// packer in one shard does not poison the other.
    #[test]
    fn shards_pack_independently() {
        use std::time::Duration;
        let (space, a, _) = fixture(GemmShape::new(40, 16, 24), TileShape::new(16, 16, 8));
        let cache = PackCache::sharded(
            &space,
            8,
            4,
            WaitPolicy::with_watchdog(Duration::from_millis(20)),
            3,
        );
        assert_eq!(cache.shards(), 3);
        assert_eq!(cache.panels(), 3 * (space.tiles_m() + space.tiles_n()));
        let p0 = cache.a_panel(&a.view(), 1, 0).unwrap().to_vec();
        let p2 = cache.a_panel(&a.view(), 1, 2).unwrap().to_vec();
        assert_eq!(p0, p2, "shards must publish identical panels");
        assert_eq!(cache.packs(), 2, "one pack per shard touched");
        // Shard ids wrap, so a raw worker id past the shard count
        // lands on an existing (already-packed) table.
        let _ = cache.a_panel(&a.view(), 1, 3).unwrap();
        assert_eq!(cache.packs(), 2, "shard 3 wraps onto shard 0's slot");
        // Poison shard 1's slot: shard 0 stays readable.
        cache.a[space.tiles_m() + 1].state.store(PACKING, Ordering::Release);
        assert!(cache.a_panel(&a.view(), 1, 1).is_none(), "stuck shard gives up");
        assert!(cache.a_panel(&a.view(), 1, 0).is_some(), "other shards unaffected");
    }

    /// Block-major operands take the zero-pack bypass: bit-exact with
    /// the private-pack pipeline while the cache packs nothing for the
    /// bypassed operand.
    #[test]
    fn block_major_bypass_is_bit_exact_and_packs_nothing_for_a() {
        let shape = GemmShape::new(37, 29, 53);
        let tile = TileShape::new(16, 16, 8);
        let (space, a, b) = fixture(shape, tile);
        let a_blk = a.to_layout(Layout::BlockMajor);
        let len = tile.blk_m * tile.blk_n;
        let mut bufs = PackBuffers::new();
        for kind in [KernelKind::Packed8x4, KernelKind::Packed8x8, KernelKind::Simd8x16, KernelKind::Simd8x32] {
            let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default()).unwrap();
            for tile_idx in 0..space.tiles() {
                for (lb, le) in [(0, space.iters_per_tile()), (1, space.iters_per_tile()), (0, 1)] {
                    let mut expect = vec![0.0f64; len];
                    mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, lb, le, &mut expect, &mut bufs);
                    let mut got = vec![0.0f64; len];
                    mac_loop_kernel_cached(
                        kind, Some(&cache), 0, &a_blk.view(), &b.view(), &space, tile_idx, lb,
                        le, &mut got, &mut bufs,
                    );
                    assert_eq!(got, expect, "{kind} tile {tile_idx} [{lb},{le})");
                }
            }
            // Only B column-panels were ever packed: A came straight
            // from block-major storage.
            assert_eq!(cache.packs(), space.tiles_n(), "{kind}: A must bypass the cache");
        }
    }

    /// The bypass also works with *no cache at all* (the serve path):
    /// block-major A is consumed zero-copy and B is packed privately
    /// per segment — still bit-exact.
    #[test]
    fn bypass_without_cache_is_bit_exact() {
        let shape = GemmShape::new(24, 24, 21);
        let tile = TileShape::new(16, 16, 8);
        let (space, a, b) = fixture(shape, tile);
        let a_blk = a.to_layout(Layout::BlockMajor);
        let len = tile.blk_m * tile.blk_n;
        let mut bufs = PackBuffers::new();
        for kind in [KernelKind::Packed8x8, KernelKind::Simd8x32] {
            for tile_idx in 0..space.tiles() {
                let mut expect = vec![0.0f64; len];
                mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut expect, &mut bufs);
                let mut got = vec![0.0f64; len];
                mac_loop_kernel_cached(
                    kind, None, 0, &a_blk.view(), &b.view(), &space, tile_idx, 0,
                    space.iters_per_tile(), &mut got, &mut bufs,
                );
                assert_eq!(got, expect, "{kind} tile {tile_idx}");
            }
        }
    }

    /// B-side bypass: an `NR == FRAG` kernel consuming a transposed
    /// block-major B view reads the packed-B table zero-copy.
    #[test]
    fn transposed_block_major_b_bypasses_for_nr8_kernels() {
        let shape = GemmShape::new(32, 29, 24);
        let tile = TileShape::new(16, 16, 8);
        let (space, a, b) = fixture(shape, tile);
        // Store Bᵀ block-major; its transposed view is logically B.
        let bt_blk = b.transposed().to_layout(Layout::BlockMajor);
        let kind = KernelKind::Packed8x8;
        let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default()).unwrap();
        let len = tile.blk_m * tile.blk_n;
        let mut bufs = PackBuffers::new();
        for tile_idx in 0..space.tiles() {
            let mut expect = vec![0.0f64; len];
            mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut expect, &mut bufs);
            let mut got = vec![0.0f64; len];
            mac_loop_kernel_cached(
                kind, Some(&cache), 0, &a.view(), &bt_blk.view().t(), &space, tile_idx, 0,
                space.iters_per_tile(), &mut got, &mut bufs,
            );
            assert_eq!(got, expect, "tile {tile_idx}");
        }
        assert_eq!(cache.packs(), space.tiles_m(), "B must bypass the cache");
    }

    /// A ragged tile grid (`blk_m % FRAG != 0`) must refuse the bypass
    /// and still produce exact results through the cache/generic path.
    #[test]
    fn ragged_tile_grid_declines_bypass_but_stays_exact() {
        let shape = GemmShape::new(24, 24, 16);
        let tile = TileShape::new(12, 12, 8);
        let space = IterSpace::new(shape, tile);
        let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, 3);
        let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, 4);
        let a_blk = a.to_layout(Layout::BlockMajor);
        let kind = KernelKind::Packed8x8;
        let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default()).unwrap();
        let len = tile.blk_m * tile.blk_n;
        let mut bufs = PackBuffers::new();
        for tile_idx in 0..space.tiles() {
            let mut expect = vec![0.0f64; len];
            mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, 0, space.iters_per_tile(), &mut expect, &mut bufs);
            let mut got = vec![0.0f64; len];
            mac_loop_kernel_cached(
                kind, Some(&cache), 0, &a_blk.view(), &b.view(), &space, tile_idx, 0,
                space.iters_per_tile(), &mut got, &mut bufs,
            );
            assert_eq!(got, expect, "tile {tile_idx}");
        }
        // Bypass declined: A panels flow through the cache (packed
        // from the blocked view via the generic path).
        assert_eq!(cache.packs(), space.tiles_m() + space.tiles_n());
    }
}
