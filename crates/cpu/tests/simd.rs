//! SIMD-backend and pack-cache property suite.
//!
//! The SIMD kernels promise the same contract as every other
//! [`KernelKind`]: each output element accumulates in ascending-k
//! order with an *unfused* multiply-then-add, so their results are
//! bit-identical to the scalar MAC loop — in f64 **and** f32, private
//! packing or shared cache, fault-free or mid-recovery. These
//! properties pin that, plus the [`PackCache`] claim/publish
//! invariant: with far more peers than panels, each panel is packed
//! exactly once and every reader sees bytes identical to a private
//! pack.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::time::Duration;
use streamk_core::{Decomposition, IterSpace, Strategy};
use streamk_cpu::macloop::mac_loop_view;
use streamk_cpu::{
    mac_loop_kernel, mac_loop_kernel_cached, CpuExecutor, FaultKind, FaultPlan, KernelKind,
    PackBuffers, PackCache, WaitPolicy,
};
use streamk_matrix::{pack_a_into, pack_b_into, Matrix};
use streamk_types::{GemmShape, Layout, TileShape};

const THREADS: usize = 8;

fn operands64(shape: GemmShape, layout: Layout) -> (Matrix<f64>, Matrix<f64>) {
    let seed = ((shape.m * 73 + shape.n) * 37 + shape.k) as u64;
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, layout, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, layout, seed + 1);
    (a, b)
}

fn operands32(shape: GemmShape, layout: Layout) -> (Matrix<f32>, Matrix<f32>) {
    let seed = ((shape.m * 73 + shape.n) * 37 + shape.k) as u64;
    let a = Matrix::<f32>::random::<f32>(shape.m, shape.k, layout, seed);
    let b = Matrix::<f32>::random::<f32>(shape.k, shape.n, layout, seed + 1);
    (a, b)
}

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (5usize..70, 5usize..70, 8usize..120).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

fn tiles() -> impl proptest::strategy::Strategy<Value = TileShape> {
    prop_oneof![
        Just(TileShape::new(16, 16, 8)),
        Just(TileShape::new(32, 32, 16)),
        Just(TileShape::new(8, 32, 4)),
        // Deliberately unaligned to every SIMD MR/NR — forces the
        // zero-padded ragged lanes through the vector kernels.
        Just(TileShape::new(13, 11, 5)),
        Just(TileShape::new(9, 17, 3)),
    ]
}

fn layouts() -> impl proptest::strategy::Strategy<Value = Layout> {
    prop_oneof![Just(Layout::RowMajor), Just(Layout::ColMajor)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// f64: every SIMD kernel, private packing *and* shared cache,
    /// is bit-identical to the scalar MAC loop on arbitrary shapes,
    /// tiles, layouts, and iteration sub-ranges (ragged edges
    /// included).
    #[test]
    fn simd_kernels_bit_exact_vs_scalar_f64(
        shape in shapes(),
        tile in tiles(),
        layout in layouts(),
        tile_sel in 0usize..64,
        range_sel in (0usize..64, 0usize..64),
    ) {
        let space = IterSpace::new(shape, tile);
        let (a, b) = operands64(shape, layout);
        let tile_idx = tile_sel % space.tiles();
        let ipt = space.iters_per_tile();
        let (mut lo, mut hi) = (range_sel.0 % (ipt + 1), range_sel.1 % (ipt + 1));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }

        let len = tile.blk_m * tile.blk_n;
        let mut reference = vec![0.0f64; len];
        mac_loop_view(&a.view(), &b.view(), &space, tile_idx, lo, hi, &mut reference);

        let mut bufs = PackBuffers::new();
        for kind in KernelKind::SIMD {
            let mut got = vec![0.0f64; len];
            mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, lo, hi, &mut got, &mut bufs);
            prop_assert!(got == reference, "{kind} private diverged on {shape} {tile} tile {tile_idx} [{lo},{hi})");

            let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default());
            let mut cached = vec![0.0f64; len];
            mac_loop_kernel_cached(kind, cache.as_ref(), 0, &a.view(), &b.view(), &space, tile_idx, lo, hi, &mut cached, &mut bufs);
            prop_assert!(cached == reference, "{kind} cached diverged on {shape} {tile} tile {tile_idx} [{lo},{hi})");
        }
    }

    /// f32: the SIMD kernels must match the *packed scalar* kernels
    /// bit-for-bit too — identical operation order means identical
    /// f32 rounding, vector lanes or not.
    #[test]
    fn simd_kernels_bit_exact_vs_packed_f32(
        shape in shapes(),
        tile in tiles(),
        layout in layouts(),
        tile_sel in 0usize..64,
    ) {
        let space = IterSpace::new(shape, tile);
        let (a, b) = operands32(shape, layout);
        let tile_idx = tile_sel % space.tiles();
        let ipt = space.iters_per_tile();

        let len = tile.blk_m * tile.blk_n;
        let mut bufs = PackBuffers::new();
        let mut reference = vec![0.0f32; len];
        mac_loop_kernel(
            KernelKind::Packed8x8, &a.view(), &b.view(), &space, tile_idx, 0, ipt, &mut reference, &mut bufs,
        );

        for kind in KernelKind::SIMD {
            let mut got = vec![0.0f32; len];
            mac_loop_kernel(kind, &a.view(), &b.view(), &space, tile_idx, 0, ipt, &mut got, &mut bufs);
            prop_assert!(got == reference, "{kind} f32 diverged from packed scalar on {shape} {tile} tile {tile_idx}");

            let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default());
            let mut cached = vec![0.0f32; len];
            mac_loop_kernel_cached(kind, cache.as_ref(), 0, &a.view(), &b.view(), &space, tile_idx, 0, ipt, &mut cached, &mut bufs);
            prop_assert!(cached == reference, "{kind} f32 cached diverged on {shape} {tile} tile {tile_idx}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault level: split-tile fixup under injected faults with the
    /// SIMD kernels and the shared pack cache enabled — owner-side
    /// recovery recomputes through the same vector kernel and cache,
    /// so the recovered output stays bit-exact against the fault-free
    /// run.
    #[test]
    fn simd_fixup_recovers_bit_exact_under_faults(
        shape in shapes(),
        strategy in prop_oneof![
            (2usize..5).prop_map(|split| Strategy::FixedSplit { split }),
            (2usize..8).prop_map(|grid| Strategy::StreamK { grid }),
        ],
        kind_sel in 0usize..KernelKind::SIMD.len(),
        fault_idx in 0u8..2,
        victim_idx in 0usize..64,
    ) {
        let tile = TileShape::new(16, 16, 8);
        let decomp = Decomposition::from_strategy(shape, tile, strategy);
        let max_cover = decomp.fixups().iter().map(|f| f.covering_ctas()).max().unwrap_or(1);
        prop_assume!(max_cover <= THREADS);

        let kernel = KernelKind::SIMD[kind_sel];
        let (a, b) = operands64(shape, Layout::RowMajor);
        let e = CpuExecutor::with_threads(THREADS)
            .with_kernel(kernel)
            .with_pack_cache(true)
            .with_watchdog(Duration::from_millis(150));
        let baseline = e.try_gemm::<f64, f64>(&a, &b, &decomp).expect("fault-free run");

        let contributors = FaultPlan::contributors(&decomp);
        let plan = match contributors.first() {
            None => FaultPlan::none(),
            Some(_) => {
                let victim = contributors[victim_idx % contributors.len()];
                let kind = if fault_idx == 0 { FaultKind::Lose } else { FaultKind::Poison };
                FaultPlan::single(victim, kind)
            }
        };
        let (c, report) = e.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).expect("survives");
        if !plan.is_empty() {
            prop_assert!(report.recoveries() >= 1, "no recovery for {plan:?}");
        }
        prop_assert!(c.max_abs_diff(&baseline) == 0.0, "{kernel} recovery diverged");
    }
}

/// Pack-cache concurrency: 16 peers hammer a cache holding only 8
/// panels. Every reader must observe bytes identical to a private
/// pack, and when the dust settles each panel was packed exactly once
/// — no duplicate packs, no watchdog fallbacks.
#[test]
fn pack_cache_packs_each_panel_exactly_once_under_contention() {
    let tile = TileShape::new(16, 16, 8);
    let shape = GemmShape::new(61, 58, 96); // ragged: last panels padded
    let space = IterSpace::new(shape, tile);
    let (a, b) = operands64(shape, Layout::RowMajor);
    let (mr, nr) = (8, 8);
    let cache = PackCache::new(&space, mr, nr, WaitPolicy::default());
    assert_eq!(cache.panels(), space.tiles_m() + space.tiles_n());

    // Reference panels, packed privately.
    let mut expect_a = Vec::new();
    for tm in 0..space.tiles_m() {
        let rows = tm * tile.blk_m..shape.m.min((tm + 1) * tile.blk_m);
        let mut p = Vec::new();
        pack_a_into(&a.view(), rows, 0..shape.k, mr, &mut p);
        expect_a.push(p);
    }
    let mut expect_b = Vec::new();
    for tn in 0..space.tiles_n() {
        let cols = tn * tile.blk_n..shape.n.min((tn + 1) * tile.blk_n);
        let mut p = Vec::new();
        pack_b_into(&b.view(), 0..shape.k, cols, nr, &mut p);
        expect_b.push(p);
    }

    let peers = 2 * THREADS; // peers ≫ panels
    std::thread::scope(|scope| {
        for peer in 0..peers {
            let (cache, space, a, b, expect_a, expect_b) =
                (&cache, &space, &a, &b, &expect_a, &expect_b);
            scope.spawn(move || {
                // Each peer walks every panel several times, starting
                // at a peer-dependent offset so claims interleave.
                for round in 0..4 {
                    for step in 0..space.tiles_m() {
                        let tm = (peer + round + step) % space.tiles_m();
                        let panel = cache.a_panel(&a.view(), tm, 0).expect("no fallback expected");
                        assert_eq!(&*panel, &expect_a[tm][..], "A panel {tm} seen by peer {peer}");
                    }
                    for step in 0..space.tiles_n() {
                        let tn = (peer + round + step) % space.tiles_n();
                        let panel = cache.b_panel(&b.view(), tn, 0).expect("no fallback expected");
                        assert_eq!(&*panel, &expect_b[tn][..], "B panel {tn} seen by peer {peer}");
                    }
                }
            });
        }
    });

    assert_eq!(cache.packs(), cache.panels(), "each panel packed exactly once");
    assert_eq!(cache.fallbacks(), 0, "no watchdog fallbacks under healthy contention");
}

/// Executor level: with the shared pack cache on, the launch output
/// is identical across every worker count (and to the cache-off
/// run) — scheduling nondeterminism never changes who packs what
/// *into*, only who packs first.
#[test]
fn executor_with_cache_is_bit_exact_across_thread_counts() {
    let tile = TileShape::new(16, 16, 8);
    let shape = GemmShape::new(67, 59, 83);
    let kind = KernelKind::default();
    let (a, b) = operands64(shape, Layout::RowMajor);

    // Stream-K with fixups needs co-resident peers: sweep 2..=8.
    let decomp = Decomposition::stream_k(shape, tile, 6);
    let reference = CpuExecutor::with_threads(THREADS)
        .with_kernel(kind)
        .with_pack_cache(false)
        .gemm::<f64, f64>(&a, &b, &decomp);
    for threads in [2, 3, 4, THREADS] {
        for cache in [false, true] {
            let c = CpuExecutor::with_threads(threads)
                .with_kernel(kind)
                .with_pack_cache(cache)
                .gemm::<f64, f64>(&a, &b, &decomp);
            assert_eq!(
                c.max_abs_diff(&reference),
                0.0,
                "threads={threads} cache={cache} diverged"
            );
        }
    }

    // Data-parallel has no cross-CTA waits, so one thread is legal.
    let dp = Decomposition::data_parallel(shape, tile);
    let dp_ref = CpuExecutor::with_threads(1)
        .with_kernel(kind)
        .with_pack_cache(false)
        .gemm::<f64, f64>(&a, &b, &dp);
    for threads in 1..=4 {
        let c = CpuExecutor::with_threads(threads)
            .with_kernel(kind)
            .with_pack_cache(true)
            .gemm::<f64, f64>(&a, &b, &dp);
        assert_eq!(c.max_abs_diff(&dp_ref), 0.0, "data-parallel threads={threads} diverged");
    }
}

/// Runs every SIMD kind on a `16 × blk_n` tile grid in `T` precision:
/// the private and the cached dispatch must both be bit-identical to
/// `Scalar`, the cache must pack for exactly the block the dispatch
/// runs ([`KernelKind::fit`]), and a cached run must actually use the
/// cache. A cache/dispatch disagreement would not change any result —
/// the cached dispatch would just drop the cache — so `packs() > 0` is
/// the check that catches it.
fn check_kernel_fit<T>(blk_n: usize)
where
    T: streamk_matrix::Promote<T> + streamk_matrix::Scalar,
{
    let tile = TileShape::new(16, blk_n, 8);
    // Ragged in every dimension: partial last tile row and column.
    let shape = GemmShape::new(37, 2 * blk_n + 5, 53);
    let space = IterSpace::new(shape, tile);
    let a = Matrix::<T>::random::<T>(shape.m, shape.k, Layout::RowMajor, blk_n as u64);
    let b = Matrix::<T>::random::<T>(shape.k, shape.n, Layout::RowMajor, blk_n as u64 + 1);
    let (av, bv) = (a.view(), b.view());
    let ipt = space.iters_per_tile();
    let len = tile.blk_m * tile.blk_n;
    let mut bufs = PackBuffers::new();
    for kind in KernelKind::SIMD {
        let fitted = kind.fit(blk_n);
        let expect_block = if kind == KernelKind::Simd8x32 && blk_n <= 16 {
            (8, 16)
        } else {
            kind.register_block().unwrap()
        };
        assert_eq!(fitted.register_block(), Some(expect_block), "{kind} at blk_n {blk_n}");
        let cache = PackCache::for_kernel(&space, kind, WaitPolicy::default()).unwrap();
        assert_eq!(cache.register_block(), expect_block, "{kind} cache at blk_n {blk_n}");
        for tile_idx in 0..space.tiles() {
            for (lo, hi) in [(0, ipt), (1, ipt), (0, 1)] {
                let mut reference = vec![T::ZERO; len];
                mac_loop_kernel(KernelKind::Scalar, &av, &bv, &space, tile_idx, lo, hi, &mut reference, &mut bufs);
                let mut got = vec![T::ZERO; len];
                mac_loop_kernel(kind, &av, &bv, &space, tile_idx, lo, hi, &mut got, &mut bufs);
                assert!(got == reference, "{kind} private, blk_n {blk_n}, tile {tile_idx} [{lo},{hi})");
                let mut cached = vec![T::ZERO; len];
                mac_loop_kernel_cached(kind, Some(&cache), 0, &av, &bv, &space, tile_idx, lo, hi, &mut cached, &mut bufs);
                assert!(cached == reference, "{kind} cached, blk_n {blk_n}, tile {tile_idx} [{lo},{hi})");
            }
        }
        assert_eq!(cache.packs(), cache.panels(), "{kind} at blk_n {blk_n}: the cached run bypassed its cache");
        assert_eq!(cache.fallbacks(), 0);
    }
}

#[test]
fn register_block_fits_the_tile_f64() {
    for blk_n in [8, 16, 24, 32, 64] {
        check_kernel_fit::<f64>(blk_n);
    }
}

#[test]
fn register_block_fits_the_tile_f32() {
    for blk_n in [8, 16, 24, 32, 64] {
        check_kernel_fit::<f32>(blk_n);
    }
}
