//! Scheduling suite: persistent pool, locality-aware claiming, and
//! cooperative (deferred) fixup.
//!
//! The scaling rework changes *how* work is claimed (static
//! contiguous ranges + range-stealing instead of a global counter)
//! and *how* owners wait (cooperative deferral instead of blocking),
//! but must change nothing observable about the arithmetic:
//!
//! 1. **Bit-exactness across thread counts**: f64 output is identical
//!    for every worker count, because accumulation order is fixed by
//!    the decomposition (ascending k within a CTA, ascending peer
//!    order at seams) — never by the schedule.
//! 2. **Recovery composes with deferral**: lost/poisoned peers are
//!    recomputed at the same fold point whether the consolidation ran
//!    inline, deferred, or in the final blocking drain.
//! 3. **The pool is built once** per executor and reused by every
//!    launch, keeping per-worker arenas warm.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use std::time::Duration;
use streamk_core::{Decomposition, GroupedDecomposition, GroupedSpace, Strategy, TileFixup};
use streamk_cpu::{CpuExecutor, FaultKind, FaultPlan, WorkerPool};
use streamk_matrix::reference::gemm_naive;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout, TileShape};

const TILE: TileShape = TileShape { blk_m: 16, blk_n: 16, blk_k: 8 };

fn operands(shape: GemmShape, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let a = Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed);
    let b = Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 1);
    (a, b)
}

/// The widest owner+peers group — the executor's residency floor.
fn residency_floor(fixups: &[TileFixup]) -> usize {
    fixups.iter().map(TileFixup::covering_ctas).max().unwrap_or(1)
}

fn shapes() -> impl proptest::strategy::Strategy<Value = GemmShape> {
    (16usize..81, 16usize..81, 32usize..129).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

fn strategies() -> impl proptest::strategy::Strategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::DataParallel),
        (2usize..5).prop_map(|split| Strategy::FixedSplit { split }),
        (2usize..9).prop_map(|grid| Strategy::StreamK { grid }),
        (2usize..7).prop_map(|sms| Strategy::DpOneTileStreamK { sms }),
        (2usize..7).prop_map(|sms| Strategy::TwoTileStreamKDp { sms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any strategy, any shape, every admissible worker count: the
    /// f64 output is bit-identical no matter how CTAs were claimed,
    /// stolen, or deferred. A grouped launch (the shape plus its
    /// transpose-shaped sibling on one Stream-K grid) rides along.
    #[test]
    fn output_is_bit_exact_across_thread_counts(
        shape in shapes(),
        strategy in strategies(),
        group_grid in 2usize..9,
    ) {
        let decomp = Decomposition::from_strategy(shape, TILE, strategy);
        let floor = residency_floor(&decomp.fixups());
        let mut baseline: Option<Matrix<f64>> = None;
        let (a, b) = operands(shape, 7);
        let sibling = GemmShape::new(shape.n, shape.m, shape.k);
        let (a2, b2) = operands(sibling, 9);
        let (ga, gb) = ([a.clone(), a2], [b.clone(), b2]);
        let group = GroupedDecomposition::stream_k(GroupedSpace::new(&[shape, sibling], TILE), group_grid);
        let group_floor = residency_floor(&group.fixups());
        let mut group_baseline: Option<Vec<Matrix<f64>>> = None;
        for threads in [1, 2, 3, 4, 8] {
            let exec = CpuExecutor::with_threads(threads);
            if threads >= group_floor {
                let c = exec.gemm_grouped::<f64, f64>(&ga, &gb, &group);
                match &group_baseline {
                    None => {
                        for (i, ci) in c.iter().enumerate() {
                            ci.assert_close(&gemm_naive::<f64, f64>(&ga[i], &gb[i]), 1e-10);
                        }
                        group_baseline = Some(c);
                    }
                    Some(base) => {
                        for (ci, bi) in c.iter().zip(base) {
                            prop_assert_eq!(ci.max_abs_diff(bi), 0.0, "grouped threads={}", threads);
                        }
                    }
                }
            }
            if threads < floor {
                continue;
            }
            let c = exec.gemm::<f64, f64>(&a, &b, &decomp);
            match &baseline {
                None => {
                    c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-10);
                    baseline = Some(c);
                }
                Some(base) => prop_assert_eq!(
                    c.max_abs_diff(base),
                    0.0,
                    "threads={} must be bit-exact vs threads of first run ({:?})",
                    threads,
                    strategy
                ),
            }
        }
        prop_assert!(baseline.is_some(), "at least one worker count must be admissible");
        prop_assert!(group_baseline.is_some(), "at least one worker count must admit the group");
    }

    /// The layout matrix: worker count × operand layout × pack-cache
    /// mode must never change a single output bit. `RowMajor` operands
    /// exercise the private-pack and shared-cache paths; `BlockMajor`
    /// exercises the zero-pack bypass (cache on or off — the bypass
    /// engages either way for the default kernel's `MR == FRAG` A
    /// side); `BlockMajorZ` exercises the Morton fragment swizzle
    /// through the generic paths.
    #[test]
    fn output_is_bit_exact_across_layout_matrix(
        shape in shapes(),
        strategy in strategies(),
    ) {
        let decomp = Decomposition::from_strategy(shape, TILE, strategy);
        let floor = residency_floor(&decomp.fixups());
        let (a, b) = operands(shape, 11);
        let mut baseline: Option<Matrix<f64>> = None;
        for threads in [1, 2, 4, 8] {
            if threads < floor {
                continue;
            }
            for layout in [Layout::RowMajor, Layout::BlockMajor, Layout::BlockMajorZ] {
                let (al, bl) = (a.to_layout(layout), b.to_layout(layout));
                for cache in [true, false] {
                    let exec = CpuExecutor::with_threads(threads).with_pack_cache(cache);
                    let c = exec.gemm::<f64, f64>(&al, &bl, &decomp);
                    match &baseline {
                        None => {
                            c.assert_close(&gemm_naive::<f64, f64>(&a, &b), 1e-10);
                            baseline = Some(c.to_layout(Layout::RowMajor));
                        }
                        Some(base) => prop_assert_eq!(
                            c.to_layout(Layout::RowMajor).max_abs_diff(base),
                            0.0,
                            "threads={} layout={} cache={} diverged ({:?})",
                            threads, layout, cache, strategy
                        ),
                    }
                }
            }
        }
        prop_assert!(baseline.is_some(), "at least one worker count must be admissible");
    }

    /// Fault recovery from block-major operands: the owner's
    /// recomputation path must rebuild a lost or poisoned peer's
    /// contribution from blocked storage (through the bypass or the
    /// generic view path) bit-exactly.
    #[test]
    fn single_fault_recovery_from_block_major_operands(
        shape in shapes(),
        grid in 3usize..8,
        victim_idx in 0usize..64,
        poison in 0usize..2,
    ) {
        let decomp = Decomposition::stream_k(shape, TILE, grid);
        let contributors = FaultPlan::contributors(&decomp);
        if contributors.is_empty() {
            return Ok(());
        }
        let victim = contributors[victim_idx % contributors.len()];
        let kind = if poison == 1 { FaultKind::Poison } else { FaultKind::Lose };
        let (a, b) = operands(shape, 13);
        let (a, b) = (a.to_layout(Layout::BlockMajor), b.to_layout(Layout::BlockMajor));
        let exec = CpuExecutor::with_threads(8).with_watchdog(Duration::from_millis(150));
        let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let (c, report) = exec
            .gemm_with_faults::<f64, f64>(&a, &b, &decomp, &FaultPlan::single(victim, kind))
            .expect("recovery must mask the fault");
        prop_assert_eq!(report.recoveries(), 1, "{:?}", report);
        prop_assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }

    /// Fault recovery composes with cooperative deferral: losing or
    /// poisoning any single contributor still yields output
    /// bit-identical to the fault-free run.
    #[test]
    fn single_fault_recovery_is_bit_exact_under_deferral(
        shape in shapes(),
        grid in 3usize..8,
        victim_idx in 0usize..64,
        poison in 0usize..2,
    ) {
        let decomp = Decomposition::stream_k(shape, TILE, grid);
        let contributors = FaultPlan::contributors(&decomp);
        if contributors.is_empty() {
            return Ok(());
        }
        let victim = contributors[victim_idx % contributors.len()];
        let kind = if poison == 1 { FaultKind::Poison } else { FaultKind::Lose };
        let exec = CpuExecutor::with_threads(8).with_watchdog(Duration::from_millis(150));
        let baseline = exec.gemm::<f64, f64>(&operands(shape, 9).0, &operands(shape, 9).1, &decomp);
        let (a, b) = operands(shape, 9);
        let (c, report) = exec
            .gemm_with_faults::<f64, f64>(&a, &b, &decomp, &FaultPlan::single(victim, kind))
            .expect("recovery must mask the fault");
        prop_assert_eq!(report.recoveries(), 1, "{:?}", report);
        prop_assert_eq!(c.max_abs_diff(&baseline), 0.0);
    }
}

/// A straggling peer forces its owner to park the consolidation: the
/// owner probes, sees *pending*, defers, and keeps claiming work. The
/// straggler signals well inside the watchdog, so the launch is clean
/// — and the deferral counter proves the cooperative path ran.
#[test]
fn straggling_peer_forces_a_cooperative_deferral() {
    let shape = GemmShape::new(96, 80, 64);
    let decomp = Decomposition::stream_k(shape, TileShape::new(32, 32, 16), 7);
    let (a, b) = operands(shape, 31);
    let exec = CpuExecutor::with_threads(8).with_watchdog(Duration::from_secs(10));
    let baseline = exec.gemm::<f64, f64>(&a, &b, &decomp);

    // Every contributor straggles for far longer than the fault-free
    // compute takes, so every owner reaches its probe while at least
    // one peer is still pending.
    let mut plan = FaultPlan::none();
    for &cta in &FaultPlan::contributors(&decomp) {
        plan = plan.with_fault(cta, FaultKind::Straggle(Duration::from_millis(200)));
    }
    let (c, report) = exec.gemm_with_faults::<f64, f64>(&a, &b, &decomp, &plan).unwrap();
    assert!(report.is_clean(), "stragglers inside the watchdog need no recovery: {report:?}");
    assert_eq!(c.max_abs_diff(&baseline), 0.0);
    let stats = exec.last_stats();
    assert!(stats.deferrals >= 1, "owners must defer on pending peers, got {stats:?}");
}

/// One executor, many launches: the pool is spawned exactly once and
/// serves every launch, and reusing it changes nothing numerically
/// versus a fresh executor per GEMM.
#[test]
fn pool_is_built_once_and_reuse_is_bit_exact() {
    let shapes = [
        GemmShape::new(64, 48, 56),
        GemmShape::new(48, 64, 40),
        // A different tile volume exercises the workspace re-size
        // path between launches.
        GemmShape::new(33, 29, 71),
    ];
    let exec = CpuExecutor::with_threads(4);
    let pool_before = std::ptr::from_ref::<WorkerPool>(exec.worker_pool());
    let launches_before = exec.worker_pool().launches();

    for (i, &shape) in shapes.iter().enumerate() {
        let tile = if i == 2 { TileShape::new(32, 32, 16) } else { TILE };
        let decomp = Decomposition::stream_k(shape, tile, 4);
        let (a, b) = operands(shape, 100 + i as u64);
        let reused = exec.gemm::<f64, f64>(&a, &b, &decomp);
        let fresh = CpuExecutor::with_threads(4).gemm::<f64, f64>(&a, &b, &decomp);
        assert_eq!(
            reused.max_abs_diff(&fresh),
            0.0,
            "launch {i}: warm pool must be bit-exact vs fresh executor"
        );
    }

    assert_eq!(
        std::ptr::from_ref::<WorkerPool>(exec.worker_pool()),
        pool_before,
        "the executor must reuse one pool, not respawn"
    );
    assert_eq!(
        exec.worker_pool().launches() - launches_before,
        shapes.len(),
        "every launch must run on the persistent pool"
    );
    assert_eq!(exec.last_stats().launches, shapes.len());
}

/// Clones share the pool (and its launch counter): an executor handed
/// to another thread keeps using the same workers.
#[test]
fn clones_share_the_pool() {
    let exec = CpuExecutor::with_threads(2);
    let clone = exec.clone();
    assert_eq!(
        std::ptr::from_ref::<WorkerPool>(exec.worker_pool()),
        std::ptr::from_ref::<WorkerPool>(clone.worker_pool()),
    );
    let shape = GemmShape::new(32, 32, 32);
    let decomp = Decomposition::stream_k(shape, TILE, 2);
    let (a, b) = operands(shape, 5);
    let c1 = exec.gemm::<f64, f64>(&a, &b, &decomp);
    let c2 = clone.gemm::<f64, f64>(&a, &b, &decomp);
    assert_eq!(c1.max_abs_diff(&c2), 0.0);
    assert_eq!(exec.worker_pool().launches(), 2);
}
