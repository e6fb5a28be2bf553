//! Grouped GEMM execution — one grid, many problem shapes.
//!
//! A [`GroupedDecomposition`] splits the summed MAC iterations of
//! every instance evenly over one grid; only the mapping from
//! iteration to output tile differs from a single GEMM. So a grouped
//! launch runs through the executor's one grid loop
//! ([`CpuExecutor::gemm`]'s static ranges with stealing, cooperative
//! deferral, watchdog recovery, spans and [`ExecStats`]) and this
//! module holds only argument validation and the call.
//!
//! [`ExecStats`]: crate::ExecStats

use crate::executor::CpuExecutor;
use crate::fault::FaultPlan;
use streamk_core::GroupedDecomposition;
use streamk_matrix::{Matrix, MatrixView, Promote, Scalar};

impl CpuExecutor {
    /// Computes `C_i = A_i · B_i` for every instance of the group by
    /// executing `decomp`'s single grid. Instances may have unrelated
    /// shapes; they share the blocking factor. Each `C_i` is produced
    /// in `A_i`'s storage layout.
    ///
    /// # Panics
    ///
    /// Panics if the operand counts or shapes don't match the
    /// decomposition, or if the fixup structure needs more co-resident
    /// CTAs than there are workers.
    #[must_use]
    pub fn gemm_grouped<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &GroupedDecomposition,
    ) -> Vec<Matrix<Acc>>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        let instances = decomp.space().instances();
        assert_eq!(a.len(), instances.len(), "need one A per instance");
        assert_eq!(b.len(), instances.len(), "need one B per instance");
        let mut c: Vec<Matrix<Acc>> = instances
            .iter()
            .zip(a)
            .map(|(inst, a)| Matrix::zeros(inst.shape().m, inst.shape().n, a.layout()))
            .collect();
        let a: Vec<MatrixView<'_, In>> = a.iter().map(Matrix::view).collect();
        let b: Vec<MatrixView<'_, In>> = b.iter().map(Matrix::view).collect();
        self.run_grid(Acc::ONE, &a, &b, Acc::ZERO, &mut c, decomp, &FaultPlan::none(), false)
            .unwrap_or_else(|e| panic!("{e}"));
        c
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use std::time::Duration;
    use streamk_core::{Decomposition, GroupedSpace, SpanKind, TileOrder};
    use streamk_matrix::reference::gemm_naive;
    use streamk_types::{GemmShape, Layout, TileShape};

    /// Runs `decomp` through the grid loop with `plan`'s faults
    /// injected and recovery on.
    pub(crate) fn run_with_faults(
        exec: &CpuExecutor,
        a: &[Matrix<f64>],
        b: &[Matrix<f64>],
        decomp: &GroupedDecomposition,
        plan: &FaultPlan,
    ) -> Vec<Matrix<f64>> {
        let av: Vec<_> = a.iter().map(Matrix::view).collect();
        let bv: Vec<_> = b.iter().map(Matrix::view).collect();
        let mut c: Vec<Matrix<f64>> = decomp
            .space()
            .instances()
            .iter()
            .map(|inst| Matrix::zeros(inst.shape().m, inst.shape().n, Layout::RowMajor))
            .collect();
        exec.run_grid(1.0, &av, &bv, 0.0, &mut c, decomp, plan, true).expect("recovers");
        c
    }

    /// A lost, a poisoned and a straggling contributor each leave the
    /// output bit-identical to the fault-free launch, and
    /// `last_stats().recoveries` counts the recomputations (the
    /// straggler signals inside the watchdog, so it needs none).
    pub(crate) fn assert_faults_recover_bit_exact(
        a: &[Matrix<f64>],
        b: &[Matrix<f64>],
        decomp: &GroupedDecomposition,
        threads: usize,
    ) {
        let exec = CpuExecutor::with_threads(threads).with_watchdog(Duration::from_millis(200));
        let baseline = exec.gemm_grouped::<f64, f64>(a, b, decomp);
        let contributors: Vec<usize> = decomp.fixups().iter().flat_map(|f| f.peers.clone()).collect();
        assert!(!contributors.is_empty(), "the launch must have split seams");
        for (victim, fault, recoveries) in [
            (contributors[0], FaultKind::Lose, 1),
            (*contributors.last().unwrap(), FaultKind::Poison, 1),
            (contributors[0], FaultKind::Straggle(Duration::from_millis(30)), 0),
        ] {
            let c = run_with_faults(&exec, a, b, decomp, &FaultPlan::single(victim, fault));
            assert_eq!(exec.last_stats().recoveries, recoveries, "{fault:?} on CTA {victim}");
            for (got, want) in c.iter().zip(&baseline) {
                assert_eq!(got.max_abs_diff(want), 0.0, "{fault:?} on CTA {victim} diverged");
            }
        }
    }

    fn operands(shapes: &[GemmShape], seed: u64) -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        let a = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| Matrix::<f64>::random::<f64>(s.m, s.k, Layout::RowMajor, seed + i as u64))
            .collect();
        let b = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| Matrix::<f64>::random::<f64>(s.k, s.n, Layout::RowMajor, seed + 50 + i as u64))
            .collect();
        (a, b)
    }

    fn verify(shapes: &[GemmShape], tile: TileShape, grid: usize, threads: usize, seed: u64) {
        let (a, b) = operands(shapes, seed);
        let space = GroupedSpace::new(shapes, tile);
        let decomp = GroupedDecomposition::stream_k(space, grid);
        let c = CpuExecutor::with_threads(threads).gemm_grouped::<f64, f64>(&a, &b, &decomp);
        for i in 0..shapes.len() {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    #[test]
    fn mixed_shapes_match_reference() {
        verify(
            &[GemmShape::new(32, 32, 48), GemmShape::new(48, 16, 96), GemmShape::new(16, 64, 16)],
            TileShape::new(16, 16, 8),
            6,
            6,
            1,
        );
    }

    #[test]
    fn ragged_mixed_shapes() {
        verify(
            &[GemmShape::new(19, 23, 31), GemmShape::new(7, 53, 11), GemmShape::new(41, 13, 67)],
            TileShape::new(16, 16, 8),
            5,
            5,
            2,
        );
    }

    #[test]
    fn transformer_like_group() {
        // The four GEMMs of one attention layer at tokens = 24,
        // hidden = 32: wildly different aspect ratios, one launch.
        let h = 32;
        let t = 24;
        verify(
            &[
                GemmShape::new(t, 3 * h, h),
                GemmShape::new(t, h, h),
                GemmShape::new(t, 4 * h, h),
                GemmShape::new(t, h, 4 * h),
            ],
            TileShape::new(16, 16, 8),
            8,
            8,
            3,
        );
    }

    #[test]
    fn grouped_data_parallel_matches_reference() {
        let shapes = [GemmShape::new(32, 32, 16), GemmShape::new(16, 16, 64)];
        let (a, b) = operands(&shapes, 4);
        let decomp = GroupedDecomposition::data_parallel(GroupedSpace::new(&shapes, TileShape::new(16, 16, 8)));
        let c = CpuExecutor::with_threads(4).gemm_grouped::<f64, f64>(&a, &b, &decomp);
        for i in 0..2 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "one A per instance")]
    fn mismatched_group_count_panics() {
        let shapes = [GemmShape::new(16, 16, 16)];
        let (a, b) = operands(&shapes, 5);
        let both = [shapes[0], shapes[0]];
        let decomp = GroupedDecomposition::stream_k(GroupedSpace::new(&both, TileShape::new(16, 16, 16)), 2);
        let _ = CpuExecutor::with_threads(2).gemm_grouped::<f64, f64>(&a, &b, &decomp);
    }

    #[test]
    fn faulted_contributors_recover_bit_exact() {
        let shapes = [GemmShape::new(19, 23, 131), GemmShape::new(41, 13, 67), GemmShape::new(32, 32, 48)];
        let (a, b) = operands(&shapes, 6);
        let decomp = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, TileShape::new(16, 16, 8)), 6);
        assert_faults_recover_bit_exact(&a, &b, &decomp, 6);
    }

    /// A group of one is a single GEMM: bit-identical to `gemm` on the
    /// same grid, ragged shape and swizzled tile order alike.
    #[test]
    fn group_of_one_is_bit_identical_to_gemm() {
        let shape = GemmShape::new(67, 43, 129);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = operands(&[shape], 7);
        let exec = CpuExecutor::with_threads(5);
        let plain = Decomposition::stream_k(shape, tile, 5);
        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&[shape], tile), 5);
        let swizzled = plain.clone().with_tile_order(TileOrder::ColumnGrouped(2));
        for (single, group) in [(&plain, grouped), (&swizzled, GroupedDecomposition::from(&swizzled))] {
            let c = exec.gemm::<f64, f64>(&a[0], &b[0], single);
            let g = exec.gemm_grouped::<f64, f64>(&a, &b, &group);
            assert_eq!(g[0].max_abs_diff(&c), 0.0, "{:?}", single.space().order());
        }
    }

    /// A traced grouped launch records the same span vocabulary as
    /// `gemm`: MAC spans, and one CTA span per CTA.
    #[test]
    fn traced_grouped_launch_records_spans() {
        let shapes = [GemmShape::new(32, 32, 48), GemmShape::new(48, 16, 96), GemmShape::new(16, 64, 16)];
        let (a, b) = operands(&shapes, 8);
        let decomp = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, TileShape::new(16, 16, 8)), 4);
        let exec = CpuExecutor::with_threads(4).with_trace(true);
        let _ = exec.gemm_grouped::<f64, f64>(&a, &b, &decomp);
        let trace = exec.last_trace().expect("traced launch yields a trace");
        let spans = || trace.workers.iter().flat_map(|w| &w.spans);
        assert!(spans().any(|s| s.kind == SpanKind::Mac), "no MAC spans");
        let mut ctas: Vec<u32> = spans().filter(|s| s.kind == SpanKind::Cta).map(|s| s.arg).collect();
        ctas.sort_unstable();
        assert_eq!(ctas, (0..decomp.grid_size() as u32).collect::<Vec<_>>());
    }
}
