//! Batched GEMM execution — one Stream-K grid across many instances.
//!
//! A [`BatchedDecomposition`] is the uniform case of a grouped one:
//! its `batch → m → n → k` order is the concatenation of identical
//! instance spaces. A batched launch therefore converts into that
//! group (identical CTA ranges) and runs through
//! [`gemm_grouped`](CpuExecutor::gemm_grouped) — the executor's one
//! grid loop, crossing instance boundaries exactly as single-GEMM
//! Stream-K crosses tile boundaries.

use crate::executor::CpuExecutor;
use streamk_core::{BatchedDecomposition, GroupedDecomposition};
use streamk_matrix::{Matrix, Promote, Scalar};

impl CpuExecutor {
    /// Computes `C_b = A_b · B_b` for every instance of the batch by
    /// executing `decomp`'s single grid.
    ///
    /// # Panics
    ///
    /// Panics if the operand counts or shapes don't match the
    /// decomposition, or if the fixup structure needs more co-resident
    /// CTAs than there are workers.
    #[must_use]
    pub fn gemm_batched<In, Acc>(
        &self,
        a: &[Matrix<In>],
        b: &[Matrix<In>],
        decomp: &BatchedDecomposition,
    ) -> Vec<Matrix<Acc>>
    where
        In: Promote<Acc>,
        Acc: Scalar,
    {
        self.gemm_grouped(a, b, &GroupedDecomposition::from(decomp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouped::tests::assert_faults_recover_bit_exact;
    use streamk_core::BatchedSpace;
    use streamk_matrix::reference::gemm_naive;
    use streamk_types::{GemmShape, Layout, TileShape};

    fn instances(batch: usize, shape: GemmShape, seed: u64) -> (Vec<Matrix<f64>>, Vec<Matrix<f64>>) {
        let a = (0..batch)
            .map(|i| Matrix::<f64>::random::<f64>(shape.m, shape.k, Layout::RowMajor, seed + i as u64))
            .collect();
        let b = (0..batch)
            .map(|i| Matrix::<f64>::random::<f64>(shape.k, shape.n, Layout::RowMajor, seed + 100 + i as u64))
            .collect();
        (a, b)
    }

    #[test]
    fn batched_stream_k_matches_reference_per_instance() {
        let shape = GemmShape::new(48, 40, 64);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(6, shape, 1);
        let space = BatchedSpace::new(6, shape, tile);
        let decomp = BatchedDecomposition::stream_k(space, 7);
        let c = CpuExecutor::with_threads(7).gemm_batched::<f64, f64>(&a, &b, &decomp);
        assert_eq!(c.len(), 6);
        for i in 0..6 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    #[test]
    fn batched_data_parallel_matches_reference() {
        let shape = GemmShape::new(32, 32, 40);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(4, shape, 2);
        let decomp = BatchedDecomposition::data_parallel(BatchedSpace::new(4, shape, tile));
        let c = CpuExecutor::with_threads(4).gemm_batched::<f64, f64>(&a, &b, &decomp);
        for i in 0..4 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-12);
        }
    }

    #[test]
    fn tiny_instances_wide_grid() {
        // Single-tile instances: every split crosses instance
        // boundaries, the worst case for the global bookkeeping.
        let shape = GemmShape::new(16, 16, 48);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(5, shape, 3);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(5, shape, tile), 8);
        let c = CpuExecutor::with_threads(8).gemm_batched::<f64, f64>(&a, &b, &decomp);
        for i in 0..5 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    #[test]
    fn ragged_instances() {
        let shape = GemmShape::new(19, 23, 31);
        let tile = TileShape::new(8, 8, 8);
        let (a, b) = instances(3, shape, 4);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(3, shape, tile), 6);
        let c = CpuExecutor::with_threads(6).gemm_batched::<f64, f64>(&a, &b, &decomp);
        for i in 0..3 {
            c[i].assert_close(&gemm_naive::<f64, f64>(&a[i], &b[i]), 1e-11);
        }
    }

    #[test]
    #[should_panic(expected = "one A per instance")]
    fn wrong_batch_count_panics() {
        let shape = GemmShape::new(16, 16, 16);
        let tile = TileShape::new(16, 16, 16);
        let (a, b) = instances(2, shape, 5);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(3, shape, tile), 3);
        let _ = CpuExecutor::with_threads(3).gemm_batched::<f64, f64>(&a, &b, &decomp);
    }

    #[test]
    fn faulted_contributors_recover_bit_exact() {
        let shape = GemmShape::new(19, 23, 64);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(3, shape, 6);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(3, shape, tile), 7);
        assert_faults_recover_bit_exact(&a, &b, &GroupedDecomposition::from(&decomp), 7);
    }

    /// A batch is the uniform group: bit-identical to `gemm_grouped`
    /// on the same shapes and grid.
    #[test]
    fn batch_is_bit_identical_to_the_uniform_group() {
        let shape = GemmShape::new(37, 29, 72);
        let tile = TileShape::new(16, 16, 8);
        let (a, b) = instances(4, shape, 7);
        let exec = CpuExecutor::with_threads(5);
        let decomp = BatchedDecomposition::stream_k(BatchedSpace::new(4, shape, tile), 5);
        let batched = exec.gemm_batched::<f64, f64>(&a, &b, &decomp);
        let space = streamk_core::GroupedSpace::uniform(shape, 4, tile);
        let grouped = exec.gemm_grouped::<f64, f64>(&a, &b, &GroupedDecomposition::stream_k(space, 5));
        for (x, y) in batched.iter().zip(&grouped) {
            assert_eq!(x.max_abs_diff(y), 0.0);
        }
    }
}
