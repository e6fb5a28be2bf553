//! Simulating grouped decompositions.

use crate::cost::{CtaCosts, DEFAULT_MAC_EFFICIENCY};
use crate::engine::{finish_report, run_des, CtaFacts, GridDesc};
use crate::gpu::GpuSpec;
use crate::report::SimReport;
use streamk_core::GroupedDecomposition;
use streamk_types::Precision;

/// Simulates a grouped decomposition on `gpu` at `precision`, at the
/// default MAC efficiency.
///
/// # Panics
///
/// Panics if the decomposition is structurally invalid.
#[must_use]
pub fn simulate_grouped(decomp: &GroupedDecomposition, gpu: &GpuSpec, precision: Precision) -> SimReport {
    simulate_grouped_with_efficiency(decomp, gpu, precision, DEFAULT_MAC_EFFICIENCY)
}

/// [`simulate_grouped`] with an explicit MAC efficiency.
///
/// # Panics
///
/// Panics if the decomposition is structurally invalid.
#[must_use]
pub fn simulate_grouped_with_efficiency(
    decomp: &GroupedDecomposition,
    gpu: &GpuSpec,
    precision: Precision,
    mac_efficiency: f64,
) -> SimReport {
    decomp.validate().expect("invalid grouped decomposition");
    let space = decomp.space();
    let tile = space.instances()[0].tile();
    let costs = CtaCosts::derive(gpu, precision, tile, mac_efficiency);

    // Per-CTA facts from the grouped segment walk (iteration depths
    // differ per instance, so the uniform-ipt shortcut doesn't apply).
    let facts: Vec<CtaFacts> = decomp
        .ctas()
        .iter()
        .map(|cta| {
            match space.segments(cta).next() {
                None => CtaFacts { iters: 0, contributes: false, first_seg_iters: 0 },
                Some(seg) => CtaFacts {
                    iters: cta.len(),
                    contributes: !seg.starts_tile,
                    first_seg_iters: seg.local_end - seg.local_begin,
                },
            }
        })
        .collect();

    let mut owner_peers: Vec<Vec<usize>> = vec![Vec::new(); decomp.grid_size()];
    let mut partial_records = 0usize;
    for fixup in decomp.fixups() {
        partial_records += fixup.peers.len();
        if !fixup.peers.is_empty() {
            owner_peers[fixup.owner] = fixup.peers;
        }
    }
    let grid = GridDesc { facts, owner_peers, partial_records };
    let des = run_des(&grid, gpu, &costs);

    let compulsory: f64 = space
        .instances()
        .iter()
        .map(|inst| {
            let s = inst.shape();
            ((s.m * s.k + s.k * s.n) * precision.input_bytes()) as f64
        })
        .sum();
    let useful_flops: f64 = space.instances().iter().map(|inst| inst.shape().flops() as f64).sum();

    finish_report(des, &grid, gpu, precision, tile, space.total_iters(), space.tiles(), compulsory, useful_flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_core::{Decomposition, GroupedSpace};
    use streamk_types::{GemmShape, TileShape};

    #[test]
    fn single_group_matches_plain_simulation() {
        let shape = GemmShape::new(512, 384, 768);
        let tile = TileShape::FP16_STREAMK;
        let gpu = GpuSpec::a100();
        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&[shape], tile), 64);
        let plain = Decomposition::stream_k(shape, tile, 64);
        let rg = simulate_grouped(&grouped, &gpu, Precision::Fp16To32);
        let rp = crate::engine::simulate(&plain, &gpu, Precision::Fp16To32);
        assert!((rg.makespan - rp.makespan).abs() / rp.makespan < 1e-12);
        assert_eq!(rg.useful_flops, rp.useful_flops);
    }

    /// The grouped motivation: a mixture of small instances, each
    /// quantizing badly alone, schedules near-perfectly as one grid.
    #[test]
    fn grouped_stream_k_beats_sequential_launches() {
        let gpu = GpuSpec::a100();
        let tile = TileShape::FP16_STREAMK;
        // A dozen mismatched compute-bound instances.
        let shapes: Vec<GemmShape> = (0..12)
            .map(|i| GemmShape::new(256 + 128 * (i % 4), 384 + 128 * (i % 3), 2048 + 512 * (i % 5)))
            .collect();

        let sequential: f64 = shapes
            .iter()
            .map(|&s| crate::engine::simulate(&Decomposition::data_parallel(s, tile), &gpu, Precision::Fp16To32).makespan)
            .sum();

        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), gpu.sms);
        let r = simulate_grouped(&grouped, &gpu, Precision::Fp16To32);
        assert!(
            r.makespan < sequential / 3.0,
            "grouped {} vs sequential {sequential}",
            r.makespan
        );
        assert!(r.utilization() > 0.7, "utilization {}", r.utilization());
    }

    #[test]
    fn report_is_self_consistent() {
        let gpu = GpuSpec::a100();
        let tile = TileShape::new(64, 64, 16);
        let shapes = [GemmShape::new(100, 200, 300), GemmShape::new(77, 33, 999)];
        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&shapes, tile), 32);
        let r = simulate_grouped(&grouped, &gpu, Precision::Fp64);
        let span_iters: usize = r.spans.iter().map(|s| s.iters).sum();
        assert_eq!(span_iters, grouped.space().total_iters());
        assert!(r.utilization() > 0.0 && r.utilization() <= 1.0);
    }
}
