//! Grouped GEMM — one Stream-K grid over instances of *different*
//! shapes.
//!
//! Where [`batched`](crate::batched) covers a uniform batch, grouped
//! GEMM schedules a set of problems with unrelated extents (the
//! mixture a transformer layer or a multi-tenant serving batch
//! produces) as **one** launch: the per-instance iteration spaces are
//! concatenated — `group₀ → group₁ → …`, each internally m→n→k — and
//! the aggregate iteration count splits evenly across the grid. This
//! is precisely the workload class the paper's §7 points Stream-K at:
//! per-instance tile counts quantize terribly alone, and their *sum*
//! quantizes perfectly.
//!
//! All instances share one blocking factor (one kernel — the paper's
//! single-kernel story), but may differ in every problem extent.

use crate::batched::BatchedDecomposition;
use crate::decomposition::{balanced_ranges, Decomposition};
use crate::space::IterSpace;
use crate::work::{CtaWork, TileFixup};
use streamk_types::{GemmShape, TileShape};

/// A segment of one CTA's work within one instance's tile, located in
/// group coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedSegment {
    /// Which instance.
    pub instance: usize,
    /// Tile index *within* that instance.
    pub local_tile: usize,
    /// Tile index in the global (concatenated) numbering.
    pub global_tile: usize,
    /// First local MAC iteration within the tile (inclusive).
    pub local_begin: usize,
    /// Last local MAC iteration (exclusive).
    pub local_end: usize,
    /// Whether this segment performs the tile's first iteration.
    pub starts_tile: bool,
    /// Whether this segment performs the tile's last iteration.
    pub ends_tile: bool,
}

/// The concatenated iteration space of a group of GEMMs sharing one
/// blocking factor.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedSpace {
    instances: Vec<IterSpace>,
    /// Prefix sums: `iter_offsets[i]` is the first global iteration of
    /// instance `i`; last entry is the total.
    iter_offsets: Vec<usize>,
    /// Prefix sums over tiles, same convention.
    tile_offsets: Vec<usize>,
}

impl GroupedSpace {
    /// Builds the space for `shapes` blocked by `tile`.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty.
    #[must_use]
    pub fn new(shapes: &[GemmShape], tile: TileShape) -> Self {
        assert!(!shapes.is_empty(), "grouped GEMM needs at least one instance");
        Self::from_spaces(shapes.iter().map(|&s| IterSpace::new(s, tile)).collect())
    }

    /// Concatenates already-built instance spaces (which keep their
    /// tile orders); every instance must share one blocking factor.
    fn from_spaces(instances: Vec<IterSpace>) -> Self {
        let mut iter_offsets = Vec::with_capacity(instances.len() + 1);
        let mut tile_offsets = Vec::with_capacity(instances.len() + 1);
        let (mut it, mut tl) = (0usize, 0usize);
        for space in &instances {
            iter_offsets.push(it);
            tile_offsets.push(tl);
            it += space.total_iters();
            tl += space.tiles();
        }
        iter_offsets.push(it);
        tile_offsets.push(tl);
        Self { instances, iter_offsets, tile_offsets }
    }

    /// A group of `count` identically-shaped instances — the burst a
    /// recursive algorithm emits when every sub-problem has the same
    /// extents (Strassen's seven half-size products per level). The
    /// aggregate iteration count quantizes exactly like any other
    /// group; uniformity just makes the per-instance spaces identical.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn uniform(shape: GemmShape, count: usize, tile: TileShape) -> Self {
        assert!(count > 0, "grouped GEMM needs at least one instance");
        Self::new(&vec![shape; count], tile)
    }

    /// The per-instance spaces.
    #[must_use]
    pub fn instances(&self) -> &[IterSpace] {
        &self.instances
    }

    /// Number of instances.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.instances.len()
    }

    /// Total MAC-loop iterations across the group.
    #[must_use]
    pub fn total_iters(&self) -> usize {
        *self.iter_offsets.last().expect("non-empty")
    }

    /// Total output tiles across the group.
    #[must_use]
    pub fn tiles(&self) -> usize {
        *self.tile_offsets.last().expect("non-empty")
    }

    /// The instance containing global iteration `iter` (binary
    /// search over the prefix sums).
    ///
    /// # Panics
    ///
    /// Panics if `iter` is out of range.
    #[must_use]
    pub fn instance_of(&self, iter: usize) -> usize {
        assert!(iter < self.total_iters(), "iteration {iter} out of range");
        self.iter_offsets.partition_point(|&o| o <= iter) - 1
    }

    /// Splits a CTA's contiguous global range into
    /// [`GroupedSegment`]s, crossing tile and instance boundaries, in
    /// execution order.
    pub fn segments<'s>(&'s self, cta: &CtaWork) -> impl Iterator<Item = GroupedSegment> + 's {
        let end = cta.iter_end;
        let mut iter = cta.iter_begin;
        std::iter::from_fn(move || {
            if iter >= end {
                return None;
            }
            let instance = self.instance_of(iter);
            let base = self.iter_offsets[instance];
            let ipt = self.instances[instance].iters_per_tile();
            let local_tile = (iter - base) / ipt;
            let tile_first = base + local_tile * ipt;
            let tile_end = tile_first + ipt;
            let seg_end = end.min(tile_end);
            let seg = GroupedSegment {
                instance,
                local_tile,
                global_tile: self.tile_offsets[instance] + local_tile,
                local_begin: iter - tile_first,
                local_end: seg_end - tile_first,
                starts_tile: iter == tile_first,
                ends_tile: seg_end == tile_end,
            };
            iter = seg_end;
            Some(seg)
        })
    }

    /// The segment `peer` contributes to global tile `global_tile`, or
    /// `None` if it contributes no partials there — the grouped form
    /// of [`peer_contribution`](crate::peer_contribution), from which a
    /// tile owner recomputes a missing peer's exact k-range.
    #[must_use]
    pub fn peer_contribution(&self, peer: &CtaWork, global_tile: usize) -> Option<GroupedSegment> {
        self.segments(peer).find(|seg| seg.global_tile == global_tile && !seg.starts_tile)
    }
}

/// A Stream-K (or degenerate data-parallel) decomposition of a
/// grouped GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedDecomposition {
    space: GroupedSpace,
    ctas: Vec<CtaWork>,
    grid: usize,
}

impl GroupedDecomposition {
    /// Stream-K across the whole group: `grid` CTAs, each receiving an
    /// even share (within one) of every instance's iterations
    /// combined.
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0`.
    #[must_use]
    pub fn stream_k(space: GroupedSpace, grid: usize) -> Self {
        let ctas = balanced_ranges(space.total_iters(), grid, 0, 0);
        Self { space, ctas, grid }
    }

    /// One CTA per global tile — the grouped data-parallel baseline.
    /// (Unlike uniform batches this is *not* a degenerate Stream-K
    /// grid, because per-instance tile iteration counts differ.)
    #[must_use]
    pub fn data_parallel(space: GroupedSpace) -> Self {
        let mut ctas = Vec::with_capacity(space.tiles());
        let mut id = 0usize;
        for (i, inst) in space.instances.iter().enumerate() {
            let base = space.iter_offsets[i];
            let ipt = inst.iters_per_tile();
            for t in 0..inst.tiles() {
                ctas.push(CtaWork { cta_id: id, iter_begin: base + t * ipt, iter_end: base + (t + 1) * ipt });
                id += 1;
            }
        }
        let grid = ctas.len();
        Self { space, ctas, grid }
    }

    /// The grouped space.
    #[must_use]
    pub fn space(&self) -> &GroupedSpace {
        &self.space
    }

    /// Grid size.
    #[must_use]
    pub fn grid_size(&self) -> usize {
        self.grid
    }

    /// Per-CTA assignments over the concatenated iteration space.
    #[must_use]
    pub fn ctas(&self) -> &[CtaWork] {
        &self.ctas
    }

    /// Consolidation structure over global tile ids.
    #[must_use]
    pub fn fixups(&self) -> Vec<TileFixup> {
        let mut by_tile: Vec<(Option<usize>, Vec<usize>)> = vec![(None, Vec::new()); self.space.tiles()];
        for cta in &self.ctas {
            for seg in self.space.segments(cta) {
                let entry = &mut by_tile[seg.global_tile];
                if seg.starts_tile {
                    entry.0 = Some(cta.cta_id);
                } else {
                    entry.1.push(cta.cta_id);
                }
            }
        }
        by_tile
            .into_iter()
            .enumerate()
            .map(|(tile_idx, (owner, peers))| TileFixup {
                tile_idx,
                owner: owner.unwrap_or_else(|| panic!("tile {tile_idx} has no owner")),
                peers,
            })
            .collect()
    }

    /// Structural validation: contiguous exact cover, dense ids, and
    /// per-tile segment partitions.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut cursor = 0;
        for (i, cta) in self.ctas.iter().enumerate() {
            if cta.cta_id != i {
                return Err(format!("cta at position {i} has id {}", cta.cta_id));
            }
            if cta.iter_begin != cursor {
                return Err(format!("cta {i} begins at {} but coverage ended at {cursor}", cta.iter_begin));
            }
            cursor = cta.iter_end;
        }
        if cursor != self.space.total_iters() {
            return Err(format!("coverage ends at {cursor}, expected {}", self.space.total_iters()));
        }
        // Every tile's segments partition its iteration count.
        let mut covered = vec![0usize; self.space.tiles()];
        for cta in &self.ctas {
            for seg in self.space.segments(cta) {
                covered[seg.global_tile] += seg.local_end - seg.local_begin;
            }
        }
        for (i, inst) in self.space.instances.iter().enumerate() {
            for t in 0..inst.tiles() {
                let g = self.space.tile_offsets[i] + t;
                if covered[g] != inst.iters_per_tile() {
                    return Err(format!(
                        "global tile {g} covered {} of {}",
                        covered[g],
                        inst.iters_per_tile()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Iteration imbalance across non-empty CTAs.
    #[must_use]
    pub fn iter_imbalance(&self) -> usize {
        let max = self.ctas.iter().map(CtaWork::len).max().unwrap_or(0);
        let min = self.ctas.iter().map(CtaWork::len).filter(|&l| l > 0).min().unwrap_or(0);
        max - min
    }
}

/// A single GEMM as a group of one: identical CTA ranges, and the
/// instance keeps its [`TileOrder`](crate::TileOrder).
impl From<&Decomposition> for GroupedDecomposition {
    fn from(decomp: &Decomposition) -> Self {
        let space = GroupedSpace::from_spaces(vec![decomp.space().clone()]);
        Self { space, ctas: decomp.ctas().to_vec(), grid: decomp.grid_size() }
    }
}

/// A uniform batch as the group of its identical instances, with
/// identical CTA ranges (the batch's `batch → m → n → k` order is the
/// group's concatenation order).
impl From<&BatchedDecomposition> for GroupedDecomposition {
    fn from(decomp: &BatchedDecomposition) -> Self {
        let batched = decomp.space();
        let space = GroupedSpace::from_spaces(vec![batched.instance().clone(); batched.batch()]);
        Self { space, ctas: decomp.ctas().to_vec(), grid: decomp.grid_size() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_space() -> GroupedSpace {
        // Three very different instances sharing a 16x16x8 blocking:
        //  - 32x32x32: 4 tiles x 4 iters = 16
        //  - 48x16x64: 3 tiles x 8 iters = 24
        //  - 16x16x8 : 1 tile  x 1 iter  = 1
        GroupedSpace::new(
            &[GemmShape::new(32, 32, 32), GemmShape::new(48, 16, 64), GemmShape::new(16, 16, 8)],
            TileShape::new(16, 16, 8),
        )
    }

    #[test]
    fn prefix_sums() {
        let s = mixed_space();
        assert_eq!(s.groups(), 3);
        assert_eq!(s.total_iters(), 16 + 24 + 1);
        assert_eq!(s.tiles(), 4 + 3 + 1);
        assert_eq!(s.instance_of(0), 0);
        assert_eq!(s.instance_of(15), 0);
        assert_eq!(s.instance_of(16), 1);
        assert_eq!(s.instance_of(39), 1);
        assert_eq!(s.instance_of(40), 2);
    }

    #[test]
    fn segments_cross_instances() {
        let s = mixed_space();
        // A CTA spanning the end of instance 0 and start of instance 1.
        let cta = CtaWork { cta_id: 0, iter_begin: 14, iter_end: 30 };
        let segs: Vec<_> = s.segments(&cta).collect();
        // [14,16): tail of instance 0 tile 3; [16,24): instance 1 tile
        // 0 iters 0..8 (whole); [24,30): instance 1 tile 1 iters 0..6.
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].instance, segs[0].local_tile, segs[0].local_begin, segs[0].local_end), (0, 3, 2, 4));
        assert!(!segs[0].starts_tile && segs[0].ends_tile);
        assert_eq!((segs[1].instance, segs[1].local_tile), (1, 0));
        assert!(segs[1].starts_tile && segs[1].ends_tile);
        assert_eq!((segs[2].instance, segs[2].local_tile, segs[2].local_end), (1, 1, 6));
        assert!(segs[2].starts_tile && !segs[2].ends_tile);
    }

    #[test]
    fn stream_k_validates_and_balances() {
        for g in [1usize, 2, 3, 5, 7, 11, 41] {
            let d = GroupedDecomposition::stream_k(mixed_space(), g);
            assert!(d.validate().is_ok(), "g={g}: {:?}", d.validate());
            assert!(d.iter_imbalance() <= 1, "g={g}");
        }
    }

    #[test]
    fn data_parallel_one_cta_per_global_tile() {
        let d = GroupedDecomposition::data_parallel(mixed_space());
        assert_eq!(d.grid_size(), 8);
        assert!(d.validate().is_ok());
        assert!(d.fixups().iter().all(|f| f.is_data_parallel()));
        // CTA lengths reflect per-instance iteration depths: 4,4,4,4,
        // 8,8,8, 1.
        let lens: Vec<usize> = d.ctas().iter().map(CtaWork::len).collect();
        assert_eq!(lens, vec![4, 4, 4, 4, 8, 8, 8, 1]);
    }

    #[test]
    fn fixup_peers_are_consecutive() {
        let d = GroupedDecomposition::stream_k(mixed_space(), 5);
        for f in d.fixups() {
            for (i, &p) in f.peers.iter().enumerate() {
                assert_eq!(p, f.owner + i + 1, "tile {}", f.tile_idx);
            }
        }
    }

    #[test]
    fn single_group_matches_plain_stream_k() {
        let shape = GemmShape::new(96, 80, 64);
        let tile = TileShape::new(32, 32, 16);
        let grouped = GroupedDecomposition::stream_k(GroupedSpace::new(&[shape], tile), 5);
        let plain = crate::Decomposition::stream_k(shape, tile, 5);
        assert_eq!(grouped.ctas(), plain.ctas());
    }

    #[test]
    fn decomposition_converts_to_a_group_of_one() {
        let shape = GemmShape::new(96, 80, 640);
        let tile = TileShape::new(32, 32, 16);
        for d in [
            Decomposition::stream_k(shape, tile, 7),
            Decomposition::fixed_split(shape, tile, 3),
            Decomposition::two_tile_stream_k_dp(shape, tile, 4)
                .with_tile_order(crate::TileOrder::Morton),
        ] {
            let g = GroupedDecomposition::from(&d);
            assert_eq!(g.space().instances(), std::slice::from_ref(d.space()), "keeps the tile order");
            assert_eq!(g.ctas(), d.ctas());
            assert_eq!(g.grid_size(), d.grid_size());
            assert_eq!(g.fixups(), d.fixups());
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    fn batch_converts_to_the_uniform_group() {
        let (shape, tile) = (GemmShape::new(48, 40, 64), TileShape::new(16, 16, 8));
        let b = BatchedDecomposition::stream_k(crate::BatchedSpace::new(5, shape, tile), 7);
        let g = GroupedDecomposition::from(&b);
        assert_eq!(g.space(), &GroupedSpace::uniform(shape, 5, tile));
        assert_eq!(g.ctas(), b.ctas());
        assert_eq!(g.fixups(), b.fixups());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn peer_contributions_reconstruct_every_fixup() {
        // For every split tile, the peers' recomputed ranges and the
        // owner's own segment exactly tile the tile's iterations.
        let d = GroupedDecomposition::stream_k(mixed_space(), 5);
        let s = d.space();
        let mut split = 0;
        for f in d.fixups() {
            let seg_len = |seg: GroupedSegment| seg.local_end - seg.local_begin;
            let covered: usize = f
                .peers
                .iter()
                .map(|&p| s.peer_contribution(&d.ctas()[p], f.tile_idx).map_or(0, seg_len))
                .sum();
            let owner_cta = &d.ctas()[f.owner];
            let own = s.segments(owner_cta).find(|g| g.global_tile == f.tile_idx).expect("owner covers its tile");
            let ipt = s.instances()[own.instance].iters_per_tile();
            assert_eq!(covered + seg_len(own), ipt, "tile {}", f.tile_idx);
            assert!(s.peer_contribution(owner_cta, f.tile_idx).is_none(), "owners contribute no partials");
            split += usize::from(!f.peers.is_empty());
        }
        assert!(split > 0, "the fixture must have split seams");
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_group_panics() {
        let _ = GroupedSpace::new(&[], TileShape::new(8, 8, 8));
    }

    #[test]
    fn uniform_matches_repeated_new() {
        let shape = GemmShape::new(48, 32, 64);
        let tile = TileShape::new(16, 16, 8);
        let uniform = GroupedSpace::uniform(shape, 7, tile);
        assert_eq!(uniform, GroupedSpace::new(&[shape; 7], tile));
        assert_eq!(uniform.groups(), 7);
        assert_eq!(uniform.total_iters(), 7 * IterSpace::new(shape, tile).total_iters());
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn uniform_zero_count_panics() {
        let _ = GroupedSpace::uniform(GemmShape::new(8, 8, 8), 0, TileShape::new(8, 8, 8));
    }
}
