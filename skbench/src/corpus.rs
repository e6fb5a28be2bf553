//! `gemm-corpus`: one client calling `CpuExecutor::try_gemm` back to
//! back (a closed loop) over a seeded corpus of f32 shapes from the
//! paper's Fig. 4 distribution — m, n, k log-uniform — restricted to
//! `[128, 1024]³`, launched as the two-tile Stream-K + data-parallel
//! hybrid (§5.2, the CLI default) with 64×64×16 blocking at
//! grid = workers.

use crate::direct::{self, Call, Input};
use crate::inputs::{flops, operand, par_map, rng, shuffle, stratified, F32Reference};
use crate::layers;
use crate::{Config, Outcome};
use std::time::Instant;
use streamk_core::Decomposition;
use streamk_corpus::{Corpus, CorpusConfig};
use streamk_cpu::CpuExecutor;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, TileShape};

/// Distinct shapes run per pass.
const SHAPES: usize = 128;
/// Shapes drawn before stratifying.
const POOL: usize = 32768;

fn tile() -> TileShape {
    TileShape::new(64, 64, 16)
}

struct Item {
    shape: GemmShape,
    a: Matrix<f32>,
    b: Matrix<f32>,
    reference: F32Reference,
    fixup_shape: (usize, usize),
}

impl Input for Item {
    fn flops(&self) -> f64 {
        flops(self.shape)
    }

    fn fixup_shape(&self) -> (usize, usize) {
        self.fixup_shape
    }

    fn pack_bytes(&self, cached: bool) -> f64 {
        layers::pack_bytes(self.shape, tile(), cached, 4)
    }

    fn call(&self, exec: &CpuExecutor, workers: usize) -> Call {
        let start = Instant::now();
        let decomp = Decomposition::two_tile_stream_k_dp(self.shape, tile(), workers);
        let launched = Instant::now();
        let result = exec.try_gemm::<f32, f32>(&self.a, &self.b, &decomp);
        let returned = Instant::now();
        let outcome = result.map(|c| self.reference.accepts(&c)).map_err(|_| ());
        Call {
            name: "gemm",
            start,
            launched,
            returned,
            outcome,
        }
    }
}

/// The corpus for `seed`: [`SHAPES`] distinct shapes at evenly spaced
/// work quantiles of a [`POOL`]-shape draw, in seeded order.
fn shapes(seed: u64) -> Vec<GemmShape> {
    let config = CorpusConfig {
        count: POOL,
        min_dim: 128,
        max_dim: 1024,
        seed,
    };
    let mut pool = Corpus::generate(config).shapes().to_vec();
    pool.sort_by_key(|s| (s.m, s.n, s.k));
    pool.dedup();
    let mut picked = stratified(
        pool,
        SHAPES,
        |s| flops(*s),
        |s| s.m.min(s.n).min(s.k) as f64,
    );
    shuffle(&mut rng(seed, 1), &mut picked);
    picked
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let shapes = shapes(cfg.seed);
    let items = par_map(shapes.len(), cfg.workers, |i| {
        let shape = shapes[i];
        let s = cfg.seed.wrapping_mul(1_000_003).wrapping_add(2 * i as u64);
        let a = operand::<f32>(shape.m, shape.k, s);
        let b = operand::<f32>(shape.k, shape.n, s + 1);
        let reference = F32Reference::new(&a, &b);
        let fixups = Decomposition::two_tile_stream_k_dp(shape, tile(), cfg.workers).fixups();
        Item {
            shape,
            a,
            b,
            reference,
            fixup_shape: layers::fixup_shape(&fixups),
        }
    });
    let gflop: f64 = items.iter().map(Input::flops).sum::<f64>() / 1e9;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "inputs: {} distinct f32 shapes in [128, 1024]^3, {gflop:.2} GFLOP per pass",
        items.len()
    ));
    direct::run(cfg, &items, tile(), "gemm calls", out)
}
