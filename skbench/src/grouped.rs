//! `grouped-ragged`: one client issuing back-to-back
//! `CpuExecutor::gemm_grouped` launches of 4–16 f32 problems that share
//! n and k (drawn from {256, 512}) with each member's m log-uniform in
//! `[16, 512]` — expert-style raggedness. Every fourth launch is a
//! uniform `gemm_batched` instead. Stream-K at grid = workers, 64×64×16
//! blocking.

use crate::direct::{self, Call, Input};
use crate::inputs::{flops, log_uniform, operand, par_map, rng, shuffle, stratified, F32Reference};
use crate::layers;
use crate::{Config, Outcome};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use streamk_core::{BatchedDecomposition, BatchedSpace, GroupedDecomposition, GroupedSpace};
use streamk_cpu::CpuExecutor;
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, TileShape};

/// Distinct launches, cycled; every fourth is batched.
const LAUNCHES: usize = 48;
/// Most problems in one launch.
const MAX_MEMBERS: usize = 16;
/// Candidate launches per (n, k) pair and kind drawn before stratifying.
const POOL: usize = 4096;

fn tile() -> TileShape {
    TileShape::new(64, 64, 16)
}

/// One launch's problems: `batched` ones all share one shape.
#[derive(Debug, Clone)]
struct Plan {
    batched: bool,
    shapes: Vec<GemmShape>,
}

impl Plan {
    fn draw(r: &mut rand::rngs::StdRng, batched: bool, (n, k): (usize, usize)) -> Self {
        use rand::RngExt;
        let count = r.random_range(4..=MAX_MEMBERS);
        let shapes = if batched {
            vec![GemmShape::new(log_uniform(r, 16, 512), n, k); count]
        } else {
            (0..count)
                .map(|_| GemmShape::new(log_uniform(r, 16, 512), n, k))
                .collect()
        };
        Self { batched, shapes }
    }

    fn flops(&self) -> f64 {
        self.shapes.iter().map(|s| flops(*s)).sum()
    }

    fn decompose(&self, workers: usize) -> Decomp {
        if self.batched {
            let space = BatchedSpace::new(self.shapes.len(), self.shapes[0], tile());
            Decomp::Batched(BatchedDecomposition::stream_k(space, workers))
        } else {
            Decomp::Grouped(GroupedDecomposition::stream_k(
                GroupedSpace::new(&self.shapes, tile()),
                workers,
            ))
        }
    }
}

enum Decomp {
    Grouped(GroupedDecomposition),
    Batched(BatchedDecomposition),
}

struct Item {
    plan: Plan,
    a: Vec<Matrix<f32>>,
    /// The B operands of every launch with this (k, n), in order; a
    /// launch uses the first `plan.shapes.len()` (one per expert).
    b: Arc<Vec<Matrix<f32>>>,
    references: Vec<F32Reference>,
    fixup_shape: (usize, usize),
}

impl Input for Item {
    fn flops(&self) -> f64 {
        self.plan.flops()
    }

    fn fixup_shape(&self) -> (usize, usize) {
        self.fixup_shape
    }

    fn pack_bytes(&self, cached: bool) -> f64 {
        self.plan
            .shapes
            .iter()
            .map(|s| layers::pack_bytes(*s, tile(), cached, 4))
            .sum()
    }

    /// A launch that panics counts as failed.
    fn call(&self, exec: &CpuExecutor, workers: usize) -> Call {
        let start = Instant::now();
        let decomp = self.plan.decompose(workers);
        let launched = Instant::now();
        let b = &self.b[..self.a.len()];
        let result = catch_unwind(AssertUnwindSafe(|| match &decomp {
            Decomp::Grouped(d) => exec.gemm_grouped::<f32, f32>(&self.a, b, d),
            Decomp::Batched(d) => exec.gemm_batched::<f32, f32>(&self.a, b, d),
        }));
        let returned = Instant::now();
        let outcome = result
            .map(|cs| {
                cs.len() == self.references.len()
                    && cs.iter().zip(&self.references).all(|(c, r)| r.accepts(c))
            })
            .map_err(|_| ());
        let name = if self.plan.batched {
            "batched_launch"
        } else {
            "grouped_launch"
        };
        Call {
            name,
            start,
            launched,
            returned,
            outcome,
        }
    }
}

/// The shared (n, k) of a launch, each drawn from {256, 512}.
const NK: [(usize, usize); 4] = [(256, 256), (256, 512), (512, 256), (512, 512)];

/// The launches for `seed`. Every (n, k) pair and kind gets its equal
/// share of launches, each share taken by [`stratified`] from a pool of
/// its own, so neither the mix of pairs nor the spread of work varies
/// between seeds; the launches are then shuffled and interleaved so
/// every fourth is batched.
fn plans(seed: u64) -> Vec<Plan> {
    let per_pair = LAUNCHES / NK.len();
    let mut grouped = Vec::new();
    let mut batched = Vec::new();
    for (stream, &nk) in NK.iter().enumerate() {
        for (kind, count, out) in [
            (false, per_pair * 3 / 4, &mut grouped),
            (true, per_pair / 4, &mut batched),
        ] {
            let mut r = rng(seed, 2 * stream as u64 + u64::from(kind) + 4);
            let pool: Vec<Plan> = (0..POOL).map(|_| Plan::draw(&mut r, kind, nk)).collect();
            out.extend(stratified(pool, count, Plan::flops, |p| {
                p.shapes.len() as f64
            }));
        }
    }
    shuffle(&mut rng(seed, 12), &mut grouped);
    shuffle(&mut rng(seed, 13), &mut batched);
    let (mut grouped, mut batched) = (grouped.into_iter(), batched.into_iter());
    (0..LAUNCHES)
        .map(|i| {
            if i % 4 == 3 {
                batched.next()
            } else {
                grouped.next()
            }
            .expect("counts add up")
        })
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let plans = plans(cfg.seed);
    // Expert weights are shared across launches with the same (n, k),
    // which keeps the input set's memory small.
    let mut weights: HashMap<(usize, usize), Arc<Vec<Matrix<f32>>>> = HashMap::new();
    for (i, (n, k)) in NK.into_iter().enumerate() {
        let s = cfg
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(1 << 20)
            .wrapping_add((i * MAX_MEMBERS) as u64);
        let b = par_map(MAX_MEMBERS, cfg.workers, |j| {
            operand::<f32>(k, n, s + j as u64)
        });
        weights.insert((n, k), Arc::new(b));
    }
    let items = par_map(plans.len(), cfg.workers, |i| {
        let plan = plans[i].clone();
        let s = cfg
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add((MAX_MEMBERS * i) as u64);
        let a: Vec<Matrix<f32>> = plan
            .shapes
            .iter()
            .enumerate()
            .map(|(j, p)| operand::<f32>(p.m, p.k, s + j as u64))
            .collect();
        let b = Arc::clone(&weights[&(plan.shapes[0].n, plan.shapes[0].k)]);
        let references = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| F32Reference::new(x, y))
            .collect();
        let fixups = match plan.decompose(cfg.workers) {
            Decomp::Grouped(d) => d.fixups(),
            Decomp::Batched(d) => d.fixups(),
        };
        Item {
            plan,
            a,
            b,
            references,
            fixup_shape: layers::fixup_shape(&fixups),
        }
    });
    let gflop: f64 = items.iter().map(Input::flops).sum::<f64>() / 1e9;
    let members: usize = items.iter().map(|it| it.plan.shapes.len()).sum();
    let mut out = Outcome::default();
    out.notes.push(format!(
        "inputs: {} distinct launches ({} batched), {members} problems, {gflop:.2} GFLOP per pass",
        items.len(),
        items.iter().filter(|it| it.plan.batched).count()
    ));
    direct::run(cfg, &items, tile(), "launches", out)
}
