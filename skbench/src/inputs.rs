//! Seeded inputs, and the references every output is checked against.
//!
//! Shapes are drawn by a seeded generator and then *stratified* (see
//! [`stratified`]): a large pool is drawn and the inputs are spread
//! evenly over its work quantiles. Each seed keeps the distribution's
//! own shapes (aspect ratios, tile quantization) while the spread of
//! work between seeds shrinks, so seed-to-seed differences in the
//! metrics come from the program and not from a lucky draw of sizes.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, Layout};

/// A generator for stream `stream` of workload seed `seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// An integer log-uniform in `[lo, hi]`.
pub fn log_uniform(rng: &mut StdRng, lo: usize, hi: usize) -> usize {
    let x = rng
        .random_range((lo as f64).ln()..=(hi as f64).ln())
        .exp()
        .round() as usize;
    x.clamp(lo, hi)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// `count` items of `pool`, one from each of `count` equal strata of
/// `pool` sorted by `work`. The pick comes from the central fifth of its
/// stratum by work, so each pick's work sits close to the pool quantile
/// `(i + ½) / count` however wide the stratum (the tails are wide).
/// Within that window it is taken at quantile `q_i` of `shape` (a second
/// property that moves speed), where `q_0, q_1, …` is the base-2 van der
/// Corput sequence (½, ¼, ¾, ⅛, …), so the picks also cover `shape`'s
/// range evenly.
pub fn stratified<T>(
    mut pool: Vec<T>,
    count: usize,
    work: impl Fn(&T) -> f64,
    shape: impl Fn(&T) -> f64,
) -> Vec<T> {
    assert!(
        count > 0 && pool.len() >= 5 * count,
        "pool must hold at least {} items",
        5 * count
    );
    pool.sort_by(|x, y| work(x).total_cmp(&work(y)));
    let n = pool.len();
    let mut slots: Vec<Option<T>> = pool.into_iter().map(Some).collect();
    (0..count)
        .map(|i| {
            let (lo, hi) = (i * n / count, (i + 1) * n / count);
            let fifth = (hi - lo) / 5;
            let mut window: Vec<usize> = (lo + 2 * fifth..lo + 3 * fifth).collect();
            let key = |j: usize| shape(slots[j].as_ref().expect("strata are disjoint"));
            window.sort_by(|&x, &y| key(x).total_cmp(&key(y)));
            let pick = window[(van_der_corput(i + 1) * window.len() as f64) as usize];
            slots[pick].take().expect("strata are disjoint")
        })
        .collect()
}

/// The `i`-th term of the base-2 van der Corput sequence, in `[0, 1)`.
fn van_der_corput(mut i: usize) -> f64 {
    let (mut q, mut scale) = (0.0, 0.5);
    while i > 0 {
        q += scale * (i & 1) as f64;
        i >>= 1;
        scale /= 2.0;
    }
    q
}

/// `2·m·n·k`.
pub fn flops(s: GemmShape) -> f64 {
    2.0 * (s.m * s.n * s.k) as f64
}

/// A row-major random operand in `[-1, 1)` from `seed`.
pub fn operand<T: streamk_matrix::Promote<T> + streamk_matrix::Scalar>(
    rows: usize,
    cols: usize,
    seed: u64,
) -> Matrix<T> {
    Matrix::<T>::random::<T>(rows, cols, Layout::RowMajor, seed)
}

/// Maps `f` over `0..n` on `threads` scoped threads, in order. Used
/// for set-up work (operands and references) only.
pub fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // Relaxed: the counter only hands out indices; results travel back
    // through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// The f64 reference of an f32 product and the forward-error bound an
/// f32 result must meet.
///
/// For any summation order (Stream-K splits included), each element
/// of an f32 product satisfies `|ĉ_ij − c_ij| ≤ γ_k Σ_l |a_il||b_lj|`
/// with `γ_k = k·u / (1 − k·u)` and `u = 2⁻²⁴` (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §3.5). By Cauchy–Schwarz the
/// sum is at most `‖a_i‖₂·‖b_j‖₂`, which is what is checked, per
/// element. Two terms are added: the f64 reference's own error (the same
/// bound at `u = 2⁻⁵³`) and its rounding to f32 for storage (at most
/// `2⁻²⁴·|c_ij|`, and `|c_ij| ≤ ‖a_i‖₂·‖b_j‖₂`).
#[derive(Debug)]
pub struct F32Reference {
    want: Vec<f32>,
    row_norm: Vec<f64>,
    col_norm: Vec<f64>,
    gamma: f64,
    n: usize,
}

fn gamma(k: usize, u: f64) -> f64 {
    let ku = k as f64 * u;
    ku / (1.0 - ku)
}

impl F32Reference {
    /// Computes `A·B` in f64 (row-major operands).
    pub fn new(a: &Matrix<f32>, b: &Matrix<f32>) -> Self {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        assert_eq!(b.rows(), k, "inner dimensions must agree");
        assert!(
            a.layout() == Layout::RowMajor && b.layout() == Layout::RowMajor,
            "row-major operands"
        );
        let (a, b) = (a.as_slice(), b.as_slice());
        let b64: Vec<f64> = b.iter().map(|&x| f64::from(x)).collect();
        let mut want = vec![0.0f64; m * n];
        for (i, row) in want.chunks_exact_mut(n).enumerate() {
            for (l, &x) in a[i * k..(i + 1) * k].iter().enumerate() {
                let x = f64::from(x);
                for (c, &y) in row.iter_mut().zip(&b64[l * n..(l + 1) * n]) {
                    *c += x * y;
                }
            }
        }
        let row_norm = (0..m)
            .map(|i| {
                a[i * k..(i + 1) * k]
                    .iter()
                    .map(|&x| f64::from(x).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        let mut col_sq = vec![0.0f64; n];
        for row in b64.chunks_exact(n) {
            for (s, &y) in col_sq.iter_mut().zip(row) {
                *s += y * y;
            }
        }
        let col_norm = col_sq.into_iter().map(f64::sqrt).collect();
        let gamma = gamma(k, 2f64.powi(-24)) + gamma(k, 2f64.powi(-53)) + 2f64.powi(-24);
        Self {
            want: want.into_iter().map(|c| c as f32).collect(),
            row_norm,
            col_norm,
            gamma,
            n,
        }
    }

    /// Whether `c` is within the forward-error bound of the reference
    /// everywhere (a NaN anywhere fails).
    pub fn accepts(&self, c: &Matrix<f32>) -> bool {
        if c.layout() != Layout::RowMajor || c.cols() != self.n || c.rows() != self.row_norm.len() {
            return false;
        }
        c.as_slice()
            .chunks_exact(self.n)
            .zip(self.want.chunks_exact(self.n))
            .zip(&self.row_norm)
            .all(|((got, want), &rn)| {
                got.iter()
                    .zip(want)
                    .zip(&self.col_norm)
                    .all(|((&g, &w), &cn)| {
                        (f64::from(g) - f64::from(w)).abs() <= self.gamma * rn * cn
                    })
            })
    }
}

/// Whether two f64 results are bit-identical.
pub fn bit_identical(x: &Matrix<f64>, y: &Matrix<f64>) -> bool {
    (x.rows(), x.cols(), x.layout()) == (y.rows(), y.cols(), y.layout())
        && x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_pins_work_and_spreads_shape() {
        // Work is x / 100 (ten strata of 100), shape is x % 100; each
        // stratum's central fifth holds shapes 40..60.
        let picked = stratified(
            (0..1000).collect::<Vec<u32>>(),
            10,
            |&x| f64::from(x / 100),
            |&x| f64::from(x % 100),
        );
        let works: Vec<u32> = picked.iter().map(|x| x / 100).collect();
        assert_eq!(works, (0..10).collect::<Vec<_>>());
        let mut shapes: Vec<u32> = picked.iter().map(|x| x % 100).collect();
        assert!(shapes.iter().all(|s| (40..60).contains(s)), "{shapes:?}");
        shapes.sort_unstable();
        shapes.dedup();
        assert!(shapes.len() >= 8, "shape quantiles spread out: {shapes:?}");
    }

    #[test]
    fn reference_accepts_f32_product_and_rejects_a_perturbed_one() {
        let (a, b) = (operand::<f32>(7, 300, 1), operand::<f32>(300, 5, 2));
        let r = F32Reference::new(&a, &b);
        let mut c = Matrix::<f32>::zeros(7, 5, Layout::RowMajor);
        for i in 0..7 {
            for j in 0..5 {
                // Descending-k order: a different order than the
                // reference's, still inside the bound.
                let s = (0..300)
                    .rev()
                    .fold(0f32, |s, l| s + a.get(i, l) * b.get(l, j));
                c.set(i, j, s);
            }
        }
        assert!(r.accepts(&c));
        c.set(3, 2, c.get(3, 2) + 0.01);
        assert!(!r.accepts(&c));
    }

    #[test]
    fn same_seed_same_inputs() {
        let draw = |seed| {
            let mut r = rng(seed, 3);
            (0..5)
                .map(|_| log_uniform(&mut r, 16, 512))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
