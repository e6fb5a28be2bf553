//! Order statistics, the per-phase tally every workload fills, and the
//! metric records the report is printed from.

use std::time::{Duration, Instant};

/// `q`-quantile of `values` (`0 ≤ q ≤ 1`), interpolating linearly
/// between order statistics; NaN when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds as milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Seconds as microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One named, unit-carrying number of the report.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What the caller saw over one measured loop: every attempted
/// operation, its outcome, and the latency of each correct one.
///
/// An operation is one `gemm` call, one service request from submit to
/// result, or one grouped or batched launch. The wall clock runs only
/// between [`resume`](Self::resume) and [`pause`](Self::pause), so
/// one tally can span several stretches of a run.
#[derive(Debug)]
pub struct Tally {
    /// Correct operations, whose latency was sampled.
    pub samples: usize,
    /// Per distinct input: GF/s of each correct repetition over the
    /// time the program spent executing it.
    pub per_input_gflops: Vec<Vec<f64>>,
    /// Operations issued.
    pub attempted: usize,
    /// Operations that errored, were rejected, or returned a result
    /// outside its check.
    pub failed: usize,
    /// The subset of `failed` that returned a wrong result.
    pub wrong: usize,
    /// `2·m·n·k` summed over correct operations.
    pub useful_flops: f64,
    wall: Duration,
    running: Option<Instant>,
    excluded: Duration,
    slices: Vec<Slice>,
    /// Latencies of the current slice, ms.
    slice_latency: Vec<f64>,
    /// Useful flops, correct operations and wall time when the current
    /// slice began.
    slice_from: (f64, usize, Duration),
    /// Host CPU ticks when the current slice began.
    slice_ticks: Option<CpuTicks>,
}

/// One slice of a loop.
#[derive(Debug, Clone, Copy)]
struct Slice {
    gflops: f64,
    ops_per_s: f64,
    latency_p50: f64,
    latency_p99: f64,
    /// Share of the machine's CPU time the hypervisor gave to other
    /// guests during the slice.
    steal: f64,
}

/// Slices whose steal share is at most this count as undisturbed.
const STEAL_LIMIT: f64 = 0.02;

/// The machine-wide CPU tick counters of `/proc/stat`: all ticks, and
/// steal ticks (time this virtual machine's CPUs were runnable but the
/// hypervisor ran something else).
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the counters; `None` where `/proc/stat` is unavailable.
    fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (fields.len() == 8).then(|| Self {
            total: fields.iter().sum(),
            steal: fields[7],
        })
    }

    /// Steal share of the ticks elapsed since `earlier`.
    fn steal_since(self, earlier: Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

impl Tally {
    /// An empty tally over `inputs` distinct inputs, clock stopped.
    pub fn new(inputs: usize) -> Self {
        Self {
            samples: 0,
            per_input_gflops: vec![Vec::new(); inputs],
            attempted: 0,
            failed: 0,
            wrong: 0,
            useful_flops: 0.0,
            wall: Duration::ZERO,
            running: None,
            excluded: Duration::ZERO,
            slices: Vec::new(),
            slice_latency: Vec::new(),
            slice_from: (0.0, 0, Duration::ZERO),
            slice_ticks: None,
        }
    }

    /// Ends the current slice. Rates and latency percentiles are
    /// computed per slice and reported as medians over the slices the
    /// host left alone (see [`kept`](Self::kept)), so a burst of
    /// interference from outside the program moves a few slices rather
    /// than the result.
    pub fn cut(&mut self) {
        let (flops, ops, wall) = (self.useful_flops, self.correct(), self.wall());
        let (f0, o0, w0) = self.slice_from;
        let dt = (wall - w0).as_secs_f64();
        let ticks = CpuTicks::now();
        if dt > 0.0 && !self.slice_latency.is_empty() {
            let lat = std::mem::take(&mut self.slice_latency);
            let steal = match (ticks, self.slice_ticks) {
                (Some(now), Some(then)) => now.steal_since(then),
                _ => 0.0,
            };
            self.slices.push(Slice {
                gflops: (flops - f0) / dt / 1e9,
                ops_per_s: (ops - o0) as f64 / dt,
                latency_p50: median(&lat),
                latency_p99: quantile(&lat, 0.99),
                steal,
            });
        }
        self.slice_from = (flops, ops, wall);
        self.slice_ticks = ticks;
    }

    /// The slices the host left alone: those in which the hypervisor
    /// stole at most [`STEAL_LIMIT`] of the machine's CPU time, or, when
    /// fewer than a quarter qualify, the quarter with the least steal.
    /// On a shared host, stolen time slows a slice by an amount that
    /// has nothing to do with the program.
    fn kept(&self) -> Vec<Slice> {
        let mut by_steal = self.slices.clone();
        by_steal.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        let clean = by_steal.iter().filter(|s| s.steal <= STEAL_LIMIT).count();
        by_steal.truncate(clean.max(by_steal.len().div_ceil(4)));
        by_steal
    }

    fn over_slices(&self, field: impl Fn(&Slice) -> f64) -> f64 {
        median(&self.kept().iter().map(field).collect::<Vec<_>>())
    }

    /// Slices cut, slices kept, and the median steal share over all.
    pub fn slice_summary(&self) -> String {
        let steal: Vec<f64> = self.slices.iter().map(|s| s.steal).collect();
        format!(
            "{} of {} slices kept (steal <= {STEAL_LIMIT}; median steal {:.3})",
            self.kept().len(),
            self.slices.len(),
            median(&steal)
        )
    }

    /// Every slice as JSON `[steal share, GF/s, p50 ms, p99 ms]`, for
    /// the report.
    pub fn slices_json(&self) -> String {
        let rows: Vec<String> = self
            .slices
            .iter()
            .map(|s| {
                format!(
                    "[{:.4}, {:.3}, {:.4}, {:.4}]",
                    s.steal, s.gflops, s.latency_p50, s.latency_p99
                )
            })
            .collect();
        format!("[{}]", rows.join(", "))
    }

    /// Starts (or restarts) the wall clock. A slice that has recorded
    /// nothing yet starts its steal count here.
    pub fn resume(&mut self) {
        if self.slice_latency.is_empty() {
            self.slice_ticks = CpuTicks::now();
        }
        self.running.get_or_insert_with(Instant::now);
    }

    /// Stops the wall clock.
    pub fn pause(&mut self) {
        if let Some(t) = self.running.take() {
            self.wall += t.elapsed();
        }
    }

    /// Leaves `d` out of the wall time: a check the client made while
    /// no call into the program was in flight.
    pub fn exclude(&mut self, d: Duration) {
        self.excluded += d;
    }

    /// Wall time while running, less excluded time.
    pub fn wall(&self) -> Duration {
        let running = self.running.map_or(Duration::ZERO, |t| t.elapsed());
        (self.wall + running).saturating_sub(self.excluded)
    }

    /// Records one operation on input `input` worth `flops`, seen by
    /// the caller to take `latency`, of which the program spent `busy`
    /// executing it (the whole call for a direct call; `RequestStats::
    /// service` for a service request, whose queue wait shows in
    /// `latency` instead). `Ok(true)` is a correct result, `Ok(false)`
    /// a wrong one, `Err(())` an error or rejection.
    pub fn record(
        &mut self,
        input: usize,
        flops: f64,
        latency: Duration,
        busy: Duration,
        outcome: Result<bool, ()>,
    ) {
        self.attempted += 1;
        match outcome {
            Ok(true) => {
                self.samples += 1;
                self.slice_latency.push(ms(latency));
                self.per_input_gflops[input].push(flops / busy.as_secs_f64() / 1e9);
                self.useful_flops += flops;
            }
            Ok(false) => {
                self.failed += 1;
                self.wrong += 1;
            }
            Err(()) => self.failed += 1,
        }
    }

    /// Correct operations.
    pub fn correct(&self) -> usize {
        self.attempted - self.failed
    }

    /// Useful GF/s: the median over kept slices.
    pub fn gflops(&self) -> f64 {
        self.over_slices(|s| s.gflops)
    }

    /// Median caller latency, ms: the median over kept slices.
    pub fn latency_p50(&self) -> f64 {
        self.over_slices(|s| s.latency_p50)
    }

    /// The end-to-end metrics of this loop, with `setup_s` measured
    /// separately. `fail_ratio` is not among them: the result line
    /// carries it as `failed / attempted`.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let per_input: Vec<f64> = self
            .per_input_gflops
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        vec![
            metric("gflops", self.gflops(), "GFLOP/s"),
            metric("shape_gflops_p10", quantile(&per_input, 0.10), "GFLOP/s"),
            metric("req_per_s", self.over_slices(|s| s.ops_per_s), "1/s"),
            metric("latency_ms_p50", self.latency_p50(), "ms"),
            metric("latency_ms_p99", self.over_slices(|s| s.latency_p99), "ms"),
            metric("setup_s", setup_s, "s"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tally_counts_failures_apart_from_latency() {
        let mut t = Tally::new(2);
        t.resume();
        let second = Duration::from_secs(1);
        t.record(0, 2e9, second, second, Ok(true));
        t.record(1, 2e9, second, second, Ok(false));
        t.record(1, 2e9, second, second, Err(()));
        assert_eq!((t.attempted, t.failed, t.wrong, t.correct()), (3, 2, 1, 1));
        assert_eq!(t.samples, 1);
        t.cut();
        assert_eq!(t.latency_p50(), 1000.0);
        assert_eq!(t.per_input_gflops[0], vec![2.0]);
    }
}
