//! Per-layer measurement from outside the program: the benchmark's own
//! spans around each call into a layer, the counters the program
//! already exposes, the program's opt-in phase spans (read after each
//! call), and single-layer ceilings timed on the host.

use crate::stats::{median, metric, quantile, us, Metric, Tally};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use streamk_core::{IterSpace, Phase, SpanKind, TileFixup};
use streamk_cpu::{mac_loop_kernel, CpuExecutor, ExecTrace, KernelKind, PackBuffers, Span};
use streamk_matrix::{pack_a_into, pack_b_into, Matrix, Promote, Scalar};
use streamk_types::{GemmShape, Layout, TileShape};

/// The worker phases of the program's span vocabulary. `Phase::Queue`
/// is left out: a queued request occupies no worker.
const WORKER_PHASES: [Phase; 6] = [
    Phase::Compute,
    Phase::Pack,
    Phase::Fixup,
    Phase::Stall,
    Phase::Schedule,
    Phase::Recovery,
];

/// Worker self-time per phase, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases([u64; WORKER_PHASES.len()]);

impl Phases {
    fn slot(phase: Phase) -> Option<usize> {
        WORKER_PHASES.iter().position(|p| *p == phase)
    }

    /// Self-time of one executor launch's spans. The executor records
    /// panel packing inside the MAC span that triggers it, so a span's
    /// self-time is its duration minus the spans nested in it on the
    /// same worker; container kinds (whole CTAs) are skipped.
    pub fn from_exec(trace: &ExecTrace) -> Self {
        let mut out = Self::default();
        for worker in &trace.workers {
            let mut spans: Vec<&Span> = worker
                .spans
                .iter()
                .filter(|s| !s.kind.is_container())
                .collect();
            spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
            let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns()).collect();
            let mut open: Vec<usize> = Vec::new();
            for (i, s) in spans.iter().enumerate() {
                while open.last().is_some_and(|&p| spans[p].end_ns <= s.start_ns) {
                    open.pop();
                }
                if let Some(&p) = open.last() {
                    if spans[p].end_ns >= s.end_ns {
                        self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
                    }
                }
                open.push(i);
            }
            for (s, ns) in spans.iter().zip(self_ns) {
                out.add_kind(s.kind, ns);
            }
        }
        out
    }

    /// Time of one service request's spans. The service records no
    /// nested leaf spans (its packing runs untraced inside the MAC
    /// span), and a request's spans come from several workers, so each
    /// leaf span counts whole.
    pub fn from_request(spans: &[Span]) -> Self {
        let mut out = Self::default();
        for s in spans.iter().filter(|s| !s.kind.is_container()) {
            out.add_kind(s.kind, s.dur_ns());
        }
        out
    }

    fn add_kind(&mut self, kind: SpanKind, ns: u64) {
        if let Some(i) = Self::slot(kind.phase()) {
            self.0[i] += ns;
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Self) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// Nanoseconds in `phase` (0 for `Phase::Queue`).
    pub fn get(&self, phase: Phase) -> u64 {
        Self::slot(phase).map_or(0, |i| self.0[i])
    }

    /// Nanoseconds across every worker phase.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

/// One benchmark-side span: a call into a layer. Spans of one
/// operation share `op`.
#[derive(Debug, Clone)]
struct BenchSpan {
    op: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    phases: Option<Phases>,
}

/// The traced run's spans, kept in memory and written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<BenchSpan>,
    ops: u64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation id.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    /// Records the call `name` of operation `op` over `[start, end]`;
    /// returns its index for [`attach`](Self::attach).
    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(BenchSpan {
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            phases: None,
        });
        self.spans.len() - 1
    }

    /// Merges the program's phase breakdown into the call at `index`.
    pub fn attach(&mut self, index: usize, phases: &Phases) {
        self.spans[index]
            .phases
            .get_or_insert_with(Phases::default)
            .add(phases);
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as JSON: one object per span with its
    /// operation id, name, start and end in µs since the log began,
    /// and the merged phase self-times in µs where the program traced
    /// the call.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "  {{\"op\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}",
                s.op,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
            if let Some(p) = &s.phases {
                out.push_str(", \"phases_us\": {");
                for (j, phase) in WORKER_PHASES.iter().enumerate() {
                    let sep = if j == 0 { "" } else { ", " };
                    let _ = write!(
                        out,
                        "{sep}\"{}\": {:.3}",
                        phase.name(),
                        p.get(*phase) as f64 / 1e3
                    );
                }
                out.push('}');
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Counters and benchmark-side timings gathered per operation.
#[derive(Debug, Default)]
pub struct LayerLog {
    /// Operations observed.
    pub ops: usize,
    /// Time in the decomposition constructor per operation, µs.
    pub decompose_us: Vec<f64>,
    /// Split (multi-CTA) tiles summed over operations.
    pub split_tiles: usize,
    /// Widest fixup: most peers of any one tile of any operation.
    pub peers_max: usize,
    /// Scheduler steals summed over operations.
    pub steals: usize,
    /// Cooperative fixup deferrals summed over operations.
    pub deferrals: usize,
    /// Owner fixup-wait stall summed over operations and workers.
    pub wait_stall: Duration,
    /// Watchdog recoveries summed over operations.
    pub recoveries: usize,
    /// Service only: time in `submit`, µs.
    pub submit_us: Vec<f64>,
    /// Service only: `RequestStats::queued`, ms.
    pub queued_ms: Vec<f64>,
    /// Service only: `RequestStats::service`, ms.
    pub service_ms: Vec<f64>,
    /// Service only: caller-observed latency minus
    /// `RequestStats::latency`, µs.
    pub wake_us: Vec<f64>,
    /// Service only: admission rejections.
    pub rejected: usize,
    /// Service only: CTAs executed summed over requests.
    pub ctas: usize,
}

impl LayerLog {
    /// Records a decomposition built for one operation.
    pub fn decomposed(&mut self, took: Duration, split_tiles: usize, peers_max: usize) {
        self.ops += 1;
        self.decompose_us.push(us(took));
        self.split_tiles += split_tiles;
        self.peers_max = self.peers_max.max(peers_max);
    }

    fn per_op(&self, total: usize) -> f64 {
        total as f64 / self.ops.max(1) as f64
    }
}

/// Split (multi-CTA) tiles and the most peers of any tile.
pub fn fixup_shape(fixups: &[TileFixup]) -> (usize, usize) {
    let split = fixups.iter().filter(|f| !f.is_data_parallel()).count();
    (
        split,
        fixups.iter().map(|f| f.peers.len()).max().unwrap_or(0),
    )
}

/// Single-layer ceilings timed on this host.
#[derive(Debug, Clone, Copy)]
pub struct Ceilings {
    /// Single-thread MAC loop on a cache-resident tile, GF/s.
    pub mac_gflops: f64,
    /// Panel packing of a cache-resident block, GB/s of panels
    /// written.
    pub pack_gbps: f64,
    /// A no-op launch on the executor's worker pool, µs (median).
    pub pool_launch_us: f64,
}

/// Times `batch` for about `budget` in `rounds` rounds; returns the
/// median of `work / seconds` over the rounds.
fn rate(budget: Duration, rounds: usize, work: f64, mut batch: impl FnMut()) -> f64 {
    let t = Instant::now();
    batch();
    let per_round = budget.as_secs_f64() / rounds as f64;
    let reps = ((per_round / t.elapsed().as_secs_f64().max(1e-9)) as usize).max(1);
    let rates: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                batch();
            }
            work * reps as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Measures the MAC, pack and pool ceilings at the workload's
/// precision and blocking with the default kernel, and records each
/// pool launch in `spans`.
pub fn ceilings<In, Acc>(exec: &CpuExecutor, tile: TileShape, spans: &mut SpanLog) -> Ceilings
where
    In: Promote<Acc>,
    Acc: Scalar,
{
    let kind = KernelKind::default();
    let k = 16 * tile.blk_k;
    let a = Matrix::<In>::random::<Acc>(tile.blk_m, k, Layout::RowMajor, 11);
    let b = Matrix::<In>::random::<Acc>(k, tile.blk_n, Layout::RowMajor, 12);
    let space = IterSpace::new(GemmShape::new(tile.blk_m, tile.blk_n, k), tile);
    let iters = space.iters_per_tile();
    let mut accum = vec![Acc::ZERO; tile.blk_m * tile.blk_n];
    let mut bufs = PackBuffers::<In>::new();
    let (av, bv) = (a.view(), b.view());
    let flops = 2.0 * (tile.blk_m * tile.blk_n * k) as f64;
    let mac_gflops = rate(Duration::from_millis(300), 30, flops / 1e9, || {
        mac_loop_kernel(kind, &av, &bv, &space, 0, 0, iters, &mut accum, &mut bufs);
        black_box(&mut accum);
    });

    let (mr, nr) = kind
        .register_block()
        .expect("the default kernel consumes packed panels");
    let bytes = ((tile.blk_m.div_ceil(mr) * mr + tile.blk_n.div_ceil(nr) * nr)
        * k
        * std::mem::size_of::<In>()) as f64;
    let pack_gbps = rate(Duration::from_millis(200), 20, bytes / 1e9, || {
        pack_a_into(&av, 0..tile.blk_m, 0..k, mr, &mut bufs.a);
        pack_b_into(&bv, 0..k, 0..tile.blk_n, nr, &mut bufs.b);
        black_box(&mut bufs);
    });

    let pool = exec.worker_pool();
    let launches: Vec<f64> = (0..2000)
        .map(|_| {
            let t0 = Instant::now();
            pool.run(&|_, _| {});
            let t1 = Instant::now();
            let op = spans.next_op();
            spans.record(op, "pool_launch", t0, t1);
            us(t1 - t0)
        })
        .collect();
    Ceilings {
        mac_gflops,
        pack_gbps,
        pool_launch_us: median(&launches),
    }
}

/// Computed pack traffic of one GEMM, bytes: `cached` packs each A
/// and B panel once per launch (the executor's pack cache); otherwise
/// every MAC iteration packs its own A and B blocks (the service).
pub fn pack_bytes(shape: GemmShape, tile: TileShape, cached: bool, elem: usize) -> f64 {
    let (tm, tn) = (shape.m.div_ceil(tile.blk_m), shape.n.div_ceil(tile.blk_n));
    let k_pad = shape.k.div_ceil(tile.blk_k) * tile.blk_k;
    let elems = if cached {
        (tm * tile.blk_m + tn * tile.blk_n) * k_pad
    } else {
        tm * tn * (tile.blk_m + tile.blk_n) * k_pad
    };
    (elems * elem) as f64
}

/// Everything [`per_layer`] reads.
pub struct LayerInputs<'a> {
    /// The untraced loop: the same code path the end-to-end runs time.
    pub untraced: &'a Tally,
    /// Counters and benchmark-side timings of the untraced loop.
    pub log: &'a LayerLog,
    /// The traced loop.
    pub traced: &'a Tally,
    /// Worker self-time by phase over the traced loop.
    pub phases: &'a Phases,
    /// Host ceilings.
    pub ceilings: Ceilings,
    /// Computed pack bytes per GFLOP of the input set.
    pub pack_bytes_per_gflop: f64,
    /// Executor workers.
    pub workers: usize,
    /// Service workloads report the `serve.*` layer; the others read 0
    /// there, since they make no service request.
    pub serve: bool,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let log = x.log;
    let worker_ns = |t: &Tally| t.wall().as_nanos() as f64 * x.workers as f64;
    let share = |phase: Phase| x.phases.get(phase) as f64 / worker_ns(x.traced);
    let serve = |v: f64| if x.serve { v } else { 0.0 };
    vec![
        metric("decompose.us_p50", median(&log.decompose_us), "us"),
        metric(
            "decompose.split_tiles_per_op",
            log.per_op(log.split_tiles),
            "count",
        ),
        metric("decompose.peers_max", log.peers_max as f64, "count"),
        metric("pool.launch_us_p50", x.ceilings.pool_launch_us, "us"),
        metric("mac.ceiling_gflops", x.ceilings.mac_gflops, "GFLOP/s"),
        metric(
            "mac.ceiling_share",
            x.untraced.gflops() / (x.ceilings.mac_gflops * x.workers as f64),
            "ratio",
        ),
        metric("mac.time_share", share(Phase::Compute), "ratio"),
        metric("pack.ceiling_gbps", x.ceilings.pack_gbps, "GB/s"),
        metric(
            "pack.bytes_per_gflop",
            x.pack_bytes_per_gflop,
            "B/GFLOP-computed",
        ),
        metric("pack.time_share", share(Phase::Pack), "ratio"),
        metric("sched.steals_per_op", log.per_op(log.steals), "count"),
        metric("sched.time_share", share(Phase::Schedule), "ratio"),
        metric("fixup.deferrals_per_op", log.per_op(log.deferrals), "count"),
        metric(
            "fixup.wait_stall_share",
            log.wait_stall.as_nanos() as f64 / worker_ns(x.untraced),
            "ratio",
        ),
        metric("fixup.recoveries", log.recoveries as f64, "count"),
        metric("fixup.time_share", share(Phase::Fixup), "ratio"),
        metric("stall.time_share", share(Phase::Stall), "ratio"),
        metric("serve.submit_us_p50", serve(median(&log.submit_us)), "us"),
        metric(
            "serve.submit_us_p99",
            serve(quantile(&log.submit_us, 0.99)),
            "us",
        ),
        metric("serve.queued_ms_p50", serve(median(&log.queued_ms)), "ms"),
        metric(
            "serve.queued_ms_p99",
            serve(quantile(&log.queued_ms, 0.99)),
            "ms",
        ),
        metric("serve.service_ms_p50", serve(median(&log.service_ms)), "ms"),
        metric(
            "serve.service_ms_p99",
            serve(quantile(&log.service_ms, 0.99)),
            "ms",
        ),
        metric("serve.wake_us_p50", serve(median(&log.wake_us)), "us"),
        metric("serve.rejected", log.rejected as f64, "count"),
        metric("serve.ctas_per_req", serve(log.per_op(log.ctas)), "count"),
        metric(
            "trace.overhead_pct",
            (x.traced.latency_p50() / x.untraced.latency_p50() - 1.0) * 100.0,
            "%",
        ),
        metric(
            "unattributed_share",
            1.0 - x.phases.total() as f64 / worker_ns(x.traced),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamk_cpu::WorkerTrace;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            arg: 0,
            arg2: 0,
        }
    }

    #[test]
    fn nested_pack_is_subtracted_from_its_mac_span() {
        let worker = WorkerTrace {
            spans: vec![
                span(SpanKind::Cta, 0, 120),
                span(SpanKind::Mac, 0, 100),
                span(SpanKind::PackCached, 10, 30),
                span(SpanKind::Signal, 100, 110),
            ],
            dropped: 0,
        };
        let p = Phases::from_exec(&ExecTrace {
            workers: vec![worker],
            wall_ns: 120,
        });
        assert_eq!(p.get(Phase::Compute), 80);
        assert_eq!(p.get(Phase::Pack), 20);
        assert_eq!(p.get(Phase::Fixup), 10);
        assert_eq!(p.total(), 110, "the CTA container adds nothing");
    }

    #[test]
    fn pack_cache_packs_each_panel_once() {
        let tile = TileShape::new(64, 64, 16);
        let shape = GemmShape::new(128, 192, 32);
        // 2×3 tiles, 2 iterations: cached packs (128 + 192)·32 elements,
        // uncached packs every tile-iteration's (64 + 64)·16 elements.
        assert_eq!(
            pack_bytes(shape, tile, true, 4),
            ((128 + 192) * 32 * 4) as f64
        );
        assert_eq!(
            pack_bytes(shape, tile, false, 4),
            (6 * 2 * 128 * 16 * 4) as f64
        );
    }
}
