//! `serve-small`: one client thread keeping [`OUTSTANDING`] requests in
//! flight on a `GemmService` (default `ServeConfig`) — a closed loop,
//! because callers block on their reply. Requests are f64 with m, n, k
//! log-uniform in `[32, 256]`, 16×16×8 blocking, `Decomposition::stream_k`
//! at grid = workers. Each result must be bit-identical to a direct
//! `CpuExecutor::gemm` launch of the same decomposition.

use crate::inputs::{
    bit_identical, flops, log_uniform, operand, par_map, rng, shuffle, stratified,
};
use crate::layers::{self, LayerInputs, LayerLog, Phases, SpanLog};
use crate::stats::{median, ms, us, Tally};
use crate::{Config, Outcome};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use streamk_core::Decomposition;
use streamk_cpu::{
    CompletionHandle, CpuExecutor, GemmService, LaunchRequest, ServeConfig, TelemetryRegistry,
};
use streamk_matrix::Matrix;
use streamk_types::{GemmShape, TileShape};

/// Length of one slice of the loop (see `Tally::cut`).
const SLICE: Duration = Duration::from_millis(500);
/// Requests the client keeps in flight.
const OUTSTANDING: usize = 8;
/// Distinct requests, cycled.
const REQUESTS: usize = 256;
/// Request shapes drawn before stratifying.
const POOL: usize = 32768;

fn tile() -> TileShape {
    TileShape::new(16, 16, 8)
}

struct Item {
    shape: GemmShape,
    a: Matrix<f64>,
    b: Matrix<f64>,
    expected: Matrix<f64>,
    split_tiles: usize,
    peers_max: usize,
}

fn shapes(seed: u64) -> Vec<GemmShape> {
    let mut r = rng(seed, 2);
    let pool: Vec<GemmShape> = (0..POOL)
        .map(|_| {
            let mut d = || log_uniform(&mut r, 32, 256);
            GemmShape::new(d(), d(), d())
        })
        .collect();
    let mut picked = stratified(
        pool,
        REQUESTS,
        |s| flops(*s),
        |s| s.m.min(s.n).min(s.k) as f64,
    );
    shuffle(&mut rng(seed, 3), &mut picked);
    picked
}

/// Operands, and each request's expected result from a direct launch
/// on `exec` (before any service holds its pool).
fn items(cfg: &Config, exec: &CpuExecutor) -> Vec<Item> {
    let shapes = shapes(cfg.seed);
    let operands = par_map(shapes.len(), cfg.workers, |i| {
        let s = cfg.seed.wrapping_mul(1_000_003).wrapping_add(2 * i as u64);
        (
            operand::<f64>(shapes[i].m, shapes[i].k, s),
            operand::<f64>(shapes[i].k, shapes[i].n, s + 1),
        )
    });
    shapes
        .into_iter()
        .zip(operands)
        .map(|(shape, (a, b))| {
            let decomp = Decomposition::stream_k(shape, tile(), cfg.workers);
            let expected = exec.gemm::<f64, f64>(&a, &b, &decomp);
            let (split_tiles, peers_max) = crate::layers::fixup_shape(&decomp.fixups());
            Item {
                shape,
                a,
                b,
                expected,
                split_tiles,
                peers_max,
            }
        })
        .collect()
}

struct InFlight {
    handle: CompletionHandle<f64, f64>,
    input: usize,
    submitted: Instant,
    /// Span operation id (traced loop).
    op: u64,
}

/// Runs the closed loop into `tally`: one pass over `items` when
/// `until` is zero, else cycles them until `tally`'s wall time reaches
/// `until`; then drains.
fn closed_loop(
    svc: &GemmService<f64, f64>,
    cfg: &Config,
    items: &[Item],
    until: Duration,
    tally: &mut Tally,
    log: &mut LayerLog,
    mut trace: Option<&mut Traced<'_>>,
) {
    tally.resume();
    let mut slice_end = tally.wall() + SLICE;
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(OUTSTANDING);
    let mut issued = 0usize;
    loop {
        let more = if until.is_zero() {
            issued < items.len()
        } else {
            tally.wall() < until
        };
        if more && inflight.len() < OUTSTANDING {
            let input = issued % items.len();
            issued += 1;
            let item = &items[input];
            let t0 = Instant::now();
            let decomp = Decomposition::stream_k(item.shape, tile(), cfg.workers);
            let t1 = Instant::now();
            log.decomposed(t1 - t0, item.split_tiles, item.peers_max);
            let request = LaunchRequest::new(item.a.clone(), item.b.clone(), decomp);
            let t2 = Instant::now();
            let submitted = svc.submit(request);
            let t3 = Instant::now();
            log.submit_us.push(us(t3 - t2));
            let op = trace.as_mut().map_or(0, |t| {
                let op = t.spans.next_op();
                t.spans.record(op, "decompose", t0, t1);
                t.spans.record(op, "submit", t2, t3);
                op
            });
            match submitted {
                Ok(handle) => inflight.push_back(InFlight {
                    handle,
                    input,
                    submitted: t2,
                    op,
                }),
                Err(_) => {
                    log.rejected += 1;
                    tally.record(
                        input,
                        flops(item.shape),
                        Duration::ZERO,
                        Duration::ZERO,
                        Err(()),
                    );
                }
            }
            continue;
        }
        // Collect a finished request if there is one, else wait on the
        // oldest.
        if inflight.is_empty() {
            break;
        }
        let pos = inflight
            .iter()
            .position(|f| f.handle.is_finished())
            .unwrap_or(0);
        let f = inflight.remove(pos).expect("position is in range");
        let id = f.handle.id();
        let w0 = Instant::now();
        let result = f.handle.wait();
        let done = Instant::now();
        let latency = done - f.submitted;
        let (busy, outcome) = match result {
            Ok((c, st)) => {
                log.queued_ms.push(ms(st.queued));
                log.service_ms.push(ms(st.service));
                log.wake_us.push(us(latency.saturating_sub(st.latency)));
                log.ctas += st.ctas;
                log.deferrals += st.deferrals;
                log.recoveries += st.recoveries;
                log.wait_stall += st.wait_stall;
                (st.service, Ok(bit_identical(&c, &items[f.input].expected)))
            }
            Err(_) => (latency, Err(())),
        };
        tally.record(f.input, flops(items[f.input].shape), latency, busy, outcome);
        if tally.wall() >= slice_end {
            tally.cut();
            slice_end = tally.wall() + SLICE;
        }
        if let Some(t) = trace.as_mut() {
            let span = t.spans.record(f.op, "wait", w0, done);
            t.waits.insert(id, span);
            if t.waits.len() % 128 == 0 {
                t.merge();
            }
        }
    }
    tally.pause();
    tally.cut();
}

/// The traced loop's state: benchmark spans, the service's request
/// timelines merged into them, and the phase total.
struct Traced<'a> {
    spans: &'a mut SpanLog,
    telemetry: &'a TelemetryRegistry,
    /// Request id → index of its `wait` span.
    waits: HashMap<u64, usize>,
    phases: Phases,
}

impl Traced<'_> {
    /// Merges the request timelines harvested so far into the `wait`
    /// spans of their requests. Called often enough that the service's
    /// bounded trace buffer never drops one.
    fn merge(&mut self) {
        for request in self.telemetry.take_trace().requests {
            let p = Phases::from_request(&request.spans);
            self.phases.add(&p);
            if let Some(&i) = self.waits.get(&request.id) {
                self.spans.attach(i, &p);
            }
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let items = items(cfg, &CpuExecutor::with_threads(cfg.workers));
    let gflop: f64 = items.iter().map(|it| flops(it.shape)).sum::<f64>() / 1e9;
    out.notes.push(format!(
        "inputs: {} distinct f64 requests, m/n/k in [32, 256], {OUTSTANDING} outstanding, {gflop:.3} GFLOP per pass",
        items.len(),
    ));

    // Set-up: executor, pool and service construction plus one cold
    // pass. The last set-up's executor is kept.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..cfg.setups() {
        drop(kept.take());
        let t0 = Instant::now();
        let exec = CpuExecutor::with_threads(cfg.workers);
        let svc = GemmService::<f64, f64>::start(&exec, ServeConfig::default());
        let built = t0.elapsed();
        let mut cold = Tally::new(items.len());
        closed_loop(
            &svc,
            cfg,
            &items,
            Duration::ZERO,
            &mut cold,
            &mut LayerLog::default(),
            None,
        );
        setup_s.push((built + cold.wall()).as_secs_f64());
        out.count(&cold);
        kept = Some((exec, svc));
    }
    let (exec, svc) = kept.expect("at least one set-up");

    if !cfg.trace {
        let mut tally = Tally::new(items.len());
        closed_loop(
            &svc,
            cfg,
            &items,
            cfg.seconds,
            &mut tally,
            &mut LayerLog::default(),
            None,
        );
        out.count(&tally);
        out.notes.push(format!(
            "samples: {} requests over {:.2} s; slices (0.5 s each): {}; {} set-ups",
            tally.samples,
            tally.wall().as_secs_f64(),
            tally.slice_summary(),
            setup_s.len()
        ));
        out.metrics = tally.end_to_end(median(&setup_s));
        out.slices = tally.slices_json();
        return out;
    }
    drop(svc);

    // The pool is free while no service runs.
    let mut spans = SpanLog::new();
    let ceilings = layers::ceilings::<f64, f64>(&exec, tile(), &mut spans);

    // Untraced and traced services alternate in four stretches, so
    // drift over the run reaches both alike.
    let stretch = cfg.seconds / 4;
    let mut log = LayerLog::default();
    let (mut untraced, mut traced) = (Tally::new(items.len()), Tally::new(items.len()));
    let mut phases = Phases::default();
    for round in 1..=2u32 {
        let svc = GemmService::<f64, f64>::start(&exec, ServeConfig::default());
        let before = svc.stats();
        closed_loop(
            &svc,
            cfg,
            &items,
            stretch * round,
            &mut untraced,
            &mut log,
            None,
        );
        let after = svc.shutdown();
        log.steals += after.steals - before.steals;
        log.rejected += after.rejected - before.rejected;

        let svc = GemmService::<f64, f64>::start(&exec, ServeConfig::default().with_trace(true));
        let telemetry = svc.telemetry();
        let mut state = Traced {
            spans: &mut spans,
            telemetry: &telemetry,
            waits: HashMap::new(),
            phases,
        };
        closed_loop(
            &svc,
            cfg,
            &items,
            stretch * round,
            &mut traced,
            &mut LayerLog::default(),
            Some(&mut state),
        );
        drop(svc);
        state.merge();
        phases = state.phases;
    }
    out.count(&untraced);
    out.count(&traced);

    let bytes: f64 = items
        .iter()
        .map(|it| layers::pack_bytes(it.shape, tile(), false, 8))
        .sum();
    out.notes.push(format!(
        "samples: {} untraced + {} traced requests",
        untraced.samples, traced.samples
    ));
    out.metrics = layers::per_layer(&LayerInputs {
        untraced: &untraced,
        log: &log,
        traced: &traced,
        phases: &phases,
        ceilings,
        pack_bytes_per_gflop: bytes / gflop,
        workers: cfg.workers,
        serve: true,
    });
    out.spans = Some(spans);
    out
}
