//! The closed loop shared by the workloads that call the executor
//! directly (`gemm-corpus`, `grouped-ragged`): one client issuing
//! checked operations back to back over a fixed input set, in whole
//! passes.

use crate::layers::{self, LayerInputs, LayerLog, Phases, SpanLog};
use crate::stats::{median, Tally};
use crate::{Config, Outcome};
use std::time::Instant;
use streamk_cpu::CpuExecutor;
use streamk_types::TileShape;

/// One operation as the client saw it.
pub struct Call {
    /// Span name of the call into the executor.
    pub name: &'static str,
    /// Before the decomposition constructor.
    pub start: Instant,
    /// After the constructor, as the executor is called.
    pub launched: Instant,
    /// When the executor returned.
    pub returned: Instant,
    /// `Ok(correct?)`, or `Err(())` if the call errored or panicked.
    pub outcome: Result<bool, ()>,
}

/// One input of a direct workload.
pub trait Input: Sync {
    /// Useful `2·m·n·k` of one operation.
    fn flops(&self) -> f64;
    /// Split tiles and widest peer count of its decomposition.
    fn fixup_shape(&self) -> (usize, usize);
    /// Computed pack traffic of one operation, bytes.
    fn pack_bytes(&self, cached: bool) -> f64;
    /// Builds the decomposition, calls the executor, and checks the
    /// result.
    fn call(&self, exec: &CpuExecutor, workers: usize) -> Call;
}

fn op<I: Input>(
    exec: &CpuExecutor,
    workers: usize,
    index: usize,
    item: &I,
    tally: &mut Tally,
    log: &mut LayerLog,
    trace: Option<(&mut SpanLog, &mut Phases)>,
) {
    let call = item.call(exec, workers);
    tally.exclude(call.returned.elapsed());
    let took = call.returned - call.launched;
    tally.record(index, item.flops(), took, took, call.outcome);

    let st = exec.last_stats();
    let (split_tiles, peers_max) = item.fixup_shape();
    log.decomposed(call.launched - call.start, split_tiles, peers_max);
    log.steals += st.steals;
    log.deferrals += st.deferrals;
    log.wait_stall += st.wait_stall;
    log.recoveries += st.recoveries;
    if let Some((spans, phases)) = trace {
        let id = spans.next_op();
        spans.record(id, "decompose", call.start, call.launched);
        let span = spans.record(id, call.name, call.launched, call.returned);
        // Entry points that record no spans (grouped, batched) leave
        // `last_trace` empty: their launches count as unattributed.
        if let Some(t) = exec.last_trace() {
            let p = Phases::from_exec(&t);
            phases.add(&p);
            spans.attach(span, &p);
        }
    }
}

/// One pass over `items` into `tally`, its wall clock running.
fn pass<I: Input>(
    exec: &CpuExecutor,
    workers: usize,
    items: &[I],
    tally: &mut Tally,
    log: &mut LayerLog,
    mut trace: Option<(&mut SpanLog, &mut Phases)>,
) {
    tally.resume();
    for (i, item) in items.iter().enumerate() {
        let t = trace.as_mut().map(|(s, p)| (&mut **s, &mut **p));
        op(exec, workers, i, item, tally, log, t);
    }
    tally.pause();
    tally.cut();
}

/// Runs a direct workload over `items` (f32, blocking `tile`).
/// `what` names one operation in the sample-count note.
pub fn run<I: Input>(
    cfg: &Config,
    items: &[I],
    tile: TileShape,
    what: &str,
    mut out: Outcome,
) -> Outcome {
    // Set-up: executor and pool construction plus one cold pass; the
    // last set-up's executor is kept.
    let mut setup_s = Vec::new();
    let mut exec = None;
    for _ in 0..cfg.setups() {
        drop(exec.take());
        let t0 = Instant::now();
        let e = CpuExecutor::with_threads(cfg.workers);
        let _ = e.worker_pool();
        let built = t0.elapsed();
        let mut cold = Tally::new(items.len());
        pass(
            &e,
            cfg.workers,
            items,
            &mut cold,
            &mut LayerLog::default(),
            None,
        );
        setup_s.push((built + cold.wall()).as_secs_f64());
        out.count(&cold);
        exec = Some(e);
    }
    let exec = exec.expect("at least one set-up");

    if !cfg.trace {
        let mut tally = Tally::new(items.len());
        while tally.wall() < cfg.seconds {
            pass(
                &exec,
                cfg.workers,
                items,
                &mut tally,
                &mut LayerLog::default(),
                None,
            );
        }
        out.count(&tally);
        out.notes.push(format!(
            "samples: {} {what} over {:.2} s; slices (one pass over the inputs each): {}; {} set-ups",
            tally.samples,
            tally.wall().as_secs_f64(),
            tally.slice_summary(),
            setup_s.len()
        ));
        out.metrics = tally.end_to_end(median(&setup_s));
        out.slices = tally.slices_json();
        return out;
    }

    // Untraced and traced passes alternate, so drift over the run
    // (clock, cache, allocator state) reaches both alike.
    let traced_exec = exec.clone().with_trace(true);
    let mut log = LayerLog::default();
    let mut spans = SpanLog::new();
    let mut phases = Phases::default();
    let (mut untraced, mut traced) = (Tally::new(items.len()), Tally::new(items.len()));
    while untraced.wall() + traced.wall() < cfg.seconds {
        pass(&exec, cfg.workers, items, &mut untraced, &mut log, None);
        let t = Some((&mut spans, &mut phases));
        pass(
            &traced_exec,
            cfg.workers,
            items,
            &mut traced,
            &mut LayerLog::default(),
            t,
        );
    }
    out.count(&untraced);
    out.count(&traced);
    let ceilings = layers::ceilings::<f32, f32>(&exec, tile, &mut spans);
    let gflop: f64 = items.iter().map(I::flops).sum::<f64>() / 1e9;
    let bytes: f64 = items
        .iter()
        .map(|it| it.pack_bytes(exec.pack_cache()))
        .sum();
    out.notes.push(format!(
        "samples: {} untraced + {} traced {what}",
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
        serve: false,
    });
    out.spans = Some(spans);
    out
}
