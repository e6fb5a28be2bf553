//! The repository benchmark.
//!
//! ```text
//! skbench --workload <gemm-corpus|serve-small|grouped-ragged> --seed <n>
//!         --seconds <s> --trace <0|1> [--workers <n>] [--out-dir <dir>]
//!         [--git <hash>] [--rustc <version>]
//! ```
//!
//! Each workload drives the program from one client thread through its
//! public entry points, checks every output, and prints a report whose
//! last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones (tracing off); with `--trace 1` they
//! are the per-layer ones from a separate traced loop. `README.md`
//! explains the workloads and metrics.

mod corpus;
mod direct;
mod grouped;
mod inputs;
mod layers;
mod serve;
mod stats;

use stats::Metric;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Executor workers.
    pub workers: usize,
}

impl Config {
    /// Set-ups to time: several for `setup_s`, one when it is not
    /// reported.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end or per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Operations issued over the whole run, set-ups included.
    pub attempted: usize,
    /// Operations that errored, were rejected, or were wrong.
    pub failed: usize,
    /// Operations whose result failed its check.
    pub wrong: usize,
    /// Extra report lines (sample counts and the like).
    pub notes: Vec<String>,
    /// The measured loop's slices as JSON, for the report.
    pub slices: String,
    /// The traced run's spans.
    pub spans: Option<layers::SpanLog>,
}

impl Outcome {
    /// Adds one loop's operation counts.
    pub fn count(&mut self, t: &stats::Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.wrong += t.wrong;
    }
}

const WORKLOADS: [&str; 3] = ["gemm-corpus", "serve-small", "grouped-ragged"];

struct Args {
    workload: String,
    config: Config,
    out_dir: PathBuf,
    git: String,
    rustc: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let nproc = nproc();
    let mut workers = nproc;
    let mut out_dir = PathBuf::from("skbench/out");
    let mut git = String::from("unknown");
    let mut rustc = String::from("unknown");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number(value)?),
            "--seconds" => seconds = Some(number(value)?),
            "--trace" => trace = Some(number(value)?),
            "--workers" => workers = number(value)? as usize,
            "--out-dir" => out_dir = PathBuf::from(value),
            "--git" => git = value.clone(),
            "--rustc" => rustc = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600, got {seconds}"));
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    if workers == 0 {
        return Err("--workers must be positive".into());
    }
    let config = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace,
        workers,
    };
    Ok(Args {
        workload,
        config,
        out_dir,
        git,
        rustc,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("skbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.config;
    let nproc = nproc();
    let oversubscribed = cfg.workers > nproc;
    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git\": {}, \"rustc\": {}, \"simd\": {}, \"kernel\": {}, \"nproc\": {nproc}, \"workers\": {}, \"oversubscribed\": {oversubscribed}}}",
        json_str(&args.workload),
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace),
        json_str(&args.git),
        json_str(&args.rustc),
        json_str(streamk_cpu::SimdLevel::detect().name()),
        json_str(streamk_cpu::KernelKind::default().name()),
        cfg.workers,
    );
    println!("stamp {stamp}");

    let outcome = match args.workload.as_str() {
        "gemm-corpus" => corpus::run(cfg),
        "serve-small" => serve::run(cfg),
        _ => grouped::run(cfg),
    };

    for note in &outcome.notes {
        println!("  {note}");
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("  {:<32} {fail_ratio:>14.6} ratio", "fail_ratio");
    for m in &outcome.metrics {
        println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }

    let _ = std::fs::create_dir_all(&args.out_dir);
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    let report = format!(
        "{{\"stamp\": {stamp}, \"attempted\": {}, \"failed\": {}, \"wrong\": {}, \"fail_ratio\": {fail_ratio}, \"notes\": [{}], \"metrics\": {}, \"slices\": {}}}\n",
        outcome.attempted,
        outcome.failed,
        outcome.wrong,
        outcome.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
        metrics_json(&outcome.metrics),
        if outcome.slices.is_empty() { "[]" } else { &outcome.slices }
    );
    let report_path = args.out_dir.join(format!("report-{tag}.json"));
    if let Err(e) = std::fs::write(&report_path, report) {
        eprintln!("skbench: cannot write {}: {e}", report_path.display());
    }
    if let Some(spans) = &outcome.spans {
        let path = args.out_dir.join(format!("spans-{tag}.json"));
        match spans.write(&path) {
            Ok(()) => println!("  wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("skbench: cannot write {}: {e}", path.display()),
        }
    }

    if outcome.wrong > 0 {
        eprintln!(
            "skbench: {} operation(s) returned a wrong result",
            outcome.wrong
        );
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "skbench: metric {} is not a finite number ({})",
            m.name, m.value
        );
        return ExitCode::from(1);
    }
    if oversubscribed {
        eprintln!(
            "skbench: {} workers on {nproc} cores is oversubscribed; the report is kept but no result line is printed, so the run is never compared",
            cfg.workers
        );
        return ExitCode::from(3);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if outcome.wrong > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
