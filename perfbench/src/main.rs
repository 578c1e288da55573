//! `isa-perfbench` — the repository's benchmark.
//!
//! ```text
//! isa-perfbench --workload figures|explore|serve --seed N --seconds S --trace 0|1
//! isa-perfbench --contention-probe REPS
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics
//! with tracing off; with `--trace 1` it measures the per-layer ledger
//! from a traced run (and writes the trace under `.perfbench-tmp/`).
//! The metric names and units are the ones `BENCHMARK.json` lists. Every
//! run checks its outputs; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is non-zero when a check failed. See `perfbench/README.md`.

mod common;
mod explore;
mod figures;
mod serve;

use std::path::Path;
use std::time::Instant;

use isa_engine::ExperimentConfig;
use isa_obs::profile::SpanEvent;
use isa_obs::Json;

use crate::common::{secs, Outcome, Tracer};

/// Where runs keep their scratch files (serve stores, traces), relative
/// to the working directory.
pub const SCRATCH_DIR: &str = ".perfbench-tmp";

/// The benchmark definition: workloads and metric names with units.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: isa-perfbench --workload figures|explore|serve --seed N --seconds S --trace 0|1\n       \
         isa-perfbench --contention-probe REPS"
    );
    std::process::exit(2);
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    let raw = args
        .get(i + 1)
        .unwrap_or_else(|| usage(&format!("{name} needs a value")));
    Some(
        raw.parse()
            .unwrap_or_else(|_| usage(&format!("{name}: invalid value {raw:?}"))),
    )
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn metric_list(spec: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = spec.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Checks one traced repetition's ledger: on every thread, the spans'
/// self-times must sum to no more than the repetition's wall time (self
/// times partition the time a thread's spans cover, so more means spans
/// overlap or are double-counted). Compared with the traced wall time:
/// the gap to the untraced one is `obs.trace_overhead_frac`.
pub fn check_attribution(out: &mut Outcome, workload: &str, events: &[SpanEvent], wall_s: f64) {
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    for thread in threads {
        let own: Vec<SpanEvent> = events
            .iter()
            .filter(|e| e.thread == thread)
            .cloned()
            .collect();
        let self_s: f64 = isa_obs::profile::fold(&own)
            .iter()
            .map(|row| row.self_us as f64 / 1e6)
            .sum();
        // Span durations are whole microseconds, measured just outside
        // the benchmark's own clock: allow a millisecond.
        if self_s > wall_s + 1e-3 {
            out.problem(format!(
                "{workload}: spans on thread {thread} attribute {self_s:.4}s of a {wall_s:.4}s repetition"
            ));
        }
    }
}

/// Times a fixed 12-design fig9 sweep (5 000 cycles, one worker) back to
/// back and prints min / quartiles / max: how much the machine's other
/// tenants move a fixed piece of work.
fn contention_probe(reps: usize) {
    let config = ExperimentConfig::default();
    let engine = isa_engine::Engine::with_threads(1);
    let designs = isa_core::paper_designs();
    engine.prewarm(&designs, &config);
    let start = Instant::now();
    let mut ms: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            let _ = isa_experiments::fig9::run_on(&engine, &config, &designs, 5_000);
            secs(t) * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let at = |q: f64| ms[((q * (ms.len() - 1) as f64).round()) as usize];
    println!(
        "contention probe: {} sweeps in {:.1}s; ms min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} max {:.1}",
        ms.len(),
        secs(start),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(reps) = flag::<usize>(&args, "--contention-probe") {
        contention_probe(reps);
        return;
    }
    let workload: String =
        flag(&args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let seed: u64 = flag(&args, "--seed").unwrap_or_else(|| usage("--seed is required"));
    let seconds: f64 = flag(&args, "--seconds").unwrap_or_else(|| usage("--seconds is required"));
    let trace = match flag::<u8>(&args, "--trace").unwrap_or(0) {
        0 => false,
        1 => true,
        other => usage(&format!("--trace: expected 0 or 1, got {other}")),
    };
    let spec = Json::parse(BENCHMARK).expect("BENCHMARK.json is valid JSON");

    // The one seed drives every generated input: the experiment streams,
    // the explorer's search and the serve traffic.
    let config = ExperimentConfig {
        workload_seed: seed,
        ..ExperimentConfig::default()
    };
    eprintln!(
        "perfbench: workload {workload} seed {seed} seconds {seconds} trace {}",
        u8::from(trace)
    );
    let out = if trace {
        let mut tracer = Tracer::new();
        let out = match workload.as_str() {
            "figures" => figures::run_traced(&config, seed, seconds, &mut tracer),
            "explore" => explore::run_traced(&config, seed, seconds, &mut tracer),
            "serve" => serve::run_traced(&config, seed, seconds, &mut tracer),
            other => usage(&format!("unknown workload {other:?}")),
        };
        tracer.finish(&Path::new(SCRATCH_DIR).join(format!("trace-{workload}-{seed}.jsonl")));
        out
    } else {
        match workload.as_str() {
            "figures" => figures::run(&config, seed, seconds),
            "explore" => explore::run(&config, seed, seconds),
            "serve" => serve::run(&config, seed, seconds),
            other => usage(&format!("unknown workload {other:?}")),
        }
    };
    emit(&spec, out, trace);
}

/// Prints the result line and exits (non-zero when a check failed).
fn emit(spec: &Json, mut out: Outcome, trace: bool) -> ! {
    let list = metric_list(spec, if trace { "per_layer" } else { "end_to_end" });
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let value = match out.metrics.get(name.as_str()) {
            Some(&value) => value,
            // A layer this workload never enters: nothing ran there.
            None if trace => 0.0,
            None => {
                out.problem(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        eprintln!("metric {name} = {value} {unit}");
        metrics.push((
            name,
            Json::Obj(vec![
                ("value".to_owned(), Json::Num(value)),
                ("unit".to_owned(), Json::Str(unit)),
            ]),
        ));
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    let result = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Num(out.attempted as f64)),
        ("failed".to_owned(), Json::Num(out.failed as f64)),
        ("metrics".to_owned(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}
