//! The `figures` workload: the pipeline suite of `bench_backends` at its
//! CI counts, every stage through its `run_on`, on a fresh one-worker
//! engine per repetition.

use std::panic::{catch_unwind, AssertUnwindSafe};

use isa_core::{paper_designs, Design, IsaConfig, Substrate as _};
use isa_engine::{Engine, ExperimentConfig, PredictedSubstrate};
use isa_experiments::{
    design_table, energy, fig10, fig9, guardband, prediction, workload_sensitivity,
};
use isa_workloads::{take_pairs, UniformWorkload};

use isa_obs::profile::SpanEvent;

use crate::common::{
    check_digest, median, min, peak_rss_mb, repeated_setup, span_total_s, timed, CpuRotation,
    LayerCounters, Outcome, Pacer, Tracer, SETUPS_PER_REP,
};

/// Each stage: its name, its ledger span, and its golden file's content.
const STAGES: [(&str, &str, &str); 7] = [
    (
        "design_table",
        "figures.design_table_s",
        include_str!("../../tests/golden/design_table.csv"),
    ),
    (
        "fig9",
        "figures.fig9_s",
        include_str!("../../tests/golden/fig9.csv"),
    ),
    (
        "prediction",
        "figures.prediction_s",
        include_str!("../../tests/golden/fig7_fig8.csv"),
    ),
    (
        "fig10",
        "figures.fig10_s",
        include_str!("../../tests/golden/fig10.csv"),
    ),
    (
        "energy",
        "figures.energy_s",
        include_str!("../../tests/golden/energy.csv"),
    ),
    (
        "guardband",
        "figures.guardband_s",
        include_str!("../../tests/golden/guardband.csv"),
    ),
    (
        "workloads",
        "figures.workloads_s",
        include_str!("../../tests/golden/workloads.csv"),
    ),
];

/// Sample counts of one suite pass.
struct Counts {
    samples: usize,
    fig9_cycles: usize,
    train: usize,
    test: usize,
    fig10_cycles: usize,
    energy_cycles: usize,
    guardband_cycles: usize,
    workloads_cycles: usize,
    workloads_designs: Vec<Design>,
}

fn isa_8004() -> IsaConfig {
    IsaConfig::new(32, 8, 0, 0, 4).expect("paper design is valid")
}

impl Counts {
    /// `bench_backends --cycles 100000 --train 8000 --test 4000
    /// --samples 1000000`: fig10 at twice the cycles, the extensions at
    /// 10 000.
    fn ci() -> Self {
        Self {
            samples: 1_000_000,
            fig9_cycles: 100_000,
            train: 8_000,
            test: 4_000,
            fig10_cycles: 200_000,
            energy_cycles: 10_000,
            guardband_cycles: 10_000,
            workloads_cycles: 10_000,
            workloads_designs: paper_designs(),
        }
    }

    /// The counts `scripts/golden.sh` runs the stage binaries at.
    fn golden() -> Self {
        Self {
            samples: 4_000,
            fig9_cycles: 400,
            train: 400,
            test: 200,
            fig10_cycles: 600,
            energy_cycles: 300,
            guardband_cycles: 400,
            workloads_cycles: 400,
            workloads_designs: vec![
                Design::Isa(isa_8004()),
                Design::Isa(IsaConfig::new(32, 16, 2, 1, 6).expect("valid")),
                Design::Exact { width: 32 },
            ],
        }
    }
}

/// Runs stage `i` through its `run_on`; returns its seconds and CSV.
fn run_stage(
    engine: &Engine,
    config: &ExperimentConfig,
    counts: &Counts,
    i: usize,
) -> (f64, String) {
    let designs = paper_designs();
    let span = STAGES[i].1;
    match i {
        0 => {
            let (s, r) = timed(span, || {
                design_table::run_on(engine, config, &designs, counts.samples)
            });
            (s, r.to_csv())
        }
        1 => {
            let (s, r) = timed(span, || {
                fig9::run_on(engine, config, &designs, counts.fig9_cycles)
            });
            (s, r.to_csv())
        }
        2 => {
            let (s, r) = timed(span, || {
                prediction::run_on(engine, config, &designs, counts.train, counts.test)
            });
            (s, r.to_csv())
        }
        3 => {
            let (s, r) = timed(span, || {
                fig10::run_on(
                    engine,
                    config,
                    Design::Isa(isa_8004()),
                    0.15,
                    counts.fig10_cycles,
                )
            });
            (s, r.to_csv())
        }
        4 => {
            let (s, r) = timed(span, || {
                energy::run_on(engine, config, &designs, counts.energy_cycles)
            });
            (s, r.to_csv())
        }
        5 => {
            let (s, r) = timed(span, || {
                guardband::run_on(engine, config, isa_8004(), counts.guardband_cycles)
            });
            (s, r.to_csv())
        }
        _ => {
            let (s, r) = timed(span, || {
                workload_sensitivity::run_on(
                    engine,
                    config,
                    &counts.workloads_designs,
                    0.10,
                    counts.workloads_cycles,
                )
            });
            (s, r.to_csv())
        }
    }
}

/// A fresh one-worker engine with every paper design's context,
/// classifier and tape built.
fn setup(config: &ExperimentConfig) -> Engine {
    let engine = Engine::with_threads(1);
    let designs = paper_designs();
    timed("engine.synth_lint_s", || engine.prewarm(&designs, config));
    for design in &designs {
        let ctx = engine.context(design, config);
        timed("engine.classifier_s", || ctx.classifier());
        timed("engine.tape_s", || ctx.tape());
    }
    engine
}

/// One repetition: set-up, then every stage.
struct Rep {
    setups: Vec<f64>,
    stage_s: Vec<f64>,
    /// Each stage's CSV, or the panic that replaced it.
    csv: Vec<Result<String, String>>,
}

impl Rep {
    fn total_s(&self) -> f64 {
        self.setups.iter().sum::<f64>() + self.stage_s.iter().sum::<f64>()
    }
}

fn rep(config: &ExperimentConfig, counts: &Counts) -> Rep {
    let (setups, engine) = repeated_setup(|| setup(config));
    let mut stage_s = Vec::new();
    let mut csv = Vec::new();
    for i in 0..STAGES.len() {
        match catch_unwind(AssertUnwindSafe(|| run_stage(&engine, config, counts, i))) {
            Ok((s, text)) => {
                stage_s.push(s);
                csv.push(Ok(text));
            }
            Err(payload) => {
                stage_s.push(f64::NAN);
                csv.push(Err(isa_serve::panic_text(payload.as_ref())));
            }
        }
    }
    Rep {
        setups,
        stage_s,
        csv,
    }
}

/// Checks a repetition's CSVs against the first repetition's (and, on
/// the first, against the recorded digests); counts its stage calls.
fn check_rep(out: &mut Outcome, seed: u64, first: &mut Option<Vec<String>>, rep: &Rep) {
    let mut failed = 0;
    for (i, csv) in rep.csv.iter().enumerate() {
        let name = STAGES[i].0;
        let csv = match csv {
            Ok(csv) => csv,
            Err(panic) => {
                failed += 1;
                out.problem(format!("stage {name} panicked: {panic}"));
                continue;
            }
        };
        match first {
            None => check_digest(out, "figures", seed, name, csv),
            Some(reference) if reference[i] != *csv => {
                failed += 1;
                out.problem(format!(
                    "stage {name}: CSV differs from the first repetition"
                ));
            }
            Some(_) => {}
        }
    }
    if first.is_none() {
        *first = Some(
            rep.csv
                .iter()
                .map(|c| c.clone().unwrap_or_default())
                .collect(),
        );
    }
    out.ops(STAGES.len() as u64, failed);
}

/// One pass at the golden counts and default configuration, diffed
/// against the checked-in goldens.
fn golden_pass(out: &mut Outcome) {
    let golden = rep(&ExperimentConfig::default(), &Counts::golden());
    let mut failed = 0;
    for (i, csv) in golden.csv.iter().enumerate() {
        let (name, _, want) = STAGES[i];
        if csv.as_deref() != Ok(want) {
            failed += 1;
            out.problem(format!(
                "stage {name}: golden-count CSV differs from tests/golden"
            ));
        }
    }
    out.ops(STAGES.len() as u64, failed);
}

/// The end-to-end run: repetitions paced to end within `seconds` (at
/// least two), then the golden pass.
pub fn run(config: &ExperimentConfig, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let counts = Counts::ci();
    let mut first = None;
    let mut setups = Vec::new();
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut cpus = CpuRotation::new();
    let mut pacer = Pacer::new(seconds);
    while pacer.next() {
        cpus.advance();
        let r = rep(config, &counts);
        check_rep(&mut out, seed, &mut first, &r);
        eprintln!(
            "figures: rep {} stages {:?}",
            stages[0].len() + 1,
            r.stage_s
        );
        setups.extend(&r.setups);
        for (i, s) in r.stage_s.iter().enumerate() {
            stages[i].push(*s);
        }
    }
    golden_pass(&mut out);
    out.set("setup_s", median(&setups));
    out.set("wall_s", stages.iter().map(|s| min(s)).sum());
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: untraced and traced repetitions alternate, paced to
/// end within `seconds`; then the learn breakdown runs traced.
pub fn run_traced(
    config: &ExperimentConfig,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let counts = Counts::ci();
    let mut first = None;
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let (mut untraced_total, mut traced_total) = (Vec::new(), Vec::new());
    let (mut synth, mut classifier, mut tape) = (Vec::new(), Vec::new(), Vec::new());
    let mut layer = LayerCounters::default();
    let mut cpus = CpuRotation::new();
    let per_setup =
        |events: &[SpanEvent], name: &str| span_total_s(events, name) / SETUPS_PER_REP as f64;
    let mut pacer = Pacer::new(seconds);
    while pacer.next() {
        cpus.advance();
        let r = rep(config, &counts);
        check_rep(&mut out, seed, &mut first, &r);
        untraced_total.push(r.total_s());

        let before = LayerCounters::now();
        tracer.on();
        let r = rep(config, &counts);
        tracer.off();
        layer = LayerCounters::since(before);
        let events = tracer.take();
        check_rep(&mut out, seed, &mut first, &r);
        crate::check_attribution(&mut out, "figures", &events, r.total_s());
        traced_total.push(r.total_s());
        for (i, (_, span, _)) in STAGES.iter().enumerate() {
            traced[i].push(span_total_s(&events, span));
        }
        synth.push(per_setup(&events, "engine.synth_lint_s"));
        classifier.push(per_setup(&events, "engine.classifier_s"));
        tape.push(per_setup(&events, "engine.tape_s"));
    }

    // The learn breakdown: fit every (design, clock) predictor, then
    // predict the held-out stream, on a set-up engine.
    let engine = setup(config);
    let predicted = PredictedSubstrate::new(engine.cache(), config.clone(), counts.train);
    let test_inputs = take_pairs(
        UniformWorkload::new(32, config.workload_seed ^ 0x7E57),
        counts.test,
    );
    tracer.on();
    for design in paper_designs() {
        for &cpr in &config.cprs {
            let clock_ps = config.clock_ps(cpr);
            timed("learn.fit_s", || predicted.predictor(&design, clock_ps));
            timed("learn.predict_s", || {
                predicted.run_batch(&design, clock_ps, &test_inputs)
            });
        }
    }
    tracer.off();
    let events = tracer.take();
    golden_pass(&mut out);

    for (i, (_, span, _)) in STAGES.iter().enumerate() {
        out.set(span, min(&traced[i]));
    }
    out.set("learn.fit_s", span_total_s(&events, "learn.fit_s"));
    out.set("learn.predict_s", span_total_s(&events, "learn.predict_s"));
    out.set("engine.synth_lint_s", min(&synth));
    out.set("engine.classifier_s", min(&classifier));
    out.set("engine.tape_s", min(&tape));
    layer.report(&mut out);
    out.set(
        "obs.trace_overhead_frac",
        min(&traced_total) / min(&untraced_total) - 1.0,
    );
    out
}
