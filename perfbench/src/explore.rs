//! The `explore` workload: `explore::run_on` exhaustively over the
//! compact space (96 designs × 4 clock-period reductions) on a uniform
//! stream of 20 000 cycles, on a fresh one-worker engine per repetition.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use isa_core::{structural_errors, Design, Substrate as _};
use isa_engine::{Engine, ExperimentConfig, GateLevelSubstrate, WorkloadSpec};
use isa_experiments::explore::{run_on, ExploreReport, ExploreSettings};
use isa_explore::SpaceSpec;
use isa_prove::ErrorDistribution;
use isa_workloads::{take_pairs, UniformWorkload};

use isa_obs::profile::SpanEvent;

use crate::common::{
    check_digest, median, min, peak_rss_mb, ratio, repeated_setup, secs, span_total_s, timed,
    CpuRotation, LayerCounters, Outcome, Pacer, Tracer, SETUPS_PER_REP,
};

/// Stream length of the search (the `BENCH_PR5` count).
const CYCLES: usize = 20_000;

fn settings(seed: u64) -> ExploreSettings {
    ExploreSettings {
        space: "compact".to_owned(),
        strategy: "exhaustive".to_owned(),
        seed,
        cycles: CYCLES,
        ..ExploreSettings::default()
    }
}

/// A fresh one-worker engine with the context, classifier and tape of
/// every feasible design in the space built.
fn setup(config: &ExperimentConfig) -> Engine {
    let engine = Engine::with_threads(1);
    for design in SpaceSpec::compact().designs {
        let (_, built) = timed("engine.synth_lint_s", || {
            engine.try_context(&design, config)
        });
        if let Ok(ctx) = built {
            timed("engine.classifier_s", || ctx.classifier());
            timed("engine.tape_s", || ctx.tape());
        }
    }
    engine
}

/// One repetition: set-up, then the search.
struct Rep {
    setups: Vec<f64>,
    search_s: f64,
    engine: Engine,
    report: Result<ExploreReport, String>,
}

fn rep(config: &ExperimentConfig, settings: &ExploreSettings) -> Rep {
    let (setups, engine) = repeated_setup(|| setup(config));
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| {
        timed("explore.search_s", || run_on(&engine, config, settings)).1
    }))
    .map_err(|payload| isa_serve::panic_text(payload.as_ref()));
    Rep {
        setups,
        search_s: secs(start),
        engine,
        report,
    }
}

/// Checks one report: the CSV matches the first repetition's (or, on the
/// first, the recorded digest), the front is nondominated and the
/// combined-errors witness exists. Counts the candidates considered.
fn check_report(
    out: &mut Outcome,
    workload: &str,
    seed: u64,
    first: &mut Option<String>,
    report: &Result<ExploreReport, String>,
) {
    let report = match report {
        Ok(report) => report,
        Err(panic) => {
            out.problem(format!("{workload}: search panicked: {panic}"));
            out.ops(
                SpaceSpec::compact().designs.len() as u64 * 4,
                SpaceSpec::compact().designs.len() as u64 * 4,
            );
            return;
        }
    };
    let csv = report.to_csv();
    let mut ok = true;
    match first {
        None => {
            check_digest(out, workload, seed, "explore", &csv);
            *first = Some(csv);
        }
        Some(reference) if *reference != csv => {
            ok = false;
            out.problem(format!("{workload}: CSV differs from the first repetition"));
        }
        Some(_) => {}
    }
    let front = report.outcome.front.entries();
    for a in front {
        if front.iter().any(|b| b.objectives.dominates(&a.objectives)) {
            ok = false;
            out.problem(format!("{workload}: front point {} is dominated", a.key));
        }
    }
    if report.outcome.thesis_witness().is_none() {
        ok = false;
        out.problem(format!("{workload}: no combined-errors thesis witness"));
    }
    let considered = report.outcome.stats.considered as u64;
    out.ops(considered, if ok { 0 } else { considered });
}

/// One search at the golden counts (`scripts/golden.sh`: paper space,
/// exhaustive, 400 cycles, seed 7, default configuration), diffed
/// against the checked-in golden.
fn golden_pass(out: &mut Outcome) {
    let settings = ExploreSettings {
        space: "paper".to_owned(),
        strategy: "exhaustive".to_owned(),
        seed: 7,
        cycles: 400,
        ..ExploreSettings::default()
    };
    let report = run_on(
        &Engine::with_threads(1),
        &ExperimentConfig::default(),
        &settings,
    );
    let want = include_str!("../../tests/golden/explore.csv");
    let considered = report.outcome.stats.considered as u64;
    if report.to_csv() == want {
        out.ops(considered, 0);
    } else {
        out.ops(considered, considered);
        out.problem("explore: golden-count CSV differs from tests/golden".to_owned());
    }
}

/// The end-to-end run: repetitions paced to end within `seconds` (at
/// least two), then the golden pass.
pub fn run(config: &ExperimentConfig, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let settings = settings(seed);
    let mut first = None;
    let (mut setups, mut searches) = (Vec::new(), Vec::new());
    let mut cpus = CpuRotation::new();
    let mut pacer = Pacer::new(seconds);
    while pacer.next() {
        cpus.advance();
        let r = rep(config, &settings);
        check_report(&mut out, "explore", seed, &mut first, &r.report);
        eprintln!(
            "explore: rep {} search {:.3}s",
            searches.len() + 1,
            r.search_s
        );
        setups.extend(&r.setups);
        searches.push(r.search_s);
    }
    golden_pass(&mut out);
    out.set("setup_s", median(&setups));
    out.set("wall_s", min(&searches));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: untraced and traced repetitions alternate, paced to
/// end within `seconds`; then the prove, core and tier-B breakdowns run
/// traced on the last repetition's engine.
pub fn run_traced(
    config: &ExperimentConfig,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let settings = settings(seed);
    let mut first = None;
    let (mut untraced_total, mut traced_total) = (Vec::new(), Vec::new());
    let (mut search, mut synth, mut classifier, mut tape) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut layer = LayerCounters::default();
    let mut last = None;
    let mut cpus = CpuRotation::new();
    let per_setup =
        |events: &[SpanEvent], name: &str| span_total_s(events, name) / SETUPS_PER_REP as f64;
    let mut pacer = Pacer::new(seconds);
    while pacer.next() {
        cpus.advance();
        let r = rep(config, &settings);
        check_report(&mut out, "explore", seed, &mut first, &r.report);
        untraced_total.push(r.setups.iter().sum::<f64>() + r.search_s);

        let before = LayerCounters::now();
        tracer.on();
        let r = rep(config, &settings);
        tracer.off();
        layer = LayerCounters::since(before);
        let events = tracer.take();
        check_report(&mut out, "explore", seed, &mut first, &r.report);
        crate::check_attribution(
            &mut out,
            "explore",
            &events,
            r.setups.iter().sum::<f64>() + r.search_s,
        );
        traced_total.push(r.setups.iter().sum::<f64>() + r.search_s);
        search.push(span_total_s(&events, "explore.search_s"));
        synth.push(per_setup(&events, "engine.synth_lint_s"));
        classifier.push(per_setup(&events, "engine.classifier_s"));
        tape.push(per_setup(&events, "engine.tape_s"));
        last = Some(r);
    }

    let r = last.expect("at least one traced repetition");
    if let Ok(report) = &r.report {
        let designs: Vec<Design> = SpaceSpec::compact().designs;
        let inputs = take_pairs(UniformWorkload::new(32, config.workload_seed), CYCLES);
        let survivors: Vec<(Design, f64)> = report
            .outcome
            .evaluated
            .iter()
            .filter(|e| !e.pruned && e.error.is_some())
            .map(|e| (e.point.design, e.point.cpr))
            .collect();
        let spec = WorkloadSpec {
            name: "uniform".to_owned(),
            inputs: Arc::new(inputs.clone()),
        };
        let gate = GateLevelSubstrate::new(r.engine.cache(), config.clone());
        tracer.on();
        for design in &designs {
            timed("prove.dist_s", || {
                ErrorDistribution::analyze_with_pmf_cap(design, 0)
            });
        }
        for design in &designs {
            let gold = design.behavioural();
            timed("core.struct_errors_s", || {
                structural_errors(gold.as_ref(), inputs.iter().copied())
            });
        }
        timed("explore.tier_b_s", || {
            r.engine.map_points(config, &survivors, &spec, |unit| {
                gate.run_batch(&unit.design, unit.clock_ps, unit.inputs)
            })
        });
        tracer.off();
        let events = tracer.take();
        out.set("prove.dist_s", span_total_s(&events, "prove.dist_s"));
        out.set(
            "core.struct_errors_s",
            span_total_s(&events, "core.struct_errors_s"),
        );
        out.set(
            "explore.tier_b_s",
            span_total_s(&events, "explore.tier_b_s"),
        );
        let stats = &report.outcome.stats;
        out.set(
            "explore.pruned_frac",
            ratio(stats.pruned as u64, stats.considered as u64),
        );
        out.set("explore.simulated", stats.simulated as f64);
    }
    golden_pass(&mut out);

    out.set("explore.search_s", min(&search));
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
