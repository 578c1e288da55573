//! Micro-benchmarks of the substrates: behavioural adders, event-driven
//! gate simulation, static timing analysis and random-forest inference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isa_bench::support::bench_inputs;
use isa_core::{Adder, ExactAdder, IsaConfig, SpeculativeAdder};
use isa_experiments::prediction::trace_to_cycles;
use isa_experiments::{DesignContext, ExperimentConfig};
use isa_learn::{PredictorConfig, TimingErrorPredictor};
use isa_netlist::builders::{build_exact, AdderTopology};
use isa_netlist::cell::CellLibrary;
use isa_netlist::sta::StaReport;
use isa_netlist::timing::DelayAnnotation;
use isa_timing_sim::SimCore;

fn bench_behavioural(c: &mut Criterion) {
    let inputs = bench_inputs(10_000);
    let mut group = c.benchmark_group("behavioural_adders");
    let exact = ExactAdder::new(32);
    group.bench_function("exact_10k_adds", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &(x, y) in &inputs {
                acc ^= exact.add(x, y);
            }
            std::hint::black_box(acc)
        });
    });
    for quad in [(8u32, 0u32, 0u32, 4u32), (16, 7, 0, 8)] {
        let isa = SpeculativeAdder::new(
            IsaConfig::new(32, quad.0, quad.1, quad.2, quad.3).unwrap(),
        );
        group.bench_with_input(
            BenchmarkId::new("isa_10k_adds", isa.label()),
            &isa,
            |b, isa| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for &(x, y) in &inputs {
                        acc ^= isa.add(x, y);
                    }
                    std::hint::black_box(acc)
                });
            },
        );
    }
    group.finish();
}

fn bench_gate_sim(c: &mut Criterion) {
    let lib = CellLibrary::industrial_65nm();
    let adder = build_exact(32, AdderTopology::Sklansky);
    let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
    let inputs = bench_inputs(200);
    let mut group = c.benchmark_group("gate_level_sim");
    group.bench_function("sklansky32_200_cycles_settled", |b| {
        b.iter(|| {
            let mut sim = SimCore::new(adder.netlist(), &ann);
            for &(x, y) in &inputs {
                sim.set_inputs(adder.netlist(), &adder.input_values(x, y));
                sim.run_to_quiescence(adder.netlist(), 1_000_000).unwrap();
            }
            std::hint::black_box(sim.events_processed())
        });
    });
    group.bench_function("sta_sklansky32", |b| {
        b.iter(|| {
            let sta = StaReport::analyze(adder.netlist(), &ann);
            std::hint::black_box(sta.critical_ps())
        });
    });
    group.finish();
}

fn bench_forest_inference(c: &mut Criterion) {
    let config = ExperimentConfig::default();
    let ctx = DesignContext::build(isa_core::Design::Exact { width: 32 }, &config);
    let cycles = trace_to_cycles(&ctx.trace(config.clock_ps(0.15), &bench_inputs(1_000)));
    let model = TimingErrorPredictor::train(&cycles, 32, &PredictorConfig::default());
    let mut group = c.benchmark_group("forest_inference");
    group.bench_function("predict_flips_1k_cycles", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for cycle in &cycles {
                acc ^= model.predict_flips(cycle);
            }
            std::hint::black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_behavioural,
    bench_gate_sim,
    bench_forest_inference
);
criterion_main!(benches);
