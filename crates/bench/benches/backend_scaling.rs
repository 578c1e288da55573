//! Scalar vs bit-sliced (64-lane) gate-level simulation throughput.
//!
//! The CI `bench` job runs this alongside the `bench_backends` binary's
//! end-to-end gate: the criterion numbers show *per-cycle* cost of the two
//! backends on representative netlists, while `bench_backends` measures
//! the full `all_figures` pipeline suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use isa_bench::support::bench_inputs;
use isa_core::{Design, IsaConfig};
use isa_experiments::{DesignContext, ExperimentConfig};
use isa_netlist::builders::AdderNetlist;
use isa_netlist::timing::DelayAnnotation;
use isa_timing_sim::{run_clocked_batch, ClockedCore};

/// One clocked run of `inputs` on the scalar event queue.
fn scalar_run(adder: &AdderNetlist, ann: &DelayAnnotation, period_ps: f64, inputs: &[(u64, u64)]) {
    let mut sim = ClockedCore::new(adder.netlist(), ann, period_ps);
    let mut acc = 0u64;
    for &(a, b) in inputs {
        acc ^= sim.step(adder.netlist(), &adder.input_values(a, b));
    }
    std::hint::black_box(acc);
}

fn bench_backends(c: &mut Criterion) {
    let config = ExperimentConfig::default();
    let cycles = 2_048usize;
    let inputs = bench_inputs(cycles);
    let designs = [
        ("exact32", Design::Exact { width: 32 }),
        (
            "isa_8004",
            Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
        ),
    ];
    for (name, design) in designs {
        let ctx = DesignContext::build(design, &config);
        let adder = &ctx.synthesized.adder;
        for (clock_label, clock_ps) in [("safe", config.period_ps), ("cpr15", config.clock_ps(0.15))]
        {
            let mut group = c.benchmark_group(format!("clocked_{name}_{clock_label}"));
            group.throughput(Throughput::Elements(cycles as u64));
            group.bench_with_input(BenchmarkId::new("scalar", cycles), &inputs, |b, inputs| {
                b.iter(|| scalar_run(adder, &ctx.annotation, clock_ps, inputs));
            });
            group.bench_with_input(
                BenchmarkId::new("bitsliced", cycles),
                &inputs,
                |b, inputs| {
                    b.iter(|| {
                        std::hint::black_box(run_clocked_batch(
                            adder,
                            &ctx.annotation,
                            clock_ps,
                            inputs,
                        ))
                    });
                },
            );
            group.finish();
        }
    }
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
