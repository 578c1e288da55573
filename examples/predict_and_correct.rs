//! Model-guided overclocking scenario: train the paper's bit-level
//! timing-error predictor on one overclocked ISA, then use it the way a
//! guardband-reduction controller would — flagging cycles predicted to be
//! timing-erroneous so a pipeline could stall/replay only those.
//!
//! Reports the classic detector trade-off (missed errors vs false alarms)
//! and the arithmetic quality with and without prediction-guided replay.
//!
//! Run with: `cargo run --release --example predict_and_correct [train] [test]`

use overclocked_isa::core::{Design, ErrorStats, IsaConfig};
use overclocked_isa::experiments::prediction::trace_to_cycles;
use overclocked_isa::experiments::{DesignContext, ExperimentConfig};
use overclocked_isa::learn::{ConfusionMatrix, PredictorConfig, TimingErrorPredictor};
use overclocked_isa::metrics::{AbperAccumulator, AvpeAccumulator};
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n_train: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(12_000);
    let n_test: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6_000);

    // The paper's Fig. 10 subject: ISA (8,0,0,4) at 15% CPR.
    let config = ExperimentConfig::default();
    let cfg = IsaConfig::new(32, 8, 0, 0, 4).expect("valid quadruple");
    let ctx = DesignContext::build(Design::Isa(cfg), &config);
    let clk = config.clock_ps(0.15);
    println!(
        "design {} overclocked to {clk} ps; training on {n_train} cycles",
        ctx.label()
    );

    // Data collection + model training (Section III.A flow).
    let train_trace = ctx.trace(clk, &take_pairs(UniformWorkload::new(32, 1), n_train));
    let train = trace_to_cycles(&train_trace);
    let predictor = TimingErrorPredictor::train(&train, 32, &PredictorConfig::default());
    println!(
        "trained forests for {} of {} output bits (rest constant)",
        predictor.trained_bits(),
        predictor.out_bits()
    );

    // Held-out evaluation.
    let test_trace = ctx.trace(clk, &take_pairs(UniformWorkload::new(32, 2), n_test));
    let test = trace_to_cycles(&test_trace);
    let mut cycle_matrix = ConfusionMatrix::new();
    let mut abper = AbperAccumulator::new(33);
    let mut avpe = AvpeAccumulator::new();
    let mut re_unguarded = ErrorStats::new();
    let mut re_guarded = ErrorStats::new();
    let predictions = predictor.predict_flips_batch(&test);
    for (cycle, &predicted) in test.iter().zip(&predictions) {
        cycle_matrix.record(predicted != 0, cycle.flips != 0);
        abper.record(predicted, cycle.flips);
        let real_silver = cycle.gold ^ cycle.flips;
        avpe.record(cycle.gold ^ predicted, real_silver);

        let diamond = (cycle.a + cycle.b) as f64;
        let denom = if diamond == 0.0 { 1.0 } else { diamond };
        // Unguarded: the overclocked output as-is.
        re_unguarded.push((real_silver as f64 - diamond) / denom);
        // Guided replay: cycles predicted erroneous are re-executed at a
        // safe clock, leaving only structural errors on those cycles.
        let guarded = if predicted != 0 {
            cycle.gold
        } else {
            real_silver
        };
        re_guarded.push((guarded as f64 - diamond) / denom);
    }

    println!("\nbit-level model quality:");
    println!(
        "  ABPER          = {:.3e}",
        overclocked_isa::metrics::floor(abper.abper())
    );
    println!(
        "  AVPE           = {:.3e}",
        overclocked_isa::metrics::floor(avpe.avpe())
    );
    println!("\ncycle-level detector:");
    println!("  accuracy  {:.4}", cycle_matrix.accuracy());
    println!("  precision {:.4}", cycle_matrix.precision());
    println!("  recall    {:.4}", cycle_matrix.recall());
    println!(
        "  replay rate {:.4} (fraction of cycles flagged)",
        (cycle_matrix.true_positives + cycle_matrix.false_positives) as f64
            / cycle_matrix.total() as f64
    );
    println!("\narithmetic quality (RMS RE, %):");
    println!("  unguarded overclock : {:.4}", re_unguarded.rms() * 100.0);
    println!("  prediction-guided   : {:.4}", re_guarded.rms() * 100.0);
    println!("  (residual error after replay is the ISA's structural error)");
}
