//! Static timing analysis must bound dynamic behaviour: no sensitized path
//! may settle after the STA critical delay, and clocking at (or above) the
//! critical delay must be timing-error-free.

use overclocked_isa::core::paper_designs;
use overclocked_isa::experiments::{DesignContext, ExperimentConfig};
use overclocked_isa::netlist::sta::StaReport;
use overclocked_isa::timing_sim::{ps_to_fs, SimCore};
use overclocked_isa::workloads::{take_pairs, UniformWorkload};

#[test]
fn sta_bounds_every_settle_time() {
    let config = ExperimentConfig::default();
    for design in paper_designs() {
        let ctx = DesignContext::build(design, &config);
        let netlist = ctx.synthesized.adder.netlist();
        let sta = StaReport::analyze(netlist, &ctx.annotation);
        // 1 ps margin: the simulator rounds each cell delay to integer
        // femtoseconds, so a deep path can drift a few fs past the rounded
        // STA sum.
        let bound_fs = ps_to_fs(sta.critical_ps() + 1.0);
        let mut sim = SimCore::new(netlist, &ctx.annotation);
        for (a, b) in take_pairs(UniformWorkload::new(32, 0xB0B), 60) {
            let t0 = sim.now_fs();
            sim.set_inputs(netlist, &ctx.synthesized.adder.input_values(a, b));
            sim.run_until(netlist, t0 + bound_fs);
            assert!(
                sim.pending_horizon_fs().is_none(),
                "{}: activity beyond the STA bound (a={a:#x}, b={b:#x})",
                ctx.label()
            );
        }
    }
}

#[test]
fn clocking_at_the_critical_delay_is_error_free() {
    let config = ExperimentConfig::default();
    let inputs = take_pairs(UniformWorkload::new(32, 0xC0DE), 300);
    for design in paper_designs() {
        let ctx = DesignContext::build(design, &config);
        let sta = StaReport::analyze(ctx.synthesized.adder.netlist(), &ctx.annotation);
        // +1 ps margin: the sampler uses strictly-before semantics.
        let trace = ctx.trace(sta.critical_ps() + 1.0, &inputs);
        let errors = trace.iter().filter(|r| r.has_timing_error()).count();
        assert_eq!(errors, 0, "{} at its own critical delay", ctx.label());
    }
}

#[test]
fn variation_shifts_but_respects_recovery_bounds() {
    // The varied annotation must stay within +-3 sigma of the recovered
    // one, cell by cell.
    let config = ExperimentConfig::default();
    for design in paper_designs().into_iter().take(3) {
        let ctx = DesignContext::build(design, &config);
        let sigma = config.variation_sigma;
        for (varied, base) in ctx
            .annotation
            .as_slice()
            .iter()
            .zip(ctx.synthesized.annotation.as_slice())
        {
            assert!(*varied >= base * (1.0 - 3.0 * sigma) - 1e-9);
            assert!(*varied <= base * (1.0 + 3.0 * sigma) + 1e-9);
        }
    }
}

#[test]
fn overclocking_below_critical_eventually_errors() {
    // Sanity check that the simulator is not trivially optimistic: pushing
    // any paper design far enough below its critical delay must produce
    // timing errors.
    let config = ExperimentConfig::default();
    let inputs = take_pairs(UniformWorkload::new(32, 0xF00D), 500);
    for design in paper_designs() {
        let ctx = DesignContext::build(design, &config);
        let sta = StaReport::analyze(ctx.synthesized.adder.netlist(), &ctx.annotation);
        let trace = ctx.trace(sta.critical_ps() * 0.45, &inputs);
        let errors = trace.iter().filter(|r| r.has_timing_error()).count();
        assert!(
            errors > 0,
            "{}: no errors at 45% of its critical delay",
            ctx.label()
        );
    }
}
