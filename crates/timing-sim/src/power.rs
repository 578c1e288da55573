//! Activity-based energy estimation.
//!
//! The paper's context is power efficiency ("circuit-level speculation ...
//! reducing delay, area and power consumption"); this module closes the
//! loop by estimating dynamic energy from simulated switching activity:
//! every committed output transition of a cell costs that cell's library
//! energy, and leakage accrues with area and time. The same activity counts
//! also drive the energy-efficiency comparison of the `energy_table`
//! experiment.

use isa_netlist::builders::AdderNetlist;
use isa_netlist::cell::CellLibrary;
use isa_netlist::graph::{NetDriver, NetId, Netlist};
use isa_netlist::timing::DelayAnnotation;

use crate::bitsim::run_clocked_batch_with_core;
use crate::sim::SimCore;

/// Leakage power per NAND2-equivalent area unit, in nanowatts (65 nm-class
/// general-purpose magnitude).
pub const LEAKAGE_NW_PER_AREA: f64 = 2.0;

/// Energy breakdown of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Dynamic (switching) energy in femtojoules.
    pub dynamic_fj: f64,
    /// Leakage energy in femtojoules over the simulated time span.
    pub leakage_fj: f64,
    /// Total committed transitions counted.
    pub transitions: u64,
    /// Simulated time span in femtoseconds.
    pub span_fs: u64,
}

impl EnergyReport {
    /// Total energy in femtojoules.
    #[must_use]
    pub fn total_fj(&self) -> f64 {
        self.dynamic_fj + self.leakage_fj
    }

    /// Energy per operation, given the number of operations in the run.
    ///
    /// # Panics
    ///
    /// Panics if `operations` is zero.
    #[must_use]
    pub fn per_op_fj(&self, operations: u64) -> f64 {
        assert!(operations > 0, "at least one operation required");
        self.total_fj() / operations as f64
    }
}

/// Estimates the energy of everything simulated so far on `sim`.
///
/// Dynamic energy: each committed transition of a cell-driven net costs the
/// driving cell's per-switch energy. Primary-input transitions are charged
/// like buffers (the register driving them switches too). Leakage: area x
/// time x [`LEAKAGE_NW_PER_AREA`].
#[must_use]
pub fn measure(sim: &SimCore, netlist: &Netlist, lib: &CellLibrary) -> EnergyReport {
    measure_activity(sim.net_commit_counts(), sim.now_fs(), netlist, lib)
}

/// Characterizes an adder's switching energy over an input stream: runs
/// the whole stream through the bit-sliced clocked core at `period_ps`
/// and charges leakage over the sequential-equivalent span
/// (`inputs.len() × period`), so the figure is comparable with a scalar
/// run of the same operation count on one circuit. This is the one
/// energy-per-addition recipe shared by the `energy_table` experiment and
/// the design-space explorer's energy objective.
#[must_use]
pub fn measure_clocked_batch(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    inputs: &[(u64, u64)],
    lib: &CellLibrary,
) -> EnergyReport {
    let (_, clocked) = run_clocked_batch_with_core(adder, annotation, period_ps, inputs);
    // Same femtosecond rounding as the simulated clock edge, so the
    // leakage span and the activity it pairs with agree to the grid.
    let period_fs = isa_netlist::timing::ps_to_fs(period_ps);
    measure_activity(
        clocked.net_commit_counts(),
        inputs.len() as u64 * period_fs,
        adder.netlist(),
        lib,
    )
}

/// Estimates energy from an explicit activity profile: per-net committed
/// transition counts plus the wall-clock span to charge leakage over.
///
/// This is the common core behind [`measure`] and the bit-sliced 64-lane
/// simulator, whose [`net_commit_counts`](crate::BitSimCore::net_commit_counts)
/// already sum transitions over lanes; pass the *sequential-equivalent*
/// span (`ops x period`) so leakage stays comparable with a scalar run of
/// the same operation count on one circuit.
#[must_use]
pub fn measure_activity(
    counts: &[u64],
    span_fs: u64,
    netlist: &Netlist,
    lib: &CellLibrary,
) -> EnergyReport {
    let mut dynamic_fj = 0.0f64;
    let mut transitions = 0u64;
    for (index, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        transitions += count;
        let net = NetId::from_index(index);
        let per_switch = match netlist.driver(net) {
            NetDriver::Cell(cell) => lib.energy_fj(netlist.cell(cell).kind),
            NetDriver::Input => lib.energy_fj(isa_netlist::cell::CellKind::Buf),
        };
        dynamic_fj += per_switch * count as f64;
    }
    // nW * fs = 1e-9 W * 1e-15 s = 1e-24 J = 1e-9 fJ.
    let leakage_fj = netlist.area(lib) * LEAKAGE_NW_PER_AREA * span_fs as f64 * 1e-9;
    EnergyReport {
        dynamic_fj,
        leakage_fj,
        transitions,
        span_fs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::timing::DelayAnnotation;

    fn run_cycles(adder_bits: u32, topology: AdderTopology, inputs: &[(u64, u64)]) -> EnergyReport {
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(adder_bits, topology);
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let mut sim = SimCore::new(adder.netlist(), &ann);
        for &(a, b) in inputs {
            sim.set_inputs(adder.netlist(), &adder.input_values(a, b));
            sim.run_to_quiescence(adder.netlist(), 1_000_000).unwrap();
            // Advance a fixed cycle time for a fair leakage comparison.
            let t = sim.now_fs();
            sim.run_until(adder.netlist(), t + 300_000);
        }
        measure(&sim, adder.netlist(), &lib)
    }

    fn pairs(n: usize) -> Vec<(u64, u64)> {
        let mut seed = 77u64;
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed & 0xFFFF, (seed >> 13) & 0xFFFF)
            })
            .collect()
    }

    #[test]
    fn idle_circuit_burns_only_leakage() {
        let lib = CellLibrary::industrial_65nm();
        let adder = build_exact(8, AdderTopology::Ripple);
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let mut sim = SimCore::new(adder.netlist(), &ann);
        sim.run_until(adder.netlist(), 1_000_000);
        let report = measure(&sim, adder.netlist(), &lib);
        assert_eq!(report.dynamic_fj, 0.0);
        assert_eq!(report.transitions, 0);
        assert!(report.leakage_fj > 0.0);
        assert_eq!(report.total_fj(), report.leakage_fj);
    }

    #[test]
    fn more_activity_burns_more_dynamic_energy() {
        let few = run_cycles(16, AdderTopology::Ripple, &pairs(10));
        let many = run_cycles(16, AdderTopology::Ripple, &pairs(100));
        assert!(many.dynamic_fj > few.dynamic_fj * 5.0);
        assert!(many.transitions > few.transitions);
    }

    #[test]
    fn bigger_adders_cost_more_energy_per_op() {
        let inputs = pairs(50);
        let ripple = run_cycles(16, AdderTopology::Ripple, &inputs);
        let ks = run_cycles(16, AdderTopology::KoggeStone, &inputs);
        assert!(
            ks.total_fj() > ripple.total_fj(),
            "Kogge-Stone ({:.0} fJ) should out-consume ripple ({:.0} fJ)",
            ks.total_fj(),
            ripple.total_fj()
        );
    }

    #[test]
    fn per_op_divides_total() {
        let report = run_cycles(8, AdderTopology::Ripple, &pairs(20));
        assert!((report.per_op_fj(20) * 20.0 - report.total_fj()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one operation")]
    fn per_op_rejects_zero() {
        let report = run_cycles(8, AdderTopology::Ripple, &pairs(5));
        let _ = report.per_op_fj(0);
    }
}
