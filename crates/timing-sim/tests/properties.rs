//! Property-based tests of the event-driven simulator against randomly
//! generated netlists: the settled state must always equal the zero-delay
//! functional evaluation, sampling at/after the critical delay must be
//! error-free, and activity accounting must be consistent.

use isa_netlist::cell::{CellKind, CellLibrary};
use isa_netlist::graph::{Netlist, NetlistBuilder};
use isa_netlist::sta::StaReport;
use isa_netlist::timing::{DelayAnnotation, VariationModel};
use isa_timing_sim::{ps_to_fs, SimCore};
use proptest::prelude::*;

/// Recipe for one random cell: kind selector plus input selectors.
type CellRecipe = (u8, u16, u16, u16);

/// Builds a random combinational netlist from recipes: each cell draws its
/// inputs from already-existing nets, so the result is a valid DAG.
fn build_random(n_inputs: usize, recipes: &[CellRecipe]) -> Netlist {
    let kinds = [
        CellKind::Inv,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Mux2,
        CellKind::Ao21,
        CellKind::Maj3,
        CellKind::Xor3,
    ];
    let mut b = NetlistBuilder::new("random");
    let mut nets: Vec<_> = (0..n_inputs).map(|i| b.input(format!("i{i}"))).collect();
    for &(k, s0, s1, s2) in recipes {
        let kind = kinds[k as usize % kinds.len()];
        let pick = |sel: u16, nets: &[isa_netlist::graph::NetId]| nets[sel as usize % nets.len()];
        let ins: Vec<_> = [s0, s1, s2][..kind.arity()]
            .iter()
            .map(|&s| pick(s, &nets))
            .collect();
        let out = b.cell(kind, &ins);
        nets.push(out);
    }
    // Outputs: the last few nets (always at least one).
    let n_out = nets.len().min(8);
    for (i, &net) in nets[nets.len() - n_out..].iter().enumerate() {
        b.mark_output(net, format!("o{i}"));
    }
    b.finish().expect("random netlist is well-formed")
}

fn input_vector(netlist: &Netlist, seed: u64) -> Vec<bool> {
    (0..netlist.inputs().len())
        .map(|i| (seed >> (i % 64)) & 1 == 1)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After quiescence the simulator state equals the functional eval,
    /// for any netlist, any delays, any input sequence.
    #[test]
    fn settled_equals_functional(
        recipes in prop::collection::vec(any::<CellRecipe>(), 1..60),
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        delay_seed in any::<u64>(),
    ) {
        let nl = build_random(5, &recipes);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib)
            .perturbed(&VariationModel::new(0.08, delay_seed));
        let mut sim = SimCore::new(&nl, &ann);
        for &seed in &seeds {
            let inputs = input_vector(&nl, seed);
            sim.set_inputs(&nl, &inputs);
            sim.run_to_quiescence(&nl, 2_000_000).unwrap();
            let expected = nl.evaluate_outputs_u64(&inputs);
            prop_assert_eq!(sim.outputs_u64(&nl), expected);
        }
    }

    /// Sampling one critical delay after each input change is always
    /// timing-error-free, regardless of history.
    #[test]
    fn sampling_after_critical_delay_is_exact(
        recipes in prop::collection::vec(any::<CellRecipe>(), 1..50),
        seeds in prop::collection::vec(any::<u64>(), 2..6),
    ) {
        let nl = build_random(4, &recipes);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib);
        let sta = StaReport::analyze(&nl, &ann);
        let period = ps_to_fs(sta.critical_ps() + 1.0);
        let mut sim = SimCore::new(&nl, &ann);
        for &seed in &seeds {
            let inputs = input_vector(&nl, seed);
            let t0 = sim.now_fs();
            sim.set_inputs(&nl, &inputs);
            sim.run_until(&nl, t0 + period);
            prop_assert_eq!(sim.outputs_u64(&nl), nl.evaluate_outputs_u64(&inputs));
        }
    }

    /// Commit counters equal the recorded waveform's transition counts.
    #[test]
    fn commit_counts_match_waveform(
        recipes in prop::collection::vec(any::<CellRecipe>(), 1..40),
        seeds in prop::collection::vec(any::<u64>(), 1..5),
    ) {
        let nl = build_random(4, &recipes);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib);
        let mut sim = SimCore::new(&nl, &ann);
        sim.start_recording(&nl);
        for &seed in &seeds {
            let inputs = input_vector(&nl, seed);
            sim.set_inputs(&nl, &inputs);
            sim.run_to_quiescence(&nl, 2_000_000).unwrap();
        }
        let wave = sim.take_recording().unwrap();
        let counts = sim.net_commit_counts();
        let total: u64 = counts.iter().sum();
        prop_assert_eq!(total as usize, wave.len());
        for (index, &count) in counts.iter().enumerate() {
            let net = isa_netlist::graph::NetId::from_index(index);
            prop_assert_eq!(
                count as usize,
                wave.transition_count(net),
                "net {}", net
            );
        }
    }

    /// VCD export of any recorded waveform declares every net exactly once
    /// and replays transitions in order.
    #[test]
    fn vcd_is_structurally_sound(
        recipes in prop::collection::vec(any::<CellRecipe>(), 1..30),
        seed in any::<u64>(),
    ) {
        let nl = build_random(3, &recipes);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(&nl, &lib);
        let mut sim = SimCore::new(&nl, &ann);
        sim.start_recording(&nl);
        sim.set_inputs(&nl, &input_vector(&nl, seed));
        sim.run_to_quiescence(&nl, 2_000_000).unwrap();
        let wave = sim.take_recording().unwrap();
        let vcd = wave.to_vcd(&nl);
        prop_assert_eq!(vcd.matches("$var wire 1 ").count(), nl.net_count());
        // Timestamps non-decreasing.
        let mut last = 0u64;
        for line in vcd.lines() {
            if let Some(ts) = line.strip_prefix('#') {
                let t: u64 = ts.parse().unwrap();
                prop_assert!(t >= last, "timestamps must not decrease");
                last = t;
            }
        }
    }
}
