//! Batched inference is exact: `predict_flips_batch` equals per-cycle
//! `predict_flips` on every cycle.
//!
//! The batch path evaluates forests on bit-planes, 64 cycles per lane-mask
//! descent, and takes the vote majority with a bit-sliced counter; the
//! scalar path descends one packed sample at a time and counts votes as
//! integers. Random models built through the text format reach the corner
//! cases training rarely produces: leaves at exactly 0.5 (not positive),
//! odd and even tree counts with tied votes (a tie is not a majority),
//! depth-0 trees, constant-true and constant-false bits, and every
//! operand width. Streams run from 1 to 299 cycles, so ragged last blocks
//! are the common case.

use std::fmt::Write as _;

use isa_learn::{CyclePair, PredictorConfig, TimingErrorPredictor};
use proptest::prelude::*;

/// SplitMix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Appends one random subtree in pre-order (children after their parent,
/// as the format requires) and returns its root id.
fn random_subtree(
    lines: &mut Vec<String>,
    state: &mut u64,
    features: u64,
    depth_left: u32,
) -> usize {
    let id = lines.len();
    if depth_left == 0 || next(state).is_multiple_of(4) {
        // Half the leaves sit exactly on the 0.5 threshold or at the ends.
        let p = match next(state) % 6 {
            0 | 1 => 0.5,
            2 => 0.0,
            3 => 1.0,
            _ => (next(state) % 1001) as f64 / 1000.0,
        };
        lines.push(format!("leaf {p}"));
        return id;
    }
    lines.push(String::new()); // placeholder until the children have ids
    let feature = next(state) % features;
    let low = random_subtree(lines, state, features, depth_left - 1);
    let high = random_subtree(lines, state, features, depth_left - 1);
    lines[id] = format!("split {feature} {low} {high}");
    id
}

/// A random predictor over `width`-bit operands, in the text format.
fn random_model(width: u32, state: &mut u64) -> String {
    let features = 4 * u64::from(width) + 2;
    let mut text = format!(
        "timing-error-predictor width={width} out_bits={}\n",
        width + 1
    );
    for bit in 0..=width {
        match next(state) % 4 {
            0 => writeln!(text, "bit {bit} constant {}", next(state) % 2).unwrap(),
            _ => {
                // One to six trees: odd and even counts, so ties occur.
                let trees = 1 + next(state) % 6;
                writeln!(text, "bit {bit} forest\nforest trees={trees}").unwrap();
                for _ in 0..trees {
                    let mut lines = Vec::new();
                    let depth = (next(state) % 6) as u32; // 0 = single leaf
                    random_subtree(&mut lines, state, features, depth);
                    writeln!(text, "tree features={features} nodes={}", lines.len()).unwrap();
                    for line in lines {
                        writeln!(text, "{line}").unwrap();
                    }
                }
            }
        }
    }
    text
}

/// A random cycle stream: full 64-bit fields, so bits above the model's
/// width must be ignored identically by both paths.
fn random_cycles(n: usize, state: &mut u64) -> Vec<CyclePair> {
    let raw: Vec<(u64, u64, u64, u64)> = (0..n)
        .map(|_| (next(state), next(state), next(state), 0))
        .collect();
    CyclePair::from_stream(&raw)
}

fn assert_batch_equals_scalar(model: &TimingErrorPredictor, cycles: &[CyclePair]) {
    let batch = model.predict_flips_batch(cycles);
    assert_eq!(batch.len(), cycles.len());
    for (i, (cycle, &flips)) in cycles.iter().zip(&batch).enumerate() {
        assert_eq!(
            flips,
            model.predict_flips(cycle),
            "cycle {i} of {}",
            cycles.len()
        );
    }
}

proptest! {
    #[test]
    fn batch_equals_scalar_on_random_models(
        n in 1usize..300,
        width_pick in 0usize..5,
        seed in any::<u64>(),
    ) {
        let width = [1u32, 3, 8, 16, 32][width_pick];
        let mut state = seed;
        let model = TimingErrorPredictor::from_text(&random_model(width, &mut state))
            .expect("generated models parse");
        assert_batch_equals_scalar(&model, &random_cycles(n, &mut state));
    }
}

#[test]
fn tied_votes_and_half_leaves_are_not_positive() {
    // Bit 0: two depth-0 trees, one always positive and one always
    // negative — every cycle is a 1:1 tie. Bit 1: one depth-0 leaf at
    // exactly 0.5. Bit 2: three trees, two always positive. Bit 3 is
    // constant true, bits 4 to 8 constant false.
    let mut text = String::from("timing-error-predictor width=8 out_bits=9\n");
    text.push_str("bit 0 forest\nforest trees=2\n");
    text.push_str("tree features=34 nodes=1\nleaf 1\ntree features=34 nodes=1\nleaf 0\n");
    text.push_str("bit 1 forest\nforest trees=1\ntree features=34 nodes=1\nleaf 0.5\n");
    text.push_str("bit 2 forest\nforest trees=3\n");
    text.push_str("tree features=34 nodes=1\nleaf 0.75\n");
    text.push_str("tree features=34 nodes=3\nsplit 33 1 2\nleaf 0\nleaf 0\n");
    text.push_str("tree features=34 nodes=1\nleaf 1\n");
    text.push_str("bit 3 constant 1\n");
    for bit in 4..=8 {
        writeln!(text, "bit {bit} constant 0").unwrap();
    }
    let model = TimingErrorPredictor::from_text(&text).unwrap();
    let mut state = 99;
    for n in [1, 63, 64, 65, 130] {
        let cycles = random_cycles(n, &mut state);
        assert_batch_equals_scalar(&model, &cycles);
        assert!(model
            .predict_flips_batch(&cycles)
            .iter()
            .all(|&f| f == 0b1100));
    }
    assert!(model.predict_flips_batch(&[]).is_empty());
}

#[test]
fn batch_equals_scalar_on_trained_models() {
    // A synthetic overclocked 16-bit adder with three misbehaving bits:
    // a rare operand pattern, a frequent one, and label noise.
    let mut state = 0xC0FFEE;
    let raw: Vec<(u64, u64, u64, u64)> = (0..3000)
        .map(|_| {
            let (a, b) = (next(&mut state) & 0xFFFF, next(&mut state) & 0xFFFF);
            let mut flips = 0;
            if a & 0x7 == 0x7 && b & 1 == 1 {
                flips |= 1 << 8;
            }
            if (a ^ b) & 0x30 != 0 {
                flips |= 1 << 12;
            }
            if next(&mut state).is_multiple_of(3) {
                flips |= 1 << 15;
            }
            (a, b, a + b, flips)
        })
        .collect();
    let cycles = CyclePair::from_stream(&raw);
    let (train, test) = cycles.split_at(2000);
    let model = TimingErrorPredictor::train(train, 16, &PredictorConfig::default());
    assert_eq!(model.trained_bits(), 3);
    assert_batch_equals_scalar(&model, test);
    assert_batch_equals_scalar(&model, &test[..77]);
    assert!(model.predict_flips_batch(test).iter().any(|&f| f != 0));
}
