//! Model digests: the serialized text of three real per-(design, CPR)
//! predictors, trained on 8 000 gate-level cycles, hashed with FNV-1a 64.
//!
//! The digests were recorded before the bit-plane fitting work and pin
//! every tree node by node (split features, child order, leaf
//! probabilities to full `f64` precision), so a change to tree growth
//! that leaves the rounded figure CSVs alone but alters a single split
//! still fails here. Fitting consumes the forest RNG in a fixed order;
//! any change to that order changes these digests.

use isa_core::{Design, IsaConfig};
use isa_engine::{Engine, ExperimentConfig, PredictedSubstrate};

const TRAIN_CYCLES: usize = 8_000;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

#[test]
fn trained_models_are_byte_identical_to_the_recorded_digests() {
    let config = ExperimentConfig::default();
    let engine = Engine::with_threads(1);
    let predicted = PredictedSubstrate::new(engine.cache(), config.clone(), TRAIN_CYCLES);
    // (design, CPR, digest, trained bits): the paper's favoured ISA, a
    // wide-speculation ISA with many trained bits, and the exact adder.
    let points = [
        (
            Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap()),
            0.15,
            0xc7b4_1bb0_c028_cf70u64,
            9,
        ),
        (
            Design::Isa(IsaConfig::new(32, 8, 0, 1, 6).unwrap()),
            0.10,
            0x001d_9465_70be_c42e,
            21,
        ),
        (Design::Exact { width: 32 }, 0.05, 0x041f_d5e0_3f64_ec11, 17),
    ];
    for (design, cpr, digest, trained_bits) in points {
        let model = predicted.predictor(&design, config.clock_ps(cpr));
        assert_eq!(model.trained_bits(), trained_bits, "{design} at CPR {cpr}");
        assert_eq!(
            fnv1a64(model.to_text().as_bytes()),
            digest,
            "{design} at CPR {cpr}: trained trees changed"
        );
    }
}
