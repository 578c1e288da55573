//! The gate-level and predictor-backed [`Substrate`] implementations.
//!
//! Together with [`BehaviouralSubstrate`](isa_core::BehaviouralSubstrate)
//! (which lives in `isa-core` because it needs no artifacts), these cover
//! the paper's three `ysilver` provenances:
//!
//! | substrate            | `ysilver`                              | paper role |
//! |----------------------|----------------------------------------|------------|
//! | behavioural          | `ygold` (no timing errors)             | properly clocked baseline, Section V.A |
//! | [`GateLevelSubstrate`] | sampled from the delay-annotated netlist | ModelSim ground truth, Figs. 9–10 |
//! | [`PredictedSubstrate`] | `ygold ^ predicted flips`              | Section III model, Figs. 7–8 |
//!
//! Pick the predictor backend for wide sweeps where gate-level cost is
//! prohibitive (it is orders of magnitude faster per cycle and FATE-style
//! faithful on aggregate statistics), and the gate-level backend whenever
//! ground-truth timing behaviour — including cycle-to-cycle state carryover
//! — is the point of the measurement.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use isa_core::combine::SilverSource;
use isa_core::substrate::{CostClass, Substrate};
use isa_core::{Adder, Design};
use isa_learn::{CyclePair, PredictorConfig, TimingErrorPredictor};
use isa_timing_sim::{filtered, run_clocked_batch, ClockedCore};
use isa_workloads::{take_pairs, UniformWorkload};

use crate::cache::ArtifactCache;
use crate::context::{DesignContext, ExperimentConfig, SimBackend};

/// The ground-truth substrate: event-driven delay-annotated gate-level
/// simulation of the synthesized design, sampled at the reduced clock edge.
///
/// Synthesis and annotation artifacts are memoized per design in the shared
/// [`ArtifactCache`], so preparing many sessions for the same design (e.g.
/// one per CPR) synthesizes once.
#[derive(Debug)]
pub struct GateLevelSubstrate {
    cache: Arc<ArtifactCache>,
    config: ExperimentConfig,
}

impl GateLevelSubstrate {
    /// Creates a gate-level substrate over a shared artifact cache.
    #[must_use]
    pub fn new(cache: Arc<ArtifactCache>, config: ExperimentConfig) -> Self {
        Self { cache, config }
    }

    /// The memoized context for a design (synthesizing on first use).
    #[must_use]
    pub fn context(&self, design: &Design) -> Arc<DesignContext> {
        self.cache.context(design, &self.config)
    }
}

/// One gate-level session: owned clocked-simulation state plus the shared
/// design artifacts, carrying circuit state across cycles.
struct GateSession {
    ctx: Arc<DesignContext>,
    clocked: ClockedCore,
}

impl SilverSource for GateSession {
    fn next_silver(&mut self, a: u64, b: u64) -> u64 {
        let adder = &self.ctx.synthesized.adder;
        let pins = adder.input_values(a, b);
        self.clocked.step(adder.netlist(), &pins)
    }
}

impl Substrate for GateLevelSubstrate {
    fn prepare(&self, design: &Design, clock_ps: f64) -> Box<dyn SilverSource + '_> {
        let ctx = self.context(design);
        let clocked = ClockedCore::new(ctx.synthesized.adder.netlist(), &ctx.annotation, clock_ps);
        Box::new(GateSession { ctx, clocked })
    }

    fn label(&self) -> String {
        "gate-level".to_owned()
    }

    fn cost_class(&self) -> CostClass {
        CostClass::GateLevel
    }

    /// Full-stream evaluation on the configured [`SimBackend`]: the
    /// filtered operand-adaptive path by default (classifier-proven-safe
    /// lanes take a functional sweep of the compiled tape, the unsafe
    /// minority a compacted 64-lane timed replay — bit-identical to the
    /// bit-sliced backend), the plain bit-sliced 64-lane simulator, or the
    /// scalar event queue (the parity reference). This is the one place a
    /// backend is dispatched to produce sampled words.
    fn run_batch(&self, design: &Design, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
        match self.config.backend {
            SimBackend::Scalar => {
                let mut session = self.prepare(design, clock_ps);
                inputs
                    .iter()
                    .map(|&(a, b)| session.next_silver(a, b))
                    .collect()
            }
            SimBackend::BitSliced => {
                let ctx = self.context(design);
                run_clocked_batch(&ctx.synthesized.adder, &ctx.annotation, clock_ps, inputs)
            }
            SimBackend::Filtered => {
                let ctx = self.context(design);
                filtered::run(
                    &ctx.synthesized.adder,
                    &ctx.annotation,
                    ctx.classifier(),
                    ctx.tape(),
                    clock_ps,
                    inputs,
                )
                .0
            }
        }
    }
}

/// Key for one trained predictor: the design's artifact identity plus the
/// clock period (predictors are per (design, clock) by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PredictorKey {
    design: Design,
    clock_bits: u64,
}

/// The learned substrate: `ysilver` deduced from the paper's per-bit
/// timing-error predictor (Section III.A) instead of gate-level simulation.
///
/// On first [`prepare`](Substrate::prepare) of a (design, clock) pair the
/// substrate collects a gate-level training trace over its own training
/// workload, trains one Random Forest per output bit, and memoizes the
/// model; subsequent sessions reuse it. Sessions then run at behavioural
/// speed: golden output plus forest inference per cycle.
pub struct PredictedSubstrate {
    cache: Arc<ArtifactCache>,
    config: ExperimentConfig,
    train_cycles: usize,
    train_seed: u64,
    predictor_config: PredictorConfig,
    models: Mutex<HashMap<PredictorKey, Arc<OnceLock<Arc<TimingErrorPredictor>>>>>,
}

impl PredictedSubstrate {
    /// Creates a predictor substrate that trains on `train_cycles` cycles
    /// of a uniform workload seeded with `config.workload_seed ^ 0x7EA1`
    /// (the Figs. 7–8 training stream).
    #[must_use]
    pub fn new(cache: Arc<ArtifactCache>, config: ExperimentConfig, train_cycles: usize) -> Self {
        let train_seed = config.workload_seed ^ 0x7EA1;
        Self::with_train_seed(cache, config, train_cycles, train_seed)
    }

    /// Creates a predictor substrate with an explicit training-workload
    /// seed (e.g. the guardband study trains on a different stream).
    #[must_use]
    pub fn with_train_seed(
        cache: Arc<ArtifactCache>,
        config: ExperimentConfig,
        train_cycles: usize,
        train_seed: u64,
    ) -> Self {
        Self {
            cache,
            config,
            train_cycles,
            train_seed,
            predictor_config: PredictorConfig::default(),
            models: Mutex::new(HashMap::new()),
        }
    }

    /// The memoized trained predictor for a (design, clock) pair, training
    /// it on first use.
    ///
    /// # Panics
    ///
    /// Panics if the design is wider than the predictor supports or if a
    /// concurrent training of the same pair panicked.
    #[must_use]
    pub fn predictor(&self, design: &Design, clock_ps: f64) -> Arc<TimingErrorPredictor> {
        let key = PredictorKey {
            design: *design,
            clock_bits: clock_ps.to_bits(),
        };
        let slot = {
            let mut models = self.models.lock().expect("predictor cache poisoned");
            Arc::clone(models.entry(key).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(self.train(design, clock_ps))))
    }

    /// Collects a gate-level training trace and fits the per-bit model.
    ///
    /// The sampled words come from [`GateLevelSubstrate::run_batch`] on
    /// the configured backend. On the lane-dealing backends the `x[t-1]`
    /// features then follow each *lane's* actual predecessor, restarting
    /// from the reset state at segment seams
    /// ([`CyclePair::from_segmented_stream`] with
    /// [`SimBackend::seam_len`]) so features always describe the circuit
    /// state that physically produced the labels.
    fn train(&self, design: &Design, clock_ps: f64) -> TimingErrorPredictor {
        let gate_level = GateLevelSubstrate::new(Arc::clone(&self.cache), self.config.clone());
        let ctx = gate_level.context(design);
        let inputs = take_pairs(
            UniformWorkload::new(design.width(), self.train_seed),
            self.train_cycles,
        );
        let sampled = gate_level.run_batch(design, clock_ps, &inputs);
        let settled = ctx
            .synthesized
            .adder
            .add_batch_with_tape(ctx.tape(), &inputs);
        let raw = inputs
            .iter()
            .zip(sampled.iter().zip(&settled))
            .map(|(&(a, b), (&sam, &set))| (a, b, set, sam ^ set));
        let cycles =
            CyclePair::from_segmented_stream(raw, self.config.backend.seam_len(inputs.len()));
        TimingErrorPredictor::train(&cycles, design.width(), &self.predictor_config)
    }
}

impl std::fmt::Debug for PredictedSubstrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictedSubstrate")
            .field("train_cycles", &self.train_cycles)
            .field("train_seed", &self.train_seed)
            .finish_non_exhaustive()
    }
}

/// One predictor session: golden model plus previous-cycle state (the
/// model's `x[t-1]` / `yRTL[t-1]` features).
struct PredictedSession {
    predictor: Arc<TimingErrorPredictor>,
    gold: Box<dyn Adder>,
    prev: (u64, u64, u64),
}

impl SilverSource for PredictedSession {
    fn next_silver(&mut self, a: u64, b: u64) -> u64 {
        let gold = self.gold.add(a, b);
        let cycle = CyclePair {
            a,
            b,
            a_prev: self.prev.0,
            b_prev: self.prev.1,
            gold,
            gold_prev: self.prev.2,
            flips: 0,
        };
        let silver = self.predictor.predict_silver(&cycle);
        self.prev = (a, b, gold);
        silver
    }
}

impl Substrate for PredictedSubstrate {
    fn prepare(&self, design: &Design, clock_ps: f64) -> Box<dyn SilverSource + '_> {
        let predictor = self.predictor(design, clock_ps);
        Box::new(PredictedSession {
            predictor,
            gold: design.behavioural(),
            prev: (0, 0, 0),
        })
    }

    fn label(&self) -> String {
        "predicted".to_owned()
    }

    fn cost_class(&self) -> CostClass {
        CostClass::Predicted
    }

    /// Whole-stream prediction on the plane datapath
    /// ([`TimingErrorPredictor::predict_flips_batch`]): golden outputs from
    /// the behavioural model's batch evaluation, the `t-1` features chained
    /// through the whole stream exactly as one [`prepare`](Substrate::prepare)
    /// session chains them, and every cycle's silver word equal to that
    /// session's.
    fn run_batch(&self, design: &Design, clock_ps: f64, inputs: &[(u64, u64)]) -> Vec<u64> {
        let predictor = self.predictor(design, clock_ps);
        let gold = design.behavioural().add_batch(inputs);
        let raw = inputs.iter().zip(&gold).map(|(&(a, b), &g)| (a, b, g, 0));
        let flips = predictor.predict_flips_batch(&CyclePair::from_segmented_stream(raw, None));
        gold.iter().zip(&flips).map(|(&g, &f)| g ^ f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_core::IsaConfig;

    fn shared() -> (Arc<ArtifactCache>, ExperimentConfig) {
        (Arc::new(ArtifactCache::new()), ExperimentConfig::default())
    }

    #[test]
    fn gate_level_at_safe_clock_equals_gold() {
        let (cache, config) = shared();
        let substrate = GateLevelSubstrate::new(cache, config.clone());
        let design = Design::Isa(IsaConfig::new(32, 8, 0, 0, 4).unwrap());
        let gold = design.behavioural();
        let mut session = substrate.prepare(&design, config.period_ps);
        let mut seed = 0x5EEDu64;
        for _ in 0..100 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            let (a, b) = (seed >> 32, seed & 0xFFFF_FFFF);
            assert_eq!(session.next_silver(a, b), gold.add(a, b));
        }
    }

    #[test]
    fn gate_level_memoizes_synthesis_across_sessions() {
        let (cache, config) = shared();
        let substrate = GateLevelSubstrate::new(Arc::clone(&cache), config.clone());
        let design = Design::Exact { width: 32 };
        let _s1 = substrate.prepare(&design, config.clock_ps(0.05));
        let _s2 = substrate.prepare(&design, config.clock_ps(0.15));
        assert_eq!(cache.len(), 1, "one synthesis for two sessions");
    }

    #[test]
    fn predicted_substrate_trains_once_per_design_clock() {
        let (cache, config) = shared();
        let substrate = PredictedSubstrate::new(cache, config.clone(), 200);
        let design = Design::Isa(IsaConfig::new(32, 16, 0, 0, 0).unwrap());
        let clk = config.clock_ps(0.05);
        let p1 = substrate.predictor(&design, clk);
        let p2 = substrate.predictor(&design, clk);
        assert!(Arc::ptr_eq(&p1, &p2), "predictor must be memoized");
        // Error-free design at mild overclock: predictor degenerates to the
        // golden model.
        let gold = design.behavioural();
        let mut session = substrate.prepare(&design, clk);
        assert_eq!(session.next_silver(7, 9), gold.add(7, 9));
    }

    #[test]
    fn predicted_run_batch_equals_the_session_loop() {
        // The exact adder at 15% CPR trains forests on most upper bits, so
        // the batch override has real predictions to get right; stream
        // lengths cover a single cycle, exact blocks and ragged tails.
        let (cache, config) = shared();
        let substrate = PredictedSubstrate::new(cache, config.clone(), 1_500);
        let design = Design::Exact { width: 32 };
        let clk = config.clock_ps(0.15);
        assert!(substrate.predictor(&design, clk).trained_bits() > 0);
        let gold = design.behavioural();
        let inputs = take_pairs(UniformWorkload::new(32, 0xBA7C), 300);
        for n in [1, 64, 65, 127, 300] {
            let inputs = &inputs[..n];
            let batch = substrate.run_batch(&design, clk, inputs);
            let mut session = substrate.prepare(&design, clk);
            let looped: Vec<u64> = inputs
                .iter()
                .map(|&(a, b)| session.next_silver(a, b))
                .collect();
            assert_eq!(batch, looped, "{n} cycles");
            if n == 300 {
                let flagged = inputs
                    .iter()
                    .zip(&batch)
                    .filter(|(&(a, b), &silver)| silver != gold.add(a, b))
                    .count();
                assert!(flagged > 0, "the model must predict some timing errors");
            }
        }
        assert!(substrate.run_batch(&design, clk, &[]).is_empty());
    }
}
