//! Bit-sliced (64-lane) event-driven gate-level simulation.
//!
//! [`BitSimCore`] is the word-level counterpart of [`SimCore`](crate::sim::SimCore): every net
//! holds a `u64` whose bit `l` is the net's value in lane `l`, so one event
//! commit and one gate evaluation advance 64 **independent** simulations at
//! once. Delays are per-cell (identical across lanes), which makes the
//! word-level event queue exact per lane:
//!
//! * an event scheduled because *any* lane's input changed carries the
//!   freshly evaluated word for *all* lanes, so a lane whose inputs did not
//!   change receives a value equal to its current one — a no-op on commit;
//! * commits at one timestamp always end with the fully re-evaluated word
//!   (later-seq events carry later evaluations), so sampled values — which
//!   are only observed after a timestamp completes — are identical to each
//!   lane's private scalar run.
//!
//! The lane-vs-scalar parity property tests in `tests/bit_parity.rs` pin
//! this bit-for-bit, at safe and overclocked settings.
//!
//! Activity accounting differs from the scalar core by design:
//! [`BitSimCore::events_processed`] counts committed *word* events (the
//! scheduling work actually performed), while
//! [`BitSimCore::net_commit_counts`] weights each commit by the number of
//! lanes that flipped — summing per-lane transitions exactly, so energy
//! estimates stay comparable with scalar runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use isa_core::batch::{segment_len, LaneBatch, LANES};
use isa_netlist::builders::AdderNetlist;
use isa_netlist::graph::{NetId, Netlist};
use isa_netlist::timing::DelayAnnotation;

use crate::sim::ps_to_fs;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct WordEvent {
    time_fs: u64,
    seq: u64,
    net: u32,
    value: u64,
}

/// Netlist-free state of a 64-lane event-driven simulation.
///
/// Like [`SimCore`](crate::SimCore), every method takes the netlist
/// explicitly so the state can live beside an owned (`Arc`ed) netlist in a
/// long-lived substrate session. Callers must pass the netlist the state
/// was created with.
#[derive(Debug, Clone)]
pub struct BitSimCore {
    delays_fs: Vec<u64>,
    values: Vec<u64>,
    queue: BinaryHeap<Reverse<WordEvent>>,
    now_fs: u64,
    seq: u64,
    events_processed: u64,
    net_commits: Vec<u64>,
}

impl BitSimCore {
    /// Creates 64-lane simulator state with every lane's primary inputs at
    /// 0 and the netlist settled to that state.
    ///
    /// # Panics
    ///
    /// Panics if the annotation does not cover every cell.
    #[must_use]
    pub fn new(netlist: &Netlist, annotation: &DelayAnnotation) -> Self {
        assert_eq!(
            annotation.len(),
            netlist.cell_count(),
            "annotation covers {} cells, netlist has {}",
            annotation.len(),
            netlist.cell_count()
        );
        let delays_fs = annotation.as_slice().iter().map(|&d| ps_to_fs(d)).collect();
        // All lanes share the settled all-zero reset state: broadcast the
        // scalar settle to every lane.
        let values = netlist
            .evaluate(&vec![false; netlist.inputs().len()])
            .into_iter()
            .map(|v| if v { u64::MAX } else { 0 })
            .collect::<Vec<u64>>();
        let net_commits = vec![0; netlist.net_count()];
        Self {
            delays_fs,
            values,
            queue: BinaryHeap::new(),
            now_fs: 0,
            seq: 0,
            events_processed: 0,
            net_commits,
        }
    }

    /// Current simulation time in femtoseconds.
    #[must_use]
    pub fn now_fs(&self) -> u64 {
        self.now_fs
    }

    /// Committed *word* events so far (one per net change in any lane) — a
    /// measure of the simulator work performed, not of per-lane activity.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Committed transition count per net, **summed over lanes** (each
    /// word commit contributes the popcount of the changed lanes). The
    /// activity profile feeding energy estimation, directly comparable to
    /// 64 scalar runs' counts added together.
    #[must_use]
    pub fn net_commit_counts(&self) -> &[u64] {
        &self.net_commits
    }

    /// Current value word of a net (bit `l` = lane `l`).
    #[must_use]
    pub fn value_word(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// The primary outputs as one plane per output net, in declaration
    /// order (bit `l` of plane `i` = output `i` in lane `l`).
    #[must_use]
    pub fn output_planes(&self, netlist: &Netlist) -> Vec<u64> {
        netlist
            .outputs()
            .iter()
            .map(|n| self.values[n.index()])
            .collect()
    }

    fn schedule_fanout(&mut self, netlist: &Netlist, net: NetId) {
        for &cell_id in netlist.fanout(net) {
            let cell = netlist.cell(cell_id);
            let mut pins = [0u64; 3];
            for (slot, n) in pins.iter_mut().zip(&cell.inputs) {
                *slot = self.values[n.index()];
            }
            let new_value = cell.kind.eval_word(&pins[..cell.inputs.len()]);
            let when = self.now_fs + self.delays_fs[cell_id.index()];
            self.seq += 1;
            self.queue.push(Reverse(WordEvent {
                time_fs: when,
                seq: self.seq,
                net: cell.output.index() as u32,
                value: new_value,
            }));
        }
    }

    fn commit(&mut self, netlist: &Netlist, idx: usize, value: u64) {
        let flipped = self.values[idx] ^ value;
        if flipped != 0 {
            self.values[idx] = value;
            self.events_processed += 1;
            self.net_commits[idx] += u64::from(flipped.count_ones());
            self.schedule_fanout(netlist, NetId::from_index(idx));
        }
    }

    /// Drives the primary inputs to new lane words at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from the number of primary inputs.
    pub fn set_input_words(&mut self, netlist: &Netlist, words: &[u64]) {
        assert_eq!(
            words.len(),
            netlist.inputs().len(),
            "expected {} input words",
            netlist.inputs().len()
        );
        // Commit all input changes first so multi-input cells see the full
        // new vector when re-evaluated (same order as the scalar core).
        let mut changed = Vec::new();
        for (&net, &w) in netlist.inputs().iter().zip(words) {
            let flipped = self.values[net.index()] ^ w;
            if flipped != 0 {
                self.values[net.index()] = w;
                self.net_commits[net.index()] += u64::from(flipped.count_ones());
                changed.push(net);
            }
        }
        for net in changed {
            self.schedule_fanout(netlist, net);
        }
    }

    /// Processes all events strictly before `t_fs`, then advances the
    /// clock to `t_fs` — the same zero-margin-setup sampling semantics as
    /// [`SimCore::run_until`](crate::SimCore::run_until), for all 64 lanes.
    ///
    /// # Panics
    ///
    /// Panics if `t_fs` is in the past.
    pub fn run_until(&mut self, netlist: &Netlist, t_fs: u64) {
        assert!(t_fs >= self.now_fs, "cannot run backwards");
        while let Some(Reverse(ev)) = self.queue.peek().copied() {
            if ev.time_fs >= t_fs {
                break;
            }
            self.queue.pop();
            self.now_fs = ev.time_fs;
            self.commit(netlist, ev.net as usize, ev.value);
        }
        self.now_fs = t_fs;
    }

    /// Runs until no events remain in any lane (combinational settle).
    pub fn run_to_quiescence(&mut self, netlist: &Netlist) {
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.now_fs = self.now_fs.max(ev.time_fs);
            self.commit(netlist, ev.net as usize, ev.value);
        }
    }
}

/// Clocked (overclocked) 64-lane operation: the word-level counterpart of
/// [`ClockedCore`](crate::ClockedCore). Circuit state carries over between
/// [`step_planes`](Self::step_planes) calls independently per lane.
#[derive(Debug, Clone)]
pub struct BitClockedCore {
    sim: BitSimCore,
    period_fs: u64,
}

impl BitClockedCore {
    /// Creates clocked 64-lane state running `netlist` at `period_ps`.
    ///
    /// # Panics
    ///
    /// Panics if the period is not positive/finite or the annotation does
    /// not cover the netlist.
    #[must_use]
    pub fn new(netlist: &Netlist, annotation: &DelayAnnotation, period_ps: f64) -> Self {
        assert!(
            period_ps.is_finite() && period_ps > 0.0,
            "period must be positive"
        );
        Self {
            sim: BitSimCore::new(netlist, annotation),
            period_fs: ps_to_fs(period_ps),
        }
    }

    /// The clock period in femtoseconds.
    #[must_use]
    pub fn period_fs(&self) -> u64 {
        self.period_fs
    }

    /// Applies one input word vector at the current clock edge, runs one
    /// period, and returns the output planes sampled at the next edge.
    ///
    /// # Panics
    ///
    /// Panics if `input_planes.len()` differs from the netlist's input
    /// count.
    pub fn step_planes(&mut self, netlist: &Netlist, input_planes: &[u64]) -> Vec<u64> {
        let t0 = self.sim.now_fs();
        self.sim.set_input_words(netlist, input_planes);
        self.sim.run_until(netlist, t0 + self.period_fs);
        self.sim.output_planes(netlist)
    }

    /// Creates clocked 64-lane state already settled at the given input
    /// planes: every net holds its functional value and the event queue
    /// is empty — the state an event-driven run reaches after driving
    /// those inputs to quiescence, obtained here with a single
    /// functional plane pass instead of an event cascade.
    ///
    /// This is the event-driven oracle of
    /// [`TimedTapeCore::with_settled`](crate::TimedTapeCore::with_settled),
    /// which is how the filtered runner seeds a compacted core
    /// mid-stream: a lane entering the slow path from a proven-settled
    /// step is in exactly the state "previous operands, fully settled,
    /// nothing in flight".
    ///
    /// # Panics
    ///
    /// Panics like [`Self::new`], or if `input_planes.len()` differs from
    /// the netlist's input count.
    #[must_use]
    pub fn with_settled_planes(
        netlist: &Netlist,
        annotation: &DelayAnnotation,
        period_ps: f64,
        input_planes: &[u64],
    ) -> Self {
        assert!(
            period_ps.is_finite() && period_ps > 0.0,
            "period must be positive"
        );
        let mut core = Self {
            sim: BitSimCore::new(netlist, annotation),
            period_fs: ps_to_fs(period_ps),
        };
        core.sim.values = netlist.evaluate_words(input_planes);
        core
    }

    /// Committed *word* events so far (see
    /// [`BitSimCore::events_processed`]).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Per-net transition counts summed over lanes (see
    /// [`BitSimCore::net_commit_counts`]).
    #[must_use]
    pub fn net_commit_counts(&self) -> &[u64] {
        self.sim.net_commit_counts()
    }

    /// Current simulation time in femtoseconds.
    #[must_use]
    pub fn now_fs(&self) -> u64 {
        self.sim.now_fs()
    }
}

/// Mask of lanes that sampled at least one output bit before it settled:
/// bit `l` is set iff any plane differs between `sampled` and `settled` in
/// lane `l` — the per-lane timing-violation capture of an overclocked
/// step.
///
/// # Panics
///
/// Panics if the plane counts differ.
#[must_use]
pub fn violation_mask(sampled_planes: &[u64], settled_planes: &[u64]) -> u64 {
    assert_eq!(
        sampled_planes.len(),
        settled_planes.len(),
        "plane counts must match"
    );
    sampled_planes
        .iter()
        .zip(settled_planes)
        .fold(0u64, |acc, (&s, &g)| acc | (s ^ g))
}

/// Runs an adder's full operand stream on the 64-lane clocked simulator and
/// returns the sampled (`ysilver`) outputs in stream order.
///
/// The stream is dealt to lanes in **contiguous segments** of
/// [`segment_len`] cycles (lane `l` carries positions `l*seg ..`), so each
/// lane's cycle-to-cycle state carryover matches a scalar
/// [`ClockedCore`](crate::ClockedCore) run of that segment: consecutive
/// stream cycles stay consecutive everywhere except the at-most-63 segment
/// seams, where a lane starts from the reset state exactly like the scalar
/// run's first cycle. Lanes that exhaust their segment hold their last
/// inputs, so padding adds no switching activity once settled.
#[must_use]
pub fn run_clocked_batch(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> Vec<u64> {
    run_clocked_batch_with_core(adder, annotation, period_ps, inputs).0
}

/// Like [`run_clocked_batch`], but also returns the spent simulator core,
/// so callers can read its activity counters
/// ([`net_commit_counts`](BitClockedCore::net_commit_counts),
/// [`events_processed`](BitClockedCore::events_processed)) — the energy
/// pipeline's path. There is exactly one implementation of the
/// segment-dealing policy; every batched consumer goes through it.
#[must_use]
pub fn run_clocked_batch_with_core(
    adder: &AdderNetlist,
    annotation: &DelayAnnotation,
    period_ps: f64,
    inputs: &[(u64, u64)],
) -> (Vec<u64>, BitClockedCore) {
    let n = inputs.len();
    let width = adder.width();
    let netlist = adder.netlist();
    let mut clocked = BitClockedCore::new(netlist, annotation, period_ps);
    if n == 0 {
        return (Vec::new(), clocked);
    }
    let seg = segment_len(n);
    let mut lane_pairs = [(0u64, 0u64); LANES];
    let mut out = vec![0u64; n];
    for t in 0..seg {
        for (l, lane) in lane_pairs.iter_mut().enumerate() {
            let idx = l * seg + t;
            if idx < n {
                *lane = inputs[idx];
            }
            // else: hold the lane's previous inputs (no activity).
        }
        let batch = LaneBatch::pack(width, &lane_pairs);
        let sampled = clocked.step_planes(netlist, &adder.input_planes(&batch));
        let lanes = LaneBatch::unpack_lanes(&sampled, LANES);
        for (l, &value) in lanes.iter().enumerate() {
            let idx = l * seg + t;
            if idx < n {
                out[idx] = value;
            }
        }
    }
    (out, clocked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::ClockedCore;
    use crate::sim::SimCore;
    use isa_netlist::builders::{build_exact, AdderTopology};
    use isa_netlist::cell::CellLibrary;
    use isa_netlist::sta::StaReport;

    fn adder_and_annotation() -> (AdderNetlist, DelayAnnotation, f64) {
        let adder = build_exact(16, AdderTopology::Ripple);
        let lib = CellLibrary::industrial_65nm();
        let ann = DelayAnnotation::nominal(adder.netlist(), &lib);
        let crit = StaReport::analyze(adder.netlist(), &ann).critical_ps();
        (adder, ann, crit)
    }

    fn pairs(n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFFFF, (x >> 20) & 0xFFFF)
            })
            .collect()
    }

    #[test]
    fn settled_lanes_match_functional_eval() {
        let (adder, ann, _) = adder_and_annotation();
        let netlist = adder.netlist();
        let mut sim = BitSimCore::new(netlist, &ann);
        let input = pairs(LANES, 0xBEEF);
        let batch = LaneBatch::pack(16, &input);
        sim.set_input_words(netlist, &adder.input_planes(&batch));
        sim.run_to_quiescence(netlist);
        let lanes = LaneBatch::unpack_lanes(&sim.output_planes(netlist), LANES);
        for (l, &(a, b)) in input.iter().enumerate() {
            assert_eq!(lanes[l], a + b, "lane {l}");
        }
    }

    #[test]
    fn safe_clock_batch_has_no_timing_errors() {
        let (adder, ann, crit) = adder_and_annotation();
        let inputs = pairs(500, 0xA5A5);
        let sampled = run_clocked_batch(&adder, &ann, crit + 1.0, &inputs);
        for (i, &(a, b)) in inputs.iter().enumerate() {
            assert_eq!(sampled[i], a + b, "cycle {i}");
        }
    }

    #[test]
    fn overclocked_batch_lanes_match_scalar_segments() {
        // The parity contract: lane l of the batch, fed stream segment l,
        // must equal a scalar ClockedCore fed the same segment — bit for
        // bit, including which cycles err.
        let (adder, ann, crit) = adder_and_annotation();
        let inputs = pairs(400, 0x7777);
        let period = crit * 0.35;
        let sampled = run_clocked_batch(&adder, &ann, period, &inputs);
        let seg = segment_len(inputs.len());
        let mut errors = 0usize;
        for l in 0..LANES {
            let start = l * seg;
            if start >= inputs.len() {
                break;
            }
            let end = (start + seg).min(inputs.len());
            let mut scalar = ClockedCore::new(adder.netlist(), &ann, period);
            for (idx, &(a, b)) in inputs[start..end].iter().enumerate() {
                let expect = scalar.step(adder.netlist(), &adder.input_values(a, b));
                assert_eq!(sampled[start + idx], expect, "lane {l} cycle {idx}");
                if expect != a + b {
                    errors += 1;
                }
            }
        }
        assert!(errors > 20, "overclock must actually err: {errors}");
    }

    #[test]
    fn violation_mask_flags_exactly_the_erroneous_lanes() {
        let (adder, ann, crit) = adder_and_annotation();
        let netlist = adder.netlist();
        let period = crit * 0.5;
        let mut clocked = BitClockedCore::new(netlist, &ann, period);
        let input = pairs(LANES, 0x1CE);
        let batch = LaneBatch::pack(16, &input);
        let planes = adder.input_planes(&batch);
        let sampled = clocked.step_planes(netlist, &planes);
        let settled = netlist.evaluate_output_planes(&planes);
        let mask = violation_mask(&sampled, &settled);
        let sampled_lanes = LaneBatch::unpack_lanes(&sampled, LANES);
        let settled_lanes = LaneBatch::unpack_lanes(&settled, LANES);
        for l in 0..LANES {
            assert_eq!(
                mask >> l & 1 == 1,
                sampled_lanes[l] != settled_lanes[l],
                "lane {l}"
            );
        }
        assert_ne!(mask, 0, "half the critical path must violate somewhere");
    }

    #[test]
    fn lane_weighted_commits_match_scalar_totals() {
        // One batch step with 64 distinct lanes must count exactly the sum
        // of 64 scalar runs' transitions (uniform reset state, one vector
        // each, run to quiescence).
        let (adder, ann, _) = adder_and_annotation();
        let netlist = adder.netlist();
        let input = pairs(LANES, 0xD1E);

        let mut bit = BitSimCore::new(netlist, &ann);
        let batch = LaneBatch::pack(16, &input);
        bit.set_input_words(netlist, &adder.input_planes(&batch));
        bit.run_to_quiescence(netlist);
        let batched: u64 = bit.net_commit_counts().iter().sum();

        let mut scalar_total = 0u64;
        for &(a, b) in &input {
            let mut sim = SimCore::new(netlist, &ann);
            sim.set_inputs(netlist, &adder.input_values(a, b));
            sim.run_to_quiescence(netlist, 1_000_000).unwrap();
            scalar_total += sim.net_commit_counts().iter().sum::<u64>();
        }
        assert_eq!(batched, scalar_total);
    }

    #[test]
    fn word_events_are_fewer_than_scalar_lane_events() {
        // The throughput argument in one assertion: the batched run's word
        // events must undercut the summed per-lane scalar events.
        let (adder, ann, crit) = adder_and_annotation();
        let netlist = adder.netlist();
        let inputs = pairs(256, 0xFACE);
        let period = crit * 0.7;

        let mut bit = BitClockedCore::new(netlist, &ann, period);
        let seg = segment_len(inputs.len());
        let mut lane_pairs = [(0u64, 0u64); LANES];
        for t in 0..seg {
            for (l, lane) in lane_pairs.iter_mut().enumerate() {
                let idx = l * seg + t;
                if idx < inputs.len() {
                    *lane = inputs[idx];
                }
            }
            let batch = LaneBatch::pack(16, &lane_pairs);
            let _ = bit.step_planes(netlist, &adder.input_planes(&batch));
        }

        let mut scalar_events = 0u64;
        for l in 0..LANES {
            let start = l * seg;
            if start >= inputs.len() {
                break;
            }
            let end = (start + seg).min(inputs.len());
            let mut scalar = ClockedCore::new(netlist, &ann, period);
            for &(a, b) in &inputs[start..end] {
                let _ = scalar.step(netlist, &adder.input_values(a, b));
            }
            scalar_events += scalar.events_processed();
        }
        assert!(
            bit.events_processed() * 2 < scalar_events,
            "word events {} should be well under scalar {}",
            bit.events_processed(),
            scalar_events
        );
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let (adder, ann, crit) = adder_and_annotation();
        assert!(run_clocked_batch(&adder, &ann, crit, &[]).is_empty());
    }
}
