//! Shared pieces: the run outcome, clocks and order statistics, the
//! process's peak memory, the in-memory trace sink and output digests.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use isa_obs::profile::{parse_trace, SpanEvent};

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (stage calls, candidates considered, requests sent).
    pub attempted: u64,
    /// Ops that failed, were refused, or failed an output check.
    pub failed: u64,
    /// One line per failed output check.
    pub problems: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records `n` ops, of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a failed output check.
    pub fn problem(&mut self, text: String) {
        eprintln!("check failed: {text}");
        self.problems.push(text);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets a percentile metric, or records that too few samples lay
    /// beyond it.
    pub fn set_percentile(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(value) => self.set(name, value),
            None => self.problem(format!(
                "{name}: fewer than ten samples beyond the percentile"
            )),
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` inside a span named `name` (a no-op guard when tracing is
/// off) and returns its result with the elapsed seconds.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (f64, T) {
    let _span = isa_obs::span(name);
    let start = Instant::now();
    let out = f();
    (secs(start), out)
}

/// Set-ups timed per repetition; the repetition keeps the last one.
pub const SETUPS_PER_REP: usize = 3;

/// Runs `setup` `SETUPS_PER_REP` times (dropping each result before the
/// next set-up starts); returns every set-up's seconds and the last
/// result.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUPS_PER_REP);
    let mut last = None;
    for _ in 0..SETUPS_PER_REP {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(secs(start));
    }
    (times, last.expect("at least one set-up"))
}

/// Paces a run's repetitions: at least two, and after that none that
/// would end past the deadline if it took as long as the previous one.
pub struct Pacer {
    start: Instant,
    seconds: f64,
    reps: usize,
    mark: f64,
    last: f64,
}

impl Pacer {
    /// A pacer for `seconds` from now.
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            reps: 0,
            mark: 0.0,
            last: 0.0,
        }
    }

    /// Whether to start another repetition.
    pub fn next(&mut self) -> bool {
        let now = secs(self.start);
        self.last = now - self.mark;
        self.mark = now;
        let go = self.reps < 2 || now + self.last <= self.seconds;
        self.reps += usize::from(go);
        go
    }
}

/// The smallest value (best of repetitions).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values`, or `None` when fewer than
/// ten samples lie beyond it (such a percentile is one sample, not a
/// statistic).
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let beyond = ((1.0 - q) * n as f64).floor();
    if n == 0 || beyond < 10.0 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1])
}

/// The `q`-quantile of a registry histogram in microseconds (the upper
/// edge of the power-of-two-nanosecond bucket holding it), or `None`
/// when fewer than ten observations lie beyond it.
pub fn histogram_quantile_us(h: &isa_obs::HistogramSnapshot, q: f64) -> Option<f64> {
    let count = h.count();
    if ((1.0 - q) * count as f64).floor() < 10.0 {
        return None;
    }
    let rank = ((q * count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &n) in h.buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            let edge = isa_obs::metrics::bucket_upper_edge(i)?;
            return Some(edge as f64 / 1000.0);
        }
    }
    None
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a digest of an output, as 16 hex digits.
pub fn digest(text: &str) -> String {
    format!("{:016x}", isa_serve::store::fnv1a64(text.as_bytes()))
}

/// Digests recorded from this benchmark's own outputs, as
/// `workload seed output digest` lines.
const RECORDED_DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of `output` for `(workload, seed)`, if that seed
/// was recorded.
pub fn recorded_digest(workload: &str, seed: u64, output: &str) -> Option<&'static str> {
    RECORDED_DIGESTS.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [w, s, o, d] if *w == workload && s.parse() == Ok(seed) && *o == output => Some(*d),
            _ => None,
        }
    })
}

/// Checks an output against its recorded digest (when the seed has one)
/// and prints its digest line for recording.
pub fn check_digest(out: &mut Outcome, workload: &str, seed: u64, output: &str, text: &str) {
    let got = digest(text);
    eprintln!("digest: {workload} {seed} {output} {got}");
    if let Some(want) = recorded_digest(workload, seed, output) {
        if want != got {
            out.problem(format!(
                "{workload} seed {seed}: {output} digest {got} differs from recorded {want}"
            ));
        }
    }
}

/// A cloneable in-memory byte sink for the span tracer.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer lock")
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The traced run's span recorder: an in-memory `isa_obs` sink whose
/// records are taken in batches (one per traced repetition) and kept
/// whole for the JSONL file written at exit.
pub struct Tracer {
    buf: SharedBuf,
    all: Vec<u8>,
}

impl Tracer {
    /// Creates the recorder; spans are recorded only while it is on.
    pub fn new() -> Self {
        Self {
            buf: SharedBuf::default(),
            all: Vec::new(),
        }
    }

    /// Starts recording spans.
    pub fn on(&self) {
        isa_obs::trace::install_writer(Box::new(self.buf.clone()));
    }

    /// Stops recording spans.
    pub fn off(&self) {
        isa_obs::trace::uninstall();
    }

    /// The spans recorded since the last call.
    pub fn take(&mut self) -> Vec<SpanEvent> {
        isa_obs::trace::flush();
        let bytes = std::mem::take(&mut *self.buf.0.lock().expect("trace buffer lock"));
        self.all.extend_from_slice(&bytes);
        parse_trace(&String::from_utf8_lossy(&bytes)).expect("the tracer writes valid JSONL")
    }

    /// Stops recording, writes the whole trace as JSONL to `path` and
    /// prints its flat profile to stderr.
    pub fn finish(mut self, path: &std::path::Path) {
        self.off();
        let _ = self.take();
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, &self.all) {
            Ok(()) => eprintln!("trace: wrote {}", path.display()),
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
        let events = parse_trace(&String::from_utf8_lossy(&self.all))
            .expect("the tracer writes valid JSONL");
        eprint!(
            "{}",
            isa_obs::profile::render_table(&isa_obs::profile::fold(&events))
        );
    }
}

/// Total seconds spent in spans named `name`.
pub fn span_total_s(events: &[SpanEvent], name: &str) -> f64 {
    row(events, name).map_or(0.0, |r| r.total_us as f64 / 1e6)
}

fn row(events: &[SpanEvent], name: &str) -> Option<isa_obs::profile::ProfileRow> {
    isa_obs::profile::fold(events)
        .into_iter()
        .find(|r| r.name == name)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Global-registry deltas of the simulation and artifact-cache counters
/// over an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounters {
    cycles: u64,
    fast: u64,
    simulated: u64,
    hits: u64,
    misses: u64,
}

impl LayerCounters {
    /// The current values.
    pub fn now() -> Self {
        let snap = isa_obs::global().snapshot();
        let get = |name: &str| snap.counter(name).unwrap_or(0);
        Self {
            cycles: get("sim.filtered.cycles"),
            fast: get("sim.filtered.fast_path_cycles"),
            simulated: get("sim.filtered.simulated_cycles"),
            hits: get("engine.cache.hits"),
            misses: get("engine.cache.misses"),
        }
    }

    /// The counts accumulated since `start`.
    pub fn since(start: Self) -> Self {
        let now = Self::now();
        Self {
            cycles: now.cycles - start.cycles,
            fast: now.fast - start.fast,
            simulated: now.simulated - start.simulated,
            hits: now.hits - start.hits,
            misses: now.misses - start.misses,
        }
    }

    /// Gate-level cycles the filtered backend had to simulate.
    pub fn simulated_cycles(&self) -> u64 {
        self.simulated
    }

    /// Sets the `timing_sim.*` and `engine.cache_hit_frac` /
    /// `engine.builds` ledger metrics from these deltas.
    pub fn report(&self, out: &mut Outcome) {
        out.set("timing_sim.safe_lane_frac", ratio(self.fast, self.cycles));
        out.set("timing_sim.simulated_cycles", self.simulated as f64);
        out.set(
            "engine.cache_hit_frac",
            ratio(self.hits, self.hits + self.misses),
        );
        out.set("engine.builds", self.misses as f64);
    }
}

/// A small seeded generator (SplitMix64) for the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Moves the calling thread to the next of its CPUs before each
/// repetition. The machine's virtual CPUs go through slow phases at
/// different times; without this a run's best repetition can be trapped
/// on a slow one. Placement only: the measured work is the same on every
/// CPU.
pub struct CpuRotation {
    cpus: Vec<usize>,
    next: usize,
}

impl CpuRotation {
    /// A rotation over the CPUs the thread may run on now (a no-op if
    /// the mask cannot be read).
    pub fn new() -> Self {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
        // the size passed is exactly its size; pid 0 is this thread.
        let read = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        let cpus = if read == 0 {
            (0..1024)
                .filter(|&cpu| mask.0[cpu / 64] & (1 << (cpu % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Self { cpus, next: 0 }
    }

    /// Pins the calling thread to the next CPU (best effort: a refused
    /// mask leaves the affinity unchanged).
    pub fn advance(&mut self) {
        if self.cpus.is_empty() {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask = CpuSet([0; 16]);
        mask.0[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live `cpu_set_t`-sized buffer and the size
        // passed is exactly its size; pid 0 is this thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}
