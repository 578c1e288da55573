//! The `serve` workload: seeded request traffic through `serve_lines`
//! on a `Service` with two workers, one engine thread, no simulation
//! budget, no faults, and a fresh result store per repetition.
//!
//! Traffic is about 90 % repeat keys drawn with Zipf popularity from a
//! pool of a few hundred (stream quality queries, kernel queries,
//! `cheapest` queries) and about 10 % keys never seen before (a
//! compact-grid design, or a paper design at an unused cycle count);
//! some fresh requests are sent twice back to back so coalescing fires.
//!
//! The end-to-end run drains the script (every request submitted at
//! once) on fresh services. The traced run measures the same drain with
//! tracing off and on, then replays the script as an open loop: each
//! request is due at a seeded Poisson time and its latency runs from
//! that due time to the moment its response line is written.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isa_core::paper_designs;
use isa_engine::ExperimentConfig;
use isa_explore::SpaceSpec;
use isa_obs::{HistogramSnapshot, Snapshot};
use isa_serve::{serve_lines, FaultPlan, ServeConfig, Service};

use crate::common::{
    histogram_quantile_us, median, min, peak_rss_mb, percentile, ratio, repeated_setup, secs,
    timed, LayerCounters, Outcome, Pacer, Rng, Tracer,
};

/// Requests in one script.
const REQUESTS: usize = 4_000;
/// Cycle count of every repeat stream query. Large enough that a store
/// miss's evaluation outweighs its durable record write, so a drain
/// measures the service more than the disk holding the store.
const STREAM_CYCLES: u64 = 20_000;
/// Cycle count of the `cheapest` queries. Each sweeps every candidate
/// design, so one is many stream queries' work; kept small so that one
/// does not hold up the ordered responses behind it for long.
const CHEAPEST_CYCLES: u64 = 2_000;
/// Cycle count of the set-up queries (never used by the traffic).
const WARM_CYCLES: u64 = 64;
/// Requests with a never-seen key (about a tenth of the script).
const FRESH: usize = 400;
/// Of those, compact-grid designs: each needs an artifact build. Fewer
/// than the artifact cache holds besides the paper designs, so the
/// script's work does not depend on eviction order.
const FRESH_DESIGNS: usize = 40;
/// Fresh requests sent twice back to back (so coalescing fires).
const DUPLICATED: usize = 100;
/// Zipf exponent of repeat-key popularity.
const ZIPF_S: f64 = 1.0;
/// Open-loop arrival rate, requests per second: about a quarter of the
/// drained capacity, so slow phases build no backlog.
const RATE_PER_S: f64 = 400.0;
/// Latency limit of `serve.slo_met_frac`: about three times the open
/// loop's p99 in a slow phase.
const SLO_US: f64 = 200_000.0;
/// Engine worker threads per request fan-out.
const ENGINE_THREADS: usize = 1;
/// `serve_lines` workers.
const WORKERS: usize = 2;

/// One request of the script: its body (the key the checks group by)
/// and its due time in seconds from the start of the session.
struct Request {
    body: String,
    due_s: f64,
}

fn stream_body(design: &str, cpr: f64, workload: &str, cycles: u64) -> String {
    format!(
        "\"op\":\"quality\",\"design\":\"{design}\",\"cpr\":{cpr},\"workload\":\"{workload}\",\"cycles\":{cycles}"
    )
}

/// The repeat-key pool: paper designs × CPR {0, .05, .1, .15, .2} × the
/// four streams, kernel queries on three designs, and `cheapest`
/// queries.
fn pool() -> Vec<String> {
    let mut keys = Vec::new();
    for design in paper_designs() {
        for cpr in [0.0, 0.05, 0.1, 0.15, 0.2] {
            for workload in ["uniform", "walk", "sine", "accumulate"] {
                keys.push(stream_body(
                    &design.to_string(),
                    cpr,
                    workload,
                    STREAM_CYCLES,
                ));
            }
        }
    }
    for design in ["8,0,0,4", "8,2,1,4", "exact"] {
        for kernel in ["fir", "histogram"] {
            keys.push(format!(
                "\"op\":\"quality\",\"design\":\"{design}\",\"cpr\":0.1,\"workload\":\"{kernel}\",\"scale\":1"
            ));
        }
    }
    for db in [20, 30, 40] {
        keys.push(format!(
            "\"op\":\"cheapest\",\"min_quality_db\":{db},\"cpr\":0.1,\"workload\":\"uniform\",\"cycles\":{CHEAPEST_CYCLES}"
        ));
    }
    keys
}

/// The seeded request script. Its work does not depend on the seed:
/// every pool key occurs (so each is computed once), and the counts of
/// fresh keys, fresh designs and duplicates are fixed; the seed picks
/// which keys, in what order, at what times.
fn script(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x5E7E_5C21);
    let mut keys = pool();
    rng.shuffle(&mut keys);
    let weights: Vec<f64> = (1..=keys.len()).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();

    // Fresh keys: compact-grid designs outside the paper set, and paper
    // designs at cycle counts no other request uses.
    let paper: Vec<String> = paper_designs().iter().map(ToString::to_string).collect();
    let mut grid: Vec<String> = SpaceSpec::compact()
        .designs
        .iter()
        .map(ToString::to_string)
        .filter(|d| !paper.contains(d))
        .collect();
    rng.shuffle(&mut grid);
    let cpr = |rng: &mut Rng| [0.05, 0.1, 0.15][rng.below(3)];
    let mut fresh: Vec<String> = (0..FRESH)
        .map(|i| {
            if i < FRESH_DESIGNS {
                stream_body(&grid[i], cpr(&mut rng), "uniform", STREAM_CYCLES)
            } else {
                let design = &paper[rng.below(paper.len())];
                stream_body(
                    design,
                    cpr(&mut rng),
                    "uniform",
                    STREAM_CYCLES + 1 + i as u64,
                )
            }
        })
        .collect();
    rng.shuffle(&mut fresh);

    // Every slot's kind, shuffled: each pool key once, each fresh key
    // (the first DUPLICATED of them twice), Zipf draws for the rest.
    enum Slot {
        Pool(usize),
        Fresh(usize),
        Zipf,
    }
    let mut slots: Vec<Slot> = (0..keys.len())
        .map(Slot::Pool)
        .chain((0..FRESH).map(Slot::Fresh))
        .collect();
    let draws = REQUESTS - slots.len() - DUPLICATED;
    slots.extend((0..draws).map(|_| Slot::Zipf));
    rng.shuffle(&mut slots);

    let mut requests = Vec::with_capacity(REQUESTS);
    let mut due_s = 0.0;
    for slot in slots {
        due_s += -(1.0 - rng.unit()).ln() / RATE_PER_S;
        let body = match slot {
            Slot::Pool(i) => keys[i].clone(),
            Slot::Fresh(i) => {
                if i < DUPLICATED {
                    requests.push(Request {
                        body: fresh[i].clone(),
                        due_s,
                    });
                }
                fresh[i].clone()
            }
            Slot::Zipf => {
                let mut pick = rng.unit() * total;
                let mut index = 0;
                while index + 1 < keys.len() && pick >= weights[index] {
                    pick -= weights[index];
                    index += 1;
                }
                keys[index].clone()
            }
        };
        requests.push(Request { body, due_s });
    }
    requests
}

fn line(id: usize, body: &str) -> String {
    format!("{{\"id\":{id},{body}}}")
}

extern "C" {
    fn sync();
}

/// The run's store directories, all under one parent inside the working
/// directory. Every store is kept until the run ends: deleting one while
/// later drains write records makes the disk process the deletion during
/// them, and a run's record writes grew from 0.12 s to 0.6 s per drain
/// that way. When the run ends (or unwinds) the stores are removed and
/// the filesystems synced, so the next run starts on a settled disk.
struct Stores {
    root: PathBuf,
    next: usize,
}

impl Stores {
    fn new() -> Self {
        let root =
            Path::new(crate::SCRATCH_DIR).join(format!("serve-stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Self { root, next: 0 }
    }

    /// A fresh, empty store directory.
    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(self.next.to_string())
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // SAFETY: `sync` takes no arguments and cannot fail.
        unsafe { sync() };
    }
}

/// The filesystem type holding `path` (from `/proc/self/mountinfo`).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for entry in info.lines() {
        let fields: Vec<&str> = entry.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

fn service(config: &ExperimentConfig, store: Option<PathBuf>) -> Service {
    Service::new(ServeConfig {
        threads: ENGINE_THREADS,
        sim_budget: None,
        store_dir: store,
        config: config.clone(),
        faults: FaultPlan::none(),
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("the store directory can be created")
}

/// A service on its own store directory.
struct Session {
    service: Arc<Service>,
    dir: PathBuf,
}

/// A fresh service on a fresh store, with every paper design's artifacts
/// built by one small query each (a cycle count the traffic never uses).
fn setup(config: &ExperimentConfig, stores: &mut Stores) -> Session {
    let dir = stores.fresh();
    let service = Arc::new(service(config, Some(dir.clone())));
    for design in paper_designs() {
        let warm = stream_body(&design.to_string(), 0.0, "uniform", WARM_CYCLES);
        let _ = service.answer_line(&line(0, &warm));
    }
    Session { service, dir }
}

/// Collects response lines, stamping the moment each line is complete.
struct Stamped {
    t0: Instant,
    pending: Vec<u8>,
    lines: Vec<String>,
    done_s: Vec<f64>,
}

impl Stamped {
    fn new(t0: Instant) -> Self {
        Self {
            t0,
            pending: Vec::new(),
            lines: Vec::new(),
            done_s: Vec::new(),
        }
    }
}

impl Write for Stamped {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let rest = self.pending.split_off(end + 1);
            let mut done = std::mem::replace(&mut self.pending, rest);
            done.pop();
            self.done_s.push(secs(self.t0));
            self.lines.push(String::from_utf8_lossy(&done).into_owned());
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Feeds request lines, each no earlier than its due time, recording
/// when it was handed over.
struct Paced<'a> {
    requests: &'a [Request],
    t0: Instant,
    next: usize,
    current: Vec<u8>,
    pos: usize,
    sent_s: Vec<f64>,
}

impl BufRead for Paced<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.current.len() && self.next < self.requests.len() {
            let request = &self.requests[self.next];
            let due = self.t0 + Duration::from_secs_f64(request.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            self.sent_s.push(secs(self.t0));
            self.current = format!("{}\n", line(self.next + 1, &request.body)).into_bytes();
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.current[self.pos..])
    }

    fn consume(&mut self, amount: usize) {
        self.pos += amount;
    }
}

impl Read for Paced<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Every request submitted at once; returns the seconds until the last
/// response line was written, and the responses.
fn drain(service: &Arc<Service>, requests: &[Request]) -> (f64, Vec<String>) {
    let mut input = String::new();
    for (i, r) in requests.iter().enumerate() {
        input.push_str(&line(i + 1, &r.body));
        input.push('\n');
    }
    let t0 = Instant::now();
    let mut out = Stamped::new(t0);
    timed("serve.drain", || {
        serve_lines(
            service,
            io::Cursor::new(input),
            &mut out,
            WORKERS,
            requests.len() + 1,
        )
    })
    .1
    .expect("in-memory reader and writer do not fail");
    (secs(t0), out.lines)
}

/// An open-loop session: returns per-request latency and lateness of the
/// sender in microseconds, and the responses.
fn open_loop(service: &Arc<Service>, requests: &[Request]) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let t0 = Instant::now();
    let mut reader = Paced {
        requests,
        t0,
        next: 0,
        current: Vec::new(),
        pos: 0,
        sent_s: Vec::new(),
    };
    let mut out = Stamped::new(t0);
    serve_lines(service, &mut reader, &mut out, WORKERS, requests.len() + 1)
        .expect("in-memory reader and writer do not fail");
    let latency = out
        .done_s
        .iter()
        .zip(requests)
        .map(|(done, r)| (done - r.due_s) * 1e6)
        .collect();
    let late = reader
        .sent_s
        .iter()
        .zip(requests)
        .map(|(sent, r)| (sent - r.due_s) * 1e6)
        .collect();
    (latency, late, out.lines)
}

/// The result payload of an `ok`, non-degraded response to request
/// `id`.
fn ok_payload(id: usize, response: &str) -> Option<&str> {
    let head = format!("{{\"id\":{id},\"status\":\"ok\",\"degraded\":false,\"result\":");
    response.strip_prefix(&head)
}

/// The response checks: every response `ok` and not degraded, and every
/// occurrence of a key answered with the same bytes across the run.
struct Answers {
    by_key: BTreeMap<String, String>,
}

impl Answers {
    /// Checks one session's responses.
    fn check(&mut self, out: &mut Outcome, requests: &[Request], responses: &[String]) {
        let mut failed = requests.len().abs_diff(responses.len()) as u64;
        let mut first_failure = None;
        for (i, (request, response)) in requests.iter().zip(responses).enumerate() {
            let Some(payload) = ok_payload(i + 1, response) else {
                failed += 1;
                first_failure
                    .get_or_insert_with(|| format!("request {} answered {response}", i + 1));
                continue;
            };
            match self.by_key.get(&request.body) {
                None => {
                    self.by_key.insert(request.body.clone(), payload.to_owned());
                }
                Some(first) if first != payload => {
                    failed += 1;
                    first_failure.get_or_insert_with(|| {
                        format!("key {{{}}} answered with different bytes", request.body)
                    });
                }
                Some(_) => {}
            }
        }
        if failed > 0 {
            out.problem(format!(
                "serve: {failed} of {} requests failed ({} responses); first: {}",
                requests.len(),
                responses.len(),
                first_failure.unwrap_or_else(|| "missing responses".to_owned())
            ));
        }
        out.ops(requests.len() as u64, failed);
    }

    /// Recomputes a seeded sample of keys on a service without a store
    /// and compares the bytes.
    fn recompute_sample(&self, out: &mut Outcome, config: &ExperimentConfig, seed: u64) {
        let fresh = service(config, None);
        let keys: Vec<&String> = self.by_key.keys().collect();
        let mut rng = Rng::new(seed ^ 0xC0FF_EE00);
        for _ in 0..if keys.is_empty() { 0 } else { 6 } {
            let key = keys[rng.below(keys.len())];
            let response = fresh.answer_line(&line(1, key));
            if ok_payload(1, &response) != Some(self.by_key[key].as_str()) {
                out.problem(format!(
                    "serve: key {{{key}}} recomputed without the store gives different bytes"
                ));
            }
        }
    }
}

/// The end-to-end run: fresh services drain the script, paced to end
/// within `seconds` (at least two drains), then a sample is recomputed.
/// `wall_s` is the median drain.
pub fn run(config: &ExperimentConfig, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let requests = script(seed);
    let mut answers = Answers {
        by_key: BTreeMap::new(),
    };
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut stores = Stores::new();
    let mut pacer = Pacer::new(seconds);
    while pacer.next() {
        let (times, session) = repeated_setup(|| setup(config, &mut stores));
        if walls.is_empty() {
            let dir = &session.dir;
            eprintln!("serve: store {} on {}", dir.display(), filesystem_of(dir));
        }
        let (wall_s, responses) = drain(&session.service, &requests);
        answers.check(&mut out, &requests, &responses);
        setups.extend(times);
        walls.push(wall_s);
    }
    eprintln!("serve: drains {walls:?}");
    answers.recompute_sample(&mut out, config, seed);
    out.set("setup_s", median(&setups));
    // The median, not the best: a drain's record writes follow the disk,
    // whose speed drifts within a run, and one lucky drain is not the
    // service's speed.
    out.set("wall_s", median(&walls));
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Merges the histograms and counters of several services' registries.
#[derive(Default)]
struct Pooled {
    snapshot: Snapshot,
}

impl Pooled {
    /// Adds what `service` counted since `before`.
    fn add(&mut self, service: &Service, before: &Snapshot) {
        let mut now = service.registry().snapshot();
        for (name, value) in &mut now.counters {
            *value -= before.counter(name).unwrap_or(0);
        }
        for (name, h) in &mut now.histograms {
            if let Some(old) = before.histogram(name) {
                for (bucket, was) in h.buckets.iter_mut().zip(&old.buckets) {
                    *bucket -= was;
                }
            }
        }
        self.snapshot = std::mem::take(&mut self.snapshot).merge(now);
    }

    fn counter(&self, name: &str) -> u64 {
        self.snapshot.counter(name).unwrap_or(0)
    }

    fn quantile_us(&self, name: &str, q: f64) -> Option<f64> {
        let empty = HistogramSnapshot::default();
        histogram_quantile_us(self.snapshot.histogram(name).unwrap_or(&empty), q)
    }
}

/// The traced run: untraced and traced drains alternate for half of
/// `seconds` (the tracing-overhead comparison), then open-loop sessions
/// on fresh services fill the rest and give the serve ledger.
pub fn run_traced(
    config: &ExperimentConfig,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let requests = script(seed);
    let mut answers = Answers {
        by_key: BTreeMap::new(),
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut stores = Stores::new();
    let mut pacer = Pacer::new(seconds / 2.0);
    while pacer.next() {
        for on in [false, true] {
            let session = setup(config, &mut stores);
            if on {
                tracer.on();
            }
            let (wall_s, responses) = drain(&session.service, &requests);
            tracer.off();
            answers.check(&mut out, &requests, &responses);
            if on {
                crate::check_attribution(&mut out, "serve", &tracer.take(), wall_s);
                traced.push(wall_s);
            } else {
                untraced.push(wall_s);
            }
        }
    }

    let mut pooled = Pooled::default();
    let (mut latency, mut late) = (Vec::new(), Vec::new());
    let (mut sessions, mut sent, mut met) = (0u64, 0u64, 0u64);
    let counters = LayerCounters::now();
    let mut pacer = Pacer::new(seconds / 2.0);
    while pacer.next() {
        let session = setup(config, &mut stores);
        let before = session.service.registry().snapshot();
        let (l, g, responses) = open_loop(&session.service, &requests);
        answers.check(&mut out, &requests, &responses);
        sent += requests.len() as u64;
        for (i, (response, &us)) in responses.iter().zip(&l).enumerate() {
            met += u64::from(us <= SLO_US && ok_payload(i + 1, response).is_some());
        }
        latency.extend(l);
        late.extend(g);
        pooled.add(&session.service, &before);
        sessions += 1;
    }
    let layer = LayerCounters::since(counters);
    answers.recompute_sample(&mut out, config, seed);

    let hits = pooled.counter("serve.store_hits");
    let misses = pooled.counter("serve.store_misses");
    let per_session = |n: u64| n as f64 / sessions as f64;
    out.set("serve.store_hit_frac", ratio(hits, hits + misses));
    for (metric, histogram, q) in [
        ("serve.store_get_us_p50", "serve.store_get_ns", 0.5),
        ("serve.eval_us_p50", "serve.eval_ns", 0.5),
        ("serve.eval_us_p99", "serve.eval_ns", 0.99),
        (
            "serve.admission_wait_us_p99",
            "serve.admission_wait_ns",
            0.99,
        ),
        ("serve.coalesce_wait_us_p50", "serve.coalesce_wait_ns", 0.5),
        ("serve.respond_us_p50", "serve.respond_ns", 0.5),
    ] {
        out.set_percentile(metric, pooled.quantile_us(histogram, q));
    }
    out.set(
        "serve.coalesced",
        per_session(pooled.counter("serve.coalesced")),
    );
    out.set(
        "serve.computed",
        per_session(pooled.counter("serve.computed")),
    );
    out.set("serve.shed", per_session(pooled.counter("serve.shed")));
    layer.report(&mut out);
    out.set(
        "timing_sim.simulated_cycles",
        per_session(layer.simulated_cycles()),
    );
    // The service's artifact cache counts in the service's own registry.
    let cache_hits = pooled.counter("engine.cache.hits");
    let cache_misses = pooled.counter("engine.cache.misses");
    out.set(
        "engine.cache_hit_frac",
        ratio(cache_hits, cache_hits + cache_misses),
    );
    out.set("engine.builds", per_session(cache_misses));

    out.set_percentile("serve.gen_late_us_p99", percentile(&late, 0.99));
    out.set_percentile("serve.latency_p50_us", percentile(&latency, 0.5));
    out.set_percentile("serve.latency_p99_us", percentile(&latency, 0.99));
    out.set("serve.slo_met_frac", ratio(met, sent));
    out.set(
        "obs.trace_overhead_frac",
        min(&traced) / min(&untraced) - 1.0,
    );
    out
}
