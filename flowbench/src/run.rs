//! One benchmark run: set-up, the measured phases, and the metrics.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, its
//! timings scaled to the reference speed of the calibration kernel timed
//! beside them ([`crate::calibrate`]); its note gives them as measured. A
//! traced run (`--trace 1`) reports the per-layer metrics: it feeds the
//! same stream to a tier whose backends are wrapped in
//! [`crate::timed::TimedBackend`] and to a plain reference tier, their open
//! loops alternating slice by slice, then runs the traced tier's closed
//! loop, and finally replays single layers (ed25519 verification, the
//! verify cache, the matcher) on inputs the run captured. The reference
//! tier's median latency is `decide_p50_us`; the traced tier's minus it is
//! the tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use identxx_controller::BackendStats;
use identxx_crypto::{verify_bundle_hex_at, VerifyCache, VerifyCacheStats};
use identxx_proto::Response;

use crate::calibrate::{self, Calibration};
use crate::driver::{Captured, ClosedLoop, Driver, OpenLoop};
use crate::process;
use crate::timed::RoundLog;
use crate::workload::{signer, Setup, Workload, VERIFY_CACHE_CAPACITY};

/// Share of `--seconds` the untraced run spends in its open loop. The
/// open loop is cut into segments of about [`SEGMENT_SECONDS`], each
/// followed by a closed loop ([`Workload::closed_flows`]).
/// `capacity_flows_per_s` is the median over the segments, so it samples
/// the whole run.
const OPEN_SHARE: f64 = 0.8;
const SEGMENT_SECONDS: f64 = 1.0;

/// Share of `--seconds` each of a traced run's two open loops takes. They
/// alternate in segments of [`SEGMENT_SECONDS`], so neither runs on a
/// colder process, or a slower stretch of the host, than the other.
const TRACED_OPEN_SHARE: f64 = 0.4;

/// The fewest decisions a p99 with ten samples beyond it needs.
const P99_SAMPLES: usize = 1_000;

/// After the measured phases, set-up is sampled until there are at least
/// this many samples and this many seconds of set-up (capped); the median
/// sample is reported.
const SETUP_MIN_SAMPLES: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_SAMPLES: usize = 200;

/// Calibration-kernel runs just before and just after each set-up sample.
const SETUP_KERNEL_RUNS: usize = 8;

/// Timed repetitions per captured input in the layer replays.
const REPLAY_REPEATS: usize = 16;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured length of the run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| bad(&format!("expected one of {names:?}")))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(1.0..=60.0).contains(&s) {
                        return Err(bad("expected 1 to 60 seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// No flow failed the oracle.
    pub correct: bool,
    /// Flows handed to the tier.
    pub attempted: u64,
    /// Flows that failed the oracle.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// A line for the reader, printed before the metrics.
    pub note: Option<String>,
}

impl Report {
    fn new(attempted: u64, failed: u64, note: Option<String>, metrics: Vec<Metric>) -> Report {
        Report {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
            note,
        }
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs the benchmark.
pub fn run(args: &Args) -> Result<Report, String> {
    let report = if args.trace {
        traced(args)?
    } else {
        untraced(args)?
    };
    match report.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite", m.name)),
        None => Ok(report),
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e3
}

fn sorted(values: &[u64]) -> Vec<u64> {
    let mut values = values.to_vec();
    values.sort_unstable();
    values
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The sorted decision latencies of an open loop.
fn latencies(open: &OpenLoop) -> Result<Vec<u64>, String> {
    if open.flows() < P99_SAMPLES {
        return Err(format!(
            "{} decisions are too few for a p99 with ten samples beyond it",
            open.flows()
        ));
    }
    Ok(sorted(&open.latency_ns))
}

/// One set-up sample: builds [`Workload::setup_batch`] tiers back to back
/// and shuts them down. Its time is their mean; the calibration kernel runs
/// [`SETUP_KERNEL_RUNS`] times just before and just after.
fn setup_sample(workload: Workload, calibration: &mut Calibration) -> SetupSample {
    let before = calibration.mean_ns(SETUP_KERNEL_RUNS);
    let batch = workload.setup_batch();
    let started = Instant::now();
    let setups: Vec<Setup> = (0..batch).map(|_| Setup::build(workload, false)).collect();
    let seconds = started.elapsed().as_secs_f64() / batch as f64;
    let kernel_ns = (before + calibration.mean_ns(SETUP_KERNEL_RUNS)) / 2.0;
    for setup in setups {
        setup.shutdown();
    }
    SetupSample { seconds, kernel_ns }
}

/// A set-up time and the calibration-kernel time beside it.
struct SetupSample {
    seconds: f64,
    kernel_ns: f64,
}

impl SetupSample {
    /// The set-up time at the kernel's reference speed.
    fn at_reference(&self) -> f64 {
        self.seconds / calibrate::slowdown(self.kernel_ns)
    }
}

fn untraced(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let mut driver = Driver::new(Setup::build(workload, false), workload, args.seed, false);
    driver.closed_loop(workload.warmup_flows())?;
    let segments = (args.seconds * OPEN_SHARE / SEGMENT_SECONDS)
        .round()
        .max(1.0);
    let mut closed = Vec::new();
    for _ in 0..segments as usize {
        let open = driver.open_loop(
            workload.rate_per_sec(),
            args.seconds * OPEN_SHARE / segments,
        )?;
        closed.push(driver.closed_loop(workload.closed_flows(open.flows()))?);
    }
    let peak_rss_mb = process::peak_rss_mb();
    let (attempted, failed) = (driver.attempted, driver.failed);
    driver.setup.shutdown();

    // Set-up samples, now that the measured tier is gone.
    let mut calibration = Calibration::default();
    let mut setups: Vec<SetupSample> = Vec::new();
    let mut setup_seconds = 0.0;
    while setups.len() < SETUP_MIN_SAMPLES
        || (setups.len() < SETUP_MAX_SAMPLES && setup_seconds < SETUP_MIN_SECONDS)
    {
        let sample = setup_sample(workload, &mut calibration);
        setup_seconds += sample.seconds * workload.setup_batch() as f64;
        setups.push(sample);
    }

    let median_of = |f: &dyn Fn(&ClosedLoop) -> f64| median(closed.iter().map(f).collect());
    let note = format!(
        "as measured: set-up {:.6} s, capacity {:.1} 1/s; calibration kernel {:.1} us \
         (set-up) and {:.1} us (closed loops), reference {:.1} us",
        median(setups.iter().map(|s| s.seconds).collect()),
        median_of(&ClosedLoop::raw_rate),
        median(setups.iter().map(|s| s.kernel_ns / 1e3).collect()),
        median_of(&ClosedLoop::kernel_mean_ns) / 1e3,
        calibrate::REFERENCE_NS / 1e3,
    );

    Ok(Report::new(
        attempted,
        failed,
        Some(note),
        vec![
            metric(
                "setup_s",
                median(setups.iter().map(SetupSample::at_reference).collect()),
                "s",
            ),
            metric("capacity_flows_per_s", median_of(&ClosedLoop::rate), "1/s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("ok_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
        ],
    ))
}

fn traced(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    let rate = workload.rate_per_sec();
    let seconds = args.seconds * TRACED_OPEN_SHARE;

    // The traced tier, and an untraced reference tier fed the same stream;
    // their open loops alternate slice by slice.
    let setup = Setup::build(workload, true);
    let rss_after_setup_mb = process::rss_mb();
    let mut driver = Driver::new(setup, workload, args.seed, true);
    let mut reference = Driver::new(Setup::build(workload, false), workload, args.seed, false);
    reference.closed_loop(workload.warmup_flows())?;
    driver.closed_loop(workload.warmup_flows())?;
    for log in &driver.setup.rounds {
        *log.lock().expect("round log poisoned") = RoundLog::default();
    }
    let before = Counters::of(&driver);
    let (mut open, mut reference_open) = (OpenLoop::default(), OpenLoop::default());
    let slices = (seconds / SEGMENT_SECONDS).ceil();
    for _ in 0..slices as usize {
        reference_open.append(reference.open_loop(rate, seconds / slices)?);
        open.append(driver.open_loop(rate, seconds / slices)?);
    }
    let reference_p50 = percentile_us(&latencies(&reference_open)?, 0.5);
    let (mut attempted, mut failed) = (reference.attempted, reference.failed);
    reference.setup.shutdown();
    let flows = open.flows() as f64;
    let latency = latencies(&open)?;
    let p50 = percentile_us(&latency, 0.5);

    // Layer counters over the traced open loop.
    let after = Counters::of(&driver);
    let queries_sent = after.backend.queries_sent - before.backend.queries_sent;
    let answered = after.backend.responses_received - before.backend.responses_received;
    let timeouts = after.backend.timeouts - before.backend.timeouts;
    let verify_hits = after.verify.hits - before.verify.hits;
    let verify_misses = after.verify.misses - before.verify.misses;
    let evaluations = after.evaluations - before.evaluations;
    let (mut round_ns, mut round_targets, mut controller_threads) = (Vec::new(), 0, 0);
    for log in &driver.setup.rounds {
        let log = log.lock().expect("round log poisoned");
        round_ns.extend_from_slice(&log.round_ns);
        round_targets += log.targets;
        controller_threads = controller_threads.max(log.peak_threads);
    }

    let closed = driver.closed_loop(open.flows())?;
    attempted += driver.attempted;
    failed += driver.failed;

    // End-of-run figures.
    let tier = &driver.setup.tier;
    let entries_end: usize = tier.shards().iter().map(|s| s.state_table().len()).sum();
    let notes = || tier.shards().iter().flat_map(|s| s.audit().policy_notes());
    let notes_end = notes().count();
    let fail_closed = notes().filter(|n| n.category == "fail-closed").count();
    let queries_served = if driver.setup.servers.is_empty() {
        tier.backend_stats().responses_received
    } else {
        driver
            .setup
            .servers
            .iter()
            .map(|s| s.queries_served())
            .sum()
    };
    let mut process_threads = process::threads();
    for log in &driver.setup.rounds {
        process_threads = process_threads.max(log.lock().expect("round log poisoned").peak_threads);
    }

    let (fresh_us, cached_us) = verify_replay(&driver.captured);
    let matcher_us = matcher_replay(&driver);

    let calls = sorted(&open.call_ns);
    let lag = sorted(&open.lag_ns);
    let rounds = sorted(&round_ns);
    let service_us = open.call_ns.iter().sum::<u64>() as f64 / 1e3 / flows;
    let backend_us = round_ns.iter().sum::<u64>() as f64 / 1e3 / flows;
    let verify_est_us = verify_misses as f64 * fresh_us / flows;
    let per_round = |x: f64| x / rounds.len().max(1) as f64;
    let report = Report::new(
        attempted,
        failed,
        None,
        vec![
            metric("driver.lag_p50_us", percentile_us(&lag, 0.5), "us"),
            metric("driver.lag_p99_us", percentile_us(&lag, 0.99), "us"),
            metric("driver.batch_mean", flows / calls.len() as f64, "flows"),
            metric("driver.batch_max", open.batch_max as f64, "flows"),
            metric("controller.calls", calls.len() as f64, "count"),
            metric("controller.call_p50_us", percentile_us(&calls, 0.5), "us"),
            metric("controller.call_p99_us", percentile_us(&calls, 0.99), "us"),
            metric("controller.service_us_per_flow", service_us, "us"),
            metric(
                "controller.busy_ratio",
                open.call_ns.iter().sum::<u64>() as f64 / open.wall_ns as f64,
                "ratio",
            ),
            metric("controller.self_us_per_flow", service_us - backend_us, "us"),
            metric(
                "controller.remainder_us_per_flow",
                service_us - backend_us - verify_est_us,
                "us",
            ),
            metric(
                "controller.queries_per_flow",
                queries_sent as f64 / flows,
                "count",
            ),
            metric(
                "controller.peak_threads",
                controller_threads as f64,
                "count",
            ),
            metric("backend.rounds", rounds.len() as f64, "count"),
            metric(
                "backend.targets_per_round",
                per_round(round_targets as f64),
                "count",
            ),
            metric("backend.round_p50_us", percentile_us(&rounds, 0.5), "us"),
            metric("backend.round_p99_us", percentile_us(&rounds, 0.99), "us"),
            metric("backend.us_per_flow", backend_us, "us"),
            metric("backend.queries_sent", queries_sent as f64, "count"),
            metric("backend.timeouts", timeouts as f64, "count"),
            metric(
                "backend.answered_ratio",
                answered as f64 / queries_sent.max(1) as f64,
                "ratio",
            ),
            metric("verify.hits", verify_hits as f64, "count"),
            metric("verify.misses", verify_misses as f64, "count"),
            metric(
                "verify.hit_rate",
                verify_hits as f64 / (verify_hits + verify_misses).max(1) as f64,
                "ratio",
            ),
            metric(
                "verify.forged",
                (after.verify.forged - before.verify.forged) as f64,
                "count",
            ),
            metric(
                "verify.evictions",
                (after.verify.evictions - before.verify.evictions) as f64,
                "count",
            ),
            metric("verify.fresh_us", fresh_us, "us"),
            metric("verify.cached_us", cached_us, "us"),
            metric("verify.est_us_per_flow", verify_est_us, "us"),
            metric(
                "state.hit_ratio",
                (after.cached - before.cached) as f64 / flows,
                "ratio",
            ),
            metric("state.entries_end", entries_end as f64, "count"),
            metric("matcher.eval_us", matcher_us, "us"),
            metric(
                "matcher.rules_evaluated_mean",
                (after.rules_evaluated - before.rules_evaluated) as f64 / evaluations.max(1) as f64,
                "count",
            ),
            metric("audit.records_end", tier.audit_len() as f64, "count"),
            metric("audit.notes_end", notes_end as f64, "count"),
            metric("audit.fail_closed", fail_closed as f64, "count"),
            metric("daemon.queries_served", queries_served as f64, "count"),
            metric("process.rss_after_setup_mb", rss_after_setup_mb, "MiB"),
            metric("process.peak_threads", process_threads as f64, "count"),
            metric("decide.p50_us", p50, "us"),
            metric("decide.p99_us", percentile_us(&latency, 0.99), "us"),
            metric("decide.p999_us", percentile_us(&latency, 0.999), "us"),
            metric(
                "decide.max_us",
                latency.last().copied().unwrap_or(0) as f64 / 1e3,
                "us",
            ),
            metric("decide.samples", latency.len() as f64, "count"),
            metric("decide_p50_us", reference_p50, "us"),
            metric("trace.overhead_p50_us", p50 - reference_p50, "us"),
            metric("host.kernel_us", closed.kernel_mean_ns() / 1e3, "us"),
        ],
    );
    driver.setup.shutdown();
    Ok(report)
}

/// The traced tier's layer counters at one instant.
struct Counters {
    backend: BackendStats,
    verify: VerifyCacheStats,
    cached: u64,
    rules_evaluated: u64,
    evaluations: u64,
}

impl Counters {
    fn of(driver: &Driver) -> Counters {
        Counters {
            backend: driver.setup.tier.backend_stats(),
            verify: driver.setup.tier.verify_stats(),
            cached: driver.cached,
            rules_evaluated: driver.rules_evaluated,
            evaluations: driver.evaluations,
        }
    }
}

/// The signed bundle a captured source response presents, with the items
/// the policy's `verify()` signs over.
fn bundle(response: &Response) -> Option<(&str, [&str; 3])> {
    let field = |key| response.latest(key).unwrap_or("");
    Some((
        response.latest("req-sig")?,
        [field("exe-hash"), field("name"), field("requirements")],
    ))
}

/// Replays the run's bundles through a fresh `verify_bundle_hex_at` and
/// through a warm `VerifyCache`: the median µs of each (0, 0 without
/// bundles).
fn verify_replay(captured: &[Captured]) -> (f64, f64) {
    let key = signer().public().to_hex();
    let bundles: Vec<_> = captured
        .iter()
        .filter_map(|c| Some((bundle(c.src.as_ref()?)?, c.now)))
        .collect();
    if bundles.is_empty() {
        return (0.0, 0.0);
    }
    let mut fresh = Vec::new();
    let mut cached = Vec::new();
    let cache = VerifyCache::with_capacity(VERIFY_CACHE_CAPACITY);
    for ((sig, items), now) in &bundles {
        let started = Instant::now();
        black_box(verify_bundle_hex_at(sig, &key, items, *now)).ok();
        fresh.push(started.elapsed().as_nanos() as f64 / 1e3);
        cache.verify_hex_at(sig, &key, items, *now);
        let started = Instant::now();
        for _ in 0..REPLAY_REPEATS {
            black_box(cache.verify_hex_at(sig, &key, items, *now));
        }
        cached.push(started.elapsed().as_nanos() as f64 / 1e3 / REPLAY_REPEATS as f64);
    }
    (median(fresh), median(cached))
}

/// Replays `evaluate_only_at` on the captured responses (each once to warm
/// the shard's verify cache, then timed): the median µs per evaluation.
fn matcher_replay(driver: &Driver) -> f64 {
    let shard = driver.setup.tier.shard(0);
    let times = driver
        .captured
        .iter()
        .map(|c| {
            let evaluate = || {
                black_box(shard.evaluate_only_at(&c.flow, c.src.as_ref(), c.dst.as_ref(), c.now))
            };
            evaluate();
            let started = Instant::now();
            for _ in 0..REPLAY_REPEATS {
                evaluate();
            }
            started.elapsed().as_nanos() as f64 / 1e3 / REPLAY_REPEATS as f64
        })
        .collect();
    median(times)
}
