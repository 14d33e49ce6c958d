//! Host-time benchmark of the ReRAM accelerator simulator.
//!
//! ```text
//! reram-hostbench --workload <xbar_train|bank_noisy|serve_mix|plan_sweep>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One driver thread calls each layer's public functions and times those
//! calls from outside; nothing inside the crates is instrumented for it.
//! With `--trace 0` the run sets the workload up several times, measures
//! units in a closed loop for `--seconds` with telemetry off, and prints
//! the end-to-end metrics, their times scaled for the host's speed
//! ([`hostspeed`]). With `--trace 1` it measures an untraced and a
//! traced phase of `--seconds / 2` each and prints the per-layer metrics.
//! The last line of standard output is the JSON result; see README.md.

mod bank_noisy;
mod digest;
mod hostspeed;
mod plan_sweep;
mod probe;
mod serve_mix;
mod trace;
mod xbar_train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use digest::Digest;
use hostspeed::HostSpeed;
use reram_crossbar::CrossbarConfig;
use reram_telemetry::{self as telemetry, EventCounts};
use trace::{BenchRecorder, Totals, Tracer};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// `--seconds` when not given: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 28.0;
/// Fewest units of complete rounds a measured phase times, so that at
/// least ten samples lie beyond p90.
const MIN_UNITS: usize = 100;
/// Set-ups per untraced run: at least [`MIN_SETUPS`], then more until they
/// have taken [`SETUP_BUDGET_S`], at most [`MAX_SETUPS`]. `setup_s` is
/// their median, so a stall in a few of them does not move it.
const MIN_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 2000;

/// End-to-end metrics (untraced run), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with units. A metric of a layer the
/// workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("crossbar.mvms", "count"),
    ("crossbar.spike_frames", "count"),
    ("crossbar.adc_conversions", "count"),
    ("crossbar.cell_writes", "count"),
    ("crossbar.weight_updates", "count"),
    ("crossbar.mvm_codes_us", "us"),
    ("crossbar.matvec_us", "us"),
    ("crossbar.reprogram_delta_us", "us"),
    ("crossbar.program_us", "us"),
    ("crossbar.ns_per_adc_conversion", "ns"),
    ("nn.forward_s", "s"),
    ("nn.backward_s", "s"),
    ("nn.update_s", "s"),
    ("datasets.batch_s", "s"),
    ("core.compile_s", "s"),
    ("core.bank_forward_s", "s"),
    ("core.subarray_activations", "count"),
    ("core.buffer_reads", "count"),
    ("core.buffer_writes", "count"),
    ("core.lower_us", "us"),
    ("core.verify_us", "us"),
    ("core.pipeline_sim_us", "us"),
    ("core.regan_sim_us", "us"),
    ("gpu.training_cost_us", "us"),
    ("core.candidates", "count"),
    ("core.lower_errors", "count"),
    ("core.violations", "count"),
    ("serve.generate_s", "s"),
    ("serve.cluster_s", "s"),
    ("serve.run_s", "s"),
    ("serve.host_ns_per_request", "ns"),
    ("serve.requests_enqueued", "count"),
    ("serve.batches_formed", "count"),
    ("serve.requests_completed", "count"),
    ("telemetry.overhead_frac", "frac"),
    ("telemetry.recorder_calls", "count"),
    ("sim.digest", "hash"),
    ("sim.serve_p99_ns", "ns"),
    ("sim.plan_cycles_total", "cycles"),
    ("sim.train_final_loss", "loss"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

/// What the traced phase saw over its first round: the program's own event
/// counts, its calls into the telemetry sink, and the benchmark's spans.
pub struct FirstRound {
    pub counts: EventCounts,
    pub recorder_calls: u64,
    pub spans: Totals,
}

/// One benchmark workload, driven unit by unit in a closed loop.
pub trait Workload: Sized {
    /// What one unit returns for checking.
    type Out;
    /// Units per round. Every round repeats the same simulated work.
    const ROUND: usize;
    /// Whether every round must reproduce round 0's fingerprint (false
    /// where device-noise draws advance from round to round).
    const REPEATS: bool;
    /// Spans whose time is crossbar-layer busy time.
    const CROSSBAR_SPANS: &'static [&'static str];

    /// Builds every input from `seed` and prepares the first unit.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;
    /// Runs unit `index`; this call is the timed part.
    fn unit(&mut self, index: usize, tr: &mut Tracer) -> Self::Out;
    /// Checks and fingerprints one output, outside the unit time. Returns
    /// the items the unit completed and whether it passed its check.
    fn accept(
        &mut self,
        index: usize,
        out: Self::Out,
        digest: &mut Digest,
        tr: &mut Tracer,
    ) -> (u64, bool);
    /// True when the last output passes the check and deliberately
    /// corrupted copies of it fail.
    fn corrupted_output_fails(&self) -> bool;
    /// The device the crossbar probe runs on.
    fn device(&self) -> CrossbarConfig {
        CrossbarConfig::default()
    }
    /// Adds the workload's own per-layer metrics.
    fn layer_metrics(&self, spans: &Totals, first: &FirstRound, m: &mut Metrics);
}

/// What a measured phase timed. Only complete rounds are timed: every
/// round repeats the same work, so each is one sample of the same
/// quantity, and averaging over rounds averages over the host's speed
/// phases instead of picking one of them. Times are scaled to the nominal
/// host ([`hostspeed`]) unless named raw.
struct Phase {
    /// Units attempted, including those of a final partial round.
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    rounds: usize,
    /// Items and seconds inside the unit calls, over complete rounds.
    items: u64,
    busy_s: f64,
    raw_busy_s: f64,
    /// Per complete round: the median and p90 of its unit times, seconds.
    round_p50: Vec<f64>,
    round_p90: Vec<f64>,
}

impl Phase {
    /// Items per second over the complete rounds.
    fn items_per_s(&self) -> f64 {
        self.items as f64 / self.busy_s
    }

    fn timed_units(&self, round: usize) -> usize {
        self.rounds * round
    }
}

/// Runs units until at least `seconds` have passed and complete rounds
/// hold at least [`MIN_UNITS`] units, then stops after the unit in flight.
/// With a recorder, also captures what the first round recorded.
fn run_phase<W: Workload>(
    w: &mut W,
    seconds: f64,
    tr: &mut Tracer,
    recorder: Option<&BenchRecorder>,
    speed: &mut HostSpeed,
) -> (Phase, Option<FirstRound>) {
    let start = Instant::now();
    let spans_before = tr.totals().clone();
    let mut phase = Phase {
        attempted: 0,
        failed: 0,
        digest: None,
        rounds: 0,
        items: 0,
        busy_s: 0.0,
        round_p50: Vec::new(),
        round_p90: Vec::new(),
        raw_busy_s: 0.0,
    };
    let mut first = None;
    let mut digest = Digest::new();
    let mut unit_s = Vec::with_capacity(W::ROUND);
    let mut round_items = 0;
    let mut round_raw_s = 0.0;
    for index in 0.. {
        let t = Instant::now();
        let out = w.unit(index, tr);
        let host_s = t.elapsed().as_secs_f64();
        round_raw_s += host_s;
        unit_s.push(speed.scale(host_s));
        let (items, mut ok) = w.accept(index, out, &mut digest, tr);
        round_items += items;
        phase.attempted += 1;
        if unit_s.len() == W::ROUND {
            let d = std::mem::replace(&mut digest, Digest::new()).finish();
            match phase.digest {
                None => {
                    phase.digest = Some(d);
                    first = recorder.map(|r| FirstRound {
                        counts: r.counters.snapshot(),
                        recorder_calls: r.calls(),
                        spans: span_delta(tr.totals(), &spans_before),
                    });
                }
                Some(d0) => ok &= !W::REPEATS || d0 == d,
            }
            phase.rounds += 1;
            phase.items += std::mem::take(&mut round_items);
            phase.busy_s += unit_s.iter().sum::<f64>();
            phase.raw_busy_s += std::mem::take(&mut round_raw_s);
            phase.round_p90.push(quantile(&mut unit_s, 0.9));
            phase.round_p50.push(quantile(&mut unit_s, 0.5));
            unit_s.clear();
        }
        phase.failed += u64::from(!ok);
        if phase.timed_units(W::ROUND) >= MIN_UNITS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (phase, first)
}

fn span_delta(after: &Totals, before: &Totals) -> Totals {
    after
        .iter()
        .map(|(name, &(ns, n))| {
            let (ns0, n0) = before.get(name).copied().unwrap_or((0, 0));
            (*name, (ns - ns0, n - n0))
        })
        .collect()
}

/// Median of `v` (sorted in place); the lower middle for even lengths.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest-rank quantile of `v` (sorted in place).
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    units: &'static [(&'static str, &'static str)],
}

fn untraced<W: Workload>(args: &Args) -> Outcome {
    let mut tr = Tracer::new(false);
    let mut speed = HostSpeed::new();
    let mut setups = Vec::new();
    let mut setup_budget_s = SETUP_BUDGET_S;
    let mut w = None;
    while setups.len() < MIN_SETUPS || (setups.len() < MAX_SETUPS && setup_budget_s > 0.0) {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(args.seed, &mut tr));
        let host_s = t.elapsed().as_secs_f64();
        setup_budget_s -= host_s;
        setups.push(speed.scale(host_s));
    }
    let mut w = w.expect("at least one set-up");
    let (phase, _) = run_phase(&mut w, args.seconds, &mut tr, None, &mut speed);
    let self_check = w.corrupted_output_fails();
    let attempted = phase.attempted;
    let metrics = Metrics::from([
        ("items_per_s", phase.items_per_s()),
        ("unit_ms_p50", mean(&phase.round_p50) * 1e3),
        ("unit_ms_p90", mean(&phase.round_p90) * 1e3),
        ("setup_s", median(&mut setups)),
        ("peak_rss_mb", peak_rss_mb() - hostspeed::PLANE_MB),
    ]);
    println!(
        "{} seed={} setups={} units={attempted} rounds={} timed_units={} items={} raw_items_per_s={} median_sweep_ms={} failed={} failed_frac={} self_check={} sim.digest={}",
        args.workload,
        args.seed,
        setups.len(),
        phase.rounds,
        phase.timed_units(W::ROUND),
        phase.items,
        phase.items as f64 / phase.raw_busy_s,
        speed.median_sweep_s() * 1e3,
        phase.failed,
        phase.failed as f64 / attempted as f64,
        if self_check { "ok" } else { "FAILED" },
        phase.digest.unwrap_or(0),
    );
    Outcome {
        correct: phase.failed == 0 && self_check,
        attempted,
        failed: phase.failed,
        metrics,
        units: END_TO_END,
    }
}

fn traced<W: Workload>(args: &Args) -> Outcome {
    let half = args.seconds / 2.0;
    let mut speed = HostSpeed::new();
    let mut off = Tracer::new(false);
    let mut w = W::setup(args.seed, &mut off);
    let (plain, _) = run_phase(&mut w, half, &mut off, None, &mut speed);
    drop(w);

    let recorder = Arc::new(BenchRecorder::default());
    let mut tr = Tracer::new(true);
    let (w, phase, first) = {
        let _installed = telemetry::scoped_recorder(recorder.clone());
        let mut w = tr.span("setup", |tr| W::setup(args.seed, tr));
        recorder.reset();
        let (phase, first) = run_phase(&mut w, half, &mut tr, Some(&recorder), &mut speed);
        (w, phase, first)
    };
    let first = first.expect("a traced phase completes its first round");
    let self_check = w.corrupted_output_fails();
    let digests_agree = plain.digest == phase.digest;

    let mut m = Metrics::new();
    probe::run(&w.device(), args.seed, &mut tr, &mut m);
    w.layer_metrics(tr.totals(), &first, &mut m);
    let c = &first.counts;
    for (name, count) in [
        ("crossbar.mvms", c.crossbar_mvms),
        ("crossbar.spike_frames", c.spike_frames),
        ("crossbar.adc_conversions", c.adc_conversions),
        ("crossbar.cell_writes", c.cell_writes),
        ("crossbar.weight_updates", c.weight_updates),
        ("core.subarray_activations", c.subarray_activations),
        ("core.buffer_reads", c.buffer_reads),
        ("core.buffer_writes", c.buffer_writes),
        ("serve.requests_enqueued", c.requests_enqueued),
        ("serve.batches_formed", c.batches_formed),
        ("serve.requests_completed", c.requests_completed),
        ("telemetry.recorder_calls", first.recorder_calls),
    ] {
        m.insert(name, count as f64);
    }
    if c.adc_conversions > 0 {
        let busy_s: f64 = W::CROSSBAR_SPANS
            .iter()
            .map(|s| trace::total_s(&first.spans, s))
            .sum();
        m.insert(
            "crossbar.ns_per_adc_conversion",
            busy_s * 1e9 / c.adc_conversions as f64,
        );
    }
    m.insert(
        "telemetry.overhead_frac",
        1.0 - phase.items_per_s() / plain.items_per_s(),
    );
    m.insert("sim.digest", phase.digest.unwrap_or(0) as f64);

    if let Some(dir) = std::env::var_os("HOSTBENCH_TRACE_DIR") {
        let path = PathBuf::from(dir).join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("joined path has a parent"))
            .and_then(|()| tr.write_json(&path));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{} seed={} traced units={} untraced units={} failed={} self_check={} sim.digest traced={} untraced={}",
        args.workload,
        args.seed,
        phase.attempted,
        plain.attempted,
        phase.failed + plain.failed,
        if self_check { "ok" } else { "FAILED" },
        phase.digest.unwrap_or(0),
        plain.digest.unwrap_or(0),
    );
    let failed = phase.failed + plain.failed + u64::from(!digests_agree);
    Outcome {
        correct: failed == 0 && self_check,
        attempted: phase.attempted + plain.attempted,
        failed,
        metrics: m,
        units: PER_LAYER,
    }
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut correct = self.correct;
        let mut entries = Vec::with_capacity(self.units.len());
        for &(name, unit) in self.units {
            let mut value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                correct = false;
                value = 0.0;
            }
            entries.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            entries.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: reram-hostbench --workload <xbar_train|bank_noisy|serve_mix|plan_sweep> \
                     [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(bad)?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .map_err(|_| format!("bad value {value:?} for {flag}"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value {value:?} for {flag}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(args)
    }
}

fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "xbar_train" => run::<xbar_train::XbarTrain>(&args),
        "bank_noisy" => run::<bank_noisy::BankNoisy>(&args),
        "serve_mix" => run::<serve_mix::ServeMix>(&args),
        "plan_sweep" => run::<plan_sweep::PlanSweep>(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("{}", outcome.to_json());
}
