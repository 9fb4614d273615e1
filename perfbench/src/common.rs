//! What the workloads share: the run context, the result, statistics,
//! the traced building blocks (simulate, audit) and the per-layer
//! metric table.

use crate::tracer::Tracer;
use faircrowd::core::{metrics, AuditEngine, AxiomId, FairnessReport, TraceIndex};
use faircrowd::model::trace::Trace;
use faircrowd::model::FaircrowdError;
use faircrowd::pay::wage::WageStats;
use faircrowd::sim::converge::{self, ConvergeOptions};
use faircrowd::sim::strategy::StrategyChoice;
use faircrowd::sim::{ScenarioConfig, Simulation, TraceSummary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Each workload sets up at least this many times, and until
/// [`SETUP_MIN`] has passed; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Three seconds, because on a shared 2-core host the CPU's speed was
/// seen to flip between two levels 1.6× apart for seconds at a time,
/// and a set-up of tens of milliseconds timed over one second can fall
/// entirely in either.
const SETUP_MIN: Duration = Duration::from_secs(3);

/// One benchmark invocation.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase runs.
    pub budget: Duration,
    pub trace: bool,
    /// Scratch directory for files the workload writes.
    pub workdir: PathBuf,
    /// Worker threads (the host's core count).
    pub jobs: usize,
    /// Names and units of the metrics the result line carries: the
    /// `end_to_end` list of `BENCHMARK.json` untraced, its `per_layer`
    /// list traced.
    pub metrics: Vec<(String, String)>,
}

/// A workload's result.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the result line: end-to-end untraced, per-layer
    /// traced.
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Workload-specific figures printed before the result line.
    pub detail: BTreeMap<String, f64>,
    /// Diagnostics for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome that is correct until an oracle says otherwise.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_owned(), (value, unit.to_owned()));
    }

    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; NaN
/// when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The latency metrics of a run: the median and the nearest-rank 95th
/// percentile of every sample it took (the slowest sample when there
/// are fewer than twenty, as in `study`).
pub fn latency_metrics(out: &mut Outcome, samples: &[f64]) {
    out.metric("latency_p50_ms", percentile(samples, 0.5), "ms");
    out.metric("latency_p95_ms", percentile(samples, 0.95), "ms");
    out.detail
        .insert("latency_samples".into(), samples.len() as f64);
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Lower the peak resident set to the current one, so that
/// `peak_rss_mb` covers only what runs after the call: the measured
/// operations, not set-up or the oracle.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Run `setup` [`SETUP_REPS`] times or for [`SETUP_MIN`], whichever
/// is longer, keeping the last result and returning the median wall
/// time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t0 = Instant::now();
        let result = setup()?;
        walls.push(t0.elapsed().as_secs_f64());
        if walls.len() >= SETUP_REPS && start.elapsed() >= SETUP_MIN {
            return Ok((result, median(&walls)));
        }
    }
}

pub fn err(e: FaircrowdError) -> String {
    e.to_string()
}

/// Span name of a simulation at `scale`, and the event counter of it.
fn sim_names(scale: f64) -> (&'static str, &'static str) {
    if scale == 4.0 {
        ("sim.s4", "sim.events.s4")
    } else if scale == 16.0 {
        ("sim.s16", "sim.events.s16")
    } else {
        ("sim.other", "sim.events.other")
    }
}

/// Simulate a validated config the way the pipeline does — one pass for
/// a static strategy, the fixed-point loop otherwise — then validate
/// the trace. A static pass records one sample per round, taken
/// between `run_observed` callbacks.
pub fn simulate(
    config: &ScenarioConfig,
    scale: f64,
    tr: &mut Tracer,
) -> Result<Trace, FaircrowdError> {
    let trace = if config.strategy == StrategyChoice::Static {
        let (span, events) = sim_names(scale);
        let start = Instant::now();
        let mut rounds = Vec::new();
        let trace = if tr.on() {
            let mut last = start;
            Simulation::new(config.clone()).run_observed(|_| {
                let now = Instant::now();
                rounds.push(ms(now - last));
                last = now;
            })
        } else {
            Simulation::new(config.clone()).run()
        };
        tr.record(span, start, Instant::now());
        for r in rounds {
            tr.sample("sim.round_ms", r);
        }
        tr.count("sim.events", trace.events.len() as u64);
        tr.count(events, trace.events.len() as u64);
        trace
    } else {
        let converged = tr.span("converge", || {
            converge::run(config.clone(), &ConvergeOptions::default())
        })?;
        tr.count("converge.iterations", u64::from(converged.iterations));
        converged.trace
    };
    tr.span("trace.validate_ms", || trace.ensure_valid())?;
    Ok(trace)
}

/// One span per axiom, named as its per-layer metric.
const AXIOM_SPANS: [&str; 7] = [
    "axioms.A1_ms",
    "axioms.A2_ms",
    "axioms.A3_ms",
    "axioms.A4_ms",
    "axioms.A5_ms",
    "axioms.A6_ms",
    "axioms.A7_ms",
];

/// Index a trace and audit it one axiom at a time, then take the wage
/// statistics and the market summary — what `Pipeline` does for one
/// trace, with a span around each call.
pub fn audit(
    engine: &AuditEngine,
    trace: &Trace,
    tr: &mut Tracer,
) -> (FairnessReport, Option<WageStats>, TraceSummary) {
    let ix = tr.span("index.busy_ms", || TraceIndex::new(trace));
    let mut axioms = Vec::with_capacity(AxiomId::ALL.len());
    for (id, span) in AxiomId::ALL.into_iter().zip(AXIOM_SPANS) {
        axioms.extend(tr.span(span, || engine.run_indexed(&ix, &[id])).axioms);
    }
    let report = FairnessReport { axioms };
    tr.count("axioms.violations", report.total_violations() as u64);
    let wages = tr.span("pay.wages_ms", || metrics::wage_stats(&ix));
    let summary = tr.span("summary_ms", || TraceSummary::of(trace));
    (report, wages, summary)
}

/// The per-layer metrics that count work. Each must repeat exactly in
/// every traced pass; every other per-layer metric is a timing or a
/// ratio, summarised as the median across passes. Names and units of
/// the per-layer metrics come from `BENCHMARK.json` (see [`Ctx`]).
const EXACT: [&str; 13] = [
    "sim.events",
    "converge.iterations",
    "sweep.cells",
    "sweep.sim_runs",
    "axioms.violations",
    "trace_io.json.bytes",
    "trace_io.jsonl.bytes",
    "trace_bin.bytes",
    "live.findings",
    "live.suppressed",
    "checkpoint.count",
    "checkpoint.bytes",
    "loadgen.lines",
];

/// The values of the per-layer metrics `names` in one traced pass. A
/// metric is derived here, or else is the self time of the span of its
/// name (unit `ms`) or the counter of its name (unit `count`).
fn layer_values(
    tr: &Tracer,
    wall_ms: f64,
    names: &[(String, String)],
) -> Result<BTreeMap<String, f64>, String> {
    let own = tr.self_ms();
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| tr.get_count(name) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let or0 = |v: f64| if v.is_nan() { 0.0 } else { v };
    let rounds = tr.samples("sim.round_ms");
    let polls = tr.samples("daemon.poll_ms");

    let derived: BTreeMap<&str, f64> = BTreeMap::from([
        ("trace.coverage", per(tr.leaf_ms(), wall_ms)),
        ("sim.busy_ms", t("sim.s4") + t("sim.s16") + t("sim.other")),
        (
            "sim.ns_per_event.s4",
            per(t("sim.s4") * 1e6, c("sim.events.s4")),
        ),
        (
            "sim.ns_per_event.s16",
            per(t("sim.s16") * 1e6, c("sim.events.s16")),
        ),
        ("sim.round_p50_ms", or0(median(rounds))),
        ("sim.round_max_ms", or0(max(rounds))),
        (
            "converge.iter_ms",
            per(t("converge"), c("converge.iterations")),
        ),
        (
            "live.ns_per_event",
            per(t("live.ingest_ms") * 1e6, c("live.events")),
        ),
        ("daemon.poll_p50_ms", or0(median(polls))),
        ("daemon.poll_max_ms", or0(max(polls))),
        (
            "daemon.backlog_lines_max",
            or0(max(tr.samples("daemon.backlog"))),
        ),
        (
            "daemon.restore_ms",
            or0(median(tr.samples("daemon.restore_ms"))),
        ),
        (
            "daemon.ingest_events_per_s",
            or0(median(tr.samples("daemon.ingest_events_per_s"))),
        ),
        (
            "loadgen.late_p99_ms",
            or0(percentile(tr.samples("loadgen.late_ms"), 0.99)),
        ),
    ]);
    names
        .iter()
        .filter(|(name, _)| name != "trace.overhead")
        .map(|(name, unit)| {
            let value = match (derived.get(name.as_str()), unit.as_str()) {
                (Some(&v), _) => v,
                (None, "ms") => t(name),
                (None, "count") => c(name),
                (None, _) => return Err(format!("no per-layer metric `{name}` in {unit}")),
            };
            Ok((name.clone(), value))
        })
        .collect()
}

/// Alternate untraced and traced runs of `pass` until the budget is
/// spent, at least twice each, and fold the traced ones into the
/// per-layer metrics of `out`. Every exact count must repeat in every
/// pass; a drift marks the result incorrect. `pass` returns the wall
/// time coverage is measured against and counts its operations in
/// `out`.
pub fn traced_run(
    ctx: &Ctx,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Tracer, &mut Outcome) -> Result<f64, String>,
) -> Result<(), String> {
    let deadline = Instant::now() + ctx.budget;
    // Each traced pass: the tracer it filled and the wall time its
    // coverage is taken against.
    let mut traced: Vec<(Tracer, f64)> = Vec::new();
    let mut untraced_ms = Vec::new();
    while traced.len() < 2 || Instant::now() < deadline {
        let mut off = Tracer::new(false);
        untraced_ms.push(pass(&mut off, out)?);
        let mut on = Tracer::new(true);
        let wall_ms = pass(&mut on, out)?;
        traced.push((on, wall_ms));
    }

    let values: Vec<BTreeMap<String, f64>> = traced
        .iter()
        .map(|(tr, wall_ms)| layer_values(tr, *wall_ms, &ctx.metrics))
        .collect::<Result<_, _>>()?;
    let traced_ms: Vec<f64> = traced.iter().map(|(_, wall_ms)| *wall_ms).collect();
    for (name, unit) in &ctx.metrics {
        if name == "trace.overhead" {
            continue;
        }
        let series: Vec<f64> = values.iter().map(|v| v[name]).collect();
        let value = if EXACT.contains(&name.as_str()) {
            if series.iter().any(|&x| x != series[0]) {
                out.correct = false;
                out.notes
                    .push(format!("count `{name}` drifted across passes: {series:?}"));
            }
            series[0]
        } else {
            median(&series)
        };
        out.metric(name, value, unit);
    }
    out.metric(
        "trace.overhead",
        median(&traced_ms) / median(&untraced_ms) - 1.0,
        "ratio",
    );
    let (last, _) = &traced[traced.len() - 1];
    let mut table: Vec<(&str, f64)> = last.self_ms().into_iter().collect();
    table.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, self_ms) in table {
        out.notes.push(format!("self {self_ms:>12.3} ms  {name}"));
    }
    out.notes.push(format!(
        "{} traced pass(es), median wall {:.1} ms traced / {:.1} ms untraced",
        traced.len(),
        median(&traced_ms),
        median(&untraced_ms)
    ));
    Ok(())
}
