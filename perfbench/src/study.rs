//! `study`: a researcher charts the policy frontier with
//! `frontier::run_frontier` at `jobs = nproc`.
//!
//! Two grids per study: static and strategic catalog scenarios at
//! scale 4 under two policies, both consensus aggregators and the
//! `none` vs `parity` repair; and a static scenario at scale 16, so the
//! simulator's superlinear term is exercised. The oracle is a serial
//! run of the same grids through the layers' own public functions,
//! which is also what the traced run times.

use crate::common::{
    self, audit, err, latency_metrics, median, ms, simulate, timed_setup, Ctx, Outcome,
};
use crate::tracer::Tracer;
use faircrowd::core::{AuditConfig, AuditEngine, ReportAggregate, ScoreStats};
use faircrowd::frontier::{self, mark_frontier, FrontierPoint};
use faircrowd::model::trace::Trace;
use faircrowd::sim::PolicyChoice;
use faircrowd::sweep::{consensus_accuracy, stack_label, SweepGrid};
use faircrowd::Enforcement;
use std::collections::BTreeMap;
use std::time::Instant;

const GRIDS: [&str; 2] = [
    "scenario=baseline,worker_churn,undercut_churn;policy=round_robin,kos;\
     aggregator=majority,parity_constrained;enforce=none,parity;scale=4;rounds=24",
    "scenario=baseline;policy=round_robin,kos;\
     aggregator=majority,parity_constrained;enforce=none;scale=16;rounds=24",
];

fn grids(seed: u64) -> Result<Vec<SweepGrid>, String> {
    GRIDS
        .iter()
        .map(|g| frontier::frontier_grid(&format!("{g};seed={seed}")).map_err(err))
        .collect()
}

/// What decides a cell's baseline trace: cells equal on it share one
/// simulation. The sweep's own cache key (`SweepCase::sim_key`) is
/// private; this rebuilds it, so `sweep.sim_runs` counts the
/// simulations of this serial rebuild, not ones measured in the sweep.
type SimKey = (String, Option<String>, Option<String>, u64, u64, u32);

/// The frontier of every grid, computed cell by cell and serially from
/// the layers' public functions, plus the events of the audited traces.
fn serial_study(
    grids: &[SweepGrid],
    tr: &mut Tracer,
) -> Result<(Vec<Vec<FrontierPoint>>, u64), String> {
    let engine = AuditEngine::new(AuditConfig {
        parallel: false,
        ..AuditConfig::default()
    });
    let mut frontiers = Vec::new();
    let mut events = 0;
    for grid in grids {
        let cases = grid.expand().map_err(err)?;
        tr.count("sweep.cells", cases.len() as u64);
        let mut cache: BTreeMap<SimKey, Trace> = BTreeMap::new();
        let mut points = Vec::with_capacity(cases.len());
        for case in &cases {
            tr.enter("cell");
            let mut config = case.pipeline().map_err(err)?.scenario_config().clone();
            let repaired;
            let trace = if case.enforcements.is_empty() {
                let key = (
                    case.scenario.clone(),
                    case.policy.clone(),
                    case.strategy.clone(),
                    case.seed,
                    case.scale.to_bits(),
                    case.rounds,
                );
                if !cache.contains_key(&key) {
                    config.validate().map_err(err)?;
                    tr.count("sweep.sim_runs", 1);
                    let trace = simulate(&config, case.scale, tr).map_err(err)?;
                    cache.insert(key.clone(), trace);
                }
                &cache[&key]
            } else {
                for enforcement in &case.enforcements {
                    match enforcement {
                        Enforcement::ExposureParity => {
                            let base = config.policy.clone();
                            config.policy = PolicyChoice::ParityOver(Box::new(base));
                        }
                        other => return Err(format!("no serial form for `{}`", other.label())),
                    }
                }
                config.validate().map_err(err)?;
                tr.count("sweep.sim_runs", 1);
                repaired = simulate(&config, case.scale, tr).map_err(err)?;
                &repaired
            };
            events += trace.events.len() as u64;
            let (report, wages, _summary) = audit(&engine, trace, tr);
            let aggregator = case.aggregator_choice().map_err(err)?;
            let span = match case.aggregator.as_deref() {
                Some("parity_constrained") => "quality.consensus_ms.parity_constrained",
                _ => "quality.consensus_ms.majority",
            };
            let consensus = tr.span(span, || consensus_accuracy(trace, &aggregator));
            let quality = ScoreStats::of(&consensus.into_iter().collect::<Vec<_>>());
            let gini = ScoreStats::of(&wages.iter().map(|w| w.gini).collect::<Vec<_>>());
            points.push(FrontierPoint {
                scenario: case.scenario.clone(),
                policy: case.policy_label.clone(),
                aggregator: case.aggregator_label.clone(),
                enforce: stack_label(&case.enforcements),
                scale: case.scale,
                quality: (quality.n > 0).then_some(quality.mean),
                wage_gini: (gini.n > 0).then_some(gini.mean),
                violations: ReportAggregate::of(std::slice::from_ref(&report)).total_violations,
                on_frontier: false,
            });
            tr.exit();
        }
        tr.span("frontier.pareto_ms", || mark_frontier(&mut points));
        frontiers.push(points);
    }
    Ok((frontiers, events))
}

/// Count one operation per cell: a cell passes when its point equals
/// the reference's.
fn check(out: &mut Outcome, got: &[FrontierPoint], want: &[FrontierPoint]) {
    for i in 0..got.len().max(want.len()) {
        out.op(got.get(i).is_some() && got.get(i) == want.get(i));
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    if ctx.trace {
        let grids = grids(ctx.seed)?;
        let reference: Vec<Vec<FrontierPoint>> = grids
            .iter()
            .map(|g| frontier::run_frontier(g, ctx.jobs).map(|r| r.points))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        common::traced_run(ctx, &mut out, |tr, out| {
            let t0 = Instant::now();
            let (frontiers, _) = serial_study(&grids, tr)?;
            let wall = ms(t0.elapsed());
            for (got, want) in frontiers.iter().zip(&reference) {
                check(out, got, want);
            }
            Ok(wall)
        })?;
        return Ok(out);
    }

    // Set-up: parse the grids and compute the reference frontiers, as
    // the other workloads' set-ups take their reference verdicts.
    let ((grids, reference, events), setup_s) = timed_setup(|| {
        let grids = grids(ctx.seed)?;
        let (reference, events) = serial_study(&grids, &mut Tracer::new(false))?;
        Ok((grids, reference, events))
    })?;
    common::reset_peak_rss();

    // A latency sample is one study's wall time: every grid's frontier,
    // what the researcher waits for.
    let deadline = Instant::now() + ctx.budget;
    let mut study_ms = Vec::new();
    while study_ms.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        for (grid, want) in grids.iter().zip(&reference) {
            let result = frontier::run_frontier(grid, ctx.jobs).map_err(err)?;
            check(&mut out, &result.points, want);
        }
        study_ms.push(ms(t0.elapsed()));
    }
    let study_s = median(&study_ms) / 1e3;

    out.metric("setup_s", setup_s, "s");
    out.metric("events_per_s", events as f64 / study_s, "1/s");
    latency_metrics(&mut out, &study_ms);
    out.detail.insert("study_s".into(), study_s);
    out.detail.insert("studies".into(), study_ms.len() as f64);
    out.detail.insert("events".into(), events as f64);
    Ok(out)
}
