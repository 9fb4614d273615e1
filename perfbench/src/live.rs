//! `live_markets`: an operator runs `AuditDaemon` over interleaved
//! markets of mixed size, fed line by line with `feed_line`, with
//! `jobs = nproc` and checkpoints at `serve`'s default cadence.
//!
//! Each repetition has three phases:
//!
//! 1. **saturated** — a closed loop: every market's next chunk of lines
//!    is fed, then the daemon polls, until every market closes;
//! 2. **restart** — a new daemon over the same checkpoints re-reads
//!    every stream and must resume every market with zero replayed
//!    events and the same reports;
//! 3. **open loop** — one generator thread releases lines on a fixed
//!    schedule of [`OPEN_LOOP_LINES_PER_S`], whatever the daemon does;
//!    the daemon polls every 10 ms, and each line's lag runs from its
//!    due time to the return of the poll that ingested it.
//!
//! The daemon's `poll` is opaque, so the traced run drives the same
//! markets serially through its public building blocks instead:
//! `JsonlReader::feed_line`, `LiveAuditor::apply_record` and the
//! checkpoint codec, at the same cadence.

use crate::common::{
    self, err, latency_metrics, max, median, ms, percentile, simulate, timed_setup, Ctx, Outcome,
};
use crate::tracer::Tracer;
use faircrowd::core::checkpoint;
use faircrowd::core::daemon::{AuditDaemon, DaemonConfig, DaemonReport};
use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::core::{AuditConfig, AuditEngine, AxiomId, FairnessReport, LiveAuditor};
use faircrowd::model::trace_io::{JsonlReader, JsonlRecord};
use faircrowd::sim::catalog;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The markets: catalog scenarios at two sizes, interleaved.
const MARKETS: [(&str, f64); 16] = [
    ("baseline", 0.5),
    ("budget_starved", 0.5),
    ("worker_churn", 0.5),
    ("spam_campaign", 0.5),
    ("flash_crowd", 0.5),
    ("skill_skew", 0.5),
    ("requester_monopoly", 0.5),
    ("transparent_utopia", 0.5),
    ("baseline", 0.25),
    ("budget_starved", 0.25),
    ("worker_churn", 0.25),
    ("spam_campaign", 0.25),
    ("flash_crowd", 0.25),
    ("skill_skew", 0.25),
    ("requester_monopoly", 0.25),
    ("transparent_utopia", 0.25),
];
/// Market rounds.
const ROUNDS: u32 = 24;
/// `faircrowd serve`'s default checkpoint cadence, in events.
const CHECKPOINT_EVERY: u64 = 512;
/// Lines fed per market between two polls in the closed loop.
const CHUNK_LINES: usize = 64;
/// How often the open loop's daemon polls.
const POLL_TICK: Duration = Duration::from_millis(10);
/// The open loop's fixed arrival rate, about half the saturated rate
/// measured on a 2-core host.
const OPEN_LOOP_LINES_PER_S: f64 = 90_000.0;

struct Market {
    name: String,
    lines: Vec<String>,
    events: usize,
    report: FairnessReport,
}

fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Vec<Market>, String> {
    let engine = AuditEngine::with_defaults();
    MARKETS
        .iter()
        .enumerate()
        .map(|(i, &(scenario, scale))| {
            let mut config = catalog::get(scenario).map_err(err)?.at_scale(scale);
            config.seed = ctx.seed.wrapping_add(i as u64);
            config.rounds = ROUNDS;
            config.validate().map_err(err)?;
            let trace = simulate(&config, scale, tr).map_err(err)?;
            let (report, ..) = common::audit(&engine, &trace, tr);
            let text = tr.span("trace_io.encode_ms", || {
                persist::encode(&trace, TraceFormat::Jsonl)
            });
            Ok(Market {
                name: format!("m{i}-{scenario}"),
                lines: text.lines().map(str::to_owned).collect(),
                events: trace.events.len(),
                report,
            })
        })
        .collect()
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(path).ok();
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn daemon(ctx: &Ctx, dir: &Path) -> AuditDaemon {
    AuditDaemon::new(DaemonConfig {
        audit: AuditConfig::default(),
        jobs: ctx.jobs,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: CHECKPOINT_EVERY,
    })
}

/// Count one operation per market close: the market reports, with its
/// batch report, and — after a restart — resumed with nothing replayed.
fn check_closes(out: &mut Outcome, markets: &[Market], daemon: &AuditDaemon, restarted: bool) {
    let reports: Vec<DaemonReport> = match daemon.reports() {
        Ok(reports) => reports,
        Err(e) => {
            out.notes.push(format!("reports: {e}"));
            Vec::new()
        }
    };
    for m in markets {
        let got = reports.iter().find(|r| r.market == m.name);
        let ok = got.is_some_and(|r| {
            r.report == m.report
                && r.events == m.events
                && (!restarted || r.resumed_from == Some(m.events as u64))
        });
        if !ok {
            out.notes.push(format!("market {} closed wrong", m.name));
        }
        out.op(ok);
    }
}

/// The closed loop: feed each market's next chunk, poll, repeat; then
/// close every market.
fn saturate(daemon: &mut AuditDaemon, markets: &[Market]) {
    let longest = markets.iter().map(|m| m.lines.len()).max().unwrap_or(0);
    for start in (0..longest).step_by(CHUNK_LINES) {
        for m in markets {
            for line in m.lines.iter().skip(start).take(CHUNK_LINES) {
                daemon.feed_line(&m.name, line.as_str());
            }
        }
        daemon.poll();
    }
    daemon.finalize();
}

/// Lines in arrival order: one line of each market in turn.
fn arrival_order(markets: &[Market]) -> Vec<(usize, usize)> {
    let longest = markets.iter().map(|m| m.lines.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            markets
                .iter()
                .enumerate()
                .filter(move |(_, m)| i < m.lines.len())
                .map(move |(mi, _)| (mi, i))
        })
        .collect()
}

/// What one open-loop phase measured.
struct OpenLoop {
    lag_ms: Vec<f64>,
    late_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    backlog: Vec<f64>,
}

impl OpenLoop {
    /// Does the backlog keep growing? Compares the median lag of the
    /// last quarter of lines with that of the first quarter.
    fn growing(&self) -> bool {
        let q = self.lag_ms.len() / 4;
        q > 0
            && median(&self.lag_ms[self.lag_ms.len() - q..])
                > 2.0 * median(&self.lag_ms[..q]) + 20.0
    }
}

/// The open loop: a generator thread releases lines on a fixed
/// schedule; every [`POLL_TICK`] this thread feeds whatever has arrived
/// and polls.
fn open_loop(daemon: &mut AuditDaemon, markets: &[Market]) -> OpenLoop {
    let order = arrival_order(markets);
    let (tx, rx) = mpsc::channel::<(usize, usize, Instant)>();
    let mut lag_ms = Vec::with_capacity(order.len());
    let mut poll_ms = Vec::new();
    let mut backlog = Vec::new();
    let late_ms = std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let tx = tx;
            let t0 = Instant::now();
            let mut late = Vec::with_capacity(order.len());
            for (k, &(m, i)) in order.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(k as f64 / OPEN_LOOP_LINES_PER_S);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                late.push(ms(Instant::now().saturating_duration_since(due)));
                if tx.send((m, i, due)).is_err() {
                    break;
                }
            }
            late
        });
        // Poll on a fixed tick, feeding whatever arrived since the last.
        let start = Instant::now();
        for tick in 1u32.. {
            let next = start + POLL_TICK * tick;
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
            }
            // Checked first: once the generator has ended, this batch
            // holds every line still in flight.
            let finished = generator.is_finished();
            let batch: Vec<_> = rx.try_iter().collect();
            backlog.push(batch.len() as f64);
            for &(m, i, _) in &batch {
                daemon.feed_line(&markets[m].name, markets[m].lines[i].as_str());
            }
            let p0 = Instant::now();
            daemon.poll();
            let done = Instant::now();
            poll_ms.push(ms(done - p0));
            lag_ms.extend(batch.iter().map(|&(.., due)| ms(done - due)));
            if finished && batch.is_empty() {
                break;
            }
        }
        generator.join().expect("generator thread panicked")
    });
    daemon.finalize();
    OpenLoop {
        lag_ms,
        late_ms,
        poll_ms,
        backlog,
    }
}

/// One repetition of the three daemon phases; returns the saturated
/// events/s, the restore time and the open loop.
fn daemon_phases(
    ctx: &Ctx,
    out: &mut Outcome,
    markets: &[Market],
) -> Result<(f64, f64, OpenLoop), String> {
    let events: usize = markets.iter().map(|m| m.events).sum();
    let saturated_dir = ctx.workdir.join("ckpt-saturated");
    let open_dir = ctx.workdir.join("ckpt-open");
    fresh_dir(&saturated_dir)?;
    fresh_dir(&open_dir)?;

    let t0 = Instant::now();
    let mut d = daemon(ctx, &saturated_dir);
    saturate(&mut d, markets);
    let saturated_s = t0.elapsed().as_secs_f64();
    check_closes(out, markets, &d, false);
    drop(d);

    let t1 = Instant::now();
    let mut d = daemon(ctx, &saturated_dir);
    saturate(&mut d, markets);
    let restore_ms = ms(t1.elapsed());
    check_closes(out, markets, &d, true);
    drop(d);

    let mut d = daemon(ctx, &open_dir);
    let open = open_loop(&mut d, markets);
    check_closes(out, markets, &d, false);
    Ok((events as f64 / saturated_s, restore_ms, open))
}

/// One market driven serially through the daemon's building blocks.
struct Serial {
    reader: JsonlReader,
    auditor: LiveAuditor,
    header: bool,
    last_checkpoint: u64,
    path: PathBuf,
}

fn save_checkpoint(s: &Serial, tr: &mut Tracer) -> Result<(), String> {
    let text = tr.span("checkpoint.encode_ms", || {
        checkpoint::encode(&s.auditor.checkpoint(s.reader.lines_fed() as u64))
    });
    tr.count("checkpoint.count", 1);
    tr.count("checkpoint.bytes", text.len() as u64);
    tr.span("checkpoint.save_ms", || std::fs::write(&s.path, text))
        .map_err(|e| format!("{}: {e}", s.path.display()))
}

fn close(auditor: &mut LiveAuditor, tr: &mut Tracer) -> FairnessReport {
    tr.span("live.finalize_ms", || {
        auditor.finalize();
        auditor.final_report_for(&AxiomId::ALL)
    })
}

/// The traced pass's ingest: same chunking and cadence as the daemon,
/// one market after another, then a restore of every market from its
/// closing checkpoint.
fn serial_pass(
    ctx: &Ctx,
    out: &mut Outcome,
    markets: &[Market],
    tr: &mut Tracer,
) -> Result<(), String> {
    let dir = ctx.workdir.join("ckpt-serial");
    fresh_dir(&dir)?;
    let mut states: Vec<Serial> = markets
        .iter()
        .map(|m| Serial {
            reader: JsonlReader::new(),
            auditor: LiveAuditor::new(AuditConfig::default()),
            header: false,
            last_checkpoint: 0,
            path: dir.join(format!("{}.checkpoint.json", m.name)),
        })
        .collect();
    let longest = markets.iter().map(|m| m.lines.len()).max().unwrap_or(0);
    for start in (0..longest).step_by(CHUNK_LINES) {
        for (m, s) in markets.iter().zip(&mut states) {
            tr.enter("market");
            for line in m.lines.iter().skip(start).take(CHUNK_LINES) {
                let record = tr
                    .span("trace_io.jsonl.parse_ms", || s.reader.feed_line(line))
                    .map_err(err)?;
                if !s.header {
                    if let Some(header) = s.reader.header() {
                        s.auditor.apply_header(header);
                        s.header = true;
                    }
                }
                if let Some(record) = record {
                    if matches!(record, JsonlRecord::Event(_)) {
                        tr.count("live.events", 1);
                    }
                    tr.span("live.ingest_ms", || s.auditor.apply_record(record))
                        .map_err(err)?;
                }
            }
            let seen = s.auditor.events_seen() as u64;
            if seen >= s.last_checkpoint + CHECKPOINT_EVERY {
                save_checkpoint(s, tr)?;
                s.last_checkpoint = seen;
            }
            tr.exit();
        }
    }
    for (m, s) in markets.iter().zip(&mut states) {
        tr.enter("market");
        save_checkpoint(s, tr)?;
        tr.span("trace.validate_ms", || s.auditor.trace().ensure_valid())
            .map_err(err)?;
        let report = close(&mut s.auditor, tr);
        tr.count("live.findings", s.auditor.findings().len() as u64);
        tr.count("live.suppressed", s.auditor.suppressed_findings() as u64);
        out.op(report == m.report);
        tr.exit();
    }
    for (m, s) in markets.iter().zip(&states) {
        tr.enter("market");
        let ckpt = tr
            .span("checkpoint.decode_ms", || checkpoint::load(&s.path))
            .map_err(err)?;
        let mut auditor = tr
            .span("live.resume_ms", || {
                LiveAuditor::resume(AuditConfig::default(), &ckpt)
            })
            .map_err(err)?;
        let resumed = auditor.events_seen() == m.events;
        let report = close(&mut auditor, tr);
        out.op(resumed && report == m.report);
        tr.exit();
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    if ctx.trace {
        common::traced_run(ctx, &mut out, |tr, out| {
            let t0 = Instant::now();
            let markets = setup(ctx, tr)?;
            serial_pass(ctx, out, &markets, tr)?;
            let wall = ms(t0.elapsed());
            if tr.on() {
                // The daemon's own figures, outside the covered wall.
                let (eps, restore_ms, open) = daemon_phases(ctx, out, &markets)?;
                tr.sample("daemon.ingest_events_per_s", eps);
                tr.sample("daemon.restore_ms", restore_ms);
                tr.count("daemon.backlog_growing", u64::from(open.growing()));
                tr.count("loadgen.lines", open.lag_ms.len() as u64);
                for v in open.poll_ms {
                    tr.sample("daemon.poll_ms", v);
                }
                for v in open.backlog {
                    tr.sample("daemon.backlog", v);
                }
                for v in open.late_ms {
                    tr.sample("loadgen.late_ms", v);
                }
            }
            Ok(wall)
        })?;
        return Ok(out);
    }

    let (markets, setup_s) = timed_setup(|| setup(ctx, &mut Tracer::new(false)))?;
    common::reset_peak_rss();
    let deadline = Instant::now() + ctx.budget;
    let mut eps = Vec::new();
    let mut restore_ms = Vec::new();
    let mut lag_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut backlog: Vec<f64> = Vec::new();
    while eps.is_empty() || Instant::now() < deadline {
        let (e, r, open) = daemon_phases(ctx, &mut out, &markets)?;
        if open.growing() {
            out.notes.push(format!(
                "open loop at {OPEN_LOOP_LINES_PER_S} lines/s: the backlog keeps growing"
            ));
        }
        eps.push(e);
        restore_ms.push(r);
        lag_ms.extend(open.lag_ms);
        late_ms.extend(open.late_ms);
        backlog.extend(open.backlog);
    }

    let lines: usize = markets.iter().map(|m| m.lines.len()).sum();
    let events: usize = markets.iter().map(|m| m.events).sum();
    out.metric("setup_s", setup_s, "s");
    out.metric("events_per_s", median(&eps), "1/s");
    latency_metrics(&mut out, &lag_ms);
    out.detail
        .insert("live_ingest_events_per_s".into(), median(&eps));
    out.detail.insert(
        "saturated_lines_per_s".into(),
        median(&eps) * lines as f64 / events as f64,
    );
    out.detail
        .insert("live_lag_p50_ms".into(), percentile(&lag_ms, 0.5));
    out.detail
        .insert("live_lag_p99_ms".into(), percentile(&lag_ms, 0.99));
    out.detail
        .insert("live_restore_ms".into(), median(&restore_ms));
    out.detail
        .insert("loadgen_late_p99_ms".into(), percentile(&late_ms, 0.99));
    out.detail.insert("backlog_lines_max".into(), max(&backlog));
    out.detail
        .insert("open_loop_lines_per_s".into(), OPEN_LOOP_LINES_PER_S);
    out.detail.insert("lines".into(), lines as f64);
    out.detail.insert("repetitions".into(), eps.len() as f64);
    Ok(out)
}
