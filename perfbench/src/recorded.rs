//! `recorded_audit`: an auditor turns recorded markets on disk into
//! verdicts, with no simulator in the loop.
//!
//! Set-up simulates a corpus — clean (`baseline`) and violation-heavy
//! (`budget_starved`, `worker_churn`) markets at scales 1 and 4 — and
//! writes each market in all three trace forms. An operation is one
//! file: `persist::load`, `Pipeline::replay_owned` and `render`, the
//! path of `faircrowd replay`.

use crate::common::{
    self, audit, err, latency_metrics, median, ms, simulate, timed_setup, Ctx, Outcome,
};
use crate::tracer::Tracer;
use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::core::{AuditEngine, FairnessReport};
use faircrowd::model::trace::Trace;
use faircrowd::pipeline::{Pipeline, RunArtifacts};
use faircrowd::sim::catalog;
use std::path::PathBuf;
use std::time::Instant;

const SCENARIOS: [&str; 3] = ["baseline", "budget_starved", "worker_churn"];
/// Scales 1 and 4: a scale-16 market is a 100 MB JSON file of 800k
/// events, whose decode alone takes seconds and gigabytes.
const SCALES: [f64; 2] = [1.0, 4.0];

/// Each trace form: its format, file extension, decode span and byte
/// counter, and the name of its throughput figure.
const FORMS: [(TraceFormat, &str, &str, &str, &str); 3] = [
    (
        TraceFormat::Json,
        "json",
        "trace_io.json.decode_ms",
        "trace_io.json.bytes",
        "audit_json_events_per_s",
    ),
    (
        TraceFormat::Jsonl,
        "jsonl",
        "trace_io.jsonl.decode_ms",
        "trace_io.jsonl.bytes",
        "audit_jsonl_events_per_s",
    ),
    (
        TraceFormat::Binary,
        "fcb",
        "trace_bin.decode_ms",
        "trace_bin.bytes",
        "audit_fcb_events_per_s",
    ),
];

/// One recorded market file and the verdict it must produce.
struct File {
    path: PathBuf,
    form: usize,
    heading: String,
    events: usize,
    report: FairnessReport,
    rendered: String,
}

/// Simulate the corpus, write every market in every form, and take
/// each verdict from the in-memory trace.
fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<Vec<File>, String> {
    let dir = ctx.workdir.join("corpus");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let engine = AuditEngine::with_defaults();
    let mut files = Vec::new();
    for scenario in SCENARIOS {
        for scale in SCALES {
            let mut config = catalog::get(scenario).map_err(err)?.at_scale(scale);
            config.seed = ctx.seed;
            config.validate().map_err(err)?;
            let trace = simulate(&config, scale, tr).map_err(err)?;
            let (report, wages, summary) = common::audit(&engine, &trace, tr);
            let verdict = RunArtifacts {
                trace: Trace::default(),
                summary,
                report,
                wages,
            };
            for (form, (format, ext, ..)) in FORMS.iter().enumerate() {
                let name = format!("{scenario}-s{scale}.{ext}");
                let path = dir.join(&name);
                let bytes = tr.span("trace_io.encode_ms", || {
                    persist::encode_bytes(&trace, *format)
                });
                tr.span("fs.write_ms", || std::fs::write(&path, &bytes))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                files.push(File {
                    rendered: verdict.render(&name),
                    heading: name,
                    path,
                    form,
                    events: trace.events.len(),
                    report: verdict.report.clone(),
                });
            }
        }
    }
    Ok(files)
}

/// One file through the layers' public functions, a span around each.
fn traced_verdict(file: &File, engine: &AuditEngine, tr: &mut Tracer) -> Result<bool, String> {
    let (_, _, decode_span, bytes_count, _) = FORMS[file.form];
    tr.enter("file");
    let bytes = tr
        .span("fs.read_ms", || std::fs::read(&file.path))
        .map_err(|e| format!("{}: {e}", file.path.display()))?;
    tr.count(bytes_count, bytes.len() as u64);
    let trace = tr
        .span(decode_span, || persist::decode_bytes(&bytes))
        .map_err(err)?;
    tr.span("trace.validate_ms", || trace.ensure_valid())
        .map_err(err)?;
    let (report, wages, summary) = audit(engine, &trace, tr);
    let artifacts = RunArtifacts {
        trace,
        summary,
        report,
        wages,
    };
    let text = tr.span("report.render_ms", || artifacts.render(&file.heading));
    tr.exit();
    Ok(artifacts.report == file.report && text == file.rendered)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    if ctx.trace {
        let engine = AuditEngine::with_defaults();
        common::traced_run(ctx, &mut out, |tr, out| {
            let t0 = Instant::now();
            let files = setup(ctx, tr)?;
            for file in &files {
                let ok = traced_verdict(file, &engine, tr)?;
                out.op(ok);
            }
            Ok(ms(t0.elapsed()))
        })?;
        return Ok(out);
    }

    let (files, setup_s) = timed_setup(|| setup(ctx, &mut Tracer::new(false)))?;
    common::reset_peak_rss();
    let pipeline = Pipeline::new();
    let deadline = Instant::now() + ctx.budget;
    let mut file_ms = Vec::new();
    let mut all_eps = Vec::new();
    let mut form_eps: [Vec<f64>; 3] = Default::default();
    let mut first = true;
    while first || Instant::now() < deadline {
        let mut form_ms = [0.0; 3];
        let mut form_events = [0usize; 3];
        for file in &files {
            let t0 = Instant::now();
            let verdict = persist::load(&file.path).and_then(|t| pipeline.replay_owned(t));
            let text = verdict.as_ref().map(|a| a.render(&file.heading));
            let took = ms(t0.elapsed());
            let ok = match (&verdict, &text) {
                (Ok(artifacts), Ok(text)) => {
                    // Once per run: the decoded trace re-encodes to the
                    // very bytes on disk.
                    let (format, ..) = FORMS[file.form];
                    artifacts.report == file.report
                        && *text == file.rendered
                        && (!first
                            || std::fs::read(&file.path).ok()
                                == Some(persist::encode_bytes(&artifacts.trace, format)))
                }
                _ => false,
            };
            if let Err(e) = &verdict {
                out.notes.push(format!("{}: {e}", file.path.display()));
            }
            out.op(ok);
            file_ms.push(took);
            form_ms[file.form] += took;
            form_events[file.form] += file.events;
        }
        for f in 0..3 {
            form_eps[f].push(form_events[f] as f64 / (form_ms[f] / 1e3));
        }
        let events: usize = form_events.iter().sum();
        all_eps.push(events as f64 / (form_ms.iter().sum::<f64>() / 1e3));
        first = false;
    }

    out.metric("setup_s", setup_s, "s");
    out.metric("events_per_s", median(&all_eps), "1/s");
    latency_metrics(&mut out, &file_ms);
    for (f, (.., figure)) in FORMS.iter().enumerate() {
        out.detail.insert((*figure).into(), median(&form_eps[f]));
    }
    out.detail.insert("passes".into(), all_eps.len() as f64);
    out.detail.insert("files".into(), files.len() as f64);
    Ok(out)
}
