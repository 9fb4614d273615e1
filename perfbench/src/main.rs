//! The faircrowd benchmark: three workloads of the auditor, each with
//! end-to-end metrics (untraced) and per-layer metrics (traced).
//!
//! ```text
//! perfbench --workload study|recorded_audit|live_markets --seed N \
//!           --seconds S --trace 0|1 --workdir DIR --metrics NAME:UNIT,...
//! ```
//!
//! `--metrics` lists the metrics of the result line with their units,
//! as `BENCHMARK.json` names them (`run.py` passes them); a workload
//! that yields any other set is an error.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Earlier lines carry
//! the workload's own detail figures. See `README.md` for what each
//! workload and metric means.

mod common;
mod live;
mod recorded;
mod study;
mod tracer;

use common::{Ctx, Outcome};
use std::collections::BTreeMap;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload study|recorded_audit|live_markets --seed N \
         --seconds S --trace 0|1 --workdir DIR --metrics NAME:UNIT,..."
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Ctx) {
    let mut args: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(key) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument `{flag}`"));
        };
        let Some(value) = it.next() else {
            usage(&format!("`{flag}` needs a value"));
        };
        args.insert(key.to_owned(), value);
    }
    let get = |key: &str| {
        args.get(key)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing --{key}")))
    };
    for key in args.keys() {
        if !["workload", "seed", "seconds", "trace", "workdir", "metrics"].contains(&key.as_str()) {
            usage(&format!("unknown flag `--{key}`"));
        }
    }
    let seed = get("seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed expects an unsigned integer"));
    let seconds: u64 = get("seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds expects an unsigned integer"));
    let trace = match get("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace expects 0 or 1"),
    };
    let metrics = get("metrics")
        .split(',')
        .map(|m| match m.split_once(':') {
            Some((name, unit)) if !name.is_empty() && !unit.is_empty() => {
                (name.to_owned(), unit.to_owned())
            }
            _ => usage(&format!("--metrics expects NAME:UNIT, not `{m}`")),
        })
        .collect();
    let ctx = Ctx {
        seed,
        budget: Duration::from_secs(seconds.max(1)),
        trace,
        workdir: get("workdir").into(),
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        metrics,
    };
    (get("workload"), ctx)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() {
    let (workload, ctx) = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.workdir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.workdir.display());
        std::process::exit(1);
    }
    let result: Result<Outcome, String> = match workload.as_str() {
        "study" => study::run(&ctx),
        "recorded_audit" => recorded::run(&ctx),
        "live_markets" => live::run(&ctx),
        other => usage(&format!("unknown workload `{other}`")),
    };
    std::fs::remove_dir_all(&ctx.workdir).ok();
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    if !ctx.trace {
        outcome.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    }
    let produced: Vec<(&str, &str)> = outcome
        .metrics
        .iter()
        .map(|(name, (_, unit))| (name.as_str(), unit.as_str()))
        .collect();
    let mut listed: Vec<(&str, &str)> = ctx
        .metrics
        .iter()
        .map(|(name, unit)| (name.as_str(), unit.as_str()))
        .collect();
    listed.sort_unstable();
    if produced != listed {
        eprintln!("perfbench: {workload}: metrics {produced:?} differ from --metrics {listed:?}");
        std::process::exit(1);
    }
    for note in &outcome.notes {
        eprintln!("perfbench: {workload}: {note}");
    }

    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
