//! Writes the audit perf baseline (`BENCH_audit.json`).
//!
//! Times full seven-axiom audits of the `baseline` catalog scenario at
//! scales 1 / 4 / 16 through the three engine paths — naive reference,
//! indexed serial, indexed parallel — and prints a JSON summary. The
//! repo keeps a checked-in copy at the root so the perf trajectory is
//! tracked in review:
//!
//! ```text
//! cargo run --release --bin audit_baseline > BENCH_audit.json
//! ```
//!
//! Timings are medians over repeated runs on whatever machine executes
//! this; the meaningful numbers are the *speedup ratios*, which are
//! hardware-stable. All three paths return bit-identical reports (the
//! binary asserts it), so the ratios compare equal work.
//!
//! `baseline` under its own self-selection policy has no violations,
//! so the `witness_scales` rows re-run the same scales under `kos`, the
//! frontier study's violation-heavy cell (640,000 A2 violations at
//! scale 16). The indexed paths render witness text only for the 25
//! violations kept per axiom while the naive path renders all of them,
//! so the asserted equality there pins the retained witnesses; those
//! rows time the indexed paths only.

use faircrowd_core::{AuditConfig, AuditEngine, AxiomId};
use faircrowd_model::trace::Trace;
use faircrowd_sim::{catalog, PolicyChoice, Simulation};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock milliseconds of `runs` executions of `f`.
fn median_ms<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Repetitions per timed path at a scale.
fn runs_at(scale: u32) -> usize {
    match scale {
        1 => 15,
        4 => 9,
        _ => 5,
    }
}

fn main() {
    let parallel = AuditEngine::with_defaults();
    let serial = AuditEngine::new(AuditConfig {
        parallel: false,
        ..AuditConfig::default()
    });

    let mut rows = String::new();
    for (i, scale) in [1u32, 4, 16].into_iter().enumerate() {
        let config = catalog::get("baseline")
            .expect("baseline is in the catalog")
            .at_scale(f64::from(scale));
        let trace: Trace = Simulation::new(config).run();

        // Equal work or the ratios are meaningless.
        let reference = parallel.run_naive(&trace, &AxiomId::ALL);
        assert_eq!(parallel.run(&trace), reference, "parallel ≠ naive");
        assert_eq!(serial.run(&trace), reference, "serial ≠ naive");

        let runs = runs_at(scale);
        let naive_ms = median_ms(runs, || {
            black_box(parallel.run_naive(black_box(&trace), &AxiomId::ALL));
        });
        let serial_ms = median_ms(runs, || {
            black_box(serial.run(black_box(&trace)));
        });
        let parallel_ms = median_ms(runs, || {
            black_box(parallel.run(black_box(&trace)));
        });

        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"scale\": {scale}, \"workers\": {}, \"tasks\": {}, \"events\": {}, \
             \"naive_ms\": {naive_ms:.3}, \"indexed_serial_ms\": {serial_ms:.3}, \
             \"indexed_parallel_ms\": {parallel_ms:.3}, \
             \"speedup_serial\": {:.2}, \"speedup_parallel\": {:.2}}}",
            trace.workers.len(),
            trace.tasks.len(),
            trace.events.len(),
            naive_ms / serial_ms,
            naive_ms / parallel_ms,
        );
    }

    let mut witness_rows = String::new();
    for (i, scale) in [1u32, 4, 16].into_iter().enumerate() {
        let mut config = catalog::get("baseline")
            .expect("baseline is in the catalog")
            .at_scale(f64::from(scale));
        config.policy = PolicyChoice::by_name("kos").expect("kos is a registry policy");
        let trace: Trace = Simulation::new(config).run();

        let reference = parallel.run_naive(&trace, &AxiomId::ALL);
        assert_eq!(parallel.run(&trace), reference, "kos: parallel ≠ naive");
        assert_eq!(serial.run(&trace), reference, "kos: serial ≠ naive");
        let violations: usize = reference.axioms.iter().map(|a| a.violation_count).sum();
        let retained: usize = reference.axioms.iter().map(|a| a.violations.len()).sum();

        let runs = runs_at(scale);
        let serial_ms = median_ms(runs, || {
            black_box(serial.run(black_box(&trace)));
        });
        let parallel_ms = median_ms(runs, || {
            black_box(parallel.run(black_box(&trace)));
        });

        if i > 0 {
            witness_rows.push_str(",\n");
        }
        let _ = write!(
            witness_rows,
            "    {{\"scale\": {scale}, \"events\": {}, \"violations\": {violations}, \
             \"retained\": {retained}, \"indexed_serial_ms\": {serial_ms:.3}, \
             \"indexed_parallel_ms\": {parallel_ms:.3}}}",
            trace.events.len(),
        );
    }

    println!(
        "{{\n  \"bench\": \"audit\",\n  \"scenario\": \"baseline\",\n  \"axioms\": 7,\n  \
         \"paths\": [\"naive\", \"indexed_serial\", \"indexed_parallel\"],\n  \
         \"unit\": \"ms (median)\",\n  \"scales\": [\n{rows}\n  ],\n  \
         \"witness_policy\": \"kos\",\n  \"witness_scales\": [\n{witness_rows}\n  ]\n}}"
    );
}
