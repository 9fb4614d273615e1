//! Mutation fuzzing of the three text decoders: whole-file JSON traces,
//! JSONL traces and checkpoints.
//!
//! The parser returns values that borrow from the input by byte slicing,
//! so a mutated file must never land a slice off a char boundary or an
//! index past the end. Starting from valid encodings of a real
//! simulator recording, each case applies bit flips, truncations or
//! splices drawn from a fixed-seed generator and runs the load path
//! (`decode` then `ensure_valid`). Every case must return — `Ok`, or a
//! [`FaircrowdError`] — and never panic. The case count is fixed, so the
//! run is deterministic and takes a few seconds in a debug build.

use faircrowd_core::persist::{self, TraceFormat};
use faircrowd_core::{checkpoint, AuditConfig, LiveAuditor};
use faircrowd_model::error::FaircrowdError;
use faircrowd_model::trace::Trace;
use faircrowd_sim::{CampaignSpec, ScenarioConfig, Simulation, WorkerPopulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated inputs per seed document.
const CASES: usize = 2000;

/// A small simulator recording. The requester's name is multi-byte, so
/// string runs that end next to a non-ASCII character are exercised.
fn sim_trace() -> Trace {
    Simulation::new(ScenarioConfig {
        seed: 7,
        rounds: 6,
        workers: vec![WorkerPopulation::diligent(4)],
        campaigns: vec![CampaignSpec::labeling("äcmé 🎉", 5, 4)],
        ..Default::default()
    })
    .run()
}

/// The trace streamed halfway into a live auditor, then snapshotted.
fn mid_stream_checkpoint(trace: &Trace) -> checkpoint::Checkpoint {
    let mut auditor = LiveAuditor::new(AuditConfig::default());
    auditor.set_horizon(trace.horizon);
    auditor.set_disclosure(trace.disclosure.clone());
    auditor.set_ground_truth(trace.ground_truth.clone());
    for w in &trace.workers {
        auditor.add_worker(w.clone());
    }
    for t in &trace.tasks {
        auditor.add_task(t.clone());
    }
    for r in &trace.requesters {
        auditor.add_requester(r.clone());
    }
    for s in &trace.submissions {
        auditor.add_submission(s.clone());
    }
    for e in trace.events.iter().take(trace.events.len() / 2) {
        auditor.ingest(e.clone()).unwrap();
    }
    auditor.checkpoint(40)
}

/// One random corruption of `seed`: 1–4 bit flips, a truncation, or a
/// splice (a random chunk of the document copied over, or into,
/// another random position).
fn mutate(seed: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = seed.to_vec();
    match rng.gen_range(0..4u32) {
        0 => {
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        1 => out.truncate(rng.gen_range(0..out.len())),
        2 | 3 => {
            let from = rng.gen_range(0..seed.len());
            let len = rng.gen_range(1..=64usize).min(seed.len() - from);
            let chunk = &seed[from..from + len];
            let at = rng.gen_range(0..out.len());
            if rng.gen_bool(0.5) {
                let end = (at + len).min(out.len());
                out.splice(at..end, chunk.iter().copied());
            } else {
                out.splice(at..at, chunk.iter().copied());
            }
        }
        _ => unreachable!(),
    }
    out
}

/// Run `decode` over `CASES` mutations of `seed`; a panic fails the test
/// naming the case, so it can be replayed from the fixed generator.
fn survive(
    what: &str,
    seed: &[u8],
    rng_seed: u64,
    decode: impl Fn(&[u8]) -> Result<(), FaircrowdError>,
) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut rejected = 0;
    for case in 0..CASES {
        let input = mutate(seed, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| decode(&input))) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                assert!(!e.to_string().is_empty(), "{what} case {case}: empty error");
                rejected += 1;
            }
            Err(_) => panic!("{what} case {case} (rng seed {rng_seed}) panicked"),
        }
    }
    // The corruptions must actually reach the error paths.
    assert!(
        rejected > CASES / 4,
        "{what}: only {rejected} of {CASES} rejected"
    );
}

fn load_trace(bytes: &[u8]) -> Result<(), FaircrowdError> {
    persist::decode_bytes(bytes)?.ensure_valid()
}

#[test]
fn mutated_json_traces_never_panic() {
    let text = persist::encode(&sim_trace(), TraceFormat::Json);
    survive("json", text.as_bytes(), 0x5EED_0001, load_trace);
}

#[test]
fn mutated_jsonl_traces_never_panic() {
    let text = persist::encode(&sim_trace(), TraceFormat::Jsonl);
    survive("jsonl", text.as_bytes(), 0x5EED_0002, load_trace);
}

#[test]
fn mutated_checkpoints_never_panic() {
    let text = checkpoint::encode(&mid_stream_checkpoint(&sim_trace()));
    survive("checkpoint", text.as_bytes(), 0x5EED_0003, |bytes| {
        // `checkpoint::load` reads the file as UTF-8 text; a flip that
        // breaks the encoding reaches the decoder as replacement
        // characters, which exercises multi-byte slicing too.
        let ckpt = checkpoint::decode(&String::from_utf8_lossy(bytes))?;
        ckpt.ensure_valid()?;
        LiveAuditor::resume(AuditConfig::default(), &ckpt).map(drop)
    });
}
