//! Trace pins for the frontier's assignment cells.
//!
//! `tests/converge.rs` pins every legacy scenario under its own
//! policy. The policy frontier runs other policies: `round_robin` and
//! `kos`, each bare and under the exposure-parity repair, on static
//! and strategic scenarios, and every other registry policy that
//! builds its own visibility sets. These pins hold FNV-1a 64 over the
//! JSONL encoding of each such trace, so a faster assignment or
//! visibility path must reproduce the old markets byte for byte.

use faircrowd::core::persist::{self, TraceFormat};
use faircrowd::sim::{catalog, converge, ConvergeOptions, PolicyChoice, ScenarioConfig};

/// FNV-1a 64, as in `tests/converge.rs`.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `name` or `parity+name`: a registry policy, optionally wrapped in
/// the exposure-parity repair exactly as `--enforce parity` wraps it.
fn policy(spec: &str) -> PolicyChoice {
    match spec.strip_prefix("parity+") {
        Some(base) => PolicyChoice::ParityOver(Box::new(policy(base))),
        None => PolicyChoice::by_name(spec).unwrap(),
    }
}

fn config(scenario: &str, scale: f64, rounds: u32, spec: &str) -> ScenarioConfig {
    let mut cfg = catalog::get(scenario).unwrap().at_scale(scale);
    cfg.seed = 3;
    cfg.rounds = rounds;
    cfg.policy = policy(spec);
    cfg
}

fn check(label: &str, trace: &faircrowd::model::Trace, pinned: u64) {
    let got = fnv64(persist::encode(trace, TraceFormat::Jsonl).as_bytes());
    assert_eq!(got, pinned, "{label}: trace drifted (computed {got:#018x})");
}

/// Static cells: scale 4, rounds 24, seed 3.
const STATIC_PINS: [(&str, &str, u64); 8] = [
    ("baseline", "round_robin", 0xfc6e_874d_dd13_4b01),
    ("baseline", "kos", 0xf86a_1b7c_8b80_dbe6),
    ("baseline", "parity+round_robin", 0xfc6e_874d_dd13_4b01),
    ("baseline", "parity+kos", 0xbde6_d137_d107_4066),
    ("worker_churn", "round_robin", 0xfb03_ec5b_3520_0ca3),
    ("worker_churn", "kos", 0x5716_7212_41f4_c276),
    ("worker_churn", "parity+round_robin", 0xfb03_ec5b_3520_0ca3),
    ("worker_churn", "parity+kos", 0xc29e_7f6c_97f1_eb5d),
];

/// The other registry policies with their own visibility paths, on
/// `baseline` at scale 4, rounds 24, seed 3.
const REGISTRY_PINS: [(&str, u64); 6] = [
    ("self_selection", 0x0a89_5adc_f171_6744),
    ("online_greedy", 0x9d52_81a8_bda3_db5e),
    ("worker_centric", 0x0caf_6e0c_c986_40cf),
    ("floor", 0x0fc6_c0a9_75f7_c13a),
    ("budget_diverse", 0x6589_3334_8db0_de8c),
    ("fair_delivery", 0xfc6e_874d_dd13_4b01),
];

/// Converged `undercut_churn` cells: scale 1, rounds 12, seed 3.
const CONVERGED_PINS: [(&str, u64); 4] = [
    ("round_robin", 0x2d77_1794_642b_44c0),
    ("kos", 0xdc73_c5bd_09d6_899e),
    ("parity+round_robin", 0x2d77_1794_642b_44c0),
    ("parity+kos", 0xe903_01dd_dc68_eab4),
];

#[test]
fn static_policy_cells_reproduce_their_pinned_traces() {
    for (scenario, spec, pinned) in STATIC_PINS {
        let trace = faircrowd::sim::run(config(scenario, 4.0, 24, spec));
        check(&format!("{scenario} {spec}"), &trace, pinned);
    }
}

#[test]
fn registry_policy_cells_reproduce_their_pinned_traces() {
    for (spec, pinned) in REGISTRY_PINS {
        let trace = faircrowd::sim::run(config("baseline", 4.0, 24, spec));
        check(&format!("baseline {spec}"), &trace, pinned);
    }
}

#[test]
fn converged_policy_cells_reproduce_their_pinned_fixed_points() {
    for (spec, pinned) in CONVERGED_PINS {
        let cfg = config("undercut_churn", 1.0, 12, spec);
        let converged = converge::run(cfg, &ConvergeOptions::default()).unwrap();
        assert!(
            converged.iterations >= 2,
            "{spec}: strategic market must adapt"
        );
        check(&format!("undercut_churn {spec}"), &converged.trace, pinned);
    }
}
