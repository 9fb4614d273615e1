//! Sweep determinism and catalog round-trip guarantees.
//!
//! The sweep engine promises that its aggregate exports are a pure
//! function of the grid — the worker-thread count must never leak into
//! the output. These tests pin that promise byte-for-byte, and check
//! that every named scenario in the catalog parses, validates and runs
//! end to end.

use faircrowd::prelude::*;
use faircrowd::sim::catalog;
use faircrowd::sweep::shard::{merge_paths, run_shard, ShardSpec};
use faircrowd::sweep::{run_grid, run_grid_opts, SweepResult};

/// The acceptance grid, shrunk in rounds so the full matrix (every
/// registry policy × 8 seeds × 2 scenarios) stays fast in CI.
const GRID: &str = "policy=*;seed=0..8;scenario=baseline,spam_campaign;rounds=8";

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let grid = SweepGrid::parse(GRID).unwrap();
    let serial = run_grid(&grid, 1).unwrap();
    let parallel = run_grid(&grid, 8).unwrap();
    assert_eq!(
        serial.cases.len(),
        faircrowd::assign::registry::NAMES.len() * 8 * 2
    );
    assert_eq!(serial.cases.len(), parallel.cases.len());
    assert_eq!(serial.groups.len(), parallel.groups.len());
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "JSON must not depend on --jobs"
    );
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "CSV must not depend on --jobs"
    );
    assert_eq!(serial.render_table(), parallel.render_table());
}

/// The frontier's shape: every aggregator under both repairs and both
/// assignment policies, on a static and a strategic (converged)
/// scenario. Aggregator-only variants share one unit of work.
const UNIT_GRID: &str = "scenario=baseline,undercut_churn;policy=round_robin,kos;\
                         aggregator=*;enforce=none,parity;seed=1,2;rounds=6";

fn exports(result: &SweepResult) -> [String; 3] {
    [result.to_json(), result.to_csv(), result.render_table()]
}

#[test]
fn unit_sweeps_match_the_uncached_oracle_across_jobs_and_shards() {
    let grid = SweepGrid::parse(UNIT_GRID).unwrap();
    let oracle = exports(&run_grid_opts(&grid, 2, false).unwrap());
    for jobs in [1, 2, 3] {
        let units = exports(&run_grid_opts(&grid, jobs, true).unwrap());
        assert!(
            units == oracle,
            "--jobs {jobs} differs from the uncached oracle"
        );
    }
    for shards in [2, 3] {
        let dir =
            std::env::temp_dir().join(format!("fc_sweep_units_{}_{shards}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<_> = (1..=shards)
            .map(|index| {
                let path = dir.join(format!("part-{index}.json"));
                let spec = ShardSpec {
                    index,
                    count: shards,
                };
                run_shard(&grid, spec, &path, 2).unwrap();
                path
            })
            .collect();
        let merged = exports(&merge_paths(&paths).unwrap());
        assert!(
            merged == oracle,
            "{shards}-shard merge differs from the oracle"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn sweep_aggregates_do_not_depend_on_seed_axis_order() {
    let forward = run_grid(
        &SweepGrid::parse("policy=round_robin;seed=1,2,3;rounds=8").unwrap(),
        2,
    )
    .unwrap();
    let backward = run_grid(
        &SweepGrid::parse("policy=round_robin;seed=3,1,2;rounds=8").unwrap(),
        2,
    )
    .unwrap();
    // Same multiset of seeds → identical aggregate exports (cases keep
    // their own order, so only group-level output is order-free).
    assert_eq!(forward.to_csv(), backward.to_csv());
    assert_eq!(forward.groups[0].seeds, vec![1, 2, 3]);
    assert_eq!(backward.groups[0].seeds, vec![1, 2, 3]);
}

#[test]
fn every_catalog_preset_round_trips() {
    for name in catalog::NAMES {
        // Parses and validates…
        let config = catalog::get(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        config.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        // …and runs two rounds end to end through the Pipeline (late
        // surge campaigns post at round 0 so they fit the short horizon).
        let result = Pipeline::new()
            .scenario_name(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .configure(|c| {
                c.rounds = 2;
                for campaign in &mut c.campaigns {
                    campaign.post_round = 0;
                }
            })
            .run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(result.baseline.report.axioms.len(), 7, "{name}");
        assert!(result.config.validate().is_ok(), "{name}");
    }
}

#[test]
fn catalog_and_cli_spellings_agree() {
    // Hyphens/case resolve exactly like the policy registry.
    assert_eq!(
        catalog::get("Transparent-Utopia").unwrap(),
        catalog::get("transparent_utopia").unwrap()
    );
    // Scenario configs surfaced through the sweep match direct lookup.
    let cases = SweepGrid::parse("scenario=flash_crowd")
        .unwrap()
        .expand()
        .unwrap();
    assert_eq!(cases[0].rounds, catalog::get("flash_crowd").unwrap().rounds);
}

#[test]
fn scale_axis_grows_the_market() {
    let grid = SweepGrid::parse("scenario=baseline;scale=1,2;rounds=8").unwrap();
    let result = run_grid(&grid, 2).unwrap();
    assert_eq!(result.groups.len(), 2);
    let (small, large) = (&result.cases[0], &result.cases[1]);
    assert!(
        large.summary.submissions > small.summary.submissions,
        "a 2× market should produce more submissions ({} vs {})",
        large.summary.submissions,
        small.summary.submissions
    );
}
