//! Axiom 2 — requester fairness in task assignment.
//!
//! *"Given two tasks ti and tj posted by different requesters idri and
//! idrj, if the required skills for the two tasks Sti and Stj are similar,
//! and the two tasks offer comparable rewards dti and dtj, then ti and tj
//! should be shown to the same set of workers."*
//!
//! The quantifier domain is the set of cross-requester task pairs with
//! similar skill requirements (kernel from the config — the paper suggests
//! cosine) and comparable rewards (relative tolerance). The per-pair score
//! is the Jaccard overlap of the two tasks' audiences, restricted to
//! workers qualified for both.

use crate::axiom::{Axiom, AxiomId, AxiomReport, ViolationCollector};
use crate::index::TraceIndex;
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::stats;

/// Checker for Axiom 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequesterAssignmentFairness;

impl Axiom for RequesterAssignmentFairness {
    fn id(&self) -> AxiomId {
        AxiomId::A2RequesterAssignment
    }

    fn check(
        &self,
        ix: &TraceIndex<'_>,
        cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport {
        let trace = ix.trace();

        let mut overlaps = Vec::new();
        let mut collector = ViolationCollector::new(self.id(), max_witnesses);
        for (i, j) in ix.comparable_task_candidates(cfg) {
            let (ti, tj) = (&trace.tasks[i], &trace.tasks[j]);
            if ti.requester == tj.requester {
                continue; // the axiom compares *different* requesters
            }
            let skill_sim = cfg.skill_measure.score(&ti.skills, &tj.skills);
            if skill_sim < cfg.task_skill_threshold
                || !ti.reward_comparable(tj, cfg.reward_tolerance)
            {
                continue;
            }
            let o = ix.task_audience_overlap(i, j);
            let overlap = o.jaccard();
            overlaps.push(overlap);
            if overlap < 1.0 - 1e-9 {
                collector.push(1.0 - overlap, || {
                    crate::axioms::a2_witness(ti, tj, skill_sim, o.left, o.right, overlap)
                });
            }
        }

        if overlaps.is_empty() {
            return AxiomReport::vacuous(
                self.id(),
                "no comparable cross-requester task pairs in the trace",
            );
        }
        AxiomReport {
            axiom: self.id(),
            score: stats::mean(&overlaps),
            checked: overlaps.len(),
            violation_count: collector.total,
            truncated: collector.truncated(),
            violations: collector.items,
            notes: vec![format!(
                "skill kernel {} ≥ {:.2}, reward tolerance {:.0}%",
                cfg.skill_measure.name(),
                cfg.task_skill_threshold,
                cfg.reward_tolerance * 100.0
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;

    fn cfg() -> SimilarityConfig {
        SimilarityConfig::default()
    }

    #[test]
    fn equal_audiences_score_one() {
        let mut trace = skeleton(vec![task(0, 0, &[1, 0], 10), task(1, 1, &[1, 0], 10)]);
        for tid in 0..2 {
            show(&mut trace, 1, tid, 0);
            show(&mut trace, 1, tid, 1);
        }
        let r = RequesterAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 1);
        assert!((r.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hidden_competitor_task_is_a_violation() {
        let mut trace = skeleton(vec![task(0, 0, &[1, 0], 10), task(1, 1, &[1, 0], 10)]);
        // r0's task shown to both workers; r1's comparable task shown to none
        show(&mut trace, 1, 0, 0);
        show(&mut trace, 1, 0, 1);
        let r = RequesterAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.score, 0.0);
        assert!(r.violations[0].description.contains("r1"));
    }

    #[test]
    fn truncated_witnesses_match_the_naive_oracle() {
        use crate::audit::{AuditConfig, AuditEngine};
        // Eight r0 tasks shown to both workers, eight comparable r1
        // tasks shown to one: 64 violating pairs against a cap of 5.
        let tasks = (0..16).map(|i| task(i, i / 8, &[1, 0], 10)).collect();
        let mut trace = skeleton(tasks);
        for tid in 0..8 {
            show(&mut trace, 1, tid, 0);
            show(&mut trace, 1, tid, 1);
            show(&mut trace, 1, tid + 8, 0);
        }
        let engine = AuditEngine::new(AuditConfig {
            max_witnesses: 5,
            ..AuditConfig::default()
        });
        let ids = [AxiomId::A2RequesterAssignment];
        let indexed = &engine.run_axioms(&trace, &ids).axioms[0];
        let naive = &engine.run_naive(&trace, &ids).axioms[0];
        assert_eq!(indexed.violation_count, 64);
        assert_eq!(indexed.violation_count, naive.violation_count);
        assert!(indexed.truncated && naive.truncated);
        assert_eq!(indexed.violations.len(), 5);
        assert_eq!(indexed.violations, naive.violations);
    }

    #[test]
    fn same_requester_pairs_skipped() {
        let mut trace = skeleton(vec![task(0, 0, &[1, 0], 10), task(1, 0, &[1, 0], 10)]);
        show(&mut trace, 1, 0, 0);
        let r = RequesterAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0, "same-requester pairs are out of scope");
    }

    #[test]
    fn incomparable_rewards_skipped() {
        let mut trace = skeleton(vec![task(0, 0, &[1, 0], 10), task(1, 1, &[1, 0], 50)]);
        show(&mut trace, 1, 0, 0);
        let r = RequesterAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0, "5x reward difference is not comparable");
    }

    #[test]
    fn dissimilar_skills_skipped() {
        let mut trace = skeleton(vec![task(0, 0, &[1, 0], 10), task(1, 1, &[0, 1], 10)]);
        show(&mut trace, 1, 0, 0);
        let r = RequesterAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn audience_restricted_to_qualified_workers() {
        // w1 lacks the needed skill; their absence from audiences is fine
        let mut trace = skeleton(vec![task(0, 0, &[1, 0], 10), task(1, 1, &[1, 0], 10)]);
        trace.workers[1] = worker(1, &[0, 1]);
        show(&mut trace, 1, 0, 0);
        show(&mut trace, 1, 1, 0);
        let r = RequesterAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0).abs() < 1e-12);
    }
}
