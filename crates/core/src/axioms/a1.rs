//! Axiom 1 — worker fairness in task assignment.
//!
//! *"Given two different workers wi and wj, if Awi is similar to Awj and
//! Cwi is similar to Cwj, and Swi is similar to Swj, then wi and wj should
//! have access to the same tasks."*
//!
//! The quantifier domain is the set of **similar worker pairs** (composite
//! similarity ≥ `worker_threshold`). For each such pair we compare the
//! tasks the platform made visible to each worker, restricted to tasks
//! *both* qualify for — a platform is not at fault for withholding a task
//! a worker could not take. The per-pair score is the Jaccard overlap of
//! those access sets; the axiom score is the mean over pairs.
//!
//! Candidate pairs come pre-blocked from the [`TraceIndex`]
//! (skill-count buckets); the exact composite similarity is still
//! applied to every candidate, so the result is identical to the
//! exhaustive scan.

use crate::axiom::{Axiom, AxiomId, AxiomReport, ViolationCollector};
use crate::axioms::worker_similarity;
use crate::index::TraceIndex;
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::stats;

/// Checker for Axiom 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerAssignmentFairness;

impl Axiom for WorkerAssignmentFairness {
    fn id(&self) -> AxiomId {
        AxiomId::A1WorkerAssignment
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
        for (i, j) in ix.similar_worker_candidates(cfg) {
            let (wi, wj) = (&trace.workers[i], &trace.workers[j]);
            let sim = worker_similarity(wi, wj, cfg);
            if sim < cfg.worker_threshold {
                continue;
            }
            let o = ix.worker_access_overlap(i, j);
            let overlap = o.jaccard();
            overlaps.push(overlap);
            if overlap < 1.0 - 1e-9 {
                collector.push(1.0 - overlap, || {
                    crate::axioms::a1_witness(wi.id, wj.id, sim, &o, overlap)
                });
            }
        }

        if overlaps.is_empty() {
            return AxiomReport::vacuous(self.id(), "no similar worker pairs in the trace");
        }
        AxiomReport {
            axiom: self.id(),
            score: stats::mean(&overlaps),
            checked: overlaps.len(),
            violation_count: collector.total,
            truncated: collector.truncated(),
            violations: collector.items,
            notes: vec![format!(
                "similarity: skills via {}, threshold {:.2}",
                cfg.skill_measure.name(),
                cfg.worker_threshold
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
    fn equal_access_scores_one() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[0, 0], 10)]);
        for tid in 0..2 {
            show(&mut trace, 1, tid, 0);
            show(&mut trace, 1, tid, 1);
        }
        let r = WorkerAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 1);
        assert!((r.score - 1.0).abs() < 1e-12);
        assert!(r.holds());
    }

    #[test]
    fn exclusion_is_a_violation() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[0, 0], 10)]);
        // identical workers, but only w0 sees anything
        show(&mut trace, 1, 0, 0);
        show(&mut trace, 1, 1, 0);
        let r = WorkerAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.score, 0.0, "total exclusion is maximal discrimination");
        assert!(r.violations[0].description.contains("w0"));
        assert!(r.violations[0].severity > 0.99);
    }

    #[test]
    fn partial_overlap_scores_between() {
        let mut trace = skeleton(vec![
            task(0, 0, &[0, 0], 10),
            task(1, 1, &[0, 0], 10),
            task(2, 0, &[0, 0], 10),
        ]);
        // w0 sees t0,t1; w1 sees t0,t2 -> jaccard 1/3
        show(&mut trace, 1, 0, 0);
        show(&mut trace, 1, 1, 0);
        show(&mut trace, 1, 0, 1);
        show(&mut trace, 1, 2, 1);
        let r = WorkerAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn dissimilar_workers_are_not_compared() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        // make w1 clearly different in skills
        trace.workers[1] = worker(1, &[0, 0]);
        show(&mut trace, 1, 0, 0);
        let r = WorkerAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0);
        assert_eq!(r.score, 1.0, "vacuously satisfied");
    }

    #[test]
    fn unqualified_tasks_do_not_count() {
        // one task needs a skill neither worker has; not seeing it is fine
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[1, 0, 1], 10)]);
        trace.workers[0] = worker(0, &[1, 1, 0]);
        trace.workers[1] = worker(1, &[1, 1, 0]);
        show(&mut trace, 1, 0, 0);
        show(&mut trace, 1, 0, 1);
        let r = WorkerAssignmentFairness.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn witness_cap_respected() {
        // 4 identical workers, only w0 sees the task -> 3 violating pairs
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.workers = (0..4).map(|i| worker(i, &[1, 1])).collect();
        show(&mut trace, 1, 0, 0);
        let r = WorkerAssignmentFairness.check_trace(&trace, &cfg(), 2);
        assert_eq!(r.violation_count, 3);
        assert_eq!(r.violations.len(), 2);
        assert!(r.truncated);
    }
}
