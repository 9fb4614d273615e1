//! Axiom 3 — fairness in worker compensation.
//!
//! *"Given two distinct workers wi and wj who contributed to the same task
//! t, if their contributions are similar, they should receive the same
//! reward dt."*
//!
//! The quantifier domain is the set of same-task submission pairs by
//! distinct workers whose contributions are similar under the
//! kind-appropriate measure (equality for labels, n-gram cosine for text,
//! DCG-based similarity for rankings — §3.2.1). A pair satisfies the axiom
//! when the two submissions were paid the same total amount; unpaid
//! (rejected) submissions count as zero, so wrongful rejection of work
//! identical to paid work is caught here.

use crate::axiom::{Axiom, AxiomId, AxiomReport, ViolationCollector};
use crate::index::{contribution_candidates, TraceIndex};
use faircrowd_model::money::Credits;
use faircrowd_model::similarity::SimilarityConfig;

/// Checker for Axiom 3.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompensationFairness;

impl Axiom for CompensationFairness {
    fn id(&self) -> AxiomId {
        AxiomId::A3Compensation
    }

    fn check(
        &self,
        ix: &TraceIndex<'_>,
        cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport {
        let payments = ix.payments();

        let mut pairs = 0usize;
        let mut satisfied = 0usize;
        let mut collector = ViolationCollector::new(self.id(), max_witnesses);

        for (task, subs) in ix.submissions_by_task() {
            // Candidate pairs come kind/label-blocked: any pruned pair
            // has similarity exactly 0 and could never clear a positive
            // threshold.
            for (i, j) in
                contribution_candidates(subs, |s| &s.contribution, cfg.contribution_threshold)
            {
                let (si, sj) = (subs[i], subs[j]);
                if si.worker == sj.worker {
                    continue; // the axiom compares *distinct* workers
                }
                let sim = si.contribution.similarity(&sj.contribution);
                if sim < cfg.contribution_threshold {
                    continue;
                }
                pairs += 1;
                let pi = payments.get(si.id).copied().unwrap_or(Credits::ZERO);
                let pj = payments.get(sj.id).copied().unwrap_or(Credits::ZERO);
                if pi == pj {
                    satisfied += 1;
                } else {
                    let max = pi.max(pj).millicents().max(1) as f64;
                    let severity = pi.abs_diff(pj).millicents() as f64 / max;
                    collector.push(severity, || {
                        format!(
                            "task {task}: workers {} and {} made similar contributions \
                             (sim {:.2}) but were paid {} vs {}",
                            si.worker, sj.worker, sim, pi, pj
                        )
                    });
                }
            }
        }

        if pairs == 0 {
            return AxiomReport::vacuous(
                self.id(),
                "no similar same-task contribution pairs in the trace",
            );
        }
        AxiomReport {
            axiom: self.id(),
            score: satisfied as f64 / pairs as f64,
            checked: pairs,
            violation_count: collector.total,
            truncated: collector.truncated(),
            violations: collector.items,
            notes: vec![format!(
                "contribution similarity threshold {:.2} (kind-specific measures)",
                cfg.contribution_threshold
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use faircrowd_model::contribution::Contribution;

    fn cfg() -> SimilarityConfig {
        SimilarityConfig::default()
    }

    #[test]
    fn equal_pay_for_equal_labels_holds() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        pay(&mut trace, 200, s1, 1, 10);
        let r = CompensationFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 1);
        assert!((r.score - 1.0).abs() < 1e-12);
        assert!(r.holds());
    }

    #[test]
    fn unequal_pay_for_same_label_violates() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let _s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        // w1 never paid (wrongful rejection)
        let r = CompensationFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.violation_count, 1);
        assert_eq!(r.score, 0.0);
        assert!((r.violations[0].severity - 1.0).abs() < 1e-9);
        assert!(r.violations[0].description.contains("$0.10"));
    }

    #[test]
    fn different_labels_not_compared() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let _s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(0));
        pay(&mut trace, 200, s0, 0, 10);
        let r = CompensationFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0, "different answers need not be paid alike");
    }

    #[test]
    fn similar_text_detected_via_ngrams() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 20)]);
        let text_a = "the committee approved the annual budget proposal for next year";
        let text_b = "the committee approved the annual budget proposal for next years";
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Text(text_a.into()));
        let s1 = submit(&mut trace, 110, 0, 1, Contribution::Text(text_b.into()));
        pay(&mut trace, 200, s0, 0, 20);
        pay(&mut trace, 200, s1, 1, 5);
        let r = CompensationFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.violation_count, 1);
        assert!(r.violations[0].severity > 0.5);
    }

    #[test]
    fn same_worker_pairs_skipped() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let _s1 = submit(&mut trace, 110, 0, 0, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        let r = CompensationFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0);
    }

    #[test]
    fn cross_task_pairs_never_compared() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[0, 0], 50)]);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let s1 = submit(&mut trace, 110, 1, 1, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        pay(&mut trace, 200, s1, 1, 50);
        let r = CompensationFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0, "different tasks may pay differently");
    }

    #[test]
    fn partial_pay_difference_has_partial_severity() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let s0 = submit(&mut trace, 100, 0, 0, Contribution::Label(1));
        let s1 = submit(&mut trace, 110, 0, 1, Contribution::Label(1));
        pay(&mut trace, 200, s0, 0, 10);
        pay(&mut trace, 200, s1, 1, 8);
        let r = CompensationFairness.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.violation_count, 1);
        assert!((r.violations[0].severity - 0.2).abs() < 1e-9);
    }
}
