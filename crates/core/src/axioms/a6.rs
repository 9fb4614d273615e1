//! Axiom 6 — requester transparency.
//!
//! *"A requester must make available requester-dependent working
//! conditions such as hourly wage and time between submission of work and
//! payment, and task-dependent working conditions such as recruitment
//! criteria and rejection criteria."*
//!
//! Five obligations per task: hourly wage, payment delay, recruitment
//! criteria, rejection criteria, evaluation scheme. An obligation is met
//! when the task's own disclosed conditions carry it **or** the platform
//! discloses the corresponding item to workers globally (a platform-level
//! disclosure substitutes for a requester-level one — that is exactly how
//! Turkbench-style tools patch opaque requesters). The score is the mean
//! obligation coverage over tasks.

use crate::axiom::{Axiom, AxiomId, AxiomReport, ViolationCollector};
use crate::index::TraceIndex;
use faircrowd_model::disclosure::{Audience, DisclosureItem};
use faircrowd_model::similarity::SimilarityConfig;
use faircrowd_model::stats;
use faircrowd_model::task::Task;

/// Checker for Axiom 6.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequesterTransparency;

/// Obligation coverage of one task under a platform disclosure set: the
/// fraction met and the names still missing. Shared by this checker,
/// the naive reference and the live monitor, so the three can never
/// disagree on what a task owes (or drift on the obligation count).
pub(crate) fn obligation_coverage(
    task: &Task,
    disclosure: &faircrowd_model::disclosure::DisclosureSet,
) -> (f64, Vec<&'static str>) {
    let obligations = obligations(task);
    let total = obligations.len();
    let mut missing = Vec::new();
    let mut met = 0usize;
    for (item, task_level) in obligations {
        if task_level || disclosure.allows(item, Audience::Workers) {
            met += 1;
        } else {
            missing.push(item.name());
        }
    }
    (met as f64 / total as f64, missing)
}

/// The five obligations: item + whether the task's own conditions carry it.
pub(crate) fn obligations(task: &Task) -> [(DisclosureItem, bool); 5] {
    let c = &task.conditions;
    [
        (DisclosureItem::HourlyWage, c.stated_hourly_wage.is_some()),
        (
            DisclosureItem::PaymentDelay,
            c.stated_payment_delay.is_some(),
        ),
        (
            DisclosureItem::RecruitmentCriteria,
            c.recruitment_criteria.is_some(),
        ),
        (
            DisclosureItem::RejectionCriteria,
            c.rejection_criteria.is_some(),
        ),
        (
            DisclosureItem::EvaluationScheme,
            c.evaluation_scheme.is_some(),
        ),
    ]
}

impl Axiom for RequesterTransparency {
    fn id(&self) -> AxiomId {
        AxiomId::A6RequesterTransparency
    }

    fn check(
        &self,
        ix: &TraceIndex<'_>,
        _cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport {
        let trace = ix.trace();
        if trace.tasks.is_empty() {
            return AxiomReport::vacuous(self.id(), "no tasks in the trace");
        }
        let mut coverages = Vec::with_capacity(trace.tasks.len());
        let mut collector = ViolationCollector::new(self.id(), max_witnesses);
        for task in &trace.tasks {
            let (coverage, missing) = obligation_coverage(task, &trace.disclosure);
            coverages.push(coverage);
            if !missing.is_empty() {
                collector.push(1.0 - coverage, || {
                    format!(
                        "task {} (requester {}) does not disclose: {}",
                        task.id,
                        task.requester,
                        missing.join(", ")
                    )
                });
            }
        }
        AxiomReport {
            axiom: self.id(),
            score: stats::mean(&coverages),
            checked: trace.tasks.len(),
            violation_count: collector.total,
            truncated: collector.truncated(),
            violations: collector.items,
            notes: vec![
                "an obligation is met by task-level conditions or a platform-wide grant".to_owned(),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use faircrowd_model::disclosure::DisclosureSet;
    use faircrowd_model::money::Credits;
    use faircrowd_model::task::TaskConditions;
    use faircrowd_model::time::SimDuration;
    use faircrowd_model::trace::Trace;

    fn cfg() -> SimilarityConfig {
        SimilarityConfig::default()
    }

    #[test]
    fn fully_disclosed_task_scores_one() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.tasks[0].conditions =
            TaskConditions::fully_disclosed(Credits::from_dollars(6), SimDuration::from_days(1));
        let r = RequesterTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0).abs() < 1e-12);
        assert!(r.holds());
    }

    #[test]
    fn opaque_task_scores_zero_and_lists_missing() {
        let trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let r = RequesterTransparency.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.score, 0.0);
        assert_eq!(r.violation_count, 1);
        assert!(r.violations[0].description.contains("hourly_wage"));
        assert!(r.violations[0].description.contains("rejection_criteria"));
    }

    #[test]
    fn platform_grant_substitutes_for_task_conditions() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.disclosure = DisclosureSet::opaque()
            .with(DisclosureItem::HourlyWage, Audience::Workers)
            .with(DisclosureItem::PaymentDelay, Audience::Public);
        let r = RequesterTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 0.4).abs() < 1e-12);
    }

    #[test]
    fn partial_conditions_partial_score() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        trace.tasks[0].conditions.rejection_criteria = Some("gold failures".into());
        trace.tasks[0].conditions.evaluation_scheme = Some("majority".into());
        let r = RequesterTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 0.4).abs() < 1e-12);
        assert!((r.violations[0].severity - 0.6).abs() < 1e-9);
    }

    #[test]
    fn mixed_tasks_average() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10), task(1, 1, &[0, 0], 10)]);
        trace.tasks[0].conditions =
            TaskConditions::fully_disclosed(Credits::from_dollars(6), SimDuration::from_days(1));
        let r = RequesterTransparency.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 0.5).abs() < 1e-12);
        assert_eq!(r.violation_count, 1);
    }

    #[test]
    fn empty_trace_is_vacuous() {
        let trace = Trace::default();
        let r = RequesterTransparency.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0);
        assert_eq!(r.score, 1.0);
    }
}
