//! Axiom 5 — worker fairness in task completion.
//!
//! *"A worker who started completing a task should not be interrupted."*
//!
//! This is the §3.1.1 survey-cancellation scenario: a requester reaches
//! their target and cancels, leaving mid-task workers unpaid for their
//! effort. Every `WorkInterrupted` audit event is a violation witness;
//! compensated interruptions count at half severity (the worker still
//! lost the task but not the time). The score is the fraction of started
//! work items that ran to completion, weighted accordingly.

use crate::axiom::{Axiom, AxiomId, AxiomReport, ViolationCollector};
use crate::index::TraceIndex;
use faircrowd_model::similarity::SimilarityConfig;

/// Checker for Axiom 5.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoInterruption;

impl Axiom for NoInterruption {
    fn id(&self) -> AxiomId {
        AxiomId::A5NoInterruption
    }

    fn check(
        &self,
        ix: &TraceIndex<'_>,
        _cfg: &SimilarityConfig,
        max_witnesses: usize,
    ) -> AxiomReport {
        let started = ix.work_started();
        if started == 0 {
            return AxiomReport::vacuous(self.id(), "no work was started in the trace");
        }

        let mut collector = ViolationCollector::new(self.id(), max_witnesses);
        let mut weighted = 0.0f64;
        let mut uncompensated = 0usize;
        let mut compensated = 0usize;
        for intr in ix.interruptions() {
            let severity = if intr.compensated {
                compensated += 1;
                0.5
            } else {
                uncompensated += 1;
                1.0
            };
            weighted += severity;
            collector.push(severity, || {
                format!(
                    "worker {} was interrupted on task {} after investing {}{}",
                    intr.worker,
                    intr.task,
                    intr.invested,
                    if intr.compensated {
                        " (partially compensated)"
                    } else {
                        " (unpaid)"
                    }
                )
            });
        }

        AxiomReport {
            axiom: self.id(),
            score: (1.0 - weighted / started as f64).clamp(0.0, 1.0),
            checked: started,
            violation_count: collector.total,
            truncated: collector.truncated(),
            violations: collector.items,
            notes: vec![format!(
                "{started} work items started; {uncompensated} interrupted unpaid, \
                 {compensated} interrupted with partial pay"
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::fixtures::*;
    use faircrowd_model::event::EventKind;
    use faircrowd_model::time::{SimDuration, SimTime};
    use faircrowd_model::trace::Trace;

    fn cfg() -> SimilarityConfig {
        SimilarityConfig::default()
    }

    fn start(trace: &mut Trace, at: u64, task_id: u32, worker_id: u32) {
        trace.events.push(
            SimTime::from_secs(at),
            EventKind::WorkStarted {
                task: t(task_id),
                worker: w(worker_id),
            },
        );
    }

    fn interrupt(trace: &mut Trace, at: u64, task_id: u32, worker_id: u32, compensated: bool) {
        trace.events.push(
            SimTime::from_secs(at),
            EventKind::WorkInterrupted {
                task: t(task_id),
                worker: w(worker_id),
                invested: SimDuration::from_mins(3),
                compensated,
            },
        );
    }

    #[test]
    fn uninterrupted_work_scores_one() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        start(&mut trace, 10, 0, 0);
        start(&mut trace, 10, 0, 1);
        let r = NoInterruption.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 1.0).abs() < 1e-12);
        assert_eq!(r.checked, 2);
        assert!(r.holds());
    }

    #[test]
    fn unpaid_interruption_is_full_violation() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        start(&mut trace, 10, 0, 0);
        start(&mut trace, 10, 0, 1);
        interrupt(&mut trace, 20, 0, 1, false);
        let r = NoInterruption.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 0.5).abs() < 1e-12);
        assert_eq!(r.violation_count, 1);
        assert!((r.violations[0].severity - 1.0).abs() < 1e-12);
        assert!(r.violations[0].description.contains("unpaid"));
    }

    #[test]
    fn compensated_interruption_is_half_violation() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        start(&mut trace, 10, 0, 0);
        start(&mut trace, 10, 0, 1);
        interrupt(&mut trace, 20, 0, 1, true);
        let r = NoInterruption.check_trace(&trace, &cfg(), 10);
        assert!((r.score - 0.75).abs() < 1e-12);
        assert!((r.violations[0].severity - 0.5).abs() < 1e-12);
        assert!(r.violations[0].description.contains("compensated"));
    }

    #[test]
    fn no_work_is_vacuous() {
        let trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        let r = NoInterruption.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.checked, 0);
        assert_eq!(r.score, 1.0);
    }

    #[test]
    fn score_floors_at_zero() {
        let mut trace = skeleton(vec![task(0, 0, &[0, 0], 10)]);
        start(&mut trace, 10, 0, 0);
        interrupt(&mut trace, 20, 0, 0, false);
        interrupt(&mut trace, 21, 0, 0, false); // pathological double event
        let r = NoInterruption.check_trace(&trace, &cfg(), 10);
        assert_eq!(r.score, 0.0);
    }
}
