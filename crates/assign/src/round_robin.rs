//! Round-robin assignment.
//!
//! An equitable-by-construction baseline: full qualified visibility, and
//! assignments dealt one at a time to each worker in turn, so no worker
//! accumulates tasks while another starves. Deterministic given the input
//! (no RNG use) — useful as the fairness anchor in E1.

use crate::policy::{AssignInput, AssignmentOutcome, AssignmentPolicy};
use rand::RngCore;

/// Deal tasks to workers in rotation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl AssignmentPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn assign(&mut self, input: &AssignInput, _rng: &mut dyn RngCore) -> AssignmentOutcome {
        let mut outcome = AssignmentOutcome::default();
        outcome.show_all_qualified(input);
        let mut slots: Vec<u32> = input.tasks.iter().map(|t| t.slots).collect();
        let mut capacity: Vec<u32> = input.workers.iter().map(|w| w.capacity).collect();
        // Each worker takes the first (lowest-id) qualified open task it
        // has not taken yet. Slots only fall within one call, so nothing
        // behind a worker's last pick can become eligible again: its
        // next pick lies past it, and a cursor replaces the taken set.
        let mut cursor = vec![0; input.workers.len()];

        loop {
            let mut progressed = false;
            for (wi, w) in input.workers.iter().enumerate() {
                if capacity[wi] == 0 {
                    continue;
                }
                let next = (cursor[wi]..input.tasks.len())
                    .find(|&ti| slots[ti] > 0 && w.qualifies(&input.tasks[ti]));
                match next {
                    Some(ti) => {
                        slots[ti] -= 1;
                        capacity[wi] -= 1;
                        cursor[wi] = ti + 1;
                        outcome.assign(w.id, input.tasks[ti].id);
                        progressed = true;
                    }
                    None => cursor[wi] = input.tasks.len(),
                }
            }
            if !progressed {
                break;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::fixtures::small_market;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    #[test]
    fn feasible_and_fills_slots() {
        let m = small_market();
        let o = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(0));
        assert!(o.check_feasible(&m).is_empty());
        assert_eq!(o.assignments.len(), 4, "all slots fillable in this market");
    }

    #[test]
    fn spreads_assignments_across_workers() {
        let m = small_market();
        let o = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(0));
        let mut per_worker: BTreeMap<_, usize> = BTreeMap::new();
        for (w, _) in &o.assignments {
            *per_worker.entry(*w).or_insert(0) += 1;
        }
        // Rotation guarantee: nobody receives a second task until every
        // worker has had a first-round turn. w3 only qualifies for t0,
        // whose two slots fill during round one, so they may go empty —
        // but the spread among the served must stay within one task.
        let served_max = *per_worker.values().max().unwrap();
        let served_min = *per_worker.values().min().unwrap();
        assert!(served_max - served_min <= 1, "{per_worker:?}");
        assert!(per_worker.len() >= 3, "{per_worker:?}");
        // first three assignments are three distinct workers (round one)
        let first_round: std::collections::BTreeSet<_> =
            o.assignments.iter().take(3).map(|(w, _)| *w).collect();
        assert_eq!(first_round.len(), 3);
    }

    #[test]
    fn ignores_rng_entirely() {
        let m = small_market();
        let a = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(1));
        let b = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(999));
        assert_eq!(a, b);
    }

    /// The rotation as first written: every turn rescans the tasks in
    /// order, probing per-task slots and the worker's taken set.
    fn reference(input: &AssignInput) -> AssignmentOutcome {
        use std::collections::BTreeSet;
        let mut outcome = AssignmentOutcome::default();
        for w in &input.workers {
            for t in &input.tasks {
                if w.qualifies(t) {
                    outcome.show(w.id, t.id);
                }
            }
        }
        let mut slots: BTreeMap<_, u32> = input.tasks.iter().map(|t| (t.id, t.slots)).collect();
        let mut capacity: Vec<u32> = input.workers.iter().map(|w| w.capacity).collect();
        let mut taken: Vec<BTreeSet<_>> = vec![BTreeSet::new(); input.workers.len()];
        loop {
            let mut progressed = false;
            for (wi, w) in input.workers.iter().enumerate() {
                if capacity[wi] == 0 {
                    continue;
                }
                let next = input
                    .tasks
                    .iter()
                    .find(|t| w.qualifies(t) && slots[&t.id] > 0 && !taken[wi].contains(&t.id));
                if let Some(t) = next {
                    *slots.get_mut(&t.id).unwrap() -= 1;
                    capacity[wi] -= 1;
                    taken[wi].insert(t.id);
                    outcome.assign(w.id, t.id);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        outcome
    }

    #[test]
    fn cursor_rotation_matches_the_rescanning_reference() {
        for seed in 0..64 {
            let m = crate::policy::fixtures::random_market(seed, 40, 12);
            let o = RoundRobin.assign(&m, &mut StdRng::seed_from_u64(0));
            assert_eq!(o, reference(&m), "seed {seed}");
        }
    }

    #[test]
    fn empty_market() {
        let o = RoundRobin.assign(&AssignInput::default(), &mut StdRng::seed_from_u64(0));
        assert!(o.assignments.is_empty());
        assert!(o.visibility.is_empty());
    }
}
