//! Partition plans: mapping the hash space to machines, and the Scheduler
//! component (§6) that turns a planned move into a concrete reassignment in
//! which every sender ships an equal amount of data to every receiver
//! (§4.4.1).
//!
//! The hash space is divided into a fixed number of *virtual slots*; a plan
//! assigns each slot to a machine. Live migration then moves slot ranges
//! between machines. Keeping slot counts per machine within ±1 of each
//! other preserves the even-data invariant the migration model assumes.

use std::collections::BTreeMap;

/// Assignment of virtual hash slots to machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotPlan {
    /// `slots[i]` = machine owning virtual slot `i`.
    slots: Vec<u32>,
    /// Number of machines in the cluster.
    machines: u32,
}

/// A batch of slots moving from one machine to another as part of a
/// reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTransfer {
    /// Sending machine.
    pub from: u32,
    /// Receiving machine.
    pub to: u32,
    /// The slot indices to move.
    pub slots: Vec<usize>,
}

impl SlotPlan {
    /// Creates a balanced plan over `machines` machines with `num_slots`
    /// virtual slots (slot `i` goes to machine `i % machines`).
    ///
    /// # Panics
    /// Panics if `machines == 0` or `num_slots < machines`.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "the modulo bounds each id below `machines`"
    )]
    pub fn balanced(machines: u32, num_slots: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(
            num_slots >= machines as usize,
            "need at least one slot per machine"
        );
        SlotPlan {
            slots: (0..num_slots)
                .map(|i| (i % machines as usize) as u32)
                .collect(),
            machines,
        }
    }

    /// Builds a plan from an explicit assignment (used by skew-driven
    /// rebalancers that compute placements directly).
    ///
    /// # Panics
    /// Panics if `slots` is empty, `machines` is zero, or any assignment
    /// references a machine `>= machines`.
    pub fn from_assignments(slots: Vec<u32>, machines: u32) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(!slots.is_empty(), "need at least one slot");
        assert!(
            slots.iter().all(|&m| m < machines),
            "assignment references a machine beyond the cluster"
        );
        SlotPlan { slots, machines }
    }

    /// Number of virtual slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of machines.
    pub fn machines(&self) -> u32 {
        self.machines
    }

    /// Machine owning `slot`.
    pub fn owner(&self, slot: usize) -> u32 {
        self.slots[slot]
    }

    /// The slot assignment.
    pub fn assignments(&self) -> &[u32] {
        &self.slots
    }

    /// Slots per machine.
    pub fn slots_per_machine(&self) -> BTreeMap<u32, usize> {
        let mut counts: BTreeMap<u32, usize> = (0..self.machines).map(|m| (m, 0)).collect();
        for &m in &self.slots {
            *counts.entry(m).or_default() += 1;
        }
        counts
    }

    /// Whether slot counts per machine differ by at most one (the even-data
    /// invariant of §4.4.1).
    pub fn is_balanced(&self) -> bool {
        let counts = self.slots_per_machine();
        let min = counts.values().copied().min().unwrap_or(0);
        let max = counts.values().copied().max().unwrap_or(0);
        max - min <= 1
    }

    /// The Scheduler: computes the new plan and the per-pair slot transfers
    /// for a move to `target` machines.
    ///
    /// On scale-out, machines `machines..target` are new and every existing
    /// machine sheds an equal share to each of them; on scale-in, machines
    /// `target..machines` are drained evenly into the survivors. The
    /// resulting plan is balanced and only transfers the minimum number of
    /// slots (`num_slots * |1/old - 1/new|` up to rounding).
    ///
    /// # Panics
    /// Panics if `target == 0` or `target > num_slots`.
    pub fn rebalance_to(&self, target: u32) -> (SlotPlan, Vec<SlotTransfer>) {
        assert!(target > 0, "target must be positive");
        assert!(
            (target as usize) <= self.slots.len(),
            "more machines than slots"
        );
        if target == self.machines {
            return (self.clone(), Vec::new());
        }

        let mut slots = self.slots.clone();
        let num = slots.len();
        let base = num / target as usize;
        let extra = num % target as usize;
        // Target counts: machines 0..extra get base+1 slots, rest get base.
        let target_count =
            |m: u32| -> usize { base + usize::from((m as usize) < extra && m < target) };

        let mut counts = vec![0usize; self.machines.max(target) as usize];
        for &m in &slots {
            counts[m as usize] += 1;
        }

        // Donors give away slots until they reach their target (0 for
        // machines being removed); takers fill up to theirs.
        let mut moves: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        let mut takers: Vec<u32> = (0..target)
            .filter(|&m| {
                (m as usize) < counts.len() && counts[m as usize] < target_count(m)
                    || (m as usize) >= counts.len()
            })
            .collect();
        // Walk donors round-robin over takers so every (donor, taker) pair
        // receives a near-equal share, matching the equal-pair-amount
        // schedule of §4.4.1.
        let mut taker_idx = 0usize;
        for donor in 0..self.machines {
            let goal = if donor < target {
                target_count(donor)
            } else {
                0
            };
            if counts[donor as usize] <= goal {
                continue;
            }
            let mut surplus = counts[donor as usize] - goal;
            let donor_slots: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m == donor)
                .map(|(i, _)| i)
                .collect();
            let mut di = 0usize;
            while surplus > 0 {
                debug_assert!(!takers.is_empty(), "surplus with no takers");
                let taker = takers[taker_idx % takers.len()];
                let t_goal = target_count(taker);
                let t_have = counts[taker as usize];
                if t_have >= t_goal {
                    takers.retain(|&m| m != taker);
                    continue;
                }
                let slot = donor_slots[di];
                di += 1;
                slots[slot] = taker;
                counts[donor as usize] -= 1;
                counts[taker as usize] += 1;
                surplus -= 1;
                moves.entry((donor, taker)).or_default().push(slot);
                taker_idx += 1;
            }
        }

        let plan = SlotPlan {
            slots,
            machines: target,
        };
        debug_assert!(plan.is_balanced());
        let transfers = moves
            .into_iter()
            .map(|((from, to), s)| SlotTransfer { from, to, slots: s })
            .collect();
        (plan, transfers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_plan_is_balanced() {
        for machines in 1..=10u32 {
            let p = SlotPlan::balanced(machines, 64);
            assert!(p.is_balanced(), "{machines} machines");
            assert_eq!(p.num_slots(), 64);
        }
    }

    #[test]
    fn rebalance_scale_out_moves_minimum_slots() {
        let p = SlotPlan::balanced(2, 64);
        let (new, transfers) = p.rebalance_to(4);
        assert!(new.is_balanced());
        assert_eq!(new.machines(), 4);
        let moved: usize = transfers.iter().map(|t| t.slots.len()).sum();
        // Fraction moved = 1 - 2/4 = 1/2 of 64 slots.
        assert_eq!(moved, 32);
        // Senders are old machines; receivers are new.
        for t in &transfers {
            assert!(t.from < 2);
            assert!(t.to >= 2 && t.to < 4);
        }
    }

    #[test]
    fn rebalance_scale_in_drains_removed_machines() {
        let p = SlotPlan::balanced(4, 64);
        let (new, transfers) = p.rebalance_to(3);
        assert!(new.is_balanced());
        assert_eq!(new.machines(), 3);
        // Every slot owned by machine 3 must have moved.
        assert!(new.assignments().iter().all(|&m| m < 3));
        let moved: usize = transfers.iter().map(|t| t.slots.len()).sum();
        assert_eq!(moved, 16);
        for t in &transfers {
            assert_eq!(t.from, 3);
            assert!(t.to < 3);
        }
    }

    #[test]
    fn rebalance_noop() {
        let p = SlotPlan::balanced(3, 60);
        let (new, transfers) = p.rebalance_to(3);
        assert_eq!(new, p);
        assert!(transfers.is_empty());
    }

    #[test]
    fn senders_ship_nearly_equal_shares_to_each_receiver() {
        let p = SlotPlan::balanced(3, 42 * 14);
        let (_, transfers) = p.rebalance_to(14);
        // 3 senders x 11 receivers: every pair's share within 1 slot of the
        // mean.
        let total: usize = transfers.iter().map(|t| t.slots.len()).sum();
        let mean = total as f64 / transfers.len() as f64;
        assert_eq!(transfers.len(), 3 * 11);
        for t in &transfers {
            assert!(
                (t.slots.len() as f64 - mean).abs() <= 1.5,
                "pair {}->{} ships {} slots (mean {mean})",
                t.from,
                t.to,
                t.slots.len()
            );
        }
    }

    #[test]
    fn chained_rebalances_stay_balanced() {
        let mut plan = SlotPlan::balanced(2, 420);
        for &target in &[5u32, 9, 14, 7, 3, 10, 1, 6] {
            let (next, transfers) = plan.rebalance_to(target);
            assert!(next.is_balanced(), "unbalanced at target {target}");
            // Transfers must originate from actual owners.
            for t in &transfers {
                for &s in &t.slots {
                    assert_eq!(plan.owner(s), t.from);
                    assert_eq!(next.owner(s), t.to);
                }
            }
            plan = next;
        }
    }

    #[test]
    #[should_panic(expected = "more machines than slots")]
    fn rebalance_rejects_too_many_machines() {
        let p = SlotPlan::balanced(2, 4);
        let _ = p.rebalance_to(5);
    }
}
