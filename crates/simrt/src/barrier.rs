//! The round barrier both aggregating tiers of the event engine share.
//!
//! An edge collects its workers' uploads and the cloud collects the edges'
//! submissions in the same way (Algorithm 1 lines 11–13 and 18–23): gather
//! the children's uploads, then aggregate. [`Barrier`] holds that
//! round-collection state and states each [`SyncPolicy`]'s rules once —
//! arrival (with lateness), readiness, staleness and close. The tiers
//! differ only in which children they waive, and pass those in as
//! predicates to [`Barrier::ready`].

use crate::policy::SyncPolicy;

/// `ceil(quorum · n)`, clamped to `[1, n]`.
fn quorum_count(quorum: f64, n: usize) -> usize {
    ((quorum * n as f64).ceil() as usize).clamp(1, n)
}

/// What a child's arrival means to the aggregator that received it.
#[derive(Debug, PartialEq)]
pub(crate) enum Arrival {
    /// The child's round already fired without it (FullSync or Deadline):
    /// its upload carries over in the mailbox, and the caller releases the
    /// child. Not counted toward the current round.
    Late,
    /// Counted toward the current round.
    Counted,
    /// The first arrival of a Deadline round: counted, and the caller
    /// arms the timeout of round `round`, `timeout_ms` from now.
    ArmTimeout { round: usize, timeout_ms: f64 },
}

/// One aggregator's round-collection state: which children arrived for
/// the current round, and how stale each child's mailbox slot is.
#[derive(Debug)]
pub(crate) struct Barrier {
    policy: SyncPolicy,
    /// Round currently being collected (1-based); advances at every
    /// firing under every policy.
    round: usize,
    /// Which children have arrived for the current round.
    arrived: Vec<bool>,
    /// Last round each child's upload refreshed its slot; only Deadline
    /// staleness reads it.
    last_round: Vec<usize>,
    /// Firings since each child's slot was refreshed; only AsyncAge reads
    /// it.
    age: Vec<usize>,
    /// The current round's timeout has expired (Deadline).
    timed_out: bool,
}

impl Barrier {
    /// A barrier over `children` under `policy`, after `done` rounds have
    /// already fired.
    pub fn new(policy: SyncPolicy, children: usize, done: usize) -> Self {
        Barrier {
            policy,
            round: done + 1,
            arrived: vec![false; children],
            last_round: vec![done; children],
            age: vec![0; children],
            timed_out: false,
        }
    }

    /// The round being collected.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether child `j` has arrived for the current round.
    pub fn arrived(&self, j: usize) -> bool {
        self.arrived[j]
    }

    /// Whether any child has arrived for the current round.
    pub fn any_arrived(&self) -> bool {
        self.arrived.contains(&true)
    }

    /// The children that arrived for the current round, in order.
    pub fn arrivals(&self) -> Vec<usize> {
        (0..self.arrived.len())
            .filter(|&j| self.arrived[j])
            .collect()
    }

    /// Child `j`'s slot was refilled for the current round from the
    /// previous round's model: until its upload lands it is one round
    /// stale.
    pub fn refill(&mut self, j: usize) {
        self.last_round[j] = self.round - 1;
    }

    /// Records child `j`'s upload for round `r`, which refreshes its slot
    /// even when it is late.
    pub fn arrive(&mut self, j: usize, r: usize) -> Arrival {
        self.last_round[j] = r;
        let async_age = matches!(self.policy, SyncPolicy::AsyncAge { .. });
        if r < self.round && !async_age {
            return Arrival::Late;
        }
        let first = !self.any_arrived();
        self.arrived[j] = true;
        self.age[j] = 0;
        match self.policy {
            SyncPolicy::Deadline { timeout_ms, .. } if first => Arrival::ArmTimeout {
                round: self.round,
                timeout_ms,
            },
            _ => Arrival::Counted,
        }
    }

    /// Round `round`'s timeout expired. Returns `false`, changing
    /// nothing, when that round already fired (a stale timer).
    pub fn expire(&mut self, round: usize) -> bool {
        if round != self.round {
            return false;
        }
        self.timed_out = true;
        true
    }

    /// Whether the current round may fire. Never with zero arrivals.
    ///
    /// - FullSync: every absent child is `gone` (will not arrive this
    ///   round).
    /// - Deadline: every live child arrived, or the timeout expired with a
    ///   quorum of them. Gone absentees leave the quorum's denominator, so
    ///   a strict minority leaving can never deadlock the round.
    /// - AsyncAge: no absent child is `max_staleness` firings old — unless
    ///   it is `exhausted` (can never catch up), which waives the cap.
    pub fn ready(&self, gone: impl Fn(usize) -> bool, exhausted: impl Fn(usize) -> bool) -> bool {
        let have = self.arrived.iter().filter(|&&a| a).count();
        if have == 0 {
            return false;
        }
        let mut absent = (0..self.arrived.len()).filter(|&j| !self.arrived[j]);
        match self.policy {
            SyncPolicy::FullSync => absent.all(gone),
            SyncPolicy::Deadline { quorum, .. } => {
                // `live >= have >= 1` keeps the clamp well-defined.
                let live = self.arrived.len() - absent.filter(|&j| gone(j)).count();
                have == live || (self.timed_out && have >= quorum_count(quorum, live))
            }
            SyncPolicy::AsyncAge { max_staleness } => {
                !absent.any(|j| self.age[j] >= max_staleness && !exhausted(j))
            }
        }
    }

    /// Each child's staleness at the current firing: all zero under
    /// FullSync, rounds since its slot was refreshed under Deadline,
    /// firings it missed under AsyncAge.
    pub fn staleness(&self) -> Vec<usize> {
        match self.policy {
            SyncPolicy::FullSync => vec![0; self.arrived.len()],
            SyncPolicy::Deadline { .. } => self
                .last_round
                .iter()
                .map(|&r| self.round.saturating_sub(r))
                .collect(),
            SyncPolicy::AsyncAge { .. } => self.age.clone(),
        }
    }

    /// Closes the current round once it fired: the round advances, the
    /// arrivals and the timeout clear, and every child that missed the
    /// firing ages by one (those that made it restart at zero).
    pub fn close(&mut self) {
        self.round += 1;
        for (age, arrived) in self.age.iter_mut().zip(&mut self.arrived) {
            *age = if *arrived { 0 } else { *age + 1 };
            *arrived = false;
        }
        self.timed_out = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEADLINE: SyncPolicy = SyncPolicy::Deadline {
        quorum: 0.5,
        timeout_ms: 100.0,
    };
    const ASYNC: SyncPolicy = SyncPolicy::AsyncAge { max_staleness: 2 };

    /// A four-child barrier under `policy` in round 1 with `arrived`
    /// counted.
    fn barrier(policy: SyncPolicy, arrived: &[usize]) -> Barrier {
        let mut b = Barrier::new(policy, 4, 0);
        for &j in arrived {
            assert_ne!(b.arrive(j, 1), Arrival::Late);
        }
        b
    }

    #[test]
    fn quorum_count_ceils_and_clamps() {
        assert_eq!(quorum_count(0.5, 4), 2);
        assert_eq!(quorum_count(0.5, 3), 2);
        assert_eq!(quorum_count(0.01, 4), 1);
        assert_eq!(quorum_count(1.0, 4), 4);
        assert_eq!(quorum_count(0.0, 4), 1, "clamped to at least one");
    }

    #[test]
    fn full_sync_waits_for_every_child_not_gone() {
        // (arrived, gone, ready)
        let cases: [(&[usize], &[usize], bool); 6] = [
            (&[], &[], false),
            (&[], &[0, 1, 2, 3], false),
            (&[0, 1, 2], &[], false),
            (&[0, 1, 2, 3], &[], true),
            (&[0, 1], &[2, 3], true),
            (&[0, 1], &[2], false),
        ];
        for (arrived, gone, ready) in cases {
            let b = barrier(SyncPolicy::FullSync, arrived);
            let got = b.ready(|j| gone.contains(&j), |_| unreachable!());
            assert_eq!(got, ready, "arrived {arrived:?}, gone {gone:?}");
        }
    }

    #[test]
    fn deadline_drops_gone_children_from_the_quorum_and_gates_on_the_timeout() {
        // (arrived, gone, timed out, ready); quorum 0.5 of the live ones.
        let cases: [(&[usize], &[usize], bool, bool); 9] = [
            (&[], &[], true, false),
            (&[0, 1, 2, 3], &[], false, true),
            (&[0, 1], &[], false, false),
            (&[0, 1], &[], true, true),
            (&[0], &[], true, false),
            (&[0, 1], &[2, 3], false, true),
            (&[0], &[1, 2], false, false),
            (&[0], &[1, 2], true, true),
            (&[0], &[1], true, false),
        ];
        for (arrived, gone, timed_out, ready) in cases {
            let mut b = barrier(DEADLINE, arrived);
            if timed_out {
                assert!(b.expire(1));
            }
            let got = b.ready(|j| gone.contains(&j), |_| unreachable!());
            assert_eq!(
                got, ready,
                "arrived {arrived:?}, gone {gone:?}, timed out {timed_out}"
            );
        }
    }

    #[test]
    fn async_age_caps_staleness_except_for_exhausted_children() {
        // Child 3 misses `missed` firings (children 0–2 arrive each time),
        // then only child 0 has arrived.
        // (missed, child 3 exhausted, ready)
        let cases = [
            (0, false, true),
            (1, false, true),
            (2, false, false),
            (2, true, true),
            (5, true, true),
        ];
        for (missed, exhausted, ready) in cases {
            let mut b = Barrier::new(ASYNC, 4, 0);
            for r in 1..=missed {
                for j in 0..3 {
                    b.arrive(j, r);
                }
                b.close();
            }
            assert_eq!(b.staleness(), [0, 0, 0, missed]);
            assert!(!b.ready(|_| unreachable!(), |_| false), "no arrival yet");
            b.arrive(0, missed + 1);
            let got = b.ready(|_| unreachable!(), |j| exhausted && j == 3);
            assert_eq!(got, ready, "missed {missed}, exhausted {exhausted}");
        }
    }

    #[test]
    fn staleness_and_close_follow_the_policy() {
        // Round 1: children 0 and 1 arrive; round 2: only child 0.
        // Deadline reads rounds since the last upload, AsyncAge the
        // firings missed, FullSync nothing.
        for (policy, want) in [
            (SyncPolicy::FullSync, [0, 0, 0, 0]),
            (DEADLINE, [0, 1, 2, 2]),
            (ASYNC, [0, 0, 1, 1]),
        ] {
            let mut b = barrier(policy, &[0, 1]);
            b.close();
            assert_eq!(b.round(), 2);
            assert!(!b.any_arrived(), "close clears the arrivals");
            assert_eq!(b.arrive(0, 2), arrival_opening(policy, 2));
            assert_eq!(b.arrivals(), [0]);
            assert_eq!(b.staleness(), want, "{policy:?}");
        }
    }

    #[test]
    fn late_arrivals_refresh_the_slot_but_not_the_round() {
        let mut b = barrier(DEADLINE, &[0, 1]);
        b.close();
        assert_eq!(b.arrive(2, 1), Arrival::Late);
        assert!(!b.any_arrived());
        assert_eq!(
            b.staleness(),
            [1, 1, 1, 2],
            "the late upload is a round old"
        );
        b.refill(3);
        assert_eq!(b.staleness()[3], 1, "a refilled slot is a round old");
        assert!(!b.expire(1), "round 1's timer is stale");

        // AsyncAge has no lateness: an old upload counts for the round.
        let mut b = barrier(ASYNC, &[0, 1]);
        b.close();
        assert_eq!(b.arrive(2, 1), Arrival::Counted);
        assert_eq!(b.arrivals(), [2]);
    }

    /// The arrival that opens round `round` under `policy`.
    fn arrival_opening(policy: SyncPolicy, round: usize) -> Arrival {
        match policy {
            SyncPolicy::Deadline { timeout_ms, .. } => Arrival::ArmTimeout { round, timeout_ms },
            _ => Arrival::Counted,
        }
    }
}
