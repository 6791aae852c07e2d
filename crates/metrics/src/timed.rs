//! Time-indexed metrics for event-driven co-simulation: accuracy as a
//! function of *simulated wall-clock time* (the honest version of the
//! paper's Fig. 2(h)/(l) time-to-accuracy axis), per-actor utilization, and
//! the per-phase duration breakdown persisted by bench runs.

use serde::{Deserialize, Serialize};

/// One evaluation of the global model, stamped with simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedPoint {
    /// Simulated seconds at which this evaluation's model existed.
    pub seconds: f64,
    /// Training-progress index at the evaluation (local iteration for
    /// synchronous runs; committed-local-steps for relaxed policies).
    pub iteration: usize,
    /// Mean training loss of the global model.
    pub train_loss: f64,
    /// Mean test loss of the global model.
    pub test_loss: f64,
    /// Test accuracy in `[0, 1]`.
    pub test_accuracy: f64,
}

/// Accuracy/loss as a function of simulated time.
///
/// The time axis is validated on construction: pushes must carry
/// non-decreasing `seconds` and strictly increasing `iteration`, so every
/// exported curve has a monotone simulated-time axis by construction.
///
/// # Example
///
/// ```
/// use hieradmo_metrics::timed::{TimedCurve, TimedPoint};
///
/// let mut c = TimedCurve::new();
/// c.push(TimedPoint { seconds: 1.5, iteration: 10, train_loss: 1.0, test_loss: 1.1, test_accuracy: 0.6 });
/// c.push(TimedPoint { seconds: 3.0, iteration: 20, train_loss: 0.5, test_loss: 0.6, test_accuracy: 0.9 });
/// assert_eq!(c.time_to_accuracy(0.85), Some(3.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimedCurve {
    points: Vec<TimedPoint>,
}

impl TimedCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        TimedCurve { points: Vec::new() }
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` decreases, `seconds` is not finite, or
    /// `iteration` is not strictly increasing.
    pub fn push(&mut self, point: TimedPoint) {
        assert!(
            point.seconds.is_finite() && point.seconds >= 0.0,
            "simulated time must be finite and non-negative, got {}",
            point.seconds
        );
        if let Some(last) = self.points.last() {
            assert!(
                point.seconds >= last.seconds,
                "simulated time must be monotone: {} after {}",
                point.seconds,
                last.seconds
            );
            assert!(
                point.iteration > last.iteration,
                "iterations must be strictly increasing: {} after {}",
                point.iteration,
                last.iteration
            );
        }
        self.points.push(point);
    }

    /// Borrows the points.
    pub fn points(&self) -> &[TimedPoint] {
        &self.points
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Simulated seconds until accuracy first reached `target`, if ever —
    /// the per-policy "time to X accuracy" number of the simrt experiments.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.test_accuracy >= target)
            .map(|p| p.seconds)
    }

    /// Accuracy at the last evaluation, if any.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.points.last().map(|p| p.test_accuracy)
    }

    /// Simulated seconds at the last evaluation, if any.
    pub fn final_seconds(&self) -> Option<f64> {
        self.points.last().map(|p| p.seconds)
    }
}

impl FromIterator<TimedPoint> for TimedCurve {
    fn from_iter<I: IntoIterator<Item = TimedPoint>>(iter: I) -> Self {
        let mut c = TimedCurve::new();
        for p in iter {
            c.push(p);
        }
        c
    }
}

/// How busy one simulated actor was over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActorUtilization {
    /// Actor label, e.g. `"worker-3"`, `"edge-0"`, `"cloud"`.
    pub actor: String,
    /// Simulated seconds the actor spent computing or transferring.
    pub busy_seconds: f64,
    /// `busy_seconds / total run seconds`, in `[0, 1]` (0 when the run
    /// took no simulated time).
    pub utilization: f64,
}

/// Fault-event tallies for one simulated actor, accumulated by the
/// co-simulation runtime's fault-injection layer.
///
/// Counters are additive over a run; `recovery_ms` is the summed downtime
/// so `recovery_ms / crashes` gives the mean recovery latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Transient crashes (each followed by a recovery) plus a permanent
    /// death, if one occurred.
    pub crashes: u64,
    /// Total downtime spent crashed before recovering, in milliseconds.
    pub recovery_ms: f64,
    /// Sends from this actor silently lost on the wire.
    pub messages_lost: u64,
    /// Delivered messages that were also duplicated in transit.
    pub messages_duplicated: u64,
    /// Duplicate arrivals observed (and suppressed) at this actor.
    pub duplicates_received: u64,
    /// Sends that failed with an observable transport error.
    pub transfer_failures: u64,
    /// Resends after a lost or failed attempt.
    pub retries: u64,
    /// Uploads lost because the sender crashed mid-transfer or died.
    pub lost_uploads: u64,
    /// Compute-delay straggler spikes suffered.
    pub delay_spikes: u64,
}

impl FaultCounters {
    /// Returns `true` when nothing ever went wrong for this actor.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }

    /// Folds a transfer's loss/failure/retry tallies into this actor's
    /// counters.
    pub fn add_transfer(&mut self, lost: u64, failures: u64, retries: u64, duplicated: bool) {
        self.messages_lost += lost;
        self.transfer_failures += failures;
        self.retries += retries;
        if duplicated {
            self.messages_duplicated += 1;
        }
    }

    /// Folds another tally of the same actor into this one (additive over
    /// topology epochs).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.crashes += other.crashes;
        self.recovery_ms += other.recovery_ms;
        self.messages_lost += other.messages_lost;
        self.messages_duplicated += other.messages_duplicated;
        self.duplicates_received += other.duplicates_received;
        self.transfer_failures += other.transfer_failures;
        self.retries += other.retries;
        self.lost_uploads += other.lost_uploads;
        self.delay_spikes += other.delay_spikes;
    }
}

/// [`FaultCounters`] stamped with the actor they belong to, in the same
/// label scheme as [`ActorUtilization`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActorFaults {
    /// Actor label, e.g. `"worker-3"`, `"edge-0"`, `"cloud"`.
    pub actor: String,
    /// The tallies.
    pub counters: FaultCounters,
}

/// Churn-event tallies for one elastic run, accumulated by the elastic
/// topology layer as `ChurnPlan` events apply at cloud-round boundaries.
///
/// Counters are additive over a run; the all-zero default is what every
/// frozen-tree (empty-plan) run reports, so `is_zero` distinguishes
/// "static topology" from "elastic but quiet".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyCounters {
    /// Workers that joined the live tree mid-run.
    pub joins: u64,
    /// Workers that left the live tree mid-run.
    pub leaves: u64,
    /// Workers that changed parent edge: explicit migrations, edge-failure
    /// re-homings, and re-formation moves alike.
    pub migrations: u64,
    /// Edge re-formation (similarity re-clustering) passes applied.
    pub reformations: u64,
    /// Worker-rounds orphaned by edge failures: each failed edge
    /// contributes one per member it stranded at the boundary.
    pub orphaned_rounds: u64,
}

impl TopologyCounters {
    /// Returns `true` when the topology never changed.
    pub fn is_zero(&self) -> bool {
        *self == TopologyCounters::default()
    }
}

/// Adversary-event tallies for one Byzantine actor, accumulated wherever
/// uploads are corrupted (the core driver's injection point or the
/// co-simulation runtime's mailbox hook).
///
/// Counters are additive over a run. An honest worker's counters stay at
/// the all-zero default, so `is_zero` distinguishes "honest" from
/// "Byzantine but idle".
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AdversaryCounters {
    /// Uploads this actor corrupted (one per edge aggregation it reached).
    pub poisoned_uploads: u64,
    /// Uploads whose *model* vector was corrupted.
    pub poisoned_models: u64,
    /// Uploads whose *momentum* vectors were corrupted — the
    /// HierAdMo-specific surface (Algorithm 1, lines 11–13).
    pub poisoned_momenta: u64,
    /// Calibrated-norm Gaussian noise vectors injected (each consumed one
    /// adversary-stream draw of the model dimension).
    pub noise_injections: u64,
}

impl AdversaryCounters {
    /// Returns `true` when this actor never corrupted anything.
    pub fn is_zero(&self) -> bool {
        *self == AdversaryCounters::default()
    }

    /// Folds another tally of the same actor into this one (additive over
    /// topology epochs).
    pub fn merge(&mut self, other: &AdversaryCounters) {
        self.poisoned_uploads += other.poisoned_uploads;
        self.poisoned_models += other.poisoned_models;
        self.poisoned_momenta += other.poisoned_momenta;
        self.noise_injections += other.noise_injections;
    }
}

/// [`AdversaryCounters`] stamped with the actor they belong to, in the
/// same label scheme as [`ActorUtilization`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActorAdversaries {
    /// Actor label, e.g. `"worker-3"`.
    pub actor: String,
    /// The tallies.
    pub counters: AdversaryCounters,
}

/// Per-phase durations of a run, in milliseconds — the serializable form
/// of `hieradmo-core`'s `PhaseTimings`, surfaced in the JSON export so
/// bench runs persist where their wall-clock went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Worker local steps, summed over all ticks.
    pub local_steps_ms: f64,
    /// Edge aggregations.
    pub edge_agg_ms: f64,
    /// Cloud aggregations.
    pub cloud_agg_ms: f64,
    /// Global-model evaluations.
    pub eval_ms: f64,
}

impl PhaseBreakdown {
    /// Total across all phases.
    pub fn total_ms(&self) -> f64 {
        self.local_steps_ms + self.edge_agg_ms + self.cloud_agg_ms + self.eval_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(s: f64, it: usize, acc: f64) -> TimedPoint {
        TimedPoint {
            seconds: s,
            iteration: it,
            train_loss: 1.0,
            test_loss: 1.0,
            test_accuracy: acc,
        }
    }

    #[test]
    fn time_to_accuracy_reads_the_time_axis() {
        let c: TimedCurve = [pt(1.0, 10, 0.2), pt(2.5, 20, 0.8), pt(4.0, 30, 0.9)]
            .into_iter()
            .collect();
        assert_eq!(c.time_to_accuracy(0.5), Some(2.5));
        assert_eq!(c.time_to_accuracy(0.95), None);
        assert_eq!(c.final_accuracy(), Some(0.9));
        assert_eq!(c.final_seconds(), Some(4.0));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn equal_timestamps_are_allowed_for_distinct_iterations() {
        // Zero-cost events may share a timestamp; the iteration axis still
        // orders them.
        let mut c = TimedCurve::new();
        c.push(pt(1.0, 1, 0.1));
        c.push(pt(1.0, 2, 0.2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn decreasing_time_panics() {
        let mut c = TimedCurve::new();
        c.push(pt(2.0, 1, 0.1));
        c.push(pt(1.0, 2, 0.2));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_iteration_panics() {
        let mut c = TimedCurve::new();
        c.push(pt(1.0, 5, 0.1));
        c.push(pt(2.0, 5, 0.2));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_time_panics() {
        let mut c = TimedCurve::new();
        c.push(pt(f64::NAN, 1, 0.1));
    }

    #[test]
    fn phase_breakdown_totals() {
        let b = PhaseBreakdown {
            local_steps_ms: 10.0,
            edge_agg_ms: 2.0,
            cloud_agg_ms: 1.0,
            eval_ms: 3.0,
        };
        assert_eq!(b.total_ms(), 16.0);
    }
}
