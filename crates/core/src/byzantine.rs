//! Byzantine upload corruption: turning an [`AttackModel`] into concrete
//! damage to a worker's upload.
//!
//! Both drivers funnel through [`corrupt_upload`] at the moment a worker's
//! state becomes visible to its edge — the synchronous driver corrupts the
//! worker in place immediately before `edge_aggregate`, the co-simulation
//! runtime corrupts the server-side mailbox copy the instant an upload
//! lands. Under `FullSync` the two are equivalent (the post-aggregation
//! redistribution overwrites everything an attack touched), which is what
//! keeps the adversarial core-vs-simrt bitwise gate in
//! `tests/adversary.rs` green.
//!
//! Determinism: only [`AttackModel::GaussianNoise`] draws from the
//! per-worker [`AdversarySampler`] stream (exactly `2 · dim` draws per
//! upload); [`replay_upload`] advances a stream past one upload without
//! touching any state, which is how checkpoint resume fast-forwards
//! adversary streams instead of storing them.

use hieradmo_metrics::AdversaryCounters;
use hieradmo_netsim::adversary::{AdversarySampler, AttackModel};

use crate::state::WorkerState;

/// Corrupts one worker upload according to `attack`, tallying what was
/// poisoned into `counters`.
///
/// The corruption covers every vector an edge aggregator may read: the
/// model `x`, the momentum `y`, the velocity `v`, and the three interval
/// accumulators — so all strategies (gradient-basis, momentum-basis and
/// displacement-basis alike) see the attack through whichever fields they
/// aggregate.
pub fn corrupt_upload(
    worker: &mut WorkerState,
    attack: &AttackModel,
    sampler: &mut AdversarySampler,
    counters: &mut AdversaryCounters,
) {
    counters.poisoned_uploads += 1;
    match *attack {
        AttackModel::SignFlip { scale } => {
            let k = -scale;
            worker.x.scale_in_place(k);
            worker.grad_accum.scale_in_place(k);
            scale_momenta(worker, k);
            counters.poisoned_models += 1;
            counters.poisoned_momenta += 1;
        }
        AttackModel::GradScale { factor } => {
            worker.x.scale_in_place(factor);
            worker.grad_accum.scale_in_place(factor);
            scale_momenta(worker, factor);
            counters.poisoned_models += 1;
            counters.poisoned_momenta += 1;
        }
        AttackModel::GaussianNoise { norm } => {
            let dim = worker.x.len();
            let nx = sampler.gaussian(dim, norm);
            let ny = sampler.gaussian(dim, norm);
            worker.x.axpy(1.0, &nx);
            worker.y.axpy(1.0, &ny);
            counters.poisoned_models += 1;
            counters.poisoned_momenta += 1;
            counters.noise_injections += 2;
        }
        AttackModel::MomentumPoison { scale } => {
            // The HierAdMo-specific vector: the model upload stays honest,
            // only the momentum side (Algorithm 1 line 11 and the Eq. 6
            // cosine inputs) is flipped and amplified.
            scale_momenta(worker, -scale);
            counters.poisoned_momenta += 1;
        }
    }
}

fn scale_momenta(worker: &mut WorkerState, k: f32) {
    worker.y.scale_in_place(k);
    worker.v.scale_in_place(k);
    worker.y_accum.scale_in_place(k);
    worker.v_accum.scale_in_place(k);
}

/// Advances `sampler` past one [`corrupt_upload`] call of model dimension
/// `dim` without touching worker state — the replay path used when a
/// checkpointed run fast-forwards to its resume point.
pub fn replay_upload(dim: usize, attack: &AttackModel, sampler: &mut AdversarySampler) {
    if let AttackModel::GaussianNoise { .. } = *attack {
        sampler.skip_gaussian(dim);
        sampler.skip_gaussian(dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::IntervalSums;
    use hieradmo_tensor::Vector;

    fn worker() -> WorkerState {
        let mut w = WorkerState::new(&Vector::from(vec![1.0, -2.0, 3.0]), IntervalSums::default());
        w.y = Vector::from(vec![0.5, 0.5, 0.5]);
        w.v = Vector::from(vec![0.1, 0.2, 0.3]);
        w.grad_accum = Vector::from(vec![1.0, 1.0, 1.0]);
        w.y_accum = Vector::from(vec![2.0, 2.0, 2.0]);
        w.v_accum = Vector::from(vec![3.0, 3.0, 3.0]);
        w
    }

    #[test]
    fn sign_flip_negates_and_scales_everything() {
        let mut w = worker();
        let mut s = AdversarySampler::from_stream(1, 0);
        let mut c = AdversaryCounters::default();
        corrupt_upload(
            &mut w,
            &AttackModel::SignFlip { scale: 2.0 },
            &mut s,
            &mut c,
        );
        assert_eq!(w.x.as_slice(), &[-2.0, 4.0, -6.0]);
        assert_eq!(w.y.as_slice(), &[-1.0, -1.0, -1.0]);
        assert_eq!(w.v_accum.as_slice(), &[-6.0, -6.0, -6.0]);
        assert_eq!(c.poisoned_uploads, 1);
        assert_eq!(c.poisoned_models, 1);
        assert_eq!(c.poisoned_momenta, 1);
        assert_eq!(c.noise_injections, 0);
    }

    #[test]
    fn momentum_poison_leaves_the_model_honest() {
        let mut w = worker();
        let mut s = AdversarySampler::from_stream(1, 0);
        let mut c = AdversaryCounters::default();
        corrupt_upload(
            &mut w,
            &AttackModel::MomentumPoison { scale: 3.0 },
            &mut s,
            &mut c,
        );
        assert_eq!(w.x.as_slice(), &[1.0, -2.0, 3.0], "model must stay honest");
        assert_eq!(
            w.grad_accum.as_slice(),
            &[1.0, 1.0, 1.0],
            "gradient accumulator must stay honest"
        );
        assert_eq!(w.y.as_slice(), &[-1.5, -1.5, -1.5]);
        assert_eq!(w.y_accum.as_slice(), &[-6.0, -6.0, -6.0]);
        assert_eq!(c.poisoned_models, 0);
        assert_eq!(c.poisoned_momenta, 1);
    }

    #[test]
    fn gaussian_noise_is_deterministic_per_stream_and_calibrated() {
        let attack = AttackModel::GaussianNoise { norm: 4.0 };
        let run = |stream: u64| {
            let mut w = worker();
            let mut s = AdversarySampler::from_stream(7, stream);
            let mut c = AdversaryCounters::default();
            corrupt_upload(&mut w, &attack, &mut s, &mut c);
            (w, c)
        };
        let (a, ca) = run(0);
        let (b, _) = run(0);
        assert_eq!(a.x, b.x, "same stream must inject identical noise");
        assert_eq!(a.y, b.y);
        let (other, _) = run(1);
        assert_ne!(a.x, other.x, "distinct streams must decorrelate");
        assert_eq!(ca.noise_injections, 2);
        let honest = worker();
        assert!((a.x.distance(&honest.x) - 4.0).abs() < 1e-3);
        assert_eq!(a.v, honest.v, "noise attack leaves the velocity alone");
    }

    #[test]
    fn replay_advances_the_stream_exactly_like_a_real_upload() {
        let attack = AttackModel::GaussianNoise { norm: 2.0 };
        let mut live = AdversarySampler::from_stream(5, 2);
        let mut replayed = AdversarySampler::from_stream(5, 2);

        let mut w = worker();
        let mut c = AdversaryCounters::default();
        corrupt_upload(&mut w, &attack, &mut live, &mut c);
        replay_upload(3, &attack, &mut replayed);
        assert_eq!(
            live.gaussian(3, 1.0),
            replayed.gaussian(3, 1.0),
            "replay must consume the same entropy as a live corruption"
        );

        // Deterministic attacks consume nothing, live or replayed.
        let mut before = AdversarySampler::from_stream(5, 2);
        let mut after = AdversarySampler::from_stream(5, 2);
        corrupt_upload(
            &mut worker(),
            &AttackModel::SignFlip { scale: 1.0 },
            &mut after,
            &mut c,
        );
        replay_upload(3, &AttackModel::MomentumPoison { scale: 1.0 }, &mut after);
        assert_eq!(before.gaussian(3, 1.0), after.gaussian(3, 1.0));
    }
}
