//! Cross-crate integration: lossy uplink compression (core extension)
//! joined with the netsim wire-time model — compressed federations must
//! both still learn *and* demonstrably spend less emulated time on
//! communication.

use hieradmo::core::compression::{Compression, QuantizedHierFavg};
use hieradmo::core::{run, RunConfig, RunSpec};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::{generate, SyntheticSpec};
use hieradmo::models::{zoo, Model};
use hieradmo::netsim::{simulate_timeline, Architecture, NetworkEnv, TraceConfig};
use hieradmo::tensor::Vector;
use hieradmo::topology::{Hierarchy, Schedule};

fn problem() -> (
    hieradmo::data::Dataset,
    hieradmo::data::Dataset,
    Vec<hieradmo::data::Dataset>,
    hieradmo::models::Sequential,
) {
    let spec = SyntheticSpec {
        num_classes: 4,
        shape: hieradmo::data::FeatureShape::Flat(32),
        noise: 0.5,
        prototype_scale: 1.0,
        max_shift: 0,
        class_group: 1,
    };
    let tt = generate(&spec, 40, 15, 31);
    let shards = x_class_partition(&tt.train, 4, 2, 31);
    let model = zoo::logistic_regression(&tt.train, 31);
    (tt.train, tt.test, shards, model)
}

#[test]
fn compressed_federation_learns_and_saves_wire_time() {
    let (_, test, shards, model) = problem();
    let cfg = RunConfig {
        eta: 0.05,
        tau: 10,
        pi: 2,
        total_iters: 200,
        batch_size: 16,
        eval_every: 200,
        threads: Some(1),
        ..RunConfig::default()
    };
    let h = Hierarchy::balanced(2, 2);

    let dense = QuantizedHierFavg::new(cfg.eta, Compression::None);
    let sparse = QuantizedHierFavg::new(
        cfg.eta,
        Compression::TopK {
            k: model.dim() / 10,
        },
    );
    let dense_res = run(
        &dense,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg,
    )
    .unwrap();
    let sparse_res = run(
        &sparse,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg,
    )
    .unwrap();

    let dense_acc = dense_res.curve.final_accuracy().unwrap();
    let sparse_acc = sparse_res.curve.final_accuracy().unwrap();
    assert!(
        sparse_acc > dense_acc - 0.15,
        "10% top-k with error feedback should stay near dense: {sparse_acc} vs {dense_acc}"
    );

    // Wire accounting: the top-k payload must buy real emulated time on
    // the same schedule.
    let probe = Vector::filled(model.dim(), 0.5);
    let dense_bytes = Compression::None.compress(&probe, 0).wire_bytes();
    let sparse_bytes = Compression::TopK {
        k: model.dim() / 10,
    }
    .compress(&probe, 0)
    .wire_bytes();
    assert!(
        sparse_bytes * 4 < dense_bytes,
        "top-10% should be ≲ 20% of dense bytes"
    );

    let env = NetworkEnv::paper_testbed(4);
    let time = |bytes: u64| {
        simulate_timeline(
            &env,
            &TraceConfig::new(
                Schedule::three_tier(10, 2, 200).unwrap(),
                Hierarchy::balanced(2, 2),
                Architecture::ThreeTier,
                bytes,
                7,
            ),
        )
        .total_seconds()
    };
    // Use an inflated model dimension so serialization dominates jitter.
    let scale = 500u64;
    assert!(
        time(sparse_bytes * scale) < time(dense_bytes * scale),
        "compressed uplink should cut emulated wall-clock"
    );
}

#[test]
fn error_feedback_matters_under_aggressive_compression() {
    // With 1%-top-k, the residual keeps small coordinates alive; a
    // feedback-equipped run must not collapse.
    let (_, test, shards, model) = problem();
    let cfg = RunConfig {
        eta: 0.05,
        tau: 10,
        pi: 2,
        total_iters: 300,
        batch_size: 16,
        eval_every: 300,
        threads: Some(1),
        ..RunConfig::default()
    };
    let h = Hierarchy::balanced(2, 2);
    let k = (model.dim() / 100).max(1);
    let aggressive = QuantizedHierFavg::new(cfg.eta, Compression::TopK { k });
    let res = run(
        &aggressive,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg,
    )
    .unwrap();
    let acc = res.curve.final_accuracy().unwrap();
    assert!(
        acc > 0.4,
        "1% top-k with error feedback should still clear random chance by a wide margin: {acc}"
    );
}

#[test]
fn centralized_optimizers_agree_with_federated_limit() {
    // One worker, τ = 1, π = 1: HierFAVG with a single worker IS
    // centralized SGD — the curves must coincide exactly.
    use hieradmo::core::algorithms::HierFavg;
    use hieradmo::models::optim::{train_full_batch, Sgd};

    let (train, test, _, model) = problem();
    let cfg = RunConfig {
        eta: 0.05,
        tau: 1,
        pi: 1,
        total_iters: 30,
        batch_size: usize::MAX >> 1, // full batch (capped by Batcher)
        eval_every: 30,
        threads: Some(1),
        ..RunConfig::default()
    };
    let h = Hierarchy::two_tier(1);
    let shards = vec![train.clone()];
    let fed = run(
        &HierFavg::new(0.05),
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg,
    )
    .unwrap();

    let mut central = model.clone();
    let mut opt = Sgd::new(0.05);
    train_full_batch(&mut central, &mut opt, &train, 30);

    let gap = fed.final_params.distance(&central.params());
    assert!(
        gap < 1e-3,
        "single-worker federation must equal centralized SGD, gap = {gap}"
    );
}
