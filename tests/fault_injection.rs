//! Failure-injection tests: worker dropout (straggler/crash emulation)
//! must degrade gracefully, never corrupt the protocol, and vanish
//! exactly when disabled.

mod common;

use common::{dropout_cfg as cfg, synthetic_setup as setup};
use hieradmo::core::algorithms::{HierAdMo, HierFavg};
use hieradmo::core::{run, RunConfig, RunSpec};
use hieradmo::topology::Hierarchy;

#[test]
fn zero_dropout_is_bit_identical_to_fault_free() {
    let (test, shards, model) = setup();
    let h = Hierarchy::balanced(2, 2);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let clean = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg(0.0),
    )
    .unwrap();
    // Default config has dropout = 0.0 implicitly.
    let mut default_cfg = cfg(0.0);
    default_cfg.dropout = 0.0;
    let default_run = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &default_cfg,
    )
    .unwrap();
    assert_eq!(clean.curve, default_run.curve);
}

#[test]
fn moderate_dropout_still_learns() {
    let (test, shards, model) = setup();
    let h = Hierarchy::balanced(2, 2);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let res = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg(0.3),
    )
    .unwrap();
    let acc = res.curve.final_accuracy().unwrap();
    assert!(
        acc > 0.6,
        "30% per-tick dropout should only slow, not break, training: {acc}"
    );
    assert!(res.final_params.is_finite());
}

#[test]
fn total_dropout_freezes_the_model() {
    let (test, shards, model) = setup();
    let h = Hierarchy::balanced(2, 2);
    let algo = HierFavg::new(0.05);
    let res = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg(1.0),
    )
    .unwrap();
    // No worker ever computes: the global model stays at initialization.
    use hieradmo::models::Model;
    let gap = res.final_params.distance(&model.params());
    assert!(
        gap < 1e-6,
        "with 100% dropout the model must never move, moved by {gap}"
    );
}

#[test]
fn dropout_hurts_monotonically_in_expectation() {
    let (test, shards, model) = setup();
    let h = Hierarchy::balanced(2, 2);
    let algo = HierFavg::new(0.05);
    // Average loss over seeds to smooth fault-pattern noise.
    let mean_loss = |dropout: f64| -> f64 {
        (0..3)
            .map(|seed| {
                let c = RunConfig {
                    seed,
                    dropout,
                    ..cfg(dropout)
                };
                run(&algo, &model, &RunSpec::hierarchy(&h, &shards), &test, &c)
                    .unwrap()
                    .curve
                    .final_train_loss()
                    .unwrap()
            })
            .sum::<f64>()
            / 3.0
    };
    let clean = mean_loss(0.0);
    let faulty = mean_loss(0.6);
    assert!(
        clean <= faulty,
        "60% dropout should not train better than fault-free: {clean} vs {faulty}"
    );
}

#[test]
fn dropout_runs_are_deterministic_per_seed() {
    let (test, shards, model) = setup();
    let h = Hierarchy::balanced(2, 2);
    let algo = HierAdMo::adaptive(0.05, 0.5);
    let a = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg(0.4),
    )
    .unwrap();
    let b = run(
        &algo,
        &model,
        &RunSpec::hierarchy(&h, &shards),
        &test,
        &cfg(0.4),
    )
    .unwrap();
    assert_eq!(a.curve, b.curve, "same seed, same fault pattern");
}
