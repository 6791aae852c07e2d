//! Integration of training with the trace-driven network simulator: the
//! full Fig. 2(h)/(l) pipeline (train → curve → timeline → time-to-acc).

use hieradmo::core::algorithms::{FedNag, HierAdMo};
use hieradmo::core::{run, RunConfig, RunSpec};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::{generate, SyntheticSpec};
use hieradmo::models::{zoo, Model};
use hieradmo::netsim::payload::payload_bytes;
use hieradmo::netsim::{simulate_timeline, Architecture, NetworkEnv, TraceConfig};
use hieradmo::topology::{Hierarchy, Schedule};

#[test]
fn full_trace_driven_pipeline_produces_times() {
    let spec = SyntheticSpec {
        num_classes: 4,
        shape: hieradmo::data::FeatureShape::Flat(16),
        noise: 0.4,
        prototype_scale: 1.0,
        max_shift: 0,
        class_group: 1,
    };
    let tt = generate(&spec, 30, 10, 3);
    let shards = x_class_partition(&tt.train, 4, 2, 3);
    let model = zoo::logistic_regression(&tt.train, 3);
    let dim = model.dim();
    let total = 100;
    let env = NetworkEnv::paper_testbed(4);

    // Three-tier HierAdMo.
    let cfg3 = RunConfig {
        eta: 0.05,
        tau: 10,
        pi: 2,
        total_iters: total,
        batch_size: 16,
        eval_every: 10,
        threads: Some(1),
        ..RunConfig::default()
    };
    let h3 = Hierarchy::balanced(2, 2);
    let res3 = run(
        &HierAdMo::adaptive(0.05, 0.5),
        &model,
        &RunSpec::hierarchy(&h3, &shards),
        &tt.test,
        &cfg3,
    )
    .unwrap();
    let tl3 = simulate_timeline(
        &env,
        &TraceConfig {
            schedule: Schedule::three_tier(10, 2, total).unwrap(),
            hierarchy: h3,
            architecture: Architecture::ThreeTier,
            upload_bytes: payload_bytes(dim, 4),
            download_bytes: payload_bytes(dim, 2),
            seed: 5,
        },
    );

    // Two-tier FedNAG with the fairness-rule schedule.
    let cfg2 = cfg3.two_tier_equivalent();
    let h2 = Hierarchy::two_tier(4);
    let res2 = run(
        &FedNag::new(0.05, 0.5),
        &model,
        &RunSpec::hierarchy(&h2, &shards),
        &tt.test,
        &cfg2,
    )
    .unwrap();
    let tl2 = simulate_timeline(
        &env,
        &TraceConfig {
            schedule: Schedule::two_tier(20, total).unwrap(),
            hierarchy: h2,
            architecture: Architecture::TwoTier,
            upload_bytes: payload_bytes(dim, 2),
            download_bytes: payload_bytes(dim, 2),
            seed: 5,
        },
    );

    // Both reach a modest target; both timelines yield a finite time.
    let target = 0.6;
    let t3 = tl3.time_to_accuracy(&res3.curve, target);
    let t2 = tl2.time_to_accuracy(&res2.curve, target);
    assert!(t3.is_some(), "HierAdMo never reached {target}");
    assert!(t2.is_some(), "FedNAG never reached {target}");
    assert!(t3.unwrap() > 0.0 && t2.unwrap() > 0.0);

    // Per full schedule, the three-tier run must not pay more WAN time:
    // it crosses the WAN 5 times vs 5 for two-tier, but its other 5
    // aggregations are LAN-only — so equal-or-faster overall, modulo the
    // heavier HierAdMo payload. Allow a generous band and check the
    // communication structure is sane.
    assert!(tl3.total_seconds() < tl2.total_seconds() * 2.0);
}

#[test]
fn wan_dominance_grows_with_model_size() {
    // The architectural gap (paper Fig. 1) widens with payload size: for a
    // large model, two-tier total time inflates much faster than
    // three-tier.
    let env = NetworkEnv::paper_testbed(4);
    let ratio = |dim: usize| {
        let three = simulate_timeline(
            &env,
            &TraceConfig::new(
                Schedule::three_tier(10, 2, 200).unwrap(),
                Hierarchy::balanced(2, 2),
                Architecture::ThreeTier,
                payload_bytes(dim, 1),
                9,
            ),
        );
        let two = simulate_timeline(
            &env,
            &TraceConfig::new(
                Schedule::two_tier(20, 200).unwrap(),
                Hierarchy::two_tier(4),
                Architecture::TwoTier,
                payload_bytes(dim, 1),
                9,
            ),
        );
        two.total_seconds() / three.total_seconds()
    };
    let small = ratio(1_000);
    let large = ratio(5_000_000);
    assert!(
        large > small,
        "two-tier/three-tier time ratio should grow with model size: \
         {small:.3} (1k params) vs {large:.3} (5M params)"
    );
    assert!(
        large > 1.0,
        "for big models two-tier must be slower: {large:.3}"
    );
}
