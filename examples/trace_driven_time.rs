//! Trace-driven wall-clock estimation (the paper's Fig. 2(h)/(l) method):
//! train three-tier HierAdMo and two-tier FedNAG to the same accuracy,
//! then replay both traces against the emulated testbed (laptop + three
//! phones on WiFi, WAN to the cloud) and compare total training time.
//!
//! ```text
//! cargo run --release --example trace_driven_time
//! ```

use hieradmo::core::algorithms::{FedNag, HierAdMo};
use hieradmo::core::{run, RunConfig, RunError, RunSpec};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::{zoo, Model};
use hieradmo::netsim::payload::payload_bytes;
use hieradmo::netsim::{simulate_timeline, Architecture, NetworkEnv, TraceConfig};
use hieradmo::topology::{Hierarchy, Schedule};

fn main() -> Result<(), RunError> {
    let tt = SyntheticDataset::mnist_like(40, 10, 9);
    let shards = x_class_partition(&tt.train, 4, 5, 9);
    let model = zoo::logistic_regression(&tt.train, 9);
    let dim = model.dim();
    let target = 0.80;
    let total = 200;
    let env = NetworkEnv::paper_testbed(4);

    // Three-tier HierAdMo: τ = 10, π = 2.
    let cfg3 = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: total,
        eval_every: 10,
        batch_size: 16,
        ..RunConfig::default()
    };
    let h3 = Hierarchy::balanced(2, 2);
    let res3 = run(
        &HierAdMo::adaptive(cfg3.eta, cfg3.gamma),
        &model,
        &RunSpec::hierarchy(&h3, &shards),
        &tt.test,
        &cfg3,
    )?;
    let trace3 = TraceConfig {
        schedule: Schedule::three_tier(10, 2, total).expect("valid"),
        hierarchy: h3,
        architecture: Architecture::ThreeTier,
        upload_bytes: payload_bytes(dim, 4), // y, x, Σ∇F, Σy (line 9)
        download_bytes: payload_bytes(dim, 2),
        seed: 1,
    };
    let tl3 = simulate_timeline(&env, &trace3);

    // Two-tier FedNAG: τ = 20 (the fairness rule).
    let cfg2 = cfg3.two_tier_equivalent();
    let h2 = Hierarchy::two_tier(4);
    let res2 = run(
        &FedNag::new(cfg2.eta, cfg2.gamma),
        &model,
        &RunSpec::hierarchy(&h2, &shards),
        &tt.test,
        &cfg2,
    )?;
    let trace2 = TraceConfig {
        schedule: Schedule::two_tier(20, total).expect("valid"),
        hierarchy: h2,
        architecture: Architecture::TwoTier,
        upload_bytes: payload_bytes(dim, 2),
        download_bytes: payload_bytes(dim, 2),
        seed: 1,
    };
    let tl2 = simulate_timeline(&env, &trace2);

    println!("target accuracy: {:.0}%", target * 100.0);
    for (name, res, tl) in [
        ("HierAdMo (3-tier)", &res3, &tl3),
        ("FedNAG   (2-tier)", &res2, &tl2),
    ] {
        match tl.time_to_accuracy(&res.curve, target) {
            Some(secs) => println!(
                "{name}: reached in {:>4} iters ≈ {secs:.1}s emulated wall-clock",
                res.curve.iterations_to_accuracy(target).unwrap()
            ),
            None => println!(
                "{name}: never reached (best {:.2}%)",
                res.curve.best_accuracy().unwrap_or(0.0) * 100.0
            ),
        }
    }
    let (b3, b2) = (tl3.breakdown(), tl2.breakdown());
    println!(
        "\nfull-schedule time: 3-tier {:.1}s ({:.0}% on the WAN) vs \
         2-tier {:.1}s ({:.0}% on the WAN)",
        tl3.total_seconds(),
        b3.wan_fraction() * 100.0,
        tl2.total_seconds(),
        b2.wan_fraction() * 100.0
    );
    println!(
        "with this small logistic model, compute dominates both; the \
         architectural gap opens with model size (see the \
         `wan_dominance_grows_with_model_size` integration test)"
    );
    Ok(())
}
