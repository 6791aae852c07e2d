//! Checkpointing: stop a run at an edge boundary, persist the federation
//! state to JSON, reload it and resume — the resumed run lands bitwise on
//! the uninterrupted one, so long experiments survive restarts. The
//! finished run's outcome is saved as a [`Checkpoint`] too, which keeps
//! recorded numbers regenerable.
//!
//! ```text
//! cargo run --release --example checkpointing
//! ```

use hieradmo::core::algorithms::HierAdMo;
use hieradmo::core::checkpoint::Checkpoint;
use hieradmo::core::{run, RunConfig, RunError, RunSpec, TrainingSnapshot};
use hieradmo::data::partition::x_class_partition;
use hieradmo::data::synthetic::SyntheticDataset;
use hieradmo::models::zoo;
use hieradmo::topology::Hierarchy;

fn main() -> Result<(), RunError> {
    let tt = SyntheticDataset::mnist_like(30, 10, 21);
    let hierarchy = Hierarchy::balanced(2, 2);
    let shards = x_class_partition(&tt.train, 4, 5, 21);
    let model = zoo::logistic_regression(&tt.train, 21);
    let algo = HierAdMo::adaptive(0.01, 0.5);
    let cfg = RunConfig {
        tau: 10,
        pi: 2,
        total_iters: 200,
        eval_every: 50,
        batch_size: 16,
        ..RunConfig::default()
    };
    let spec = RunSpec::hierarchy(&hierarchy, &shards);

    // The reference: the whole budget in one go.
    let whole = run(&algo, &model, &spec, &tt.test, &cfg)?;

    // Phase 1: train half the budget and snapshot the federation.
    let stop = cfg.total_iters / 2;
    let phase1 = run(
        &algo,
        &model,
        &RunSpec {
            stop_at: Some(stop),
            ..spec
        },
        &tt.test,
        &cfg,
    )?;
    let path = std::env::temp_dir().join("hieradmo-demo-snapshot.json");
    let snapshot = phase1.snapshot.as_ref().expect("a stop_at run snapshots");
    snapshot.save(&path).expect("snapshot write");
    println!(
        "phase 1: accuracy {:.2}% after {stop} iters — snapshot saved to {}",
        phase1.curve.final_accuracy().unwrap() * 100.0,
        path.display()
    );

    // Phase 2 (possibly a new process): reload and resume.
    let restored = TrainingSnapshot::load(&path).expect("snapshot read");
    let phase2 = run(
        &algo,
        &model,
        &RunSpec {
            resume: Some(&restored),
            ..spec
        },
        &tt.test,
        &cfg,
    )?;
    println!(
        "phase 2: accuracy {:.2}% after {} more iters (resumed from the snapshot)",
        phase2.curve.final_accuracy().unwrap() * 100.0,
        cfg.total_iters - stop
    );

    // The two phases are the whole run, bit for bit.
    let joined: Vec<_> = phase1
        .curve
        .points()
        .iter()
        .chain(phase2.curve.points())
        .copied()
        .collect();
    assert_eq!(whole.curve.points(), &joined[..]);
    assert_eq!(whole.final_params, phase2.final_params);
    println!("stop + resume reproduces the uninterrupted run bitwise");

    // The finished run's outcome, for report regeneration.
    Checkpoint::capture(&phase2, &cfg)
        .save(&path)
        .expect("checkpoint write");
    let outcome = Checkpoint::load(&path).expect("checkpoint read");
    assert_eq!(outcome.final_params, whole.final_params);
    std::fs::remove_file(&path).ok();
    Ok(())
}
