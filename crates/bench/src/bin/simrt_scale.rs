//! **Million-worker scale benchmark**: runs the event-driven engine over
//! a virtual [`WorkerPopulation`] with per-round client sampling and
//! records that cost scales with the *sampled cohort*, not the
//! registered population. Writes `BENCH_scale.json`.
//!
//! ```text
//! cargo run -p hieradmo-bench --release --bin simrt_scale -- \
//!     [--population 1000000] [--sample 2048] [--edges 16] \
//!     [--rounds 4] [--tiers 3] [--seed 7] [--threads 1,<nproc>] \
//!     [--out BENCH_scale.json]
//! ```
//!
//! `--tiers N` (default 3, the classic worker/edge/cloud arrangement)
//! inserts `N - 3` fanout-2 averaging tiers between the edges and the
//! root, so CI records a depth-4 sampled datapoint: deep trees add
//! middle-tier aggregation work but no per-registered-worker cost.
//!
//! The registered population never materializes: workers exist as
//! per-edge counts plus shard descriptors, each round samples
//! `--sample / --edges` clients per edge without replacement, and only
//! those cohort slots get state, batch streams and events. The two
//! scale proofs the JSON records:
//!
//! - **bytes per sampled slot**: the run's resident-memory growth (peak
//!   `VmHWM` over the `VmRSS` before the first run, via
//!   [`hieradmo_bench::peak_rss_bytes`] and [`hieradmo_bench::rss_bytes`])
//!   divided by the cohort size — nothing proportional to the million
//!   registered workers;
//! - **events** is O(sampled · rounds) — the registered population
//!   appears in no queue.
//!
//! The same run repeats three times per `--threads` entry (default `1`
//! and the machine's `nproc`). The JSON records the machine (`nproc`,
//! kernel dispatch level), each count's fastest wall time, the speedup
//! over the first count and the Karp–Flatt serial fraction
//! `e = (1/S − 1/p) / (1 − 1/p)`. The trajectory is deterministic for any
//! thread count, so the binary exits non-zero unless every pass gives the
//! same events, final accuracy and final-params hash.

use std::process::ExitCode;
use std::time::Instant;

use hieradmo_bench::cli::Cli;
use hieradmo_core::algorithms::HierAdMo;
use hieradmo_core::{ClientSampling, RunConfig, WorkerPopulation};
use hieradmo_data::partition::x_class_partition;
use hieradmo_data::synthetic::SyntheticDataset;
use hieradmo_models::{zoo, Model};
use hieradmo_netsim::payload::payload_bytes;
use hieradmo_netsim::{Architecture, NetworkEnv};
use hieradmo_simrt::{simulate_virtual, SimConfig, SimResult, SyncPolicy};
use hieradmo_tensor::kernels;
use hieradmo_topology::{TierSpec, TierTree};
use serde::Serialize;

/// Algorithm 1 line 9 ships y, x, Σ∇F, Σy per upload.
const UPLOAD_VECTORS: usize = 4;

/// Passes per thread count; the fastest is recorded.
const PASSES: usize = 3;

/// One thread count, fastest of [`PASSES`] passes.
#[derive(Serialize)]
struct ThreadRun {
    threads: usize,
    wall_s: f64,
    events_per_sec: f64,
    /// Wall time of the first thread count over this one's.
    speedup: f64,
    /// Karp–Flatt serial fraction; `None` at one thread, where it is
    /// undefined.
    serial_fraction: Option<f64>,
}

#[derive(Serialize)]
struct ScaleReport {
    bench: &'static str,
    target: String,
    nproc: usize,
    dispatch: &'static str,
    passes: usize,
    registered_workers: u64,
    sampled_per_round: usize,
    edges: usize,
    tiers: usize,
    rounds: usize,
    tau: usize,
    pi: usize,
    model_dim: usize,
    events: u64,
    events_per_registered_worker: f64,
    simulated_seconds: f64,
    final_accuracy: Option<f64>,
    /// FNV-1a over the final parameters' bits, as hex.
    final_params_hash: String,
    runs: Vec<ThreadRun>,
    peak_rss_bytes: Option<u64>,
    /// Peak resident memory over the one before the first run, per
    /// sampled slot.
    rss_bytes_per_sampled_slot: Option<f64>,
}

/// What every thread count must reproduce exactly.
fn outcome(res: &SimResult) -> (u64, Option<f64>, String) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for x in res.final_params.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let accuracy = res.timed_curve.points().last().map(|p| p.test_accuracy);
    (res.events, accuracy, format!("{hash:016x}"))
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let population: u64 = cli.get_or("population", 1_000_000);
    let sample: usize = cli.get_or("sample", 2048);
    let edges: usize = cli.get_or("edges", 16);
    let rounds: usize = cli.get_or("rounds", 4);
    let tiers: usize = cli.get_or("tiers", 3);
    let seed: u64 = cli.get_or("seed", 7);
    let out_path = cli.get("out").unwrap_or("BENCH_scale.json").to_string();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let thread_counts: Vec<usize> = match cli.get("threads") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("--threads takes a comma-separated list")
            })
            .collect(),
        None if nproc > 1 => vec![1, nproc],
        None => vec![1],
    };
    assert!(
        !thread_counts.is_empty() && thread_counts.iter().all(|&t| t > 0),
        "--threads needs at least one positive count"
    );

    assert!(edges > 0, "--edges must be positive");
    assert!(tiers >= 3, "--tiers must be at least 3");
    let middles = tiers - 3;
    assert!(
        edges.is_multiple_of(1 << middles),
        "--edges {edges} must be a multiple of 2^(tiers - 3) = {}",
        1usize << middles
    );
    assert!(
        population.is_multiple_of(edges as u64),
        "--population {population} must divide evenly across --edges {edges}"
    );
    assert!(
        sample.is_multiple_of(edges) && sample > 0,
        "--sample {sample} must be a positive multiple of --edges {edges}"
    );
    let per_edge = population / edges as u64;
    let per_edge_sample = sample / edges;

    // Data shards are the *descriptor* side of the population: a modest
    // pool of partitions that registered workers map onto round-robin,
    // so data memory is O(shards), never O(population).
    let num_shards = 64.min(sample.max(1));
    let tt = SyntheticDataset::mnist_like(512, 128, seed);
    let shards = x_class_partition(&tt.train, num_shards, 4, seed.wrapping_add(2));
    let pop = WorkerPopulation::uniform(edges, per_edge, num_shards)
        .expect("benchmark population shape is valid");

    let model = zoo::logistic_regression(&tt.train, seed.wrapping_add(100));
    let tau = 5;
    // Beyond depth 3, fanout-2 averaging tiers (interval 2) sit between
    // the edges and the root; π is then the tree's whole product.
    let tree = (middles > 0).then(|| {
        let mut levels = vec![TierSpec::new(edges >> middles, 2)];
        levels.extend(vec![TierSpec::new(2, 2); middles]);
        levels.push(TierSpec::new(per_edge as usize, tau));
        TierTree::new(levels).expect("benchmark tier tree shape is valid")
    });
    let pi = tree.as_ref().map_or(2, TierTree::pi_total);
    let total_iters = rounds * tau;
    let cfg = RunConfig {
        tau,
        pi,
        total_iters,
        batch_size: 16,
        eval_every: total_iters,
        seed,
        sampling: ClientSampling::PerEdge {
            count: per_edge_sample,
        },
        ..RunConfig::default()
    };
    let env = NetworkEnv::paper_testbed(8);
    let mut sim = SimConfig::new(
        env,
        Architecture::ThreeTier,
        payload_bytes(model.dim(), UPLOAD_VECTORS),
        seed.wrapping_add(7),
        SyncPolicy::FullSync,
    );
    if let Some(t) = &tree {
        sim = sim.with_tiers(t.clone());
    }
    let algo = HierAdMo::adaptive(cfg.eta, cfg.gamma);

    eprintln!(
        "[simrt_scale] {population} registered workers on {edges} edges \
         ({tiers} tiers), sampling {sample}/round for {rounds} rounds \
         (τ={tau}, π={pi})"
    );
    let rss_before = hieradmo_bench::rss_bytes();
    let mut results = Vec::new();
    let mut runs: Vec<ThreadRun> = Vec::new();
    for &threads in &thread_counts {
        let cfg = RunConfig {
            threads: Some(threads),
            ..cfg.clone()
        };
        let mut wall_s = f64::INFINITY;
        for _ in 0..PASSES {
            let t = Instant::now();
            let res = simulate_virtual(&algo, &model, &pop, &shards, &tt.test, &cfg, &sim)
                .expect("scale run failed");
            wall_s = wall_s.min(t.elapsed().as_secs_f64());
            results.push((threads, res));
        }
        let speedup = runs.first().map_or(1.0, |first| first.wall_s / wall_s);
        // Karp–Flatt against the first count, read as the serial
        // baseline.
        let p = threads as f64 / thread_counts[0] as f64;
        let serial_fraction = (p > 1.0).then(|| (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p));
        runs.push(ThreadRun {
            threads,
            wall_s,
            events_per_sec: results[0].1.events as f64 / wall_s,
            speedup,
            serial_fraction,
        });
    }
    let res = &results[0].1;
    let reference = outcome(res);
    let mut diverged: Vec<usize> = results
        .iter()
        .filter(|(_, r)| outcome(r) != reference)
        .map(|&(t, _)| t)
        .collect();
    diverged.dedup();
    let (events, final_accuracy, final_params_hash) = reference;

    let peak_rss = hieradmo_bench::peak_rss_bytes();
    let growth = peak_rss.zip(rss_before).map(|(p, b)| p.saturating_sub(b));
    let report = ScaleReport {
        bench: "simrt_scale",
        target: std::env::consts::ARCH.to_string(),
        nproc,
        dispatch: kernels::dispatch_level().name(),
        passes: PASSES,
        registered_workers: population,
        sampled_per_round: sample,
        edges,
        tiers,
        rounds,
        tau,
        pi,
        model_dim: model.dim(),
        events,
        events_per_registered_worker: events as f64 / population as f64,
        simulated_seconds: res.simulated_seconds,
        final_accuracy,
        final_params_hash,
        runs,
        peak_rss_bytes: peak_rss,
        rss_bytes_per_sampled_slot: growth.map(|b| b as f64 / sample as f64),
    };

    // The scale claim in one line: event count must track the cohort,
    // not the registry. 32 events per sampled slot per round is an order
    // of magnitude of slack over the ~8 the engine actually schedules.
    assert!(
        report.events <= (sample * rounds * 32) as u64 + 1024,
        "event count {} is not O(sampled × rounds); scheduling leaked the registered population",
        report.events
    );

    println!(
        "== simrt_scale == nproc {}, dispatch {}",
        report.nproc, report.dispatch
    );
    println!(
        "{:>12} registered, {:>6} sampled/round, {} rounds: {} events, {:.2} simulated s",
        report.registered_workers,
        report.sampled_per_round,
        report.rounds,
        report.events,
        report.simulated_seconds,
    );
    for run in &report.runs {
        let serial = run
            .serial_fraction
            .map_or_else(|| "-".to_string(), |e| format!("{e:.3}"));
        println!(
            "{:>12} threads: {:.2}s wall ({:.0} events/s), speedup {:.2}, serial fraction {serial}",
            run.threads, run.wall_s, run.events_per_sec, run.speedup,
        );
    }
    match (report.peak_rss_bytes, report.rss_bytes_per_sampled_slot) {
        (Some(b), Some(per_slot)) => println!(
            "{:>12.1} MiB peak RSS ({per_slot:.0} bytes per sampled slot)",
            b as f64 / (1024.0 * 1024.0),
        ),
        _ => println!("RSS unavailable on this platform"),
    }

    let json = serde_json::to_string_pretty(&report).expect("report must serialize");
    std::fs::write(&out_path, json + "\n").expect("write BENCH json");
    println!("wrote {out_path}");
    if diverged.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "[simrt_scale] thread counts {diverged:?} diverged from {} thread(s): \
             events, final accuracy or final params differ",
            thread_counts[0]
        );
        ExitCode::FAILURE
    }
}
