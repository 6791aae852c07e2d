//! Repository benchmark: runs one workload's engine call repeatedly for a
//! fixed time and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mlp-tick|sampled-1m|chaos-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics from untraced calls.
//! `--trace 1` alternates untraced calls with calls through
//! [`trace::TracedModel`] / [`trace::TracedStrategy`] and reports the
//! per-layer metrics. Diagnostics go to standard error; the last line of
//! standard output is the result object.

mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use hieradmo_models::Model;
use trace::{LayerTotals, TracedModel, TracedStrategy};
use workloads::{Exact, Inputs, Outcome, SetupTimes, Workload};

/// Set-up repeats until it has run this long (and at least
/// `SETUP_MIN_REPS` times); `setup_s` is the median.
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 61;
/// Timed engine calls per run, at least (per side in a traced run).
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let name = get("--workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmRSS` of this process in bytes (0 where `/proc` is unavailable).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            let kb: u64 = line
                .strip_prefix("VmRSS:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()?;
            Some(kb * 1024)
        })
        .unwrap_or(0)
}

const MIB: f64 = 1024.0 * 1024.0;

/// The host-drift witness: a fixed std-only compute and memory loop,
/// timed in seconds. It does the same work on every run and every
/// commit, so a change in its time is the host, not the program.
fn host_probe() -> f64 {
    let t = Instant::now();
    let mut buf = vec![0u64; 1 << 17];
    let mask = buf.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..(1u64 << 21) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (x >> 40) as usize & mask;
        buf[j] = buf[j].wrapping_add(x ^ i);
    }
    std::hint::black_box(&buf);
    t.elapsed().as_secs_f64()
}

/// Tallies engine calls and checks that every exact metric repeats.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    reference: Option<Exact>,
}

impl Ledger {
    /// Records one call; returns its outcome when it completed.
    fn record(&mut self, inputs: &Inputs, result: Attempt) -> Option<(f64, Outcome)> {
        self.attempted += 1;
        let (start, end, raw) = match result {
            Ok(Ok(r)) => r,
            Ok(Err(e)) => {
                eprintln!("engine error: {e}");
                self.failed += 1;
                return None;
            }
            Err(_) => {
                eprintln!("engine panicked");
                self.failed += 1;
                return None;
            }
        };
        let outcome = inputs.outcome(&raw);
        let x = &outcome.exact;
        let mut bad = false;
        if !x.params_finite {
            eprintln!("non-finite parameters");
            bad = true;
        }
        if x.steps_to_target.is_none() {
            eprintln!(
                "missed the accuracy target {} (final {})",
                inputs.workload.target(),
                x.final_accuracy
            );
            bad = true;
        }
        match &self.reference {
            None => {
                let pts: Vec<String> = x
                    .curve
                    .iter()
                    .map(|&(i, a)| format!("{i}:{:.4}", f64::from_bits(a)))
                    .collect();
                eprintln!("[{}] curve {}", inputs.workload.name(), pts.join(" "));
                self.reference = Some(x.clone());
            }
            Some(r) if r != x => {
                eprintln!("determinism regression: {x:?} differs from {r:?}");
                bad = true;
            }
            Some(_) => {}
        }
        if bad {
            self.failed += 1;
        }
        Some(((end - start) as f64 / 1e9, outcome))
    }
}

fn untraced(inputs: &Inputs) -> Attempt {
    let strategy = inputs.strategy();
    catch_unwind(AssertUnwindSafe(|| inputs.call(&strategy, &inputs.model)))
}

fn traced(inputs: &Inputs) -> (Attempt, Vec<trace::Span>) {
    let strategy = TracedStrategy(inputs.strategy());
    let model = TracedModel(inputs.model.clone());
    trace::reset();
    let r = catch_unwind(AssertUnwindSafe(|| inputs.call(&strategy, &model)));
    (r, trace::take())
}

type Metric = (&'static str, &'static str, f64);
/// An engine call that may have panicked.
type Attempt = std::thread::Result<workloads::Call>;

fn print_result(correct: bool, ledger: &Ledger, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} dispatch={} threads={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        hieradmo_tensor::kernels::dispatch_level().name(),
        w.threads()
    );

    // Set-up: repeated, medians reported; every repeat must build the
    // same inputs.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let mut init_params = None;
    let mut setup_consistent = true;
    let setup_started = Instant::now();
    while setups.len() < SETUP_MIN_REPS
        || (setups.len() < SETUP_MAX_REPS && setup_started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let (i, t) = workloads::setup(w, args.seed);
        let p: Vec<u32> = i.model.params().iter().map(|x| x.to_bits()).collect();
        match &init_params {
            None => init_params = Some(p),
            Some(prev) if *prev != p => setup_consistent = false,
            Some(_) => {}
        }
        inputs = Some(i);
        setups.push(t);
    }
    let inputs = inputs.expect("set-up ran at least once");
    let setup_rss = rss_bytes();
    let setup_med = |f: fn(&SetupTimes) -> u64| {
        median(&setups.iter().map(|s| f(s) as f64 / 1e9).collect::<Vec<_>>())
    };

    let mut ledger = Ledger::default();
    let mut probes = Vec::new();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut layers: Vec<(f64, LayerTotals)> = Vec::new();
    let mut phases = None;

    // Warm-up call: fills caches and the allocator, sets the reference
    // outcome; not timed into any metric.
    probes.push(host_probe());
    if let Some((_, o)) = ledger.record(&inputs, untraced(&inputs)) {
        phases = o.phases;
    }
    probes.push(host_probe());

    let started = Instant::now();
    loop {
        probes.push(host_probe());
        if let Some((s, _)) = ledger.record(&inputs, untraced(&inputs)) {
            plain_s.push(s);
        }
        probes.push(host_probe());
        if args.trace {
            let (r, spans) = traced(&inputs);
            if let Some((s, _)) = ledger.record(&inputs, r) {
                traced_s.push(s);
                layers.push((s, LayerTotals::from_spans(&spans)));
            }
            probes.push(host_probe());
        }
        let per_rep = median(&plain_s) + median(&traced_s);
        let done = plain_s.len().min(if args.trace {
            traced_s.len()
        } else {
            usize::MAX
        });
        let elapsed = started.elapsed().as_secs_f64();
        if ledger.failed > 0 && ledger.reference.is_none() {
            break;
        }
        if done >= MIN_REPS && elapsed + per_rep > args.seconds {
            break;
        }
    }

    let correct = ledger.failed == 0 && setup_consistent;
    if !setup_consistent {
        eprintln!("set-up is not deterministic: repeated set-ups built different models");
    }
    let exact = ledger.reference.clone();
    let train_s = median(&plain_s);
    let peak = hieradmo_bench::peak_rss_bytes().unwrap_or(0);
    eprintln!(
        "[{}] set-up {:.4}s (x{}), train {:.4}s median of {} [{}], probe {:.4}s",
        w.name(),
        setup_med(SetupTimes::total),
        setups.len(),
        train_s,
        plain_s.len(),
        plain_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        median(&probes)
    );

    let x = exact.unwrap_or_default();

    let metrics: Vec<Metric> = if !args.trace {
        vec![
            ("setup_s", "s", setup_med(SetupTimes::total)),
            ("train_s", "s", train_s),
            (
                "samples_per_s",
                "samples/s",
                inputs.samples() as f64 / train_s,
            ),
            ("peak_rss_mb", "MiB", peak as f64 / MIB),
            ("final_accuracy", "fraction", x.final_accuracy),
            (
                "steps_to_target",
                "iters",
                x.steps_to_target.unwrap_or(inputs.cfg.total_iters) as f64,
            ),
            (
                "sim_s_to_target",
                "sim_s",
                x.sim_s_to_target.unwrap_or(x.sim_s_total),
            ),
        ]
    } else {
        layer_metrics(&inputs, &x, &layers, train_s, median(&traced_s), phases)
            .into_iter()
            .chain([
                ("data.synth_s", "s", setup_med(|s| s.synth)),
                ("data.partition_s", "s", setup_med(|s| s.partition)),
                ("models.init_s", "s", setup_med(|s| s.init)),
                ("topology.build_s", "s", setup_med(|s| s.build)),
                ("mem.setup_rss_mb", "MiB", setup_rss as f64 / MIB),
                (
                    "mem.train_growth_mb",
                    "MiB",
                    peak.saturating_sub(setup_rss) as f64 / MIB,
                ),
                (
                    "population.rss_bytes_per_slot",
                    "bytes",
                    peak.saturating_sub(setup_rss) as f64 / inputs.slots() as f64,
                ),
                ("host.probe_s", "s", median(&probes)),
            ])
            .collect()
    };
    print_result(correct, &ledger, &metrics);
    ExitCode::SUCCESS
}

/// Per-layer metrics from the traced calls: the median over calls of each
/// figure, plus the exact counters of the run.
fn layer_metrics(
    inputs: &Inputs,
    x: &Exact,
    layers: &[(f64, LayerTotals)],
    plain_train_s: f64,
    traced_train_s: f64,
    phases: Option<hieradmo_core::PhaseTimings>,
) -> Vec<Metric> {
    let threads = inputs.workload.threads() as f64;
    let ns = |v: u64| v as f64 / 1e9;
    let med = |f: &dyn Fn(f64, &LayerTotals) -> f64| {
        median(&layers.iter().map(|(s, t)| f(*s, t)).collect::<Vec<_>>())
    };
    let count = |f: fn(&LayerTotals) -> u64| layers.first().map_or(0.0, |(_, t)| f(t) as f64);

    if let Some((s, t)) = layers.first() {
        let overlap = ns(t.busy_ns) - ns(t.covered_ns);
        eprintln!(
            "[{}] traced call {s:.4}s = layer self {:.4}s (grad {:.4} + step {:.4} + eval {:.4} \
             + edge {:.4} + middle {:.4} + root {:.4} + global {:.4}) - overlap {overlap:.4}s \
             + engine residual {:.4}s",
            inputs.workload.name(),
            ns(t.self_parts_ns()),
            ns(t.grad_ns),
            ns(t.step_self_ns),
            ns(t.eval_ns),
            ns(t.edge_ns),
            ns(t.middle_ns),
            ns(t.root_ns),
            ns(t.gp_ns),
            s - ns(t.covered_ns),
        );
        if let Some(p) = phases {
            eprintln!(
                "[{}] core phase timings (untraced warm-up): local {:.4}s, edge {:.4}s, \
                 cloud {:.4}s, eval {:.4}s",
                inputs.workload.name(),
                p.local_steps.as_secs_f64(),
                p.edge_agg.as_secs_f64(),
                p.cloud_agg.as_secs_f64(),
                p.eval.as_secs_f64()
            );
        }
    }

    let replays: Vec<(u64, u64)> = (0..15).filter_map(|_| inputs.replay_cohorts()).collect();
    let draws = replays.first().map_or(0.0, |&(d, _)| d as f64);
    let draws_per_s = if replays.is_empty() {
        0.0
    } else {
        median(
            &replays
                .iter()
                .map(|&(d, t)| d as f64 / ns(t))
                .collect::<Vec<_>>(),
        )
    };

    vec![
        ("models.grad.calls", "count", count(|t| t.grad_calls)),
        ("models.grad.busy_s", "s", med(&|_, t| ns(t.grad_ns))),
        (
            "models.grad.us_per_call",
            "us",
            med(&|_, t| ns(t.grad_ns) * 1e6 / t.grad_calls.max(1) as f64),
        ),
        ("models.eval.calls", "count", count(|t| t.eval_calls)),
        ("models.eval.busy_s", "s", med(&|_, t| ns(t.eval_ns))),
        ("core.local_step.calls", "count", count(|t| t.step_calls)),
        (
            "core.local_step.self_s",
            "s",
            med(&|_, t| ns(t.step_self_ns)),
        ),
        ("core.edge_agg.calls", "count", count(|t| t.edge_calls)),
        ("core.edge_agg.busy_s", "s", med(&|_, t| ns(t.edge_ns))),
        ("core.middle_agg.calls", "count", count(|t| t.middle_calls)),
        (
            "core.middle_agg.share",
            "fraction",
            med(&|s, t| ns(t.middle_ns) / s),
        ),
        ("core.root_agg.busy_s", "s", med(&|_, t| ns(t.root_ns))),
        ("core.global_params.calls", "count", count(|t| t.gp_calls)),
        (
            "core.global_params.share",
            "fraction",
            med(&|s, t| ns(t.gp_ns) / s),
        ),
        ("engine.self_s", "s", med(&|s, t| s - ns(t.covered_ns))),
        (
            "engine.busy_share",
            "fraction",
            med(&|s, t| ns(t.busy_ns) / (threads * s)),
        ),
        ("population.cohort.draws", "count", draws),
        ("population.cohort.draws_per_s", "1/s", draws_per_s),
        ("simrt.events", "count", x.events as f64),
        ("simrt.events_per_s", "1/s", x.events as f64 / plain_train_s),
        ("simrt.worker_utilization", "fraction", x.utilization),
        ("netsim.crashes", "count", x.faults[0] as f64),
        ("netsim.retries", "count", x.faults[1] as f64),
        ("netsim.transfer_failures", "count", x.faults[2] as f64),
        ("netsim.messages_lost", "count", x.faults[3] as f64),
        ("topology.migrations", "count", x.topology[0] as f64),
        ("topology.reformations", "count", x.topology[1] as f64),
        ("topology.orphaned_rounds", "count", x.topology[2] as f64),
        (
            "trace.overhead",
            "fraction",
            traced_train_s / plain_train_s - 1.0,
        ),
    ]
}
