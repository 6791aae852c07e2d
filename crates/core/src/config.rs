//! Run configuration: the paper's hyper-parameters in one struct.

use hieradmo_netsim::AdversaryPlan;
use hieradmo_topology::{ChurnPlan, TierTree};
use serde::{Deserialize, Serialize};

use crate::population::ClientSampling;
use crate::robust::RobustAggregator;

/// Hyper-parameters of one federated training run.
///
/// Defaults follow the paper's Section V-A: `η = 0.01`, `γ = γℓ = 0.5`,
/// batch size 64, and the convex-model three-tier schedule `τ = 10, π = 2`.
///
/// # Example
///
/// ```
/// use hieradmo_core::RunConfig;
///
/// let cfg = RunConfig { tau: 20, pi: 2, total_iters: 2000, ..RunConfig::default() };
/// assert_eq!(cfg.eta, 0.01);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Worker learning rate `η`.
    pub eta: f32,
    /// Worker momentum factor `γ`.
    pub gamma: f32,
    /// Edge momentum factor `γℓ` for fixed-momentum variants
    /// (HierAdMo adapts it online and ignores this field).
    pub gamma_edge: f32,
    /// Worker–edge aggregation period `τ`.
    pub tau: usize,
    /// Edge–cloud aggregation period `π` (in edge aggregations).
    pub pi: usize,
    /// Total local iterations `T` (must be a multiple of `τ·π`).
    pub total_iters: usize,
    /// Mini-batch size per local step.
    pub batch_size: usize,
    /// Evaluate the global model every this many iterations (and always at
    /// `t = T`).
    pub eval_every: usize,
    /// Master seed controlling data order and any stochastic algorithm
    /// choices. Model initialization is seeded separately by the caller.
    pub seed: u64,
    /// Number of execution-engine threads (including the caller's thread).
    ///
    /// `Some(n)` asks the worker pool for `n` threads; `None` uses all
    /// available cores. The pool never starts more threads than the run's
    /// widest batch — its workers or cohort slots, or one evaluation
    /// pass's chunks — can keep busy. Results are bitwise identical for
    /// every thread count — the engine chunks work in a fixed order — so
    /// this knob only trades wall-clock for cores. (This supersedes the
    /// removed boolean `parallel` flag; legacy configs carrying that field
    /// still deserialize, the unknown key is simply ignored.)
    #[serde(default)]
    pub threads: Option<usize>,
    /// Cap on the number of *training* samples used for the train-loss
    /// estimate at evaluation points (keeps evaluation cheap).
    pub train_eval_cap: usize,
    /// Failure injection: per-tick probability that a worker *drops* its
    /// local step (straggler/crash emulation). The dropped worker keeps
    /// its stale state and still participates in aggregations, matching
    /// synchronous FL with best-effort clients. `0.0` (default) disables
    /// injection and is bit-identical to a fault-free run.
    pub dropout: f64,
    /// Optional gradient clipping: worker mini-batch gradients are scaled
    /// down to this ℓ2 norm when they exceed it. `None` (default) matches
    /// the paper (no clipping); useful as a stabilizer in the
    /// large-momentum regimes where fixed γℓ diverges (see the
    /// Fig. 2(i)–(k) measurements in `EXPERIMENTS.md`).
    pub clip_norm: Option<f32>,
    /// The aggregation rule every child reduction (worker → edge and
    /// edge → cloud, model and momentum alike) routes through. The default
    /// ([`RobustAggregator::Mean`]) is the paper's data-weighted mean and
    /// keeps runs bitwise identical to configs that predate this field.
    #[serde(default)]
    pub aggregator: RobustAggregator,
    /// Which workers are Byzantine and what each one does to its uploads.
    /// The empty plan (default) corrupts nothing, draws nothing, and is
    /// bitwise identical to a run without adversary injection. Adversary
    /// RNG streams derive from [`RunConfig::seed`], so the same poisoned
    /// trajectory replays under any network timing seed.
    #[serde(default)]
    pub adversary: AdversaryPlan,
    /// Per-round client sampling policy for virtual-population runs
    /// ([`crate::population::run_virtual`]). The default
    /// ([`ClientSampling::Full`]) is today's full participation; classic
    /// [`crate::driver::run`] ignores this field entirely, so legacy
    /// configs (which predate it) deserialize and behave unchanged.
    #[serde(default)]
    pub sampling: ClientSampling,
    /// Deterministic topology churn for elastic runs
    /// ([`crate::elastic::run_elastic`]). The empty plan (default) freezes
    /// the tree and is bitwise identical to runs that predate this field;
    /// the frozen-tree entry points ([`crate::driver::run`] and friends)
    /// reject a non-empty plan and point at the elastic runner.
    #[serde(default)]
    pub churn: ChurnPlan,
    /// **Deprecated.** Edge-server count from seed-era flat configs that
    /// embedded the topology in the run config. Topology now lives in a
    /// [`hieradmo_topology::TierTree`] passed alongside the config; when
    /// both legacy fields are present, [`RunConfig::legacy_tier_tree`]
    /// maps them onto the equivalent depth-3 tree. Never re-serialized
    /// intent: leave `None` in new configs.
    #[serde(default)]
    pub edges: Option<usize>,
    /// **Deprecated.** Workers-per-edge count from seed-era flat configs;
    /// see [`RunConfig::edges`].
    #[serde(default)]
    pub workers_per_edge: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            eta: 0.01,
            gamma: 0.5,
            gamma_edge: 0.5,
            tau: 10,
            pi: 2,
            total_iters: 1000,
            batch_size: 64,
            eval_every: 50,
            seed: 0,
            threads: None,
            train_eval_cap: 512,
            dropout: 0.0,
            clip_norm: None,
            aggregator: RobustAggregator::default(),
            adversary: AdversaryPlan::none(),
            sampling: ClientSampling::Full,
            churn: ChurnPlan::none(),
            edges: None,
            workers_per_edge: None,
        }
    }
}

impl RunConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if `η ≤ 0`, momentum factors are
    /// outside `[0, 1)`, any period is zero, or `T` is not a multiple of
    /// `τ·π`.
    pub fn validate(&self) -> Result<(), String> {
        if self.eta <= 0.0 || !self.eta.is_finite() {
            return Err(format!("eta must be positive, got {}", self.eta));
        }
        if !(0.0..1.0).contains(&self.gamma) {
            return Err(format!("gamma must be in [0,1), got {}", self.gamma));
        }
        if !(0.0..1.0).contains(&self.gamma_edge) {
            return Err(format!(
                "gamma_edge must be in [0,1), got {}",
                self.gamma_edge
            ));
        }
        if self.tau == 0 || self.pi == 0 || self.total_iters == 0 {
            return Err("tau, pi and total_iters must be positive".into());
        }
        if !self.total_iters.is_multiple_of(self.tau * self.pi) {
            return Err(format!(
                "total_iters = {} is not a multiple of tau*pi = {}",
                self.total_iters,
                self.tau * self.pi
            ));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        if self.eval_every == 0 {
            return Err("eval_every must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.dropout) {
            return Err(format!("dropout must be in [0,1], got {}", self.dropout));
        }
        if let Some(clip) = self.clip_norm {
            if clip <= 0.0 || !clip.is_finite() {
                return Err(format!("clip_norm must be positive and finite, got {clip}"));
            }
        }
        if self.threads == Some(0) {
            return Err("threads must be at least 1 when set".into());
        }
        self.aggregator.validate()?;
        self.adversary.validate()?;
        self.sampling.validate()?;
        self.churn.validate()?;
        self.legacy_tier_tree()?;
        Ok(())
    }

    /// Resolves the execution-engine thread count.
    ///
    /// This is the single place [`RunConfig::threads`] is interpreted; both
    /// the tick-driven engine ([`crate::driver::run`]) and the event-driven
    /// co-simulation runtime (`hieradmo-simrt`) consult it. `Some(n)`
    /// requests `n` threads; `None` uses the machine's available
    /// parallelism. Always at least 1; `core::pool::Pool` caps it further
    /// at the lanes the run can fill.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Maps the deprecated [`RunConfig::edges`] / `workers_per_edge`
    /// fields onto the depth-3 [`TierTree`] they always described:
    /// `[{fanout: edges, interval: pi, Wan}, {fanout: workers_per_edge,
    /// interval: tau, Lan}]`.
    ///
    /// Returns `Ok(None)` when neither legacy field is set (the modern
    /// shape: topology travels separately).
    ///
    /// # Errors
    ///
    /// One legacy field without the other, or a zero count.
    pub fn legacy_tier_tree(&self) -> Result<Option<TierTree>, String> {
        match (self.edges, self.workers_per_edge) {
            (None, None) => Ok(None),
            (Some(edges), Some(wpe)) => {
                if edges == 0 || wpe == 0 {
                    return Err(format!(
                        "legacy edges ({edges}) and workers_per_edge ({wpe}) must be positive"
                    ));
                }
                // Once per process, not per call: configs are re-validated on
                // every run and checkpoint load.
                static NOTE: std::sync::Once = std::sync::Once::new();
                NOTE.call_once(|| {
                    eprintln!(
                        "note: RunConfig fields `edges`/`workers_per_edge` are deprecated; \
                         topology now travels as a TierTree (this config maps to \
                         TierTree::three_tier({edges}, {wpe}, {}, {}))",
                        self.tau, self.pi
                    );
                });
                Ok(Some(TierTree::three_tier(edges, wpe, self.tau, self.pi)))
            }
            _ => Err(
                "legacy fields edges and workers_per_edge must be set together or not at all"
                    .into(),
            ),
        }
    }

    /// The two-tier counterpart of this config under the paper's fairness
    /// rule: aggregation period `τ·π`, `π = 1`, all else unchanged.
    pub fn two_tier_equivalent(&self) -> RunConfig {
        RunConfig {
            tau: self.tau * self.pi,
            pi: 1,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let cfg = RunConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.eta, 0.01);
        assert_eq!(cfg.gamma, 0.5);
        assert_eq!(cfg.batch_size, 64);
    }

    #[test]
    fn rejects_bad_values() {
        let bad = |f: &dyn Fn(&mut RunConfig)| {
            let mut c = RunConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(&|c| c.eta = 0.0));
        assert!(bad(&|c| c.gamma = 1.0));
        assert!(bad(&|c| c.gamma_edge = -0.1));
        assert!(bad(&|c| c.total_iters = 1001));
        assert!(bad(&|c| c.batch_size = 0));
        assert!(bad(&|c| c.clip_norm = Some(0.0)));
        assert!(bad(&|c| c.clip_norm = Some(f32::NAN)));
        assert!(bad(
            &|c| c.aggregator = RobustAggregator::TrimmedMean { trim_ratio: 0.5 }
        ));
        assert!(bad(&|c| {
            c.adversary = AdversaryPlan::uniform(
                [0],
                hieradmo_netsim::AttackModel::SignFlip { scale: f32::NAN },
            );
        }));
    }

    #[test]
    fn legacy_configs_without_robustness_fields_deserialize_to_defaults() {
        // A config serialized before the robustness layer existed carries
        // neither `aggregator` nor `adversary`; it must deserialize to the
        // identity defaults (plain mean, no adversaries).
        let json = serde_json::to_string(&RunConfig::default()).unwrap();
        // `aggregator` and `adversary` are the struct's last two fields:
        // drop everything from `,"aggregator"` on and re-close the object.
        let cut = json
            .find(",\"aggregator\"")
            .expect("serialized config must contain the aggregator field");
        let legacy = format!("{}}}", &json[..cut]);
        let back: RunConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.aggregator, RobustAggregator::Mean);
        assert!(back.adversary.is_empty());
        assert_eq!(back, RunConfig::default());
    }

    #[test]
    fn validate_rejects_bad_sampling_policies() {
        // Zero sample size.
        let cfg = RunConfig {
            sampling: ClientSampling::PerEdge { count: 0 },
            ..RunConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        // Non-finite and out-of-range fractions.
        for fraction in [f64::NAN, f64::INFINITY, 0.0, -0.5, 1.5] {
            let cfg = RunConfig {
                sampling: ClientSampling::Fraction { fraction },
                ..RunConfig::default()
            };
            assert!(
                cfg.validate().is_err(),
                "fraction {fraction} must be rejected"
            );
        }
        // The valid shapes pass.
        for sampling in [
            ClientSampling::Full,
            ClientSampling::Fraction { fraction: 0.01 },
            ClientSampling::Fraction { fraction: 1.0 },
            ClientSampling::PerEdge { count: 5 },
        ] {
            let cfg = RunConfig {
                sampling,
                ..RunConfig::default()
            };
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn legacy_configs_without_sampling_field_deserialize_to_full_participation() {
        let json = serde_json::to_string(&RunConfig::default()).unwrap();
        let legacy = json.replace(",\"sampling\":\"Full\"", "");
        assert_ne!(legacy, json, "sampling field must serialize");
        let back: RunConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.sampling, ClientSampling::Full);
        assert_eq!(back, RunConfig::default());
    }

    #[test]
    fn legacy_configs_without_churn_field_deserialize_to_the_frozen_tree() {
        let json = serde_json::to_string(&RunConfig::default()).unwrap();
        let zero = format!(
            ",\"churn\":{}",
            serde_json::to_string(&ChurnPlan::none()).unwrap()
        );
        let legacy = json.replace(&zero, "");
        assert_ne!(legacy, json, "churn field must serialize");
        let back: RunConfig = serde_json::from_str(&legacy).unwrap();
        assert!(back.churn.is_empty());
        assert_eq!(back, RunConfig::default());
    }

    #[test]
    fn churn_plan_validation_is_part_of_config_validation() {
        use hieradmo_topology::{ScheduledEvent, TopologyEvent};
        let cfg = RunConfig {
            churn: ChurnPlan {
                events: vec![ScheduledEvent {
                    round: 0,
                    event: TopologyEvent::Leave { worker: 0 },
                }],
                reform_every: None,
            },
            ..RunConfig::default()
        };
        assert!(cfg.validate().is_err(), "round-0 churn events are invalid");
    }

    #[test]
    fn legacy_topology_fields_map_to_the_depth_3_tree() {
        use hieradmo_topology::{LinkClass, TierTree};
        // A seed-era config that embedded the topology inline still
        // parses — the deprecated counts are carried as optional fields.
        let json = serde_json::to_string(&RunConfig::default()).unwrap();
        let legacy = json.replace(
            "\"edges\":null,\"workers_per_edge\":null",
            "\"edges\":4,\"workers_per_edge\":8",
        );
        assert_ne!(legacy, json, "expected the legacy keys in the wire form");
        let cfg: RunConfig = serde_json::from_str(&legacy).unwrap();
        cfg.validate().unwrap();
        // ... and pins exactly the depth-3 tree it always described:
        // 4 edges syncing every π cloud-wards, 8 workers each every τ.
        let tree = cfg.legacy_tier_tree().unwrap().unwrap();
        assert_eq!(tree, TierTree::three_tier(4, 8, cfg.tau, cfg.pi));
        assert_eq!(tree.depth(), 3);
        assert_eq!(tree.num_edges(), 4);
        assert_eq!(tree.num_workers(), 32);
        assert_eq!(tree.tau(), cfg.tau);
        assert_eq!(tree.pi_total(), cfg.pi);
        assert_eq!(tree.levels()[0].link_class, LinkClass::Wan);
        assert_eq!(tree.levels()[1].link_class, LinkClass::Lan);
    }

    #[test]
    fn modern_configs_carry_no_legacy_topology() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.legacy_tier_tree().unwrap(), None);
    }

    #[test]
    fn half_specified_legacy_topology_is_rejected() {
        let cfg = RunConfig {
            edges: Some(4),
            ..RunConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("workers_per_edge"));
        let cfg = RunConfig {
            edges: Some(0),
            workers_per_edge: Some(8),
            ..RunConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_tau() {
        let cfg = RunConfig {
            tau: 0,
            ..RunConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("tau"));
    }

    #[test]
    fn rejects_zero_pi() {
        let cfg = RunConfig {
            pi: 0,
            ..RunConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("pi"));
    }

    #[test]
    fn rejects_zero_eval_every() {
        let cfg = RunConfig {
            eval_every: 0,
            ..RunConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("eval_every"));
    }

    #[test]
    fn rejects_dropout_above_one() {
        let cfg = RunConfig {
            dropout: 1.5,
            ..RunConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("dropout"));
    }

    #[test]
    fn rejects_negative_dropout() {
        let cfg = RunConfig {
            dropout: -0.1,
            ..RunConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("dropout"));
    }

    #[test]
    fn zero_threads_is_rejected() {
        let cfg = RunConfig {
            threads: Some(0),
            ..RunConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn resolved_threads_covers_all_combinations() {
        // Explicit `threads` pins the pool (clamped to at least 1).
        let mut cfg = RunConfig {
            threads: Some(3),
            ..RunConfig::default()
        };
        assert_eq!(cfg.resolved_threads(), 3);
        cfg.threads = Some(1);
        assert_eq!(cfg.resolved_threads(), 1);
        // `threads = None` → all available cores.
        cfg.threads = None;
        assert!(cfg.resolved_threads() >= 1);
    }

    #[test]
    fn legacy_configs_with_the_removed_parallel_flag_still_deserialize() {
        // Serialized checkpoints from before the boolean flag was removed
        // carry `"parallel"` — the deserializer must ignore the unknown
        // field rather than reject the config.
        let json = serde_json::to_string(&RunConfig::default()).unwrap();
        let legacy = json.replacen('{', "{\"parallel\":false,", 1);
        let cfg: RunConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(cfg, RunConfig::default());
    }

    #[test]
    fn two_tier_equivalent_folds_pi() {
        let three = RunConfig {
            tau: 10,
            pi: 2,
            ..RunConfig::default()
        };
        let two = three.two_tier_equivalent();
        assert_eq!(two.tau, 20);
        assert_eq!(two.pi, 1);
        two.validate().unwrap();
    }
}
