//! Property-based invariants for the robust aggregation rules
//! (`hieradmo_core::RobustAggregator`), driven by randomized inputs:
//!
//! - the coordinate-wise trimmed mean and median are bounded, per
//!   coordinate, by the min/max of the inputs — a Byzantine value can
//!   shift them only within the honest span, never beyond it;
//! - norm-clipping bounds the aggregate's norm by the threshold;
//! - every rule collapses to the exact `Vector::weighted_average` when
//!   nothing triggers (zero trim depth, no norm over the threshold, or a
//!   single input), so the defenses are pay-for-what-you-use.

use hieradmo::core::RobustAggregator;
use hieradmo::tensor::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` random vectors of `dim` coordinates in [-10, 10] with positive
/// weights, all derived from `seed`.
fn random_inputs(n: usize, dim: usize, seed: u64) -> Vec<(f64, Vector)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let w = rng.gen_range(0.1..5.0f64);
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-10.0..10.0f32)).collect();
            (w, Vector::from(v))
        })
        .collect()
}

fn aggregate(rule: RobustAggregator, inputs: &[(f64, Vector)]) -> Vector {
    rule.aggregate(inputs.iter().map(|(w, v)| (*w, v)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Order statistics are bounded by their inputs: for every coordinate,
    /// the trimmed mean and the median stay inside the inputs' min/max
    /// span. (With every input honest this is the formal version of "the
    /// defense cannot invent values"; with Byzantine inputs it bounds the
    /// attacker's reach to the input span.)
    #[test]
    fn trimmed_and_median_stay_inside_the_coordinate_span(
        n in 2usize..6,
        dim in 1usize..6,
        seed in 0u64..10_000,
        trim_ratio in 0.0..0.5f64,
    ) {
        let inputs = random_inputs(n, dim, seed);
        for rule in [
            RobustAggregator::TrimmedMean { trim_ratio },
            RobustAggregator::Median,
        ] {
            let out = aggregate(rule, &inputs);
            for c in 0..dim {
                let lo = inputs.iter().map(|(_, v)| v.as_slice()[c]).fold(f32::INFINITY, f32::min);
                let hi = inputs.iter().map(|(_, v)| v.as_slice()[c]).fold(f32::NEG_INFINITY, f32::max);
                let got = out.as_slice()[c];
                // A hair of f32 slack for the renormalized f64 average.
                prop_assert!(
                    got >= lo - 1e-4 && got <= hi + 1e-4,
                    "{}: coordinate {c} left the span: {got} not in [{lo}, {hi}]",
                    rule.label()
                );
            }
        }
    }

    /// Norm-clipping bounds the aggregate: scaling every offending input
    /// to the threshold makes the weighted average a convex combination of
    /// vectors of norm <= threshold, so the output norm is <= threshold.
    #[test]
    fn norm_clip_bounds_the_aggregate_norm(
        n in 1usize..6,
        dim in 1usize..6,
        seed in 0u64..10_000,
        threshold in 0.5..20.0f32,
    ) {
        let inputs = random_inputs(n, dim, seed);
        let out = aggregate(RobustAggregator::NormClip { threshold }, &inputs);
        prop_assert!(
            out.norm() <= threshold * (1.0 + 1e-5),
            "clipped aggregate norm {} exceeds threshold {threshold}",
            out.norm()
        );
    }

    /// Untriggered defenses are the identity: a trim depth of zero and an
    /// unreachable clip threshold return the plain data-weighted mean
    /// bit-for-bit.
    #[test]
    fn untriggered_rules_equal_the_weighted_mean_bitwise(
        n in 1usize..6,
        dim in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let inputs = random_inputs(n, dim, seed);
        let mean = aggregate(RobustAggregator::Mean, &inputs);
        // trim_ratio low enough that floor(trim_ratio * n) == 0.
        let zero_trim = RobustAggregator::TrimmedMean { trim_ratio: 0.9 / (n as f64) };
        prop_assert_eq!(&aggregate(zero_trim, &inputs), &mean);
        let max_norm = inputs.iter().map(|(_, v)| v.norm()).fold(0.0f32, f32::max);
        let no_clip = RobustAggregator::NormClip { threshold: max_norm + 1.0 };
        prop_assert_eq!(&aggregate(no_clip, &inputs), &mean);
    }

    /// With a single input, every rule returns that input's value: there
    /// is nothing to trim, outvote or outweigh.
    #[test]
    fn single_input_is_returned_by_every_rule(
        dim in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let inputs = random_inputs(1, dim, seed);
        let max_norm = inputs[0].1.norm() + 1.0;
        for rule in [
            RobustAggregator::Mean,
            RobustAggregator::TrimmedMean { trim_ratio: 0.4 },
            RobustAggregator::Median,
            RobustAggregator::NormClip { threshold: max_norm },
        ] {
            let out = aggregate(rule, &inputs);
            for c in 0..dim {
                let (got, want) = (out.as_slice()[c], inputs[0].1.as_slice()[c]);
                prop_assert!(
                    (got - want).abs() <= 1e-5,
                    "{}: coordinate {c}: {got} vs {want}",
                    rule.label()
                );
            }
        }
    }
}
