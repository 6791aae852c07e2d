//! The paper's online adaptive edge-momentum factor (Eqs. 6–7).
//!
//! At every edge aggregation `k`, edge `ℓ` measures the agreement between
//! what its workers' gradients wanted (`−Σ_t ∇F_{i,ℓ}(x^t)`) and where
//! their momenta actually pointed (`Σ_t y^t_{i,ℓ}`), as a data-weighted
//! cosine. The cosine becomes the edge momentum weight `γℓ`, clamped to
//! `[0, 0.99]`: disagreement (obtuse angle) zeroes the edge momentum,
//! near-perfect agreement caps it just below 1 to avoid divergence.

use hieradmo_tensor::Vector;

/// Maximum admissible edge momentum factor (Eq. 7's 0.99 cap; `γℓ ≥ 1`
/// would diverge).
pub const GAMMA_EDGE_CAP: f32 = 0.99;

/// Eq. (7): maps a measured cosine to the adapted `γℓ`.
///
/// A non-finite cosine — possible only when upstream inputs are poisoned
/// or overflowed, since [`Vector::cosine`] already guards zero/overflow
/// norms — maps to 0 (no edge momentum), *not* to the cap: a NaN fails
/// every ordered comparison, so without the explicit guard it would fall
/// through to the 0.99 branch and hand an adversary maximal amplification.
///
/// ```
/// use hieradmo_core::adaptive::clamp_gamma;
///
/// assert_eq!(clamp_gamma(-0.4), 0.0);   // disagreement → no edge momentum
/// assert_eq!(clamp_gamma(0.6), 0.6);    // agreement → proportional weight
/// assert_eq!(clamp_gamma(0.999), 0.99); // capped below 1
/// assert_eq!(clamp_gamma(f32::NAN), 0.0); // poisoned input → no momentum
/// ```
pub fn clamp_gamma(cos_theta: f32) -> f32 {
    if !cos_theta.is_finite() || cos_theta <= 0.0 {
        0.0
    } else if cos_theta < GAMMA_EDGE_CAP {
        cos_theta
    } else {
        GAMMA_EDGE_CAP
    }
}

/// Eq. (6): the data-weighted cosine between each worker's accumulated
/// *negative* gradient and accumulated momentum:
///
/// `cos θ_{k,ℓ} = Σ_i (D_{i,ℓ}/D_ℓ) · cos(−Σ∇F_{i,ℓ}, Σy_{i,ℓ})`.
///
/// Workers with a (near-)zero accumulator contribute 0, consistent with the
/// convention in [`Vector::cosine`].
///
/// # Panics
///
/// Panics if any pair of vectors has mismatched lengths.
pub fn weighted_cosine<'a, I>(items: I) -> f32
where
    I: IntoIterator<Item = (f64, &'a Vector, &'a Vector)>,
{
    let mut acc = 0.0f64;
    for (weight, grad_accum, y_accum) in items {
        // `cos(−a, b) = −cos(a, b)` bit for bit, with no negated copy of
        // `a`: IEEE rounding is sign-symmetric, so the two differ at most
        // in the sign of a zero cosine, which the f64 sum from +0.0 drops.
        let cos = -grad_accum.cosine(y_accum);
        acc += weight * f64::from(cos);
    }
    acc as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_matches_eq_7_cases() {
        assert_eq!(clamp_gamma(-1.0), 0.0);
        assert_eq!(clamp_gamma(0.0), 0.0);
        assert_eq!(clamp_gamma(0.5), 0.5);
        assert_eq!(clamp_gamma(0.989), 0.989);
        assert_eq!(clamp_gamma(0.99), 0.99);
        assert_eq!(clamp_gamma(1.0), 0.99);
    }

    #[test]
    fn clamp_stays_in_range_for_poisoned_cosines() {
        // Regression: a NaN cosine fails both ordered comparisons, so the
        // pre-guard code fell through to the 0.99 cap — the *worst* value
        // to hand an adversary. Every pathological input must land in
        // [0, GAMMA_EDGE_CAP], with non-finite inputs pinned to 0.
        assert_eq!(clamp_gamma(f32::NAN), 0.0);
        assert_eq!(clamp_gamma(f32::INFINITY), 0.0);
        assert_eq!(clamp_gamma(f32::NEG_INFINITY), 0.0);
        for cos in [-1e30, -1.0, 0.0, 1e-30, 0.5, 1.0, 1e30] {
            let g = clamp_gamma(cos);
            assert!((0.0..=GAMMA_EDGE_CAP).contains(&g), "cos={cos} -> {g}");
        }
    }

    #[test]
    fn weighted_cosine_of_extreme_norm_vectors_yields_clampable_gamma() {
        // A momentum-poisoning adversary uploads y-accumulators at extreme
        // norms. The cosine path must stay finite (Vector::cosine guards
        // overflowed norms by returning 0) and clamp_gamma must keep the
        // Eq. 7 factor in [0, 0.99].
        let g = Vector::from(vec![1.0, 2.0]);
        for y in [
            Vector::from(vec![f32::MAX, f32::MAX]),
            Vector::from(vec![-f32::MAX, f32::MAX]),
            Vector::from(vec![1e38, -1e38]),
            Vector::zeros(2),
        ] {
            let cos = weighted_cosine([(1.0, &g, &y)]);
            let gamma = clamp_gamma(cos);
            assert!(
                (0.0..=GAMMA_EDGE_CAP).contains(&gamma),
                "y={:?} -> cos={cos}, gamma={gamma}",
                y.as_slice()
            );
        }
    }

    #[test]
    fn weighted_cosine_of_agreeing_momenta_is_one() {
        // Momentum pointing exactly along the descent direction −g.
        let g = Vector::from(vec![1.0, 0.0]);
        let y = Vector::from(vec![-2.0, 0.0]);
        let cos = weighted_cosine([(0.5, &g, &y), (0.5, &g, &y)]);
        assert!((cos - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_cosine_of_opposing_momenta_is_minus_one() {
        let g = Vector::from(vec![1.0, 0.0]);
        let y = Vector::from(vec![3.0, 0.0]); // same direction as g = opposite of −g
        let cos = weighted_cosine([(1.0, &g, &y)]);
        assert!((cos + 1.0).abs() < 1e-6);
        assert_eq!(clamp_gamma(cos), 0.0);
    }

    #[test]
    fn weighted_cosine_mixes_by_data_weight() {
        let g = Vector::from(vec![1.0, 0.0]);
        let agree = Vector::from(vec![-1.0, 0.0]);
        let disagree = Vector::from(vec![1.0, 0.0]);
        // 75% of the data agrees, 25% disagrees: cos = 0.75 - 0.25 = 0.5.
        let cos = weighted_cosine([(0.75, &g, &agree), (0.25, &g, &disagree)]);
        assert!((cos - 0.5).abs() < 1e-6);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The cosine of the negated gradient sum equals the negated
        /// cosine bit for bit once summed, for zero, near-zero, huge and
        /// non-finite accumulators alike.
        #[test]
        fn negated_cosine_matches_cosine_of_the_negation_bitwise(
            len in 0usize..24,
            workers in 1usize..5,
            seed in 0u64..10_000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let entry = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0u32..12) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
                3 => -1e-30,
                4 => 3e38,
                5 => f32::INFINITY,
                6 => f32::NAN,
                _ => rng.gen_range(-2.0f32..2.0),
            };
            let vector = |rng: &mut rand::rngs::StdRng| {
                let kind = rng.gen_range(0u32..4);
                (0..len)
                    .map(|_| match kind {
                        0 => 0.0,
                        1 => rng.gen_range(-1e-20f32..1e-20),
                        _ => entry(rng),
                    })
                    .collect::<Vector>()
            };
            let items: Vec<(f64, Vector, Vector)> = (0..workers)
                .map(|_| (rng.gen_range(0.0f64..1.0), vector(&mut rng), vector(&mut rng)))
                .collect();
            let mut allocating = 0.0f64;
            for (weight, g, y) in &items {
                allocating += weight * f64::from((-g).cosine(y));
            }
            let got = weighted_cosine(items.iter().map(|(w, g, y)| (*w, g, y)));
            proptest::prop_assert_eq!(got.to_bits(), (allocating as f32).to_bits());
        }
    }

    #[test]
    fn zero_accumulators_contribute_zero() {
        let z = Vector::zeros(3);
        let y = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(weighted_cosine([(1.0, &z, &y)]), 0.0);
    }
}
