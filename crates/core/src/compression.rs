//! Communication compression — the paper's cited follow-on direction
//! (ref. \[8\], *Hierarchical federated learning with quantization*).
//!
//! Three standard lossy compressors for model/update uplinks, each usable
//! with error feedback ([`Compression::compress_with_feedback`]: residual
//! accumulation so compression error is re-injected next round instead of
//! lost, Seide et al. / Karimireddy et al. style):
//!
//! - [`Compression::TopK`] — keep the `k` largest-magnitude coordinates;
//! - [`Compression::RandomK`] — keep `k` random coordinates (unbiased when
//!   rescaled, here kept plain for simplicity and paired with error
//!   feedback);
//! - [`Compression::Uniform`] — `b`-bit uniform scalar quantization over
//!   the vector's observed range.
//!
//! [`QuantizedHierFavg`] wires a compressor into hierarchical FedAvg's
//! worker→edge uplink, making the accuracy-vs-bytes trade-off measurable
//! end-to-end (see the `compression` experiment binary).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hieradmo_tensor::Vector;

use crate::state::{EdgeView, FlState, WorkerState};
use crate::strategy::{Strategy, Tier};

/// A lossy vector compressor for federated uplinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// No compression (identity); wire size is the dense payload.
    None,
    /// Keep the `k` largest-magnitude coordinates.
    TopK {
        /// Number of coordinates kept.
        k: usize,
    },
    /// Keep `k` uniformly random coordinates (seeded per round).
    RandomK {
        /// Number of coordinates kept.
        k: usize,
    },
    /// Uniform scalar quantization with the given bit width (1..=16).
    Uniform {
        /// Bits per coordinate.
        bits: u8,
    },
}

/// The wire form of a compressed vector.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedVector {
    dim: usize,
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Dense(Vec<f32>),
    Sparse {
        indices: Vec<u32>,
        values: Vec<f32>,
    },
    Quantized {
        min: f32,
        step: f32,
        bits: u8,
        codes: Vec<u16>,
    },
}

impl Compression {
    /// Compresses `v`. `round` seeds the random sparsifier so both ends of
    /// a link could reproduce the mask.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `k > v.len()`, or `bits ∉ 1..=16`.
    pub fn compress(&self, v: &Vector, round: u64) -> CompressedVector {
        let dim = v.len();
        let repr = match *self {
            Compression::None => Repr::Dense(v.as_slice().to_vec()),
            Compression::TopK { k } => {
                assert!(k > 0 && k <= dim, "top-k needs 0 < k <= dim, got {k}");
                let mut order: Vec<u32> = (0..dim as u32).collect();
                order.sort_by(|&a, &b| v[b as usize].abs().total_cmp(&v[a as usize].abs()));
                let mut indices: Vec<u32> = order[..k].to_vec();
                indices.sort_unstable();
                let values = indices.iter().map(|&i| v[i as usize]).collect();
                Repr::Sparse { indices, values }
            }
            Compression::RandomK { k } => {
                assert!(k > 0 && k <= dim, "random-k needs 0 < k <= dim, got {k}");
                let mut rng = StdRng::seed_from_u64(round);
                let mut picked = std::collections::BTreeSet::new();
                while picked.len() < k {
                    picked.insert(rng.gen_range(0..dim as u32));
                }
                let indices: Vec<u32> = picked.into_iter().collect();
                let values = indices.iter().map(|&i| v[i as usize]).collect();
                Repr::Sparse { indices, values }
            }
            Compression::Uniform { bits } => {
                assert!((1..=16).contains(&bits), "bits must be 1..=16, got {bits}");
                let min = v.iter().cloned().fold(f32::INFINITY, f32::min);
                let max = v.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let levels = (1u32 << bits) - 1;
                let step = if max > min {
                    (max - min) / levels as f32
                } else {
                    0.0
                };
                let codes = v
                    .iter()
                    .map(|&x| {
                        if step == 0.0 {
                            0
                        } else {
                            (((x - min) / step).round() as u32).min(levels) as u16
                        }
                    })
                    .collect();
                Repr::Quantized {
                    min,
                    step,
                    bits,
                    codes,
                }
            }
        };
        CompressedVector { dim, repr }
    }

    /// Compresses with error feedback: `residual` carries the accumulated
    /// compression error, which is added to the input before compressing
    /// and refreshed with the new error afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `residual.len() != v.len()` or on the same conditions as
    /// [`Compression::compress`].
    pub fn compress_with_feedback(
        &self,
        v: &Vector,
        residual: &mut Vector,
        round: u64,
    ) -> CompressedVector {
        assert_eq!(residual.len(), v.len(), "residual length mismatch");
        let corrected = v + residual;
        let compressed = self.compress(&corrected, round);
        let reconstructed = compressed.decompress();
        *residual = &corrected - &reconstructed;
        compressed
    }
}

impl CompressedVector {
    /// Reconstructs the (lossy) dense vector.
    pub fn decompress(&self) -> Vector {
        match &self.repr {
            Repr::Dense(values) => Vector::from(values.clone()),
            Repr::Sparse { indices, values } => {
                let mut out = Vector::zeros(self.dim);
                for (&i, &x) in indices.iter().zip(values) {
                    out[i as usize] = x;
                }
                out
            }
            Repr::Quantized {
                min, step, codes, ..
            } => codes.iter().map(|&c| min + step * f32::from(c)).collect(),
        }
    }

    /// Wire size in bytes (what a link would actually carry).
    pub fn wire_bytes(&self) -> u64 {
        let body = match &self.repr {
            Repr::Dense(values) => values.len() * 4,
            Repr::Sparse { indices, values } => indices.len() * 4 + values.len() * 4,
            Repr::Quantized { bits, codes, .. } => {
                8 + (codes.len() * usize::from(*bits)).div_ceil(8)
            }
        };
        (body + 12) as u64 // frame header, matching netsim::payload
    }

    /// Original (dense) dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Hierarchical FedAvg with a compressed worker→edge uplink: each worker's
/// round *update* `x_i − x_edge` is compressed (with per-worker error
/// feedback held in `WorkerState::v`, unused by plain FedAvg) before the
/// edge averages and applies it.
///
/// This is the measurement vehicle for the accuracy-vs-bytes trade-off;
/// the cloud tier is left uncompressed (edge→cloud links are wired in the
/// paper's testbed).
#[derive(Debug, Clone)]
pub struct QuantizedHierFavg {
    eta: f32,
    compression: Compression,
}

impl QuantizedHierFavg {
    /// Creates the compressed variant.
    ///
    /// # Panics
    ///
    /// Panics if `eta <= 0`.
    pub fn new(eta: f32, compression: Compression) -> Self {
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        QuantizedHierFavg { eta, compression }
    }

    /// The configured compressor.
    pub fn compression(&self) -> Compression {
        self.compression
    }
}

impl Strategy for QuantizedHierFavg {
    fn name(&self) -> &'static str {
        match self.compression {
            Compression::None => "QHierFAVG(none)",
            Compression::TopK { .. } => "QHierFAVG(top-k)",
            Compression::RandomK { .. } => "QHierFAVG(rand-k)",
            Compression::Uniform { .. } => "QHierFAVG(uniform)",
        }
    }

    fn tier(&self) -> Tier {
        Tier::Three
    }

    fn local_step(
        &self,
        _t: usize,
        worker: &mut WorkerState,
        grad: &mut dyn FnMut(&Vector, &mut Vector),
    ) {
        let mut g = std::mem::take(&mut worker.scratch);
        grad(&worker.x, &mut g);
        worker.x.axpy(-self.eta, &g);
        worker.scratch = g;
    }

    fn edge_aggregate(&self, k: usize, view: &mut EdgeView<'_>) {
        let x_edge_prev = view.state.x_plus.clone();
        // Compress each worker's update against the last edge model, with
        // per-worker error feedback living in the otherwise-unused `v`.
        let mut updates = Vec::with_capacity(view.num_workers());
        for j in 0..view.num_workers() {
            let weight = view.worker_weight(j);
            let w = &mut view.workers[j];
            let update = &w.x - &x_edge_prev;
            let compressed = self
                .compression
                .compress_with_feedback(&update, &mut w.v, k as u64);
            updates.push((weight, compressed.decompress()));
        }
        let avg_update = Vector::weighted_average(updates.iter().map(|(wgt, u)| (*wgt, u)));
        let mut x_new = x_edge_prev;
        x_new += &avg_update;
        view.state.x_plus = x_new.clone();
        view.for_workers(|w| w.x = x_new.clone());
    }

    fn cloud_aggregate(&self, _p: usize, state: &mut FlState) {
        let avg = state.cloud_average(|e| &e.x_plus);
        state.cloud.x_plus = avg.clone();
        for e in &mut state.edges {
            e.x_plus = avg.clone();
        }
        state.for_all_workers(|w| w.x = avg.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vector {
        Vector::from(vec![0.5, -3.0, 0.1, 2.0, -0.2, 0.0, 1.5, -0.8])
    }

    #[test]
    fn none_round_trips_exactly() {
        let v = sample();
        let c = Compression::None.compress(&v, 0);
        assert_eq!(c.decompress(), v);
        assert_eq!(c.wire_bytes(), (8 * 4 + 12) as u64);
        assert_eq!(c.dim(), 8);
    }

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let v = sample();
        let c = Compression::TopK { k: 3 }.compress(&v, 0);
        let d = c.decompress();
        // Largest |values| are -3.0, 2.0, 1.5.
        assert_eq!(d.as_slice(), &[0.0, -3.0, 0.0, 2.0, 0.0, 0.0, 1.5, 0.0]);
        assert!(c.wire_bytes() < Compression::None.compress(&v, 0).wire_bytes());
    }

    #[test]
    fn random_k_is_reproducible_per_round() {
        let v = sample();
        let a = Compression::RandomK { k: 4 }.compress(&v, 7);
        let b = Compression::RandomK { k: 4 }.compress(&v, 7);
        let c = Compression::RandomK { k: 4 }.compress(&v, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different rounds should pick different masks");
        // Kept coordinates are exact.
        let d = a.decompress();
        let kept = d.iter().filter(|&&x| x != 0.0).count();
        assert!(kept <= 4);
    }

    #[test]
    fn uniform_quantization_error_is_bounded_by_half_step() {
        let v = sample();
        for bits in [2u8, 4, 8, 16] {
            let c = Compression::Uniform { bits }.compress(&v, 0);
            let d = c.decompress();
            let range = 2.0 - (-3.0f32);
            let step = range / ((1u32 << bits) - 1) as f32;
            for (orig, rec) in v.iter().zip(d.iter()) {
                assert!(
                    (orig - rec).abs() <= step / 2.0 + 1e-5,
                    "{bits}-bit error {} exceeds step/2 {}",
                    (orig - rec).abs(),
                    step / 2.0
                );
            }
        }
    }

    #[test]
    fn more_bits_cost_more_bytes_but_less_error() {
        let v = sample();
        let c2 = Compression::Uniform { bits: 2 }.compress(&v, 0);
        let c8 = Compression::Uniform { bits: 8 }.compress(&v, 0);
        assert!(c2.wire_bytes() <= c8.wire_bytes());
        let err = |c: &CompressedVector| v.distance(&c.decompress());
        assert!(err(&c8) <= err(&c2));
    }

    #[test]
    fn constant_vector_quantizes_exactly() {
        let v = Vector::filled(5, 3.25);
        let c = Compression::Uniform { bits: 4 }.compress(&v, 0);
        assert_eq!(c.decompress(), v);
    }

    #[test]
    fn error_feedback_recovers_dropped_mass() {
        // With top-1 compression, a constant stream's small coordinates
        // are dropped — but with feedback the residual grows until every
        // coordinate eventually transmits.
        let v = Vector::from(vec![1.0, 0.4, 0.3]);
        let comp = Compression::TopK { k: 1 };
        let mut residual = Vector::zeros(3);
        let mut delivered = Vector::zeros(3);
        for round in 0..12 {
            let c = comp.compress_with_feedback(&v, &mut residual, round);
            delivered += &c.decompress();
        }
        // Without feedback only coordinate 0 ever transmits; with feedback
        // the total delivered per coordinate approaches 12·v.
        for i in 0..3 {
            let expected = 12.0 * v[i];
            assert!(
                (delivered[i] - expected).abs() < 1.2,
                "coordinate {i}: delivered {} vs expected {expected}",
                delivered[i]
            );
        }
    }

    #[test]
    fn quantized_hierfavg_learns() {
        use crate::algorithms::testutil::{quick_cfg, quick_run};
        use hieradmo_topology::Hierarchy;
        let algo = QuantizedHierFavg::new(0.05, Compression::TopK { k: 20 });
        let res = quick_run(&algo, Hierarchy::balanced(2, 2), quick_cfg());
        assert!(
            res.curve.final_accuracy().unwrap() > 0.5,
            "compressed FL should still learn"
        );
    }

    #[test]
    fn uncompressed_variant_matches_hierfavg() {
        use crate::algorithms::testutil::{quick_cfg, quick_run};
        use crate::algorithms::HierFavg;
        use hieradmo_topology::Hierarchy;
        let q = quick_run(
            &QuantizedHierFavg::new(0.05, Compression::None),
            Hierarchy::balanced(2, 2),
            quick_cfg(),
        );
        let h = quick_run(&HierFavg::new(0.05), Hierarchy::balanced(2, 2), quick_cfg());
        // Identity compression of x − x_edge then re-adding is exact up to
        // float rounding.
        for (a, b) in q.curve.points().iter().zip(h.curve.points()) {
            assert!((a.test_accuracy - b.test_accuracy).abs() < 0.02);
        }
    }

    #[test]
    #[should_panic(expected = "top-k needs")]
    fn top_k_zero_panics() {
        let _ = Compression::TopK { k: 0 }.compress(&sample(), 0);
    }

    #[test]
    #[should_panic(expected = "bits must be")]
    fn zero_bits_panics() {
        let _ = Compression::Uniform { bits: 0 }.compress(&sample(), 0);
    }
}
