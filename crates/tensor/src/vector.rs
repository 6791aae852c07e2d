//! Flat `f32` vectors — the currency of every federated-learning algorithm.
//!
//! Models expose their parameters and gradients as [`Vector`]s; aggregation,
//! momentum and adaptive-factor computations in `hieradmo-core` are written
//! entirely against this type.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::kernels;

/// A dense 1-D vector of `f32` values.
///
/// `Vector` is intentionally simple: a thin, owned wrapper around `Vec<f32>`
/// with the handful of BLAS-1 style operations that momentum-based federated
/// optimization needs (axpy, dot products, norms, weighted averages, cosine
/// similarity).
///
/// # Example
///
/// ```
/// use hieradmo_tensor::Vector;
///
/// let a = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(a.norm(), 5.0);
/// let b = &a + &a;
/// assert_eq!(b.as_slice(), &[6.0, 8.0]);
/// ```
#[derive(PartialEq, Default, Serialize, Deserialize)]
pub struct Vector(Vec<f32>);

/// `clone_from` writes into the destination's buffer (see
/// [`Vector::copy_from`]); `#[derive(Clone)]` would allocate a fresh one.
impl Clone for Vector {
    fn clone(&self) -> Self {
        Vector(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.copy_from(source);
    }
}

impl Vector {
    /// Creates a vector of `len` zeros.
    ///
    /// ```
    /// # use hieradmo_tensor::Vector;
    /// assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
    /// ```
    pub fn zeros(len: usize) -> Self {
        Vector(vec![0.0; len])
    }

    /// Creates a vector of `len` copies of `value`.
    pub fn filled(len: usize, value: f32) -> Self {
        Vector(vec![value; len])
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrows the underlying slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutably borrows the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Consumes the vector, returning the underlying storage.
    pub fn into_inner(self) -> Vec<f32> {
        self.0
    }

    /// In-place scaled addition `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f32, other: &Vector) {
        assert_eq!(
            self.len(),
            other.len(),
            "axpy length mismatch: {} vs {}",
            self.len(),
            other.len()
        );
        kernels::axpy(&mut self.0, alpha, &other.0);
    }

    /// Copies `other`'s elements into `self` without reallocating when the
    /// lengths already match (the steady state of a training loop).
    ///
    /// This is the allocation-free alternative to `*self = other.clone()`:
    /// per-worker scratch buffers in the execution engine are reused across
    /// local steps via `copy_from` + [`Vector::axpy`].
    pub fn copy_from(&mut self, other: &Vector) {
        if self.len() == other.len() {
            self.0.copy_from_slice(&other.0);
        } else {
            self.0.clear();
            self.0.extend_from_slice(&other.0);
        }
    }

    /// Reverse in-place subtraction: `self = other - self`, element-wise.
    ///
    /// Produces bit-identical results to `&other - &self` (same operand
    /// order per element) without allocating, which lets momentum updates
    /// like `v = y_new - y_old` reuse an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn sub_from(&mut self, other: &Vector) {
        assert_eq!(
            self.len(),
            other.len(),
            "sub_from length mismatch: {} vs {}",
            self.len(),
            other.len()
        );
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = b - *a;
        }
    }

    /// Sets every element to `value` (typically `0.0` to recycle a scratch
    /// buffer before gradient accumulation).
    pub fn fill(&mut self, value: f32) {
        self.0.fill(value);
    }

    /// In-place multiplication by a scalar.
    pub fn scale_in_place(&mut self, alpha: f32) {
        kernels::scal(&mut self.0, alpha);
    }

    /// Returns `self * alpha` as a new vector.
    pub fn scaled(&self, alpha: f32) -> Vector {
        Vector(self.0.iter().map(|a| a * alpha).collect())
    }

    /// Inner product `<self, other>` (lane-chunked [`kernels::dot`]).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Vector) -> f32 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot length mismatch: {} vs {}",
            self.len(),
            other.len()
        );
        kernels::dot(&self.0, &other.0)
    }

    /// Euclidean (ℓ2) norm.
    pub fn norm(&self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm, avoiding the square root.
    pub fn norm_sq(&self) -> f32 {
        kernels::norm_sq(&self.0)
    }

    /// Euclidean distance `‖self - other‖`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn distance(&self, other: &Vector) -> f32 {
        assert_eq!(self.len(), other.len(), "distance length mismatch");
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Cosine of the angle between `self` and `other`.
    ///
    /// This is the core primitive of the paper's Eq. (6): the adaptive edge
    /// momentum factor is a data-weighted cosine between accumulated
    /// gradients and momenta.
    ///
    /// Returns `0.0` when either vector has (near-)zero norm, which matches
    /// the paper's clamping rule: with no signal the edge momentum gets
    /// zero weight. The same guard covers a non-finite denominator (norms
    /// so large their product overflows `f32`), so this can never hand a
    /// NaN to the adaptive γℓ clamp (Eq. 7) downstream.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn cosine(&self, other: &Vector) -> f32 {
        let denom = self.norm() * other.norm();
        if denom <= f32::EPSILON || !denom.is_finite() {
            0.0
        } else {
            (self.dot(other) / denom).clamp(-1.0, 1.0)
        }
    }

    /// Element-wise linear interpolation `(1 - t) * self + t * other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn lerp(&self, other: &Vector, t: f32) -> Vector {
        assert_eq!(self.len(), other.len(), "lerp length mismatch");
        let mut out = vec![0.0f32; self.len()];
        kernels::fused_scale_add(&mut out, 1.0 - t, &self.0, t, &other.0);
        Vector(out)
    }

    /// Data-size-weighted average of vectors, the aggregation primitive of
    /// Algorithm 1 (lines 11, 12, 18, 19): `Σ wᵢ·vᵢ / Σ wᵢ`.
    ///
    /// Runs on [`kernels::weighted_sum_batch`] — one coordinate-tiled,
    /// SIMD-dispatched pass over the accumulator with workers as the batch
    /// dimension — bitwise identical to the historical per-worker
    /// `weighted_accumulate` sweep.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, if vector lengths differ, or if the total
    /// weight is not strictly positive.
    pub fn weighted_average<'a, I>(items: I) -> Vector
    where
        I: IntoIterator<Item = (f64, &'a Vector)>,
    {
        let (weights, views) = Self::collect_batch(items);
        let mut acc = vec![0.0f64; views[0].len()];
        kernels::weighted_sum_batch(&mut acc, &weights, &views);
        let total = Self::total_weight(&weights);
        Vector(acc.into_iter().map(|a| (a / total) as f32).collect())
    }

    /// Materialises a `(weight, vector)` stream into the parallel-slice
    /// form the batched kernels take, with the historical length checks.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or vector lengths differ.
    pub fn collect_batch<'a, I>(items: I) -> (Vec<f64>, Vec<&'a [f32]>)
    where
        I: IntoIterator<Item = (f64, &'a Vector)>,
    {
        let mut weights = Vec::new();
        let mut views: Vec<&[f32]> = Vec::new();
        for (w, v) in items {
            if let Some(first) = views.first() {
                assert_eq!(first.len(), v.len(), "weighted_average length mismatch");
            }
            weights.push(w);
            views.push(&v.0);
        }
        assert!(
            !views.is_empty(),
            "weighted_average requires at least one vector"
        );
        (weights, views)
    }

    /// Sums the batch weights in input order (the same order the historical
    /// streaming path used) and asserts positivity.
    ///
    /// # Panics
    ///
    /// Panics if the total is not strictly positive.
    pub fn total_weight(weights: &[f64]) -> f64 {
        let total = weights[1..].iter().fold(weights[0], |t, &w| t + w);
        assert!(
            total > 0.0,
            "weighted_average requires positive total weight, got {total}"
        );
        total
    }

    /// Maximum absolute element, or `0.0` for an empty vector.
    pub fn max_abs(&self) -> f32 {
        self.0.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Returns `true` iff every element is finite (no NaN/∞).
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }

    /// Iterates over the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.0.iter()
    }

    /// Mutably iterates over the elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.0.iter_mut()
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "Vector({:?})", self.0)
        } else {
            write!(
                f,
                "Vector(len={}, head={:?}…)",
                self.len(),
                &self.0[..4.min(self.len())]
            )
        }
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector(v)
    }
}

impl From<&[f32]> for Vector {
    fn from(v: &[f32]) -> Self {
        Vector(v.to_vec())
    }
}

impl FromIterator<f32> for Vector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Vector(iter.into_iter().collect())
    }
}

impl Extend<f32> for Vector {
    fn extend<I: IntoIterator<Item = f32>>(&mut self, iter: I) {
        self.0.extend(iter);
    }
}

impl AsRef<[f32]> for Vector {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

impl AsMut<[f32]> for Vector {
    fn as_mut(&mut self) -> &mut [f32] {
        &mut self.0
    }
}

impl Index<usize> for Vector {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.0[i]
    }
}

impl IntoIterator for Vector {
    type Item = f32;
    type IntoIter = std::vec::IntoIter<f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "add length mismatch");
        Vector(
            self.0
                .iter()
                .zip(rhs.0.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(self.len(), rhs.len(), "sub length mismatch");
        Vector(
            self.0
                .iter()
                .zip(rhs.0.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        self.axpy(-1.0, rhs);
    }
}

impl Mul<f32> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f32) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = Vector::zeros(5);
        assert_eq!(v.len(), 5);
        assert!(!v.is_empty());
        assert!(v.iter().all(|&x| x == 0.0));
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        a.axpy(2.0, &Vector::from(vec![3.0, -1.0]));
        assert_eq!(a.as_slice(), &[7.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "axpy length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut a = Vector::zeros(2);
        a.axpy(1.0, &Vector::zeros(3));
    }

    #[test]
    fn copy_from_reuses_storage() {
        let mut a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![9.0, -4.0]);
        a.copy_from(&b);
        assert_eq!(a.as_slice(), b.as_slice());
        // Length change still works (grows/shrinks as needed).
        let c = Vector::from(vec![1.0, 2.0, 3.0]);
        a.copy_from(&c);
        assert_eq!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn sub_from_matches_operator() {
        let y_new = Vector::from(vec![1.5, -2.25, 0.125]);
        let y_old = Vector::from(vec![0.5, 0.75, -1.0]);
        let reference = &y_new - &y_old;
        let mut buf = y_old.clone();
        buf.sub_from(&y_new);
        assert_eq!(buf.as_slice(), reference.as_slice());
    }

    #[test]
    #[should_panic(expected = "sub_from length mismatch")]
    fn sub_from_length_mismatch_panics() {
        let mut a = Vector::zeros(2);
        a.sub_from(&Vector::zeros(3));
    }

    #[test]
    fn fill_overwrites_all() {
        let mut a = Vector::from(vec![1.0, 2.0, 3.0]);
        a.fill(0.0);
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn dot_and_norms() {
        let a = Vector::from(vec![3.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_sq(), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Vector::from(vec![1.0, 0.0]);
        let b = Vector::from(vec![0.0, 1.0]);
        assert!((a.distance(&b) - 2f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        let a = Vector::from(vec![1.0, 0.0]);
        let b = Vector::from(vec![2.0, 0.0]);
        let c = Vector::from(vec![0.0, 5.0]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
        assert!(a.cosine(&c).abs() < 1e-6);
        assert!((a.cosine(&-&b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let a = Vector::zeros(3);
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    /// Zero-norm inputs yield a well-defined 0.0 — never NaN — because the
    /// result feeds the adaptive γℓ clamp (Eq. 6/7), where a NaN would
    /// silently poison every subsequent edge aggregation.
    #[test]
    fn cosine_of_degenerate_inputs_is_zero_not_nan() {
        let z = Vector::zeros(4);
        assert_eq!(z.cosine(&z), 0.0);
        assert_eq!(z.cosine(&Vector::zeros(4)), 0.0);
        // Norms whose product overflows f32 would make the naive formula
        // produce inf/inf = NaN; the guard returns 0.0 instead.
        let huge = Vector::filled(8, 1.0e30);
        let cos = huge.cosine(&huge);
        assert!(!cos.is_nan(), "cosine must never be NaN, got {cos}");
        assert_eq!(cos, 0.0);
        // Subnormal-but-nonzero vectors also land in the zero-weight case.
        let tiny = Vector::filled(3, 1.0e-30);
        assert_eq!(tiny.cosine(&tiny), 0.0);
    }

    #[test]
    fn weighted_average_matches_manual() {
        let a = Vector::from(vec![0.0, 0.0]);
        let b = Vector::from(vec![4.0, 8.0]);
        let avg = Vector::weighted_average([(1.0, &a), (3.0, &b)]);
        assert_eq!(avg.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn weighted_average_empty_panics() {
        let _ = Vector::weighted_average(std::iter::empty());
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vector::from(vec![0.0]);
        let b = Vector::from(vec![10.0]);
        assert_eq!(a.lerp(&b, 0.0).as_slice(), &[0.0]);
        assert_eq!(a.lerp(&b, 1.0).as_slice(), &[10.0]);
        assert_eq!(a.lerp(&b, 0.25).as_slice(), &[2.5]);
    }

    #[test]
    fn operators() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
        c -= &b;
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn max_abs_and_is_finite() {
        let a = Vector::from(vec![-3.0, 2.0]);
        assert_eq!(a.max_abs(), 3.0);
        assert!(a.is_finite());
        let b = Vector::from(vec![f32::NAN]);
        assert!(!b.is_finite());
        assert_eq!(Vector::zeros(0).max_abs(), 0.0);
    }

    #[test]
    fn collect_and_extend() {
        let v: Vector = (0..3).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let mut w = v.clone();
        w.extend([3.0]);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn clone_from_keeps_the_destination_allocation() {
        let src = Vector::from(vec![1.5, -0.0, 3.0, f32::INFINITY, 5.0]);
        let mut dst = Vector::zeros(5);
        let ptr = dst.as_slice().as_ptr();
        dst.clone_from(&src);
        assert_eq!(
            dst.as_slice().as_ptr(),
            ptr,
            "same length reuses the buffer"
        );
        assert_eq!(dst, src.clone());
        assert_eq!(dst.as_slice()[1].to_bits(), (-0.0f32).to_bits());
        // A longer destination keeps its allocation and shrinks; a shorter
        // one grows to the source's length.
        let mut long = Vector::zeros(9);
        let ptr = long.as_slice().as_ptr();
        long.clone_from(&src);
        assert_eq!(long.as_slice().as_ptr(), ptr);
        assert_eq!(long, src);
        let mut short = Vector::zeros(0);
        short.clone_from(&src);
        assert_eq!(short, src);
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Vector::zeros(0)).is_empty());
        assert!(format!("{:?}", Vector::zeros(100)).contains("len=100"));
    }
}
