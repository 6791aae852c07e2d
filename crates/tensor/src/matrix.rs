//! Row-major 2-D matrices used by fully-connected layers.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{kernels, Vector};

/// A dense row-major matrix of `f32` values.
///
/// Used by the model zoo for fully-connected layers: per-sample forward
/// passes are `W·x + b` ([`Matrix::matvec`]) and backward passes need the
/// transposed product ([`Matrix::matvec_transposed`]); the batched path
/// runs the same products over stacked rows through
/// [`kernels::matmul_bt`] and [`kernels::matmul_acc`].
///
/// # Example
///
/// ```
/// use hieradmo_tensor::{Matrix, Vector};
///
/// let m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let x = Vector::from(vec![1.0, 1.0]);
/// assert_eq!(m.matvec(&x).as_slice(), &[3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }

    /// Matrix-vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let xs = x.as_slice();
        (0..self.rows)
            .map(|r| kernels::dot(&self.data[r * self.cols..(r + 1) * self.cols], xs))
            .collect()
    }

    /// Transposed matrix-vector product `selfᵀ · y` (backprop through a
    /// linear layer).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub fn matvec_transposed(&self, y: &Vector) -> Vector {
        assert_eq!(y.len(), self.rows, "matvec_transposed dimension mismatch");
        let mut out = vec![0.0f32; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            if yr == 0.0 {
                continue;
            }
            kernels::axpy(&mut out, yr, &self.data[r * self.cols..(r + 1) * self.cols]);
        }
        Vector::from(out)
    }

    /// Matrix product `self · other`.
    ///
    /// Internally transposes `other` once and runs the blocked kernel
    /// ([`Matrix::matmul_transposed_into`]), so both operands stream
    /// through cache contiguously. Allocation-sensitive callers should hold
    /// the scratch/output buffers themselves and use
    /// [`Matrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut bt = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut bt, &mut out);
        out
    }

    /// Matrix product `self · other` written into `out`, with `bt` reused
    /// as the transposed-`other` scratch buffer.
    ///
    /// After the first call at a given shape, subsequent calls perform zero
    /// heap allocation: both `bt` and `out` are resized in place and their
    /// storage is recycled.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, bt: &mut Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        other.transpose_into(bt);
        self.matmul_transposed_into(bt, out);
    }

    /// Blocked, register-tiled product `self · btᵀ` where `bt` is already
    /// the transpose of the right-hand operand
    /// ([`kernels::matmul_bt`]).
    ///
    /// The kernel tiles the `(row, col)` output space 32×32 so a block of
    /// `self` rows is reused against a block of `bt` rows while both are
    /// hot in cache, and computes 2×2 output micro-tiles together, each
    /// element carrying eight independent lane accumulators
    /// ([`kernels::LANES`]). Each element's summation therefore runs as
    /// eight strided partial sums over `k` plus a serial tail, combined by
    /// a fixed balanced tree — **not** the naive left-to-right order, so
    /// results agree with the textbook triple loop only within `f32`
    /// rounding (reference tests use a relative tolerance). The order is a
    /// pure function of the shapes: the same operands give bitwise
    /// identical results on every call, every thread, every run of the
    /// same build, and every element is bitwise equal to
    /// [`kernels::dot`] of its row pair regardless of tiling.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ (`self.cols != bt.cols`).
    pub fn matmul_transposed_into(&self, bt: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, bt.cols,
            "matmul_transposed dimension mismatch: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, bt.rows, bt.cols
        );
        let (n, m, kk) = (self.rows, bt.rows, self.cols);
        out.reshape(n, m);
        kernels::matmul_bt(&self.data, &bt.data, &mut out.data, n, m, kk);
    }

    /// Returns the transpose of `self`.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out`, recycling its storage.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Resizes to `rows × cols` reusing the existing allocation; contents
    /// afterwards are unspecified (every element is overwritten by callers).
    fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let id = Matrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let x = Vector::from(vec![5.0, -2.0]);
        assert_eq!(id.matvec(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = Vector::from(vec![1.0, -1.0]);
        let via_method = m.matvec_transposed(&y);
        let via_transpose = m.transposed().matvec(&y);
        assert_eq!(via_method.as_slice(), via_transpose.as_slice());
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Naive triple-loop reference: `out[r][c] = Σ_k a[r][k]·b[k][c]`,
    /// increasing `k`, one accumulator per element.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.at(r, k) * b.at(k, c);
                }
                *out.at_mut(r, c) = acc;
            }
        }
        out
    }

    #[test]
    fn tiled_matmul_matches_naive_within_tolerance() {
        // Shapes straddling the 32-wide block boundary on every axis. The
        // multi-accumulator kernel reorders each element's summation, so
        // the naive oracle is matched within f32 rounding, not bitwise.
        let (n, k, m) = (37, 41, 35);
        let a = Matrix::from_rows(
            n,
            k,
            (0..n * k)
                .map(|i| ((i * 37 % 97) as f32 - 48.0) / 7.0)
                .collect(),
        );
        let b = Matrix::from_rows(
            k,
            m,
            (0..k * m)
                .map(|i| ((i * 53 % 89) as f32 - 44.0) / 9.0)
                .collect(),
        );
        let fast = a.matmul(&b);
        let slow = naive_matmul(&a, &b);
        for (f, s) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((f - s).abs() <= 1e-4 * (1.0 + s.abs()), "{f} vs {s}");
        }
        // Same input, same bits: the kernel's order is fixed per shape.
        assert_eq!(fast.as_slice(), a.matmul(&b).as_slice());
    }

    #[test]
    fn matmul_into_recycles_buffers() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_rows(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut bt = Matrix::zeros(0, 0);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut bt, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Second call at the same shape reuses the buffers and agrees
        // bitwise with the first (identical kernel, identical order).
        a.matmul_into(&b, &mut bt, &mut out);
        assert_eq!(out, a.matmul(&b));
        assert_eq!(bt, b.transposed());
        for (f, s) in out.as_slice().iter().zip(naive_matmul(&a, &b).as_slice()) {
            assert!((f - s).abs() <= 1e-4 * (1.0 + s.abs()), "{f} vs {s}");
        }
    }

    #[test]
    fn transpose_into_overwrites_stale_contents() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut out = Matrix::from_rows(1, 2, vec![9.0, 9.0]);
        m.transpose_into(&mut out);
        assert_eq!(out, m.transposed());
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().at(2, 1), m.at(1, 2));
    }

    #[test]
    fn accessors() {
        let mut m = Matrix::zeros(2, 2);
        *m.at_mut(1, 0) = 7.0;
        assert_eq!(m.at(1, 0), 7.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.len(), 4);
        assert!(!m.is_empty());
    }
}
