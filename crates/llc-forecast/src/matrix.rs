use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Errors from matrix operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch,
    /// The matrix is singular (or numerically too close to singular).
    Singular,
    /// The operation requires a square matrix.
    NotSquare,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch => write!(f, "matrix dimensions are incompatible"),
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::NotSquare => write!(f, "operation requires a square matrix"),
        }
    }
}

impl std::error::Error for MatrixError {}

/// A small dense row-major matrix of `f64`.
///
/// Sized for Kalman-filter state dimensions (2–10); all operations are
/// `O(n³)` or better and allocate freshly, which is irrelevant at this
/// scale and keeps the API simple.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// A diagonal matrix from the given entries.
    ///
    /// # Panics
    ///
    /// Panics if `diag` is empty.
    pub fn diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Build from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.iter().flat_map(|r| r.iter().copied()).collect(),
        }
    }

    /// A column vector.
    pub fn column(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Set entry at (`r`, `c`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    let v = out.get(r, c) + a * rhs.get(k, c);
                    out.set(r, c, v);
                }
            }
        }
        Ok(out)
    }

    /// Entry-wise sum.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] on shape mismatch.
    pub fn plus(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(MatrixError::DimensionMismatch);
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Entry-wise difference.
    ///
    /// # Errors
    ///
    /// [`MatrixError::DimensionMismatch`] on shape mismatch.
    pub fn minus(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(MatrixError::DimensionMismatch);
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Inverse by Gauss-Jordan elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`MatrixError::NotSquare`] if the matrix is not square;
    /// * [`MatrixError::Singular`] if a pivot collapses below `1e-12` of
    ///   the largest row element.
    pub fn inverse(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::NotSquare);
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Partial pivot: largest |a[r][col]| for r >= col.
            let mut pivot = col;
            let mut pivot_val = a.get(col, col).abs();
            for r in (col + 1)..n {
                let v = a.get(r, col).abs();
                if v > pivot_val {
                    pivot = r;
                    pivot_val = v;
                }
            }
            if pivot_val < 1e-12 {
                return Err(MatrixError::Singular);
            }
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let d = a.get(col, col);
            for c in 0..n {
                a.set(col, c, a.get(col, c) / d);
                inv.set(col, c, inv.get(col, c) / d);
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor == 0.0 {
                    continue;
                }
                for c in 0..n {
                    a.set(r, c, a.get(r, c) - factor * a.get(col, c));
                    inv.set(r, c, inv.get(r, c) - factor * inv.get(col, c));
                }
            }
        }
        Ok(inv)
    }

    /// Force exact symmetry by averaging with the transpose (used to stop
    /// covariance drift in long Kalman runs).
    pub fn symmetrize(&self) -> Matrix {
        self.plus(&self.transpose())
            .expect("transpose has same shape")
            .scale(0.5)
    }

    fn swap_rows(&mut self, i: usize, j: usize) {
        for c in 0..self.cols {
            self.data.swap(i * self.cols + c, j * self.cols + c);
        }
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::plus`] for a fallible form.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.plus(rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::minus`] for a fallible form.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.minus(rhs).expect("matrix subtraction shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::matmul`] for a fallible form.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix product shape mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(&i * &a, a);
        assert_eq!(&a * &i, a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert_eq!(a.matmul(&b).unwrap_err(), MatrixError::DimensionMismatch);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn inverse_of_known_2x2() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        for r in 0..2 {
            for c in 0..2 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((prod.get(r, c) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inverse_requires_square() {
        assert_eq!(
            Matrix::zeros(2, 3).inverse().unwrap_err(),
            MatrixError::NotSquare
        );
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(a.inverse().unwrap_err(), MatrixError::Singular);
    }

    #[test]
    fn inverse_with_pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let inv = a.inverse().unwrap();
        assert_eq!(inv, a, "a permutation is its own inverse");
    }

    #[test]
    fn diagonal_and_column_constructors() {
        let d = Matrix::diagonal(&[2.0, 3.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        let v = Matrix::column(&[1.0, 2.0, 3.0]);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 1);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let s = a.symmetrize();
        assert_eq!(s.get(0, 1), s.get(1, 0));
        assert_eq!(s.get(0, 1), 1.0);
    }

    proptest! {
        #[test]
        fn inverse_roundtrip_for_well_conditioned(
            a in -5.0..5.0f64, b in -5.0..5.0f64,
            c in -5.0..5.0f64,
        ) {
            // Diagonally dominant 2x2 matrices are invertible.
            let m = Matrix::from_rows(&[&[10.0 + a.abs(), b], &[c, 10.0 + a.abs()]]);
            let inv = m.inverse().unwrap();
            let prod = &m * &inv;
            for r in 0..2 {
                for cc in 0..2 {
                    let expect = if r == cc { 1.0 } else { 0.0 };
                    prop_assert!((prod.get(r, cc) - expect).abs() < 1e-9);
                }
            }
        }

        #[test]
        fn matmul_associative(
            vals in proptest::collection::vec(-3.0..3.0f64, 12)
        ) {
            let a = Matrix::from_rows(&[&vals[0..2], &vals[2..4]]);
            let b = Matrix::from_rows(&[&vals[4..6], &vals[6..8]]);
            let c = Matrix::from_rows(&[&vals[8..10], &vals[10..12]]);
            let left = &(&a * &b) * &c;
            let right = &a * &(&b * &c);
            for r in 0..2 {
                for cc in 0..2 {
                    prop_assert!((left.get(r, cc) - right.get(r, cc)).abs() < 1e-9);
                }
            }
        }
    }
}
