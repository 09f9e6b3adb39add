//! Dense row-major 2-D `f32` matrix.
//!
//! [`Matrix`] is the single tensor type used throughout the workspace. Rows are
//! entities (paths, links, nodes, samples); columns are features. All shape
//! mismatches panic: a wrong shape is a bug in the caller, never a recoverable
//! runtime condition.

use serde::json::Reader;
use serde::value::DeError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense row-major matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols` at all times. A matrix read from
/// a file fails to deserialize otherwise, or when it holds a value that is
/// not finite (the writer writes one as `null`, which reads as no number;
/// a finite `f64` past `f32::MAX` would read as infinity).
#[derive(Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A [`Matrix`]'s fields as a file holds them, before they are checked.
#[derive(Deserialize)]
struct MatrixFields {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl<'de> Deserialize<'de> for Matrix {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let MatrixFields { rows, cols, data } = MatrixFields::deserialize_json(r)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(DeError::new(format!(
                "a {rows} x {cols} matrix holding {} values",
                data.len()
            )));
        }
        if let Some(i) = data.iter().position(|x| !x.is_finite()) {
            return Err(DeError::new(format!(
                "a {rows} x {cols} matrix holding {} at index {i}",
                data[i]
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for r in 0..max_rows {
            let row: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:.4}"))
                .collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from an existing row-major buffer.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a slice of rows. Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Matrix::from_rows: row {i} has length {} != {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build element-wise from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// A 1 x n row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// An n x 1 column vector.
    pub fn column_vector(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    // ------------------------------------------------------------------
    // Shape and element access
    // ------------------------------------------------------------------

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume and return the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`. Panics on out-of-bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "Matrix::get({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`. Panics on out-of-bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "Matrix::set({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "Matrix::row({r}) out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "Matrix::row_mut({r}) out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    // ------------------------------------------------------------------
    // Element-wise operations
    // ------------------------------------------------------------------

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Add `other` into `self` in place. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other`, in place. Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Self, scale: f32) {
        self.assert_same_shape(other, "add_scaled");
        axpy1(&mut self.data, scale, &other.data);
    }

    /// Broadcast-add a 1 x cols row vector to every row, in place.
    pub fn add_row_broadcast_assign(&mut self, bias: &Self) {
        assert_eq!(
            bias.rows, 1,
            "add_row_broadcast_assign: bias must be a row vector"
        );
        assert_eq!(
            bias.cols, self.cols,
            "add_row_broadcast_assign: width mismatch"
        );
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Multiply each row by the matching entry of an n x 1 column vector,
    /// in place.
    pub fn mul_col_broadcast_assign(&mut self, col: &Self) {
        assert_eq!(
            col.cols, 1,
            "mul_col_broadcast_assign: expected column vector"
        );
        assert_eq!(
            col.rows, self.rows,
            "mul_col_broadcast_assign: row mismatch"
        );
        for r in 0..self.rows {
            let w = col.data[r];
            for v in &mut self.data[r * self.cols..(r + 1) * self.cols] {
                *v *= w;
            }
        }
    }

    /// Multiply every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Self {
        self.map(|v| v * s)
    }

    /// Broadcast-add a 1 x cols row vector to every row.
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        assert_eq!(
            bias.rows, 1,
            "add_row_broadcast: bias must be a row vector, got {}x{}",
            bias.rows, bias.cols
        );
        assert_eq!(
            bias.cols, self.cols,
            "add_row_broadcast: bias has {} cols, matrix has {}",
            bias.cols, self.cols
        );
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            for (v, b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Linear algebra
    //
    // The matmul family is the training hot path: every GRU gate and every
    // backward adjoint runs through these two kernels (`a·b` and `aᵀ·b`),
    // and on the vector tiers both kernels and the fused GRU step's
    // products run through one register tile (`simd.rs`, `lane_template!`).
    // Each comes in three forms: allocating (`matmul`), overwrite-into
    // (`matmul_into`, writes a caller-provided buffer so pooled tapes never
    // re-allocate), and accumulate-into (`matmul_acc`, `out += a·b`, which
    // fuses the `grad += partial` pattern of reverse-mode autodiff into the
    // kernel).
    //
    // Contract — one canonical per-element expression. With `x[t]` and
    // `y[t]` the two operand elements at shared-dimension index `t`
    // (`a[i][t]` and `b[t][j]` for `matmul`, `a[t][i]` and `b[t][j]` for
    // `matmul_tn`), every index, in ascending order, contributes one fused
    // multiply-add, rounded once:
    //
    //     out[i][j] = fma(x[t], y[t], out[i][j])
    //
    // at every tier, the baseline included (`f32::mul_add`). Every recorded
    // bit rests on it. The [`kernels`] module doc says what a future kernel
    // may change (blocking, tile shape) and what it may not (order, a split
    // of the shared dimension, an unfused step);
    // `crates/tensor/tests/proptests.rs` holds the scalar spelling both
    // kernels are compared to bit for bit.
    // ------------------------------------------------------------------

    fn assert_matmul_shapes(&self, other: &Self) -> (usize, usize, usize) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        (self.rows, self.cols, other.cols)
    }

    /// Matrix product `self * other` (`m x k` times `k x n` -> `m x n`).
    pub fn matmul(&self, other: &Self) -> Self {
        let (m, _, n) = self.assert_matmul_shapes(other);
        let mut out = Self {
            rows: m,
            cols: n,
            data: vec![0.0; m * n],
        };
        self.matmul_acc(other, &mut out);
        out
    }

    /// `out = self * other`, overwriting `out` (shape-checked).
    pub fn matmul_into(&self, other: &Self, out: &mut Self) {
        let (m, _, n) = self.assert_matmul_shapes(other);
        assert_eq!(out.shape(), (m, n), "matmul_into: bad output shape");
        out.data.fill(0.0);
        self.matmul_acc(other, out);
    }

    /// `out += self * other` (the fused form backward passes use).
    ///
    /// Runs [`kernels::matmul_acc`] at the widest SIMD tier the CPU has —
    /// identical per-element arithmetic at every tier (blocking and vector
    /// width only change lane packing), so results are bitwise equal on
    /// every machine.
    pub fn matmul_acc(&self, other: &Self, out: &mut Self) {
        let (m, k, n) = self.assert_matmul_shapes(other);
        assert_eq!(out.shape(), (m, n), "matmul_acc: bad output shape");
        kernels::matmul_acc(&self.data, &other.data, m, k, n, &mut out.data);
    }

    fn assert_tn_shapes(&self, other: &Self) -> (usize, usize, usize) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn: row counts differ ({}x{} vs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        (self.rows, self.cols, other.cols)
    }

    /// `self^T * other` without materializing the transpose
    /// (`k x m`^T times `k x n` -> `m x n`). Used by autograd backward passes.
    pub fn matmul_tn(&self, other: &Self) -> Self {
        let (_, m, n) = self.assert_tn_shapes(other);
        let mut out = Self {
            rows: m,
            cols: n,
            data: vec![0.0; m * n],
        };
        self.matmul_tn_acc(other, &mut out);
        out
    }

    /// `out = self^T * other`, overwriting `out`.
    pub fn matmul_tn_into(&self, other: &Self, out: &mut Self) {
        let (_, m, n) = self.assert_tn_shapes(other);
        assert_eq!(out.shape(), (m, n), "matmul_tn_into: bad output shape");
        out.data.fill(0.0);
        self.matmul_tn_acc(other, out);
    }

    /// `out += self^T * other` (fused gradient accumulation for kernels).
    ///
    /// Runs [`kernels::matmul_tn_acc`] at the widest SIMD tier the CPU has,
    /// bitwise equal to the baseline body.
    pub fn matmul_tn_acc(&self, other: &Self, out: &mut Self) {
        let (k, m, n) = self.assert_tn_shapes(other);
        assert_eq!(out.shape(), (m, n), "matmul_tn_acc: bad output shape");
        kernels::matmul_tn_acc(&self.data, &other.data, k, m, n, &mut out.data);
    }

    /// Reference `self * other` — an unfused multiply-then-add loop that
    /// skips zero operands: the independent oracle the property tests hold
    /// the kernels to within a tolerance (the bitwise oracle is the
    /// contract's own spelling in `tests/proptests.rs`).
    pub fn matmul_reference(&self, other: &Self) -> Self {
        let (m, k, n) = self.assert_matmul_shapes(other);
        let mut out = vec![0.0f32; m * n];
        // i-k-j loop order: the innermost loop walks both `other` and `out`
        // contiguously.
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Self {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Reference `self^T * other` (see [`Matrix::matmul_reference`]).
    pub fn matmul_tn_reference(&self, other: &Self) -> Self {
        let (k, m, n) = self.assert_tn_shapes(other);
        let mut out = vec![0.0f32; m * n];
        for kk in 0..k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Self {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Reference `self * other^T` (see [`Matrix::matmul_reference`]).
    pub fn matmul_nt_reference(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt_reference: col counts differ ({}x{} vs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &other.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        Self {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Write the transpose into a caller-provided (pooled) matrix.
    pub fn transpose_into(&self, out: &mut Self) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into: bad output shape"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Zero for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest absolute element. Zero for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    // ------------------------------------------------------------------
    // Structural operations (the GNN message-passing primitives)
    // ------------------------------------------------------------------

    /// Gather rows: `out[i] = self[indices[i]]`. Panics on out-of-range indices.
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Matrix::gather_rows`] into a caller-provided `indices.len() x cols`
    /// matrix, every element of which is overwritten.
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Self) {
        assert_eq!(
            out.shape(),
            (indices.len(), self.cols),
            "gather_rows_into: output shape mismatch"
        );
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "gather_rows: index {idx} out of range for {} rows",
                self.rows
            );
            out.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(self.row(idx));
        }
    }

    /// Segment sum (scatter-add of rows): for each input row `i`,
    /// `out[segments[i]] += self[i]`. `num_segments` fixes the output row count
    /// so empty segments yield zero rows. This is the aggregation primitive of
    /// RouteNet's link and node updates.
    pub fn segment_sum(&self, segments: &[usize], num_segments: usize) -> Self {
        let mut out = Self::zeros(num_segments, self.cols);
        self.segment_sum_into(segments, &mut out);
        out
    }

    /// [`Matrix::segment_sum`] **accumulated into** a caller-provided
    /// `num_segments x cols` matrix (zeroed by the caller for a plain sum).
    pub fn segment_sum_into(&self, segments: &[usize], out: &mut Self) {
        assert_eq!(
            segments.len(),
            self.rows,
            "segment_sum: {} segment ids for {} rows",
            segments.len(),
            self.rows
        );
        assert_eq!(out.cols, self.cols, "segment_sum_into: width mismatch");
        let num_segments = out.rows;
        for (i, &s) in segments.iter().enumerate() {
            assert!(
                s < num_segments,
                "segment_sum: segment id {s} out of range {num_segments}"
            );
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            let dst = &mut out.data[s * self.cols..(s + 1) * self.cols];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        }
    }

    /// Horizontal concatenation `[self | other]`. Panics on row-count mismatch.
    pub fn concat_cols(&self, other: &Self) -> Self {
        assert_eq!(
            self.rows, other.rows,
            "concat_cols: row counts differ ({} vs {})",
            self.rows, other.rows
        );
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Self {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Copy of the column range `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Self {
        assert!(
            start <= end && end <= self.cols,
            "slice_cols: bad range {start}..{end} for {} cols",
            self.cols
        );
        let cols = end - start;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Self {
            rows: self.rows,
            cols,
            data,
        }
    }

    // ------------------------------------------------------------------
    // Comparisons
    // ------------------------------------------------------------------

    /// True when both matrices have the same shape and all elements differ by
    /// at most `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    fn assert_same_shape(&self, other: &Self, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

/// Slice-level matmul kernels with runtime dispatch on
/// [`Tier`](crate::simd::Tier).
///
/// The [`Matrix`] methods delegate here; `rn_autograd`'s fused GRU step
/// runs its forward as [`kernels::gru_step`] and calls the two products
/// directly on the slices of its adjoint's scratch buffers. Each kernel has
/// an `*_at` twin taking the tier, for the tests and for callers that are
/// themselves compiled for one tier.
///
/// Two bodies. The baseline tier spells the contract plainly: output row
/// `i`, then `t` ascending, one `f32::mul_add` over `b`'s row `t` each. The
/// vector tiers (8 lanes on AVX2 + FMA, 16 on AVX-512) run one register
/// tile, `lane_template!`'s `product` in [`crate::simd`], which also serves
/// both products of [`kernels::gru_step`]: `matmul_acc` and
/// `matmul_tn_acc` differ only in the strides their left operand is read
/// with. A tile of 4 output rows × up to 4 registers (64 columns on
/// AVX-512, 2 registers on AVX2) stays in registers across a panel of the
/// shared dimension; columns past a multiple of the lane count are masked
/// loads and stores (lanes past the row are never read or written), and
/// rows past a multiple of 4 take a 2-row and a 1-row tile. An output half
/// a register wide (the `state_dim = 8` GRU products on AVX-512, `4` on
/// AVX2) would fill half of every register through masked steps; it takes
/// tiles of 8 rows instead, two rows per register, loaded and stored
/// unmasked.
///
/// # Contract
///
/// Both kernels evaluate every output element with one canonical
/// expression. Writing `x[t]` and `y[t]` for the two operand elements at
/// shared-dimension index `t`, every index, in ascending order, contributes
///
/// ```text
/// out[i][j] = fma(x[t], y[t], out[i][j])
/// ```
///
/// — one fused multiply-add, rounded once, at every tier: `f32::mul_add` in
/// the baseline body (a correctly rounded `fmaf` call where the baseline
/// build has no FMA instruction), `vfmadd` in the AVX2 + FMA and AVX-512
/// bodies. Blocking, tile shape, loop order and vector width are free to
/// change, and so is storing an element between steps (the vector bodies do
/// between panels: an `f32` stores and loads exactly); the ascending order,
/// a split of the shared dimension into separately summed parts and an
/// unfused step are not — the golden fixtures and the model digests record
/// bits of this expression. Because the expression is per element, the
/// result does not depend on how output rows are grouped into blocks or
/// calls: any row-range decomposition of `matmul_acc` is bitwise identical
/// to one full call, which is why a sample predicts the same bits alone and
/// inside a megabatch.
pub mod kernels {
    use crate::simd::Tier;

    /// The most rows one tile of the vector [`gru_step`] bodies holds.
    pub(crate) const GRU_TILE_MAX: usize = 16;

    /// The operands of one GRU step on a pre-projected input
    /// ([`gru_step`]): the recurrent kernels, the bias, a table of
    /// projected inputs `x·W_x`, and per active row the state row it
    /// advances and the table row it reads.
    #[derive(Debug, Clone, Copy)]
    pub struct GruOperands<'a> {
        /// State width.
        pub hidden: usize,
        /// `[W_h,z | W_h,r]`, `hidden x 2·hidden`.
        pub w_h_zr: &'a [f32],
        /// `W_h,c`, `hidden x hidden`.
        pub w_h_c: &'a [f32],
        /// `[b_z | b_r | b_c]`, `3·hidden`.
        pub b: &'a [f32],
        /// Rows `[px_z | px_r | px_c]`, `3·hidden` wide; rows may be read
        /// by several active rows or by none.
        pub table: &'a [f32],
        /// The state row each active row advances; distinct.
        pub rows: &'a [usize],
        /// The table row each active row reads, one per entry of `rows`.
        pub ids: &'a [usize],
    }

    /// What a training step keeps for its adjoint, over the active rows in
    /// list order.
    #[derive(Debug)]
    pub struct GruActivations<'a> {
        /// The old state rows, `a x hidden`.
        pub h: &'a mut [f32],
        /// `[z | r]` after the sigmoid, `a x 2·hidden`.
        pub zr: &'a mut [f32],
        /// The candidate after the tanh, `a x hidden`.
        pub c: &'a mut [f32],
    }

    /// The scratch [`gru_step`] needs at state width `hidden`.
    pub fn gru_scratch_len(hidden: usize) -> usize {
        GRU_TILE_MAX * 3 * hidden
    }

    /// One GRU step, advancing `state` (`n x hidden`) in place at the
    /// active rows; every other row is left as it is:
    ///
    /// ```text
    /// [z | r] = σ(px_zr + h·W_h,zr + b_zr)
    /// c       = tanh(px_c + (r⊙h)·W_h,c + b_c)      h' = (1−z)⊙h + z⊙c
    /// ```
    ///
    /// with `px` the table row of the active row's id. Each product
    /// element starts at its `px` element and takes one fused multiply-add
    /// per step of the state dimension, in ascending order (the matmul
    /// kernels' contract); the bias is added after the product, then the
    /// fast-exp [`sigmoid`](crate::activations::sigmoid) /
    /// [`tanh`](crate::activations::tanh); `r ⊙ h` is one multiply; the
    /// blend is `(1 − z)·h + z·c`, two multiplies and an add, unfused. The
    /// vector tiers run that chain over tiles of rows with the
    /// accumulators in registers and read the table through the ids; every
    /// tier gives the bits of the scalar form, row by row. With `saved`
    /// (training) the old state rows, the gates and the candidate are
    /// written there too. `scratch` is at least
    /// [`gru_scratch_len`]`(hidden)` floats of any content.
    pub fn gru_step(
        op: &GruOperands<'_>,
        state: &mut [f32],
        saved: Option<GruActivations<'_>>,
        scratch: &mut [f32],
    ) {
        gru_step_at(Tier::detected(), op, state, saved, scratch);
    }

    /// [`gru_step`] through the body of `tier`.
    ///
    /// # Panics
    /// If this CPU does not run `tier`, on mismatched lengths, or on a row
    /// or id out of range (each checked once, before any body reads
    /// through it).
    pub fn gru_step_at(
        tier: Tier,
        op: &GruOperands<'_>,
        state: &mut [f32],
        saved: Option<GruActivations<'_>>,
        scratch: &mut [f32],
    ) {
        let (h, a) = (op.hidden, op.rows.len());
        assert!(h > 0, "gru_step: zero-width state");
        assert_eq!(
            op.w_h_zr.len(),
            h * 2 * h,
            "gru_step: W_h,zr is not hidden x 2·hidden"
        );
        assert_eq!(
            op.w_h_c.len(),
            h * h,
            "gru_step: W_h,c is not hidden x hidden"
        );
        assert_eq!(op.b.len(), 3 * h, "gru_step: the bias is not 3·hidden");
        assert_eq!(
            op.table.len() % (3 * h),
            0,
            "gru_step: table rows are not 3·hidden"
        );
        assert_eq!(state.len() % h, 0, "gru_step: state rows are not hidden");
        assert_eq!(op.ids.len(), a, "gru_step: one id per active row");
        assert!(
            scratch.len() >= gru_scratch_len(h),
            "gru_step: scratch too short"
        );
        let (n, m) = (state.len() / h, op.table.len() / (3 * h));
        for (&row, &id) in op.rows.iter().zip(op.ids) {
            assert!(row < n, "gru_step: row {row} out of range {n}");
            assert!(id < m, "gru_step: id {id} out of range {m}");
        }
        if let Some(s) = &saved {
            assert!(
                s.h.len() == a * h && s.zr.len() == a * 2 * h && s.c.len() == a * h,
                "gru_step: saved activations are not a x [hidden, 2·hidden, hidden]"
            );
        }
        if a == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        let ptrs = |s: GruActivations<'_>| [s.h.as_mut_ptr(), s.zr.as_mut_ptr(), s.c.as_mut_ptr()];
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `checked` asserted that this CPU runs AVX-512; the
            // lengths, rows and ids were checked above.
            Tier::Avx512 => unsafe {
                crate::simd::activations::avx512::gru_step(
                    op,
                    state.as_mut_ptr(),
                    saved.map(ptrs),
                    scratch.as_mut_ptr(),
                )
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for AVX2.
            Tier::Avx2 => unsafe {
                crate::simd::activations::avx2::gru_step(
                    op,
                    state.as_mut_ptr(),
                    saved.map(ptrs),
                    scratch.as_mut_ptr(),
                )
            },
            _ => super::gru_step_scalar(op, state, saved, scratch),
        }
    }

    /// `out += a·b` where `a` is `m x k`, `b` is `k x n`, `out` is `m x n`,
    /// all row-major slices.
    pub fn matmul_acc(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        matmul_acc_at(Tier::detected(), a, b, m, k, n, out);
    }

    /// [`matmul_acc`] through the body of `tier`.
    ///
    /// # Panics
    /// If this CPU does not run `tier`, or on mismatched lengths.
    pub fn matmul_acc_at(
        tier: Tier,
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        assert_eq!(a.len(), m * k, "kernels::matmul_acc: `a` is not m x k");
        assert_eq!(b.len(), k * n, "kernels::matmul_acc: `b` is not k x n");
        assert_eq!(out.len(), m * n, "kernels::matmul_acc: `out` is not m x n");
        product_acc(tier, a, (k, 1), b, (m, k, n), out);
    }

    /// `out += a^T·b` where `a` is `k x m`, `b` is `k x n`, `out` is `m x n`.
    pub fn matmul_tn_acc(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
        matmul_tn_acc_at(Tier::detected(), a, b, k, m, n, out);
    }

    /// [`matmul_tn_acc`] through the body of `tier`.
    ///
    /// # Panics
    /// If this CPU does not run `tier`, or on mismatched lengths.
    pub fn matmul_tn_acc_at(
        tier: Tier,
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        n: usize,
        out: &mut [f32],
    ) {
        assert_eq!(a.len(), k * m, "kernels::matmul_tn_acc: `a` is not k x m");
        assert_eq!(b.len(), k * n, "kernels::matmul_tn_acc: `b` is not k x n");
        assert_eq!(
            out.len(),
            m * n,
            "kernels::matmul_tn_acc: `out` is not m x n"
        );
        product_acc(tier, a, (1, m), b, (m, k, n), out);
    }

    /// The floats one panel of a product reads: its steps times `n + step`,
    /// a row of `b` and, for a transposed left operand (`step = m`), a row
    /// of it (an untransposed one adds a float per row of a tile). 32 KB,
    /// within the L1 data cache of a host of either vector tier.
    const PANEL_FLOATS: usize = 8192;

    /// `out += A·b` through the body of `tier`, `A(i, t)` being
    /// `a[i·row + t·step]`; the caller asserted the lengths. The shared
    /// dimension runs in panels of [`PANEL_FLOATS`], so that what a panel
    /// reads stays in L1 while the vector tiles reuse it. Between panels
    /// each element rests in `out`, an exact round trip: it still takes one
    /// fused multiply-add per step, in ascending order.
    #[inline(always)]
    fn product_acc(
        tier: Tier,
        a: &[f32],
        (row, step): (usize, usize),
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        out: &mut [f32],
    ) {
        if m == 0 || n == 0 {
            return;
        }
        let tier = tier.checked();
        let panel = (PANEL_FLOATS / (n + step)).max(1);
        let mut t0 = 0;
        while t0 < k {
            let kc = (k - t0).min(panel);
            let (a, b) = (&a[t0 * step..], &b[t0 * n..]);
            #[cfg(target_arch = "x86_64")]
            let strided = crate::simd::activations::Strided {
                a: a.as_ptr(),
                row,
                step,
            };
            match tier {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `checked` asserted that this CPU runs AVX-512; the
                // caller asserted the lengths, so `strided` holds `A(i, t)`
                // for `i < m`, `t < kc`, and `b` holds `kc` rows.
                Tier::Avx512 => unsafe {
                    crate::simd::activations::avx512::matmul_acc(
                        strided,
                        b.as_ptr(),
                        (m, kc, n),
                        out.as_mut_ptr(),
                    )
                },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above, for AVX2.
                Tier::Avx2 => unsafe {
                    crate::simd::activations::avx2::matmul_acc(
                        strided,
                        b.as_ptr(),
                        (m, kc, n),
                        out.as_mut_ptr(),
                    )
                },
                _ => super::matmul_acc_body(a, (row, step), b, (m, kc, n), out),
            }
            t0 += kc;
        }
    }
}

/// `out += A·b` spelled as the contract reads, `A(i, t)` being
/// `a[i·row + t·step]`: row `i`, then `t` ascending, one [`axpy1`] of `b`'s
/// row `t` each — the baseline tier's body.
fn matmul_acc_body(
    a: &[f32],
    (row, step): (usize, usize),
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    for i in 0..m {
        let o = &mut out[i * n..(i + 1) * n];
        for t in 0..k {
            axpy1(o, a[i * row + t * step], &b[t * n..(t + 1) * n]);
        }
    }
}

/// The scalar form of [`kernels::gru_step`], one active row at a time: the
/// baseline tier's body and the bits every tier reproduces.
fn gru_step_scalar(
    op: &kernels::GruOperands<'_>,
    state: &mut [f32],
    mut saved: Option<kernels::GruActivations<'_>>,
    scratch: &mut [f32],
) {
    use crate::activations::{sigmoid, tanh};
    let h = op.hidden;
    let (zr, rest) = scratch.split_at_mut(2 * h);
    let (rh, rest) = rest.split_at_mut(h);
    let c = &mut rest[..h];
    let (b_zr, b_c) = op.b.split_at(2 * h);
    for (k, (&row, &id)) in op.rows.iter().zip(op.ids).enumerate() {
        let px = &op.table[id * 3 * h..(id + 1) * 3 * h];
        let hr = &mut state[row * h..(row + 1) * h];
        zr.copy_from_slice(&px[..2 * h]);
        for (&ht, w) in hr.iter().zip(op.w_h_zr.chunks_exact(2 * h)) {
            axpy1(zr, ht, w);
        }
        for (v, &b) in zr.iter_mut().zip(b_zr) {
            *v = sigmoid(*v + b);
        }
        for ((d, &r), &ht) in rh.iter_mut().zip(&zr[h..]).zip(hr.iter()) {
            *d = r * ht;
        }
        c.copy_from_slice(&px[2 * h..]);
        for (&rt, w) in rh.iter().zip(op.w_h_c.chunks_exact(h)) {
            axpy1(c, rt, w);
        }
        for (v, &b) in c.iter_mut().zip(b_c) {
            *v = tanh(*v + b);
        }
        if let Some(s) = saved.as_mut() {
            s.h[k * h..(k + 1) * h].copy_from_slice(hr);
            s.zr[k * 2 * h..(k + 1) * 2 * h].copy_from_slice(zr);
            s.c[k * h..(k + 1) * h].copy_from_slice(c);
        }
        for ((o, &z), &cj) in hr.iter_mut().zip(&zr[..h]).zip(c.iter()) {
            *o = (1.0 - z) * *o + z * cj;
        }
    }
}

/// `out = fma(a, b, out)` elementwise, equal-length slices.
#[inline]
fn axpy1(out: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), b.len());
    for (o, &bv) in out.iter_mut().zip(b) {
        *o = a.mul_add(bv, *o);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Tier;

    #[test]
    fn a_matrix_whose_data_disagrees_with_its_shape_does_not_deserialize() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<Matrix>(&json).unwrap(), m);
        for (from, to) in [
            ("\"data\":[1.0,", "\"data\":["),
            ("\"rows\":2", "\"rows\":3"),
            // rows * cols overflows usize.
            ("\"rows\":2", "\"rows\":9223372036854775808"),
        ] {
            assert!(json.contains(from), "{json}");
            let err = serde_json::from_str::<Matrix>(&json.replacen(from, to, 1))
                .expect_err("length differs from rows * cols")
                .to_string();
            assert!(err.contains("matrix holding"), "{err}");
        }
    }

    #[test]
    fn constructors_produce_expected_shapes() {
        assert_eq!(Matrix::zeros(3, 4).shape(), (3, 4));
        assert_eq!(Matrix::ones(2, 2).sum(), 4.0);
        assert_eq!(Matrix::filled(2, 3, 0.5).sum(), 3.0);
        assert_eq!(Matrix::identity(3).sum(), 3.0);
        assert_eq!(Matrix::row_vector(&[1.0, 2.0]).shape(), (1, 2));
        assert_eq!(Matrix::column_vector(&[1.0, 2.0, 3.0]).shape(), (3, 1));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + 2 * c) as f32);
        assert!(a.matmul(&Matrix::identity(3)).approx_eq(&a, 1e-6));
        assert!(Matrix::identity(3).matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r + c) as f32);
        assert!(a.matmul_tn(&b).approx_eq(&a.transpose().matmul(&b), 1e-4));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32 * 0.25);
        let b = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.5);
        assert!(a
            .matmul_nt_reference(&b)
            .approx_eq(&a.matmul(&b.transpose()), 1e-4));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.add(&b).as_slice(), &[6.0, 8.0, 10.0, 12.0]);
        assert_eq!(b.sub(&a).as_slice(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(a.mul(&b).as_slice(), &[5.0, 12.0, 21.0, 32.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Matrix::zeros(1, 3);
        let g = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        a.add_scaled(&g, 0.5);
        a.add_scaled(&g, 0.5);
        assert!(a.approx_eq(&g, 1e-6));
    }

    #[test]
    fn bias_broadcast_adds_to_every_row() {
        let m = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(&[1.0, -1.0]);
        let out = m.add_row_broadcast(&bias);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-6);
        assert_eq!(m.max_abs(), 6.0);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let m = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.row(0), &[3.0, 3.0]);
        assert_eq!(g.row(1), &[1.0, 1.0]);
        assert_eq!(g.row(2), &[3.0, 3.0]);
    }

    #[test]
    fn segment_sum_aggregates_and_keeps_empty_segments() {
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 1.0], vec![3.0, 5.0]]);
        let s = m.segment_sum(&[0, 2, 0], 4);
        assert_eq!(s.row(0), &[4.0, 5.0]);
        assert_eq!(s.row(1), &[0.0, 0.0]);
        assert_eq!(s.row(2), &[2.0, 1.0]);
        assert_eq!(s.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn segment_sum_then_gather_is_identity_for_singleton_segments() {
        let m = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let s = m.segment_sum(&[0, 1, 2, 3, 4], 5);
        assert!(s.approx_eq(&m, 1e-6));
    }

    #[test]
    fn concat_and_slice_round_trip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(2, 3, |r, c| (r * c) as f32);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.shape(), (2, 5));
        assert!(cat.slice_cols(0, 2).approx_eq(&a, 1e-6));
        assert!(cat.slice_cols(2, 5).approx_eq(&b, 1e-6));
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn non_finite_detection() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_non_finite());
        m.set(1, 1, f32::NAN);
        assert!(m.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_panics_on_shape_mismatch() {
        let _ = Matrix::zeros(2, 2).add(&Matrix::zeros(2, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_panics_on_inner_mismatch() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn unrolled_kernels_match_references() {
        // Shapes straddling the tile height (4) and both lane widths.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (8, 4, 8), (9, 17, 33), (2, 64, 32)] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
            assert!(
                a.matmul(&b).approx_eq(&a.matmul_reference(&b), 1e-3),
                "nn {m}x{k}x{n}"
            );

            let at = Matrix::from_fn(k, m, |r, c| ((r * 13 + c * 5) % 9) as f32 - 4.0);
            let bt = Matrix::from_fn(k, n, |r, c| ((r * 7 + c) % 10) as f32 - 5.0);
            assert!(
                at.matmul_tn(&bt)
                    .approx_eq(&at.matmul_tn_reference(&bt), 1e-3),
                "tn {m}x{k}x{n}"
            );

            let bn = Matrix::from_fn(n, k, |r, c| ((r + c * 11) % 12) as f32 - 6.0);
            assert!(
                a.matmul(&bn.transpose())
                    .approx_eq(&a.matmul_nt_reference(&bn), 1e-3),
                "nt {m}x{k}x{n}"
            );
        }
    }

    /// The GRU step spelled as separate passes over whole matrices, one
    /// element at a time: gather the table rows, the gate product, bias
    /// and sigmoid, `r ⊙ h`, the candidate product, bias and tanh, the
    /// blend. Returns the stepped state and `[h, zr, c]` of the active rows.
    fn gru_step_in_passes(op: &kernels::GruOperands<'_>, state: &[f32]) -> [Vec<f32>; 4] {
        use crate::activations::{sigmoid, tanh};
        let (h, a) = (op.hidden, op.rows.len());
        let mut out = state.to_vec();
        let old: Vec<f32> = op
            .rows
            .iter()
            .flat_map(|&r| state[r * h..(r + 1) * h].to_vec())
            .collect();
        let px: Vec<f32> = op
            .ids
            .iter()
            .flat_map(|&i| op.table[i * 3 * h..(i + 1) * 3 * h].to_vec())
            .collect();
        let mut zr = vec![0.0f32; a * 2 * h];
        let mut c = vec![0.0f32; a * h];
        for k in 0..a {
            for j in 0..2 * h {
                let mut v = px[k * 3 * h + j];
                for t in 0..h {
                    v = old[k * h + t].mul_add(op.w_h_zr[t * 2 * h + j], v);
                }
                zr[k * 2 * h + j] = sigmoid(v + op.b[j]);
            }
        }
        for k in 0..a {
            let rh: Vec<f32> = (0..h)
                .map(|t| zr[k * 2 * h + h + t] * old[k * h + t])
                .collect();
            for j in 0..h {
                let mut v = px[k * 3 * h + 2 * h + j];
                for (t, &r) in rh.iter().enumerate() {
                    v = r.mul_add(op.w_h_c[t * h + j], v);
                }
                c[k * h + j] = tanh(v + op.b[2 * h + j]);
            }
        }
        for (k, &row) in op.rows.iter().enumerate() {
            for j in 0..h {
                let (z, cj) = (zr[k * 2 * h + j], c[k * h + j]);
                let o = &mut out[row * h + j];
                *o = (1.0 - z) * *o + z * cj;
            }
        }
        [out, old, zr, c]
    }

    #[test]
    fn gru_step_matches_the_passes_at_every_tier() {
        // Every tier this host runs against the step spelled as passes, in
        // training (saved activations) and in inference. Widths: 1 and 2 (the
        // smallest state), every width up to two registers of either tier and
        // past them, 48 and 64 (more than one column block of the gate
        // product). Row counts: none, one, and both sides of every tile
        // height (16, 8, 4, 2, 1); 35 is two 16-row tiles and a tail.
        // The active rows skip state rows, and read a 7-row table through
        // ids that repeat and never reach its rows 5 and 6.
        let tiers: Vec<Tier> = Tier::supported().collect();
        println!("gru_step tiers run: {tiers:?}");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let det = |len: usize, salt: usize, scale: f32| -> Vec<f32> {
            (0..len)
                .map(|i| ((i * 31 + salt * 17) % 23) as f32 / 11.0 * scale - scale)
                .collect()
        };
        for hidden in (1..=17).chain([24, 31, 32, 33, 48, 64]) {
            let w_h_zr = det(hidden * 2 * hidden, 3, 0.3);
            let w_h_c = det(hidden * hidden, 4, 0.3);
            let b = det(3 * hidden, 5, 1.0);
            let table = det(7 * 3 * hidden, 2, 1.5);
            for a in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 35] {
                let n = 2 * a + 1;
                let rows: Vec<usize> = (0..a).map(|k| 2 * k + k % 2).collect();
                let ids: Vec<usize> = (0..a).map(|k| (k * 3) % 5).collect();
                let state = det(n * hidden, 1, 1.0);
                let op = kernels::GruOperands {
                    hidden,
                    w_h_zr: &w_h_zr,
                    w_h_c: &w_h_c,
                    b: &b,
                    table: &table,
                    rows: &rows,
                    ids: &ids,
                };
                let want = gru_step_in_passes(&op, &state).map(|v| bits(&v));
                let mut scratch = vec![f32::NAN; kernels::gru_scratch_len(hidden)];
                for &tier in &tiers {
                    let what = format!("{tier:?}, hidden {hidden}, {a} rows");
                    let mut got = state.clone();
                    kernels::gru_step_at(tier, &op, &mut got, None, &mut scratch);
                    assert_eq!(bits(&got), want[0], "inference: {what}");

                    let mut got = state.clone();
                    let mut saved = [hidden, 2 * hidden, hidden].map(|w| vec![f32::NAN; a * w]);
                    let [sh, szr, sc] = &mut saved;
                    let acts = kernels::GruActivations {
                        h: sh,
                        zr: szr,
                        c: sc,
                    };
                    kernels::gru_step_at(tier, &op, &mut got, Some(acts), &mut scratch);
                    assert_eq!(bits(&got), want[0], "training: {what}");
                    for (i, s) in saved.iter().enumerate() {
                        assert_eq!(bits(s), want[i + 1], "saved {i}: {what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gru_step: id 3 out of range 3")]
    fn gru_step_rejects_an_id_past_the_table() {
        let (w, b, table) = (vec![0.0; 8], vec![0.0; 6], vec![0.0; 18]);
        let op = kernels::GruOperands {
            hidden: 2,
            w_h_zr: &w,
            w_h_c: &w[..4],
            b: &b,
            table: &table,
            rows: &[0, 1],
            ids: &[2, 3],
        };
        let mut scratch = vec![0.0; kernels::gru_scratch_len(2)];
        kernels::gru_step(&op, &mut [0.0; 4], None, &mut scratch);
    }

    #[test]
    fn every_tier_matches_the_mul_add_chain_bitwise() {
        // Every tier this host runs, on the same inputs, against the
        // canonical expression spelled one element at a time (the oracle in
        // tests/proptests.rs runs seeded operands; these are the ragged
        // shapes). Shapes: every column count through one register and past
        // it, 2–6 registers; row counts on both sides of the 4-row tile and
        // its 2- and 1-row remainders (15, 16, 17, 31, 33 among them); k < 4
        // and a k of 130, past one panel of steps at the wider widths; and
        // m, n or k of zero, which must leave `out` as it is. At half a
        // register (4 columns on AVX2, 8 on AVX-512) tiles of 8 rows pack
        // two rows per register: 7, 8, 9, 16, 17 and 31 rows give packed
        // tiles of every height and the one row left after them.
        let tiers: Vec<Tier> = Tier::supported().collect();
        println!("matmul tiers run: {tiers:?}");
        let widths = (0..=17).chain([24, 32, 33, 48, 64, 65, 96]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in widths {
            let packed: &[(usize, usize)] = if n == 4 || n == 8 {
                &[(7, 5), (8, 3), (9, 8), (16, 3), (17, 8), (31, 13)]
            } else {
                &[]
            };
            for &(m, k) in [
                (0, 3),
                (5, 0),
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (5, 9),
                (6, 130),
                (7, 7),
                (8, 8),
                (13, 34),
                (15, 2),
                (16, 5),
                (17, 3),
                (31, 6),
                (33, 4),
            ]
            .iter()
            .chain(packed)
            {
                let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.37 - 2.0);
                let at = a.transpose();
                let b = Matrix::from_fn(k, n, |r, c| ((r * 17 + c * 3) % 11) as f32 * 0.21 - 1.0);
                let init = Matrix::from_fn(m, n, |r, c| (r + 2 * c) as f32 * 0.13 - 0.7);

                let mut want = init.clone();
                for i in 0..m {
                    for j in 0..n {
                        let o = &mut want.data[i * n + j];
                        for t in 0..k {
                            *o = a.get(i, t).mul_add(b.get(t, j), *o);
                        }
                    }
                }
                for &tier in &tiers {
                    let mut got = init.clone();
                    kernels::matmul_acc_at(tier, &a.data, &b.data, m, k, n, &mut got.data);
                    assert_eq!(bits(&want.data), bits(&got.data), "nn {tier:?} {m}x{k}x{n}");

                    let mut got = init.clone();
                    kernels::matmul_tn_acc_at(tier, &at.data, &b.data, k, m, n, &mut got.data);
                    assert_eq!(bits(&want.data), bits(&got.data), "tn {tier:?} {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn a_masked_column_tail_touches_nothing_past_the_output() {
        // `out` is the front of a longer buffer: the floats past its last
        // row — the rest of a masked register, and whole rows a taller tile
        // would cover — must keep their sentinel, and the product must
        // still match the baseline body. Shapes: masked column tails, row
        // counts that end in a 2- or 1-row tile, and packed widths.
        for tier in Tier::supported() {
            for (m, k, n) in [
                (5, 6, 17),
                (4, 3, 33),
                (1, 5, 7),
                (9, 4, 65),
                (3, 7, 16),
                (7, 5, 4),
                (9, 5, 8),
                (15, 3, 8),
            ] {
                let a = Matrix::from_fn(m, k, |r, c| (r * k + c) as f32 * 0.1 - 0.5);
                let b = Matrix::from_fn(k, n, |r, c| (r + c) as f32 * 0.2 - 1.0);
                let pad = 8 * n + 16;
                let mut buf = vec![f32::MAX; m * n + pad];
                buf[..m * n].fill(0.0);
                kernels::matmul_acc_at(tier, &a.data, &b.data, m, k, n, &mut buf[..m * n]);
                assert!(
                    buf[m * n..].iter().all(|&v| v == f32::MAX),
                    "{tier:?} {m}x{k}x{n}"
                );
                assert_eq!(
                    &buf[..m * n],
                    a.matmul(&b).as_slice(),
                    "{tier:?} {m}x{k}x{n}"
                );

                let at = a.transpose();
                buf[..m * n].fill(0.0);
                kernels::matmul_tn_acc_at(tier, &at.data, &b.data, k, m, n, &mut buf[..m * n]);
                assert!(
                    buf[m * n..].iter().all(|&v| v == f32::MAX),
                    "tn {tier:?} {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn into_and_acc_variants_match_allocating_forms() {
        let a = Matrix::from_fn(5, 6, |r, c| (r * 6 + c) as f32 * 0.25 - 3.0);
        let b = Matrix::from_fn(6, 4, |r, c| (r + c) as f32 * 0.5 - 1.0);
        let expect = a.matmul(&b);

        let mut out = Matrix::filled(5, 4, 9.0); // garbage that must be overwritten
        a.matmul_into(&b, &mut out);
        assert!(out.approx_eq(&expect, 1e-5));

        a.matmul_acc(&b, &mut out); // now out = 2 * expect
        assert!(out.approx_eq(&expect.scale(2.0), 1e-4));

        // at^T * b == a * b, so the tn kernel must reproduce `expect`.
        let at = a.transpose();
        let mut out_tn = Matrix::filled(5, 4, -7.0);
        at.matmul_tn_into(&b, &mut out_tn);
        assert!(out_tn.approx_eq(&at.matmul_tn(&b), 0.0));
        assert!(out_tn.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn inplace_elementwise_ops() {
        let mut m = Matrix::from_vec(2, 2, vec![2.0, 4.0, 6.0, 8.0]);
        m.add_scaled(&Matrix::ones(2, 2), 0.5);
        assert_eq!(m.as_slice(), &[2.5, 4.5, 6.5, 8.5]);

        let mut b = Matrix::zeros(3, 2);
        b.add_row_broadcast_assign(&Matrix::row_vector(&[1.0, -2.0]));
        assert_eq!(b.row(2), &[1.0, -2.0]);
        b.mul_col_broadcast_assign(&Matrix::column_vector(&[1.0, 0.0, 2.0]));
        assert_eq!(b.row(0), &[1.0, -2.0]);
        assert_eq!(b.row(1), &[0.0, 0.0]);
        assert_eq!(b.row(2), &[2.0, -4.0]);
    }
}
