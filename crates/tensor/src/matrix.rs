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
    // backward adjoint runs through these two kernels (`a·b` and `aᵀ·b`).
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

    /// Reference `self * other` — the pre-refactor kernel, kept verbatim as
    /// the oracle the property tests compare the unrolled kernels against.
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
/// calls these directly on the slices of its scratch buffers. Each kernel
/// has an `*_at` twin taking the tier, for the tests and for callers that
/// are themselves compiled for one tier.
///
/// Three bodies: the portable register-blocked bodies below (the baseline
/// tier), the same bodies recompiled with AVX2 and FMA, and on AVX-512 a
/// register-tiled 16-lane microkernel: a tile of 4 output rows × up to 4
/// registers (64 columns) stays in registers across the whole shared
/// dimension, columns past a multiple of 16 are masked loads and stores
/// (lanes past the row are never read or written), rows past a multiple of
/// 4 take a 1-row tile, and the transposed form reads `aᵀ` by stride with
/// the same tile.
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
/// the portable bodies (a correctly rounded `fmaf` call where the baseline
/// build has no FMA instruction), `vfmadd` in the AVX2 + FMA and AVX-512
/// bodies. Blocking, tile shape, loop order and vector width are free to
/// change; the ascending order, a split of the shared dimension and an
/// unfused step are not — the golden fixtures and the model digests record
/// bits of this expression. Because the expression is per element, the
/// result does not depend on how output rows are grouped into blocks or
/// calls: any row-range decomposition of `matmul_acc` is bitwise identical
/// to one full call, which is why a sample predicts the same bits alone and
/// inside a megabatch.
pub mod kernels {
    use crate::simd::Tier;

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
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `checked` asserted that this CPU runs AVX-512; the
            // lengths were asserted above.
            Tier::Avx512 => unsafe { super::simd::matmul_acc_avx512(a, b, m, k, n, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `checked` asserted that this CPU runs AVX2.
            Tier::Avx2 => unsafe { super::simd::matmul_acc_avx2(a, b, m, k, n, out) },
            _ => super::matmul_acc_body(a, b, m, k, n, out),
        }
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
        match tier.checked() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `checked` asserted that this CPU runs AVX-512; the
            // lengths were asserted above.
            Tier::Avx512 => unsafe { super::simd::matmul_tn_acc_avx512(a, b, k, m, n, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `checked` asserted that this CPU runs AVX2.
            Tier::Avx2 => unsafe { super::simd::matmul_tn_acc_avx2(a, b, k, m, n, out) },
            _ => super::matmul_tn_acc_body(a, b, k, m, n, out),
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized kernel helpers
// ---------------------------------------------------------------------------

const LANES: usize = 8;

/// `out += a·b` (row-major, `m x k` times `k x n`), 2-row × 4-k register
/// blocked: the baseline tier's body. `#[inline(always)]` so the AVX2 + FMA
/// wrapper in [`simd`] recompiles this exact body with wider vectors —
/// per-element arithmetic is identical, so both builds produce bitwise-equal
/// results.
#[inline(always)]
fn matmul_acc_body(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let mut i = 0;
    while i + 2 <= m {
        let (o01, _) = out[i * n..].split_at_mut(2 * n);
        let (o0, o1) = o01.split_at_mut(n);
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut kk = 0;
        while kk + 4 <= k {
            let b0 = &b[kk * n..kk * n + n];
            let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
            let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
            let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
            let (c00, c01, c02, c03) = (a0[kk], a0[kk + 1], a0[kk + 2], a0[kk + 3]);
            let (c10, c11, c12, c13) = (a1[kk], a1[kk + 1], a1[kk + 2], a1[kk + 3]);
            for j in 0..n {
                let (v0, v1, v2, v3) = (b0[j], b1[j], b2[j], b3[j]);
                o0[j] = fma4(o0[j], [c00, c01, c02, c03], [v0, v1, v2, v3]);
                o1[j] = fma4(o1[j], [c10, c11, c12, c13], [v0, v1, v2, v3]);
            }
            kk += 4;
        }
        while kk < k {
            let br = &b[kk * n..kk * n + n];
            let (c0, c1) = (a0[kk], a1[kk]);
            for j in 0..n {
                o0[j] = c0.mul_add(br[j], o0[j]);
                o1[j] = c1.mul_add(br[j], o1[j]);
            }
            kk += 1;
        }
        i += 2;
    }
    if i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..i * n + n];
        let mut chunks = a_row.chunks_exact(4);
        let mut kk = 0;
        for quad in chunks.by_ref() {
            axpy4(
                out_row,
                [quad[0], quad[1], quad[2], quad[3]],
                [
                    &b[kk * n..kk * n + n],
                    &b[(kk + 1) * n..(kk + 1) * n + n],
                    &b[(kk + 2) * n..(kk + 2) * n + n],
                    &b[(kk + 3) * n..(kk + 3) * n + n],
                ],
            );
            kk += 4;
        }
        for &av in chunks.remainder() {
            axpy1(out_row, av, &b[kk * n..kk * n + n]);
            kk += 1;
        }
    }
}

/// `out += a^T·b` (`a` is `k x m`, `b` is `k x n`), 4-row × 4-k register
/// blocked — [`matmul_acc_body`]'s blocking turned for the transposed
/// operand: four `b` rows are loaded once per four output rows and the `j`
/// loop is written inline so it vectorises in the vector builds. The
/// `m % 4` leftover rows take the 1-row [`axpy4`] form, the `k % 4` leftover
/// steps one fused `out += a·b` each; every element sees the canonical
/// expression.
#[inline(always)]
fn matmul_tn_acc_body(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    let mut kk = 0;
    while kk + 4 <= k {
        let a0 = &a[kk * m..kk * m + m];
        let a1 = &a[(kk + 1) * m..(kk + 1) * m + m];
        let a2 = &a[(kk + 2) * m..(kk + 2) * m + m];
        let a3 = &a[(kk + 3) * m..(kk + 3) * m + m];
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        let mut i = 0;
        while i + 4 <= m {
            let (o01, o23) = out[i * n..(i + 4) * n].split_at_mut(2 * n);
            let (o0, o1) = o01.split_at_mut(n);
            let (o2, o3) = o23.split_at_mut(n);
            let (c00, c01, c02, c03) = (a0[i], a1[i], a2[i], a3[i]);
            let (c10, c11, c12, c13) = (a0[i + 1], a1[i + 1], a2[i + 1], a3[i + 1]);
            let (c20, c21, c22, c23) = (a0[i + 2], a1[i + 2], a2[i + 2], a3[i + 2]);
            let (c30, c31, c32, c33) = (a0[i + 3], a1[i + 3], a2[i + 3], a3[i + 3]);
            for j in 0..n {
                let v = [b0[j], b1[j], b2[j], b3[j]];
                o0[j] = fma4(o0[j], [c00, c01, c02, c03], v);
                o1[j] = fma4(o1[j], [c10, c11, c12, c13], v);
                o2[j] = fma4(o2[j], [c20, c21, c22, c23], v);
                o3[j] = fma4(o3[j], [c30, c31, c32, c33], v);
            }
            i += 4;
        }
        while i < m {
            axpy4(
                &mut out[i * n..i * n + n],
                [a0[i], a1[i], a2[i], a3[i]],
                [b0, b1, b2, b3],
            );
            i += 1;
        }
        kk += 4;
    }
    while kk < k {
        let a_row = &a[kk * m..kk * m + m];
        let b_row = &b[kk * n..kk * n + n];
        for (i, &av) in a_row.iter().enumerate() {
            axpy1(&mut out[i * n..i * n + n], av, b_row);
        }
        kk += 1;
    }
}

/// The vector tiers' kernel bodies (x86-64 only), entered through
/// [`kernels`] after its [`Tier`](crate::simd::Tier) check.
///
/// The AVX2 tier recompiles the `#[inline(always)]` portable bodies with
/// `#[target_feature(enable = "avx2,fma")]`, where each `f32::mul_add`
/// becomes a `vfmadd`; the AVX-512 tier is the explicit 16-lane tile below,
/// one `_mm512_fmadd_ps` per step. A fused multiply-add rounds once wherever
/// it runs, so every tier performs the same rounding steps as the baseline
/// build and results stay bitwise identical across machines.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    /// The portable [`super::matmul_acc_body`] at AVX2 width, with FMA.
    #[target_feature(enable = "avx2,fma")]
    pub fn matmul_acc_avx2(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        super::matmul_acc_body(a, b, m, k, n, out);
    }

    /// The portable [`super::matmul_tn_acc_body`] at AVX2 width, with FMA.
    #[target_feature(enable = "avx2,fma")]
    pub fn matmul_tn_acc_avx2(a: &[f32], b: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
        super::matmul_tn_acc_body(a, b, k, m, n, out);
    }

    /// `out += a·b` through the 16-lane tile; `a(i, t)` is `a[i·k + t]`.
    ///
    /// # Safety
    /// This CPU runs AVX-512F, and `a`, `b`, `out` hold `m·k`, `k·n`, `m·n`
    /// elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_acc_avx512(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [f32],
    ) {
        tiled(
            Strided {
                a: a.as_ptr(),
                row: k,
                step: 1,
            },
            b,
            m,
            k,
            n,
            out,
        );
    }

    /// `out += aᵀ·b` through the same tile; `a(i, t)` is `a[t·m + i]`.
    ///
    /// # Safety
    /// This CPU runs AVX-512F, and `a`, `b`, `out` hold `k·m`, `k·n`, `m·n`
    /// elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn matmul_tn_acc_avx512(
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        n: usize,
        out: &mut [f32],
    ) {
        tiled(
            Strided {
                a: a.as_ptr(),
                row: 1,
                step: m,
            },
            b,
            m,
            k,
            n,
            out,
        );
    }

    /// The left operand: element `(i, t)` at `a + i·row + t·step`.
    #[derive(Clone, Copy)]
    struct Strided {
        a: *const f32,
        row: usize,
        step: usize,
    }

    /// Lanes per register.
    const LANES: usize = 16;
    /// Registers per tile row: a tile spans up to 64 columns.
    const TILE_REGS: usize = 4;

    /// Cover `out` (`m x n`) with tiles of 4 rows (the `m % 4` leftover
    /// rows: 1 row) × up to [`TILE_REGS`] registers.
    ///
    /// # Safety
    /// As for [`matmul_acc_avx512`], with `a` the left operand's layout.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tiled(a: Strided, b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        let (b, out) = (b.as_ptr(), out.as_mut_ptr());
        let mut i = 0;
        while i < m {
            let rows = if i + 4 <= m { 4 } else { 1 };
            let mut j = 0;
            while j < n {
                let regs = (n - j).div_ceil(LANES).min(TILE_REGS);
                match (rows, regs) {
                    (4, 1) => tile::<4, 1>(a, b, k, n, out, i, j),
                    (4, 2) => tile::<4, 2>(a, b, k, n, out, i, j),
                    (4, 3) => tile::<4, 3>(a, b, k, n, out, i, j),
                    (4, _) => tile::<4, 4>(a, b, k, n, out, i, j),
                    (_, 1) => tile::<1, 1>(a, b, k, n, out, i, j),
                    (_, 2) => tile::<1, 2>(a, b, k, n, out, i, j),
                    (_, 3) => tile::<1, 3>(a, b, k, n, out, i, j),
                    (_, _) => tile::<1, 4>(a, b, k, n, out, i, j),
                }
                j += regs * LANES;
            }
            i += rows;
        }
    }

    /// One tile: `out[i0..i0 + R][j0..j0 + 16·NV] += A·b` over the whole
    /// shared dimension with the `R x NV` accumulators in registers, one
    /// fused multiply-add per step `t` in ascending order — the canonical
    /// expression. The last register's lanes past column `n` are masked off:
    /// never loaded, never stored.
    ///
    /// # Safety
    /// This CPU runs AVX-512F; `j0 < n`; `b` points at a row-major `k x n`
    /// block, `out` at a row-major block of width `n` holding rows
    /// `i0..i0 + R`, and `a` holds elements `(i, t)` for those rows and
    /// every `t < k`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tile<const R: usize, const NV: usize>(
        a: Strided,
        b: *const f32,
        k: usize,
        n: usize,
        out: *mut f32,
        i0: usize,
        j0: usize,
    ) {
        let mask: [__mmask16; NV] = std::array::from_fn(|v| {
            let lanes = (n - j0 - v * LANES).min(LANES);
            ((1u32 << lanes) - 1) as __mmask16
        });
        let a_at = |r: usize, t: usize| _mm512_set1_ps(*a.a.add((i0 + r) * a.row + t * a.step));
        let b_at =
            |t: usize, v: usize| _mm512_maskz_loadu_ps(mask[v], b.add(t * n + j0 + v * LANES));
        let out_at = |r: usize, v: usize| out.add((i0 + r) * n + j0 + v * LANES);

        let mut acc = [[_mm512_setzero_ps(); NV]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, reg) in row.iter_mut().enumerate() {
                *reg = _mm512_maskz_loadu_ps(mask[v], out_at(r, v));
            }
        }
        for t in 0..k {
            for v in 0..NV {
                let bt = b_at(t, v);
                for (r, row) in acc.iter_mut().enumerate() {
                    row[v] = _mm512_fmadd_ps(a_at(r, t), bt, row[v]);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &reg) in row.iter().enumerate() {
                _mm512_mask_storeu_ps(out_at(r, v), mask[v], reg);
            }
        }
    }
}

/// Four steps of the canonical expression, in ascending order: one fused
/// multiply-add of `c[t]·v[t]` onto `o` each.
#[inline(always)]
fn fma4(o: f32, c: [f32; 4], v: [f32; 4]) -> f32 {
    let o = c[0].mul_add(v[0], o);
    let o = c[1].mul_add(v[1], o);
    let o = c[2].mul_add(v[2], o);
    c[3].mul_add(v[3], o)
}

/// `out = fma4(out, c, b)` elementwise, all slices of equal length.
///
/// The four-way fusion means one pass over `out` serves four reduction steps;
/// `chunks_exact` gives LLVM fixed-width bodies it can turn into SIMD.
#[inline]
fn axpy4(out: &mut [f32], c: [f32; 4], b: [&[f32]; 4]) {
    let n = out.len();
    debug_assert!(b.iter().all(|s| s.len() == n));
    let mut oc = out.chunks_exact_mut(LANES);
    let mut b0 = b[0].chunks_exact(LANES);
    let mut b1 = b[1].chunks_exact(LANES);
    let mut b2 = b[2].chunks_exact(LANES);
    let mut b3 = b[3].chunks_exact(LANES);
    for o in oc.by_ref() {
        let (q0, q1) = (b0.next().unwrap(), b1.next().unwrap());
        let (q2, q3) = (b2.next().unwrap(), b3.next().unwrap());
        for j in 0..LANES {
            o[j] = fma4(o[j], c, [q0[j], q1[j], q2[j], q3[j]]);
        }
    }
    let tail = oc.into_remainder();
    let off = n - tail.len();
    for (j, o) in tail.iter_mut().enumerate() {
        let jj = off + j;
        *o = fma4(*o, c, [b[0][jj], b[1][jj], b[2][jj], b[3][jj]]);
    }
}

/// `out = fma(a, b, out)` elementwise, equal-length slices.
#[inline]
fn axpy1(out: &mut [f32], a: f32, b: &[f32]) {
    let n = out.len();
    debug_assert_eq!(n, b.len());
    let mut oc = out.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact(LANES);
    for o in oc.by_ref() {
        let q = bc.next().unwrap();
        for j in 0..LANES {
            o[j] = a.mul_add(q[j], o[j]);
        }
    }
    let tail = oc.into_remainder();
    let off = n - tail.len();
    for (j, o) in tail.iter_mut().enumerate() {
        *o = a.mul_add(b[off + j], *o);
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
        // Shapes straddling the unroll width (4) and lane width (8).
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

    #[test]
    fn every_tier_matches_the_mul_add_chain_bitwise() {
        // Every tier this host runs, on the same inputs, against the
        // canonical expression spelled one element at a time (the oracle in
        // tests/proptests.rs runs seeded operands; these are the ragged
        // shapes). Shapes: every column count through one register and past
        // it, 2–6 registers, every m mod 4 and k mod 4 (k < 4 included).
        let tiers: Vec<Tier> = Tier::supported().collect();
        println!("matmul tiers run: {tiers:?}");
        let widths = (1..=17).chain([24, 32, 33, 48, 64, 65, 96]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in widths {
            for (m, k) in [
                (1, 1),
                (2, 2),
                (3, 3),
                (4, 4),
                (5, 9),
                (6, 130),
                (7, 7),
                (8, 8),
                (13, 34),
            ] {
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
        // `out` is the front of a longer buffer whose last row ends mid
        // register: the lanes past it must keep their sentinel, and the
        // product must still match the baseline body.
        for tier in Tier::supported() {
            for (m, k, n) in [(5, 6, 17), (4, 3, 33), (1, 5, 7), (9, 4, 65)] {
                let a = Matrix::from_fn(m, k, |r, c| (r * k + c) as f32 * 0.1 - 0.5);
                let b = Matrix::from_fn(k, n, |r, c| (r + c) as f32 * 0.2 - 1.0);
                let mut buf = vec![f32::MAX; m * n + 16];
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
