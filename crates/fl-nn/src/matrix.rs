//! Row-major `f64` matrix with cache-friendly and parallel multiplication.

use crate::kernels::{self, KernelKind};
use crate::{NnError, Result};
use serde::{Deserialize, Serialize};

/// Element count (`m * n * k`) above which [`Matrix::matmul`] fans out across
/// the shared work-stealing pool. Small PPO-sized matrices stay
/// single-threaded — the pool-round setup costs more than it saves below
/// roughly this many multiply-adds.
const PAR_FLOP_THRESHOLD: usize = 1 << 18;

/// The parallel-dispatch decision: `true` iff a `m x k` by `k x n` product
/// takes the row-split pool path.
///
/// A **pure function of the shape** — deliberately independent of the pool
/// width, core count, and every other physical property of the host — so a
/// matrix exactly at the cutoff picks the same path on every machine and
/// under every `FL_WORKERS`. (The path itself is bit-invariant either way;
/// shape-only dispatch additionally keeps *which code ran* reproducible,
/// which matters when diagnosing perf or a miscompilation.) Requires
/// `m >= 2` because a single output row cannot be split.
pub(crate) fn par_dispatch(m: usize, k: usize, n: usize) -> bool {
    m >= 2 && m.saturating_mul(k).saturating_mul(n) >= PAR_FLOP_THRESHOLD
}

/// A dense row-major matrix of `f64`.
///
/// This is the single numeric container used throughout the workspace: NN
/// weights and activations, policy batches, and FedAvg model parameters all
/// live in `Matrix`. Shapes are validated at construction and every binary
/// operation checks compatibility, returning [`NnError::ShapeMismatch`]
/// rather than panicking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from row-major `data`.
    ///
    /// Returns [`NnError::InvalidArgument`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NnError::InvalidArgument(format!(
                "data length {} does not match shape {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix whose `(r, c)` entry is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a 1 x n row vector from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow of the underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major data.
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Element accessor. Panics on out-of-range indices (debug-friendly; use
    /// in hot loops only with verified bounds).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter. Panics on out-of-range indices.
    #[inline]
    #[cfg(test)]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix holding the given rows of `self`, in order.
    /// Used for minibatch gathering in PPO updates.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(NnError::InvalidArgument(format!(
                    "gather index {i} out of bounds for {} rows",
                    self.rows
                )));
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Transpose. Uses a tile-blocked copy so large matrices do not thrash
    /// the cache on the strided side; a pure permutation, so the result is
    /// bit-identical to the element-wise reference copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernels::blocked_transpose(&self.data, &mut out.data, self.rows, self.cols);
        out
    }

    /// Reference transpose (the original element-wise loop), kept for the
    /// differential conformance suite.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn naive_transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernels::naive_transpose(&self.data, &mut out.data, self.rows, self.cols);
        out
    }

    fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(NnError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }

    /// Elementwise sum, returning a new matrix.
    #[cfg(test)]
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "add")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise difference, returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "sub")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise (Hadamard) product, returning a new matrix.
    #[cfg(test)]
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "hadamard")?;
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place `self += alpha * other`.
    ///
    /// The shape check is hoisted out of the hot loop, which then runs
    /// 4-wide over bare slices; each element still computes exactly
    /// `a += alpha * b`, so the result is bit-identical to the element-wise
    /// reference form (every element is independent).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        let mut dst = self.data.chunks_exact_mut(4);
        let mut src = other.data.chunks_exact(4);
        for (d, s) in (&mut dst).zip(&mut src) {
            d[0] += alpha * s[0];
            d[1] += alpha * s[1];
            d[2] += alpha * s[2];
            d[3] += alpha * s[3];
        }
        for (d, s) in dst.into_remainder().iter_mut().zip(src.remainder()) {
            *d += alpha * s;
        }
        Ok(())
    }

    /// Reference `axpy` (the original element-wise zip), kept for the
    /// differential conformance suite.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn naive_axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scalar multiple, returning a new matrix.
    pub fn scale(&self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * alpha).collect(),
        }
    }

    /// In-place scalar multiply.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a new matrix with `f` applied to every element.
    #[cfg(test)]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Adds a row vector `bias` (length `cols`) to every row. Used for the
    /// dense-layer bias broadcast.
    ///
    /// The shape check is hoisted and rows are walked with
    /// `chunks_exact_mut`, eliminating the per-row slice-index arithmetic;
    /// per element the op is unchanged (`a += b`), so the result is
    /// bit-identical to the reference form.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn add_row_broadcast(&mut self, bias: &[f64]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        if self.cols == 0 {
            return Ok(());
        }
        for row in self.data.chunks_exact_mut(self.cols) {
            for (a, b) in row.iter_mut().zip(bias) {
                *a += b;
            }
        }
        Ok(())
    }

    /// Reference broadcast (the original row-indexing loop), kept for the
    /// differential conformance suite.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn naive_add_row_broadcast(&mut self, bias: &[f64]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(NnError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (a, b) in row.iter_mut().zip(bias) {
                *a += b;
            }
        }
        Ok(())
    }

    /// Sum of all elements.
    #[cfg(test)]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty matrix).
    #[cfg(test)]
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Column-wise sums, as a vector of length `cols`. Used to reduce a batch
    /// of bias gradients.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Frobenius norm.
    #[cfg(test)]
    fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Maximum absolute element (0.0 for an empty matrix).
    #[cfg(test)]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &a| m.max(a.abs()))
    }

    /// True when every element is finite.
    #[cfg(test)]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|a| a.is_finite())
    }

    /// Matrix product `self * other`.
    ///
    /// Dispatches to the register-tiled blocked kernel (or, when a build
    /// with the reference kernels selected them, the streaming reference
    /// kernel — both produce bit-identical results; see `kernels`), and
    /// splits the row range across the shared work-stealing pool
    /// (`FL_WORKERS` bounds the width) when the shape-only `par_dispatch`
    /// predicate fires.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_impl(other, kernels::kernel_kind(), true)
    }

    /// [`Matrix::matmul`] with an explicit kernel family, for the
    /// differential conformance suite and benchmarks. `parallel: false`
    /// forces the serial kernel regardless of size (single-thread
    /// measurements).
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_with(&self, other: &Matrix, kind: KernelKind, parallel: bool) -> Result<Matrix> {
        self.matmul_impl(other, kind, parallel)
    }

    /// [`Matrix::matmul`] forced down the row-split pool path with an
    /// explicit worker count, bypassing both the `FL_WORKERS` lookup and
    /// the size threshold — the conformance suite's probe that row
    /// splitting is bit-invariant for *any* shape at *any* width.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_par_with_workers(
        &self,
        other: &Matrix,
        kind: KernelKind,
        workers: usize,
    ) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        if n == 0 {
            return Ok(out);
        }
        let serial = serial_matmul_kernel(kind);
        Self::row_split_parallel(workers, &self.data, &mut out.data, m, k, n, |a_chunk, o| {
            serial(a_chunk, &other.data, o, k, n)
        });
        Ok(out)
    }

    /// [`Matrix::matmul_nt`] forced down the row-split pool path with an
    /// explicit worker count (see [`Matrix::matmul_par_with_workers`]).
    /// The blocked family pre-materializes `other^T` exactly as the serial
    /// kernel does; the naive family row-splits the reference dot-product
    /// kernel directly.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_nt_par_with_workers(
        &self,
        other: &Matrix,
        kind: KernelKind,
        workers: usize,
    ) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        if n == 0 {
            return Ok(out);
        }
        match kind {
            KernelKind::Blocked => {
                let mut bt = vec![0.0f64; k * n];
                kernels::blocked_transpose(&other.data, &mut bt, n, k);
                Self::row_split_parallel(workers, &self.data, &mut out.data, m, k, n, |a, o| {
                    kernels::blocked_matmul_nt_pret(a, &bt, o, k, n)
                });
            }
            #[cfg(any(test, feature = "reference-kernels"))]
            KernelKind::Naive => {
                Self::row_split_parallel(workers, &self.data, &mut out.data, m, k, n, |a, o| {
                    naive_matmul_nt(a, &other.data, o, k, n)
                });
            }
        }
        Ok(out)
    }

    /// The parallel-dispatch predicate, exposed for the threshold-edge
    /// pinning test: the decision must be a pure function of the shape.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn parallel_dispatch(m: usize, k: usize, n: usize) -> bool {
        par_dispatch(m, k, n)
    }

    fn matmul_impl(&self, other: &Matrix, kind: KernelKind, parallel: bool) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        let serial = serial_matmul_kernel(kind);
        if parallel && par_dispatch(m, k, n) {
            let workers = fl_pool::env_workers();
            Self::row_split_parallel(
                workers,
                &self.data,
                &mut out.data,
                m,
                k,
                n,
                |a_chunk, out_chunk| serial(a_chunk, &other.data, out_chunk, k, n),
            );
        } else {
            serial(&self.data, &other.data, &mut out.data, k, n);
        }
        Ok(out)
    }

    /// Fused `self * other + bias` (bias broadcast across rows): the dense
    /// forward pass in one sweep, keeping each output tile in registers
    /// between the matmul sum and the bias add. Bit-identical to
    /// `matmul` followed by `add_row_broadcast` — per element, both compute
    /// the full k-sum first and add the bias term last.
    pub fn matmul_add_bias(&self, other: &Matrix, bias: &[f64]) -> Result<Matrix> {
        self.affine_then(other, bias, None, |_| {})
    }

    /// [`Matrix::matmul_add_bias`] with an explicit kernel family.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_add_bias_with(
        &self,
        other: &Matrix,
        bias: &[f64],
        kind: KernelKind,
    ) -> Result<Matrix> {
        self.matmul_add_bias_impl(other, bias, kind, None, |_| {})
    }

    /// The dense pre-activation continued from a partial sum: row `i` is
    /// `init + self.row(i) · other[from..] + bias`, where `self` holds the
    /// last `other.rows() - from` input columns and `init` (one row) is the
    /// k-sum the leading `from` columns already reached against
    /// `other[..from]`. Bit-identical to [`Matrix::matmul_add_bias`] on the
    /// whole rows; the conformance probe of the primitive the tiled
    /// inference pass runs.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_add_bias_from_with(
        &self,
        init: &[f64],
        other: &Matrix,
        from: usize,
        bias: &[f64],
        kind: KernelKind,
    ) -> Result<Matrix> {
        let n = other.cols;
        if from > other.rows || self.cols != other.rows - from {
            return Err(NnError::ShapeMismatch {
                op: "matmul_add_bias_from",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if init.len() != n || bias.len() != n {
            return Err(NnError::ShapeMismatch {
                op: "matmul_add_bias_from",
                lhs: (init.len(), bias.len()),
                rhs: (1, n),
            });
        }
        let mut out = Matrix::zeros(self.rows, n);
        let w_tail = &other.data[from * n..];
        let (a, k) = (&self.data, self.cols);
        kernels::affine(kind, Some(init), a, w_tail, bias, &mut out.data, k);
        Ok(out)
    }

    /// The dense forward `post(self * other + bias)`: `post` (an
    /// elementwise activation) runs on each row partition of the output
    /// right after that partition's fused matmul, on the same pool worker,
    /// instead of as a serial pass over the whole output. `workers` bounds
    /// the pool width when the shape takes the parallel path; `None` reads
    /// `FL_WORKERS` then, and only then (the lookup is not free).
    ///
    /// `post` must be elementwise, so running it per partition cannot
    /// change a bit (the row-split argument of [`Matrix::matmul`]).
    pub(crate) fn affine_then(
        &self,
        other: &Matrix,
        bias: &[f64],
        workers: Option<usize>,
        post: impl Fn(&mut [f64]) + Sync,
    ) -> Result<Matrix> {
        self.matmul_add_bias_impl(other, bias, kernels::kernel_kind(), workers, post)
    }

    fn matmul_add_bias_impl(
        &self,
        other: &Matrix,
        bias: &[f64],
        kind: KernelKind,
        workers: Option<usize>,
        post: impl Fn(&mut [f64]) + Sync,
    ) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                op: "matmul_add_bias",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        if bias.len() != other.cols {
            return Err(NnError::ShapeMismatch {
                op: "matmul_add_bias",
                lhs: other.shape(),
                rhs: (1, bias.len()),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        let fused = |a_chunk: &[f64], out_chunk: &mut [f64]| {
            kernels::affine(kind, None, a_chunk, &other.data, bias, out_chunk, k);
            post(out_chunk);
        };
        if par_dispatch(m, k, n) {
            let workers = workers.unwrap_or_else(fl_pool::env_workers);
            Self::row_split_parallel(workers, &self.data, &mut out.data, m, k, n, fused);
        } else {
            fused(&self.data, &mut out.data);
        }
        Ok(out)
    }

    /// Splits the rows of an `m x n` output into contiguous chunks across
    /// the shared work-stealing pool (`fl_pool::run_indexed`); each chunk
    /// runs `part(first_row, chunk)`.
    ///
    /// **Why this cannot change bits:** every output element is computed by
    /// exactly one chunk, and within a chunk the serial kernel runs the
    /// identical per-element k-ascending op sequence it runs in the
    /// unsplit call — the row partition only regroups *independent*
    /// elements, exactly like the column tiling inside the blocked body.
    /// Worker count, chunk boundaries, and scheduling order are therefore
    /// unobservable in the output; `workers <= 1` degenerates to
    /// `part(0, out)` on the calling thread.
    fn split_rows(
        workers: usize,
        out: &mut [f64],
        m: usize,
        n: usize,
        part: impl Fn(usize, &mut [f64]) + Sync,
    ) {
        let workers = workers.min(m.max(1));
        if workers <= 1 || n == 0 {
            part(0, out);
            return;
        }
        let rows_per = m.div_ceil(workers);
        let chunks: Vec<(usize, &mut [f64])> = out
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(chunk_idx, chunk)| (chunk_idx * rows_per, chunk))
            .collect();
        fl_pool::run_indexed(workers, chunks, |_idx, (first_row, chunk)| {
            part(first_row, chunk)
        });
    }

    /// [`Matrix::split_rows`] for a row-major product whose output rows
    /// are those of `a` (`m x k`): each chunk runs `serial` on its rows of
    /// `a` and of the output.
    fn row_split_parallel(
        workers: usize,
        a: &[f64],
        out: &mut [f64],
        m: usize,
        k: usize,
        n: usize,
        serial: impl Fn(&[f64], &mut [f64]) + Sync,
    ) {
        Self::split_rows(workers, out, m, n, |first_row, chunk| {
            let rows = chunk.len().checked_div(n).unwrap_or(m);
            serial(&a[first_row * k..(first_row + rows) * k], chunk)
        });
    }

    /// `self^T * other` without materializing the transpose.
    ///
    /// Shapes: `self` is `k x m`, `other` is `k x n`, result is `m x n`.
    /// This is the shape needed for the weight gradient `x^T * dy`.
    pub fn matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_tn_impl(other, kernels::kernel_kind())
    }

    /// [`Matrix::matmul_tn`] with an explicit kernel family.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_tn_with(&self, other: &Matrix, kind: KernelKind) -> Result<Matrix> {
        self.matmul_tn_impl(other, kind)
    }

    /// Reference `self^T * other` (the original k-outer kernel).
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn naive_matmul_tn(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_tn_impl(other, KernelKind::Naive)
    }

    /// [`Matrix::matmul_tn`] on the blocked family, its output rows
    /// partitioned over exactly `workers` pool workers whatever the shape —
    /// the conformance suite's probe that the split is bit-invariant.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_tn_par_with_workers(&self, other: &Matrix, workers: usize) -> Result<Matrix> {
        self.check_tn(other)?;
        Ok(self.tn_split(other, workers))
    }

    fn check_tn(&self, other: &Matrix) -> Result<()> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                op: "matmul_tn",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(())
    }

    fn matmul_tn_impl(&self, other: &Matrix, kind: KernelKind) -> Result<Matrix> {
        self.check_tn(other)?;
        let (k, m, n) = (self.rows, self.cols, other.cols);
        Ok(match kind {
            KernelKind::Blocked if par_dispatch(m, k, n) => {
                self.tn_split(other, fl_pool::env_workers())
            }
            KernelKind::Blocked => self.tn_split(other, 1),
            // The naive tn reference iterates k in the *outer* loop, so its
            // row range cannot be partitioned; it stays serial at any size.
            #[cfg(any(test, feature = "reference-kernels"))]
            KernelKind::Naive => {
                let mut out = Matrix::zeros(m, n);
                naive_matmul_tn(&self.data, &other.data, &mut out.data, k, m, n);
                out
            }
        })
    }

    /// The blocked `self^T * other`, its output rows split over `workers`
    /// pool workers by [`Matrix::split_rows`]. Each chunk reads `self` and
    /// `other` whole, in their stored layout, and computes only its own
    /// rows (its columns of `self`).
    fn tn_split(&self, other: &Matrix, workers: usize) -> Matrix {
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        let (a, b) = (&self.data, &other.data);
        Self::split_rows(workers, &mut out.data, m, n, |first_row, chunk| {
            kernels::blocked_matmul_tn(a, b, chunk, k, m, n, first_row)
        });
        out
    }

    /// `self * other^T` without materializing the transpose.
    ///
    /// Shapes: `self` is `m x k`, `other` is `n x k`, result is `m x n`.
    /// This is the shape needed for the input gradient `dy * W^T`.
    pub fn matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_nt_impl(other, kernels::kernel_kind())
    }

    /// [`Matrix::matmul_nt`] with an explicit kernel family.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn matmul_nt_with(&self, other: &Matrix, kind: KernelKind) -> Result<Matrix> {
        self.matmul_nt_impl(other, kind)
    }

    /// Reference `self * other^T` (the original dot-product kernel).
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn naive_matmul_nt(&self, other: &Matrix) -> Result<Matrix> {
        self.matmul_nt_impl(other, KernelKind::Naive)
    }

    fn matmul_nt_impl(&self, other: &Matrix, kind: KernelKind) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(NnError::ShapeMismatch {
                op: "matmul_nt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        match kind {
            // Parallel nt: materialize `b^T` once (the same tiled copy the
            // serial kernel performs), then row-split the shared no-skip
            // body over the pre-transposed operand.
            KernelKind::Blocked if par_dispatch(m, k, n) => {
                let mut bt = vec![0.0f64; k * n];
                kernels::blocked_transpose(&other.data, &mut bt, n, k);
                Self::row_split_parallel(
                    fl_pool::env_workers(),
                    &self.data,
                    &mut out.data,
                    m,
                    k,
                    n,
                    |a_chunk, out_chunk| {
                        kernels::blocked_matmul_nt_pret(a_chunk, &bt, out_chunk, k, n)
                    },
                );
            }
            KernelKind::Blocked => {
                kernels::blocked_matmul_nt(&self.data, &other.data, &mut out.data, k, n)
            }
            // The naive nt reference computes independent per-row dot
            // products, so its row range partitions like `matmul`'s.
            #[cfg(any(test, feature = "reference-kernels"))]
            KernelKind::Naive if par_dispatch(m, k, n) => {
                Self::row_split_parallel(
                    fl_pool::env_workers(),
                    &self.data,
                    &mut out.data,
                    m,
                    k,
                    n,
                    |a_chunk, out_chunk| naive_matmul_nt(a_chunk, &other.data, out_chunk, k, n),
                );
            }
            #[cfg(any(test, feature = "reference-kernels"))]
            KernelKind::Naive => naive_matmul_nt(&self.data, &other.data, &mut out.data, k, n),
        }
        Ok(out)
    }
}

/// Picks the serial row-range matmul kernel for `kind`.
pub(crate) fn serial_matmul_kernel(
    kind: KernelKind,
) -> fn(&[f64], &[f64], &mut [f64], usize, usize) {
    match kind {
        KernelKind::Blocked => kernels::blocked_matmul,
        #[cfg(any(test, feature = "reference-kernels"))]
        KernelKind::Naive => kernels::naive_matmul,
    }
}

#[cfg(any(test, feature = "reference-kernels"))]
use kernels::{naive_matmul_nt, naive_matmul_tn};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_fn_row_major_order() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.data(), &[0., 1., 2., 10., 11., 12.]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let i = Matrix::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(NnError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.5);
        let b = Matrix::from_fn(4, 5, |r, c| (r * c) as f64 - 1.0);
        let expected = a.transpose().matmul(&b).unwrap();
        assert!(approx_eq(&a.matmul_tn(&b).unwrap(), &expected, 1e-12));
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f64 * 0.25);
        let b = Matrix::from_fn(5, 3, |r, c| (r as f64) - (c as f64) * 0.5);
        let expected = a.matmul(&b.transpose()).unwrap();
        assert!(approx_eq(&a.matmul_nt(&b).unwrap(), &expected, 1e-12));
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Big enough to cross PAR_FLOP_THRESHOLD (128^3 = 2^21). Row
        // splitting must not change a single bit, for either kernel family.
        let n = 128;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0);
        let par = a.matmul(&b).unwrap();
        for kind in [KernelKind::Blocked, KernelKind::Naive] {
            let serial = a.matmul_with(&b, kind, false).unwrap();
            assert_eq!(par, serial, "{kind:?}");
        }
    }

    #[test]
    fn matmul_add_bias_matches_unfused() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (16, 8, 9), (2, 64, 17)] {
            let a = Matrix::from_fn(m, k, |r, c| ((r * 13 + c * 7) % 19) as f64 * 0.25 - 2.0);
            let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c * 11) % 17) as f64 * 0.5 - 4.0);
            let bias: Vec<f64> = (0..n).map(|j| j as f64 * 0.125 - 1.0).collect();
            let mut unfused = a.matmul(&b).unwrap();
            unfused.add_row_broadcast(&bias).unwrap();
            let fused = a.matmul_add_bias(&b, &bias).unwrap();
            assert_eq!(fused, unfused, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_add_bias_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        assert!(a.matmul_add_bias(&b, &[0.0; 3]).is_err());
        assert!(Matrix::zeros(2, 2).matmul_add_bias(&b, &[0.0; 4]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_fn(2, 2, |r, c| (r + c) as f64);
        let b = Matrix::from_fn(2, 2, |r, c| (r * c) as f64 + 1.0);
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert!(approx_eq(&back, &a, 1e-12));
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_vec(1, 3, vec![2., 3., 4.]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![5., 6., 7.]).unwrap();
        assert_eq!(a.hadamard(&b).unwrap().data(), &[10., 18., 28.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 3.0);
        a.axpy(0.5, &b).unwrap();
        assert!(a.data().iter().all(|&v| (v - 2.5).abs() < 1e-12));
    }

    #[test]
    fn add_row_broadcast_hits_every_row() {
        let mut m = Matrix::zeros(3, 2);
        m.add_row_broadcast(&[1.0, 2.0]).unwrap();
        for r in 0..3 {
            assert_eq!(m.row(r), &[1.0, 2.0]);
        }
    }

    #[test]
    fn add_row_broadcast_rejects_bad_len() {
        let mut m = Matrix::zeros(3, 2);
        assert!(m.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn col_sums_reduce_rows() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]).unwrap();
        assert_eq!(m.col_sums(), vec![5., 7., 9.]);
    }

    #[test]
    fn slice_and_gather_rows() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        let s = m.gather_rows(&[1, 2]).unwrap();
        assert_eq!(s.data(), &[2., 3., 4., 5.]);
        let g = m.gather_rows(&[3, 0]).unwrap();
        assert_eq!(g.data(), &[6., 7., 0., 1.]);
        assert!(m.gather_rows(&[4]).is_err());
        assert!(m.gather_rows(&[3, 4]).is_err());
    }

    #[test]
    fn norms_and_reductions() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.sum(), -1.0);
        assert_eq!(m.mean(), -0.5);
        assert!(m.all_finite());
        let bad = Matrix::from_vec(1, 1, vec![f64::NAN]).unwrap();
        assert!(!bad.all_finite());
    }

    #[test]
    fn serde_roundtrip() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 * 0.5);
        let json = serde_json_roundtrip(&m);
        assert_eq!(json, m);
    }

    fn serde_json_roundtrip(m: &Matrix) -> Matrix {
        // Use a basic hand-rolled check against serde's derived impls via
        // bincode-free path: serialize to JSON-ish using serde_test would add
        // a dep; instead assert Clone/PartialEq path and structural identity.
        m.clone()
    }

    proptest! {
        #[test]
        fn prop_matmul_distributes_over_add(
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (m, k, n) = (
                rng.gen_range(1..6usize),
                rng.gen_range(1..6usize),
                rng.gen_range(1..6usize),
            );
            let randm = |rng: &mut rand_chacha::ChaCha8Rng, r: usize, c: usize| {
                Matrix::from_fn(r, c, |_, _| rng.gen_range(-2.0..2.0))
            };
            let a = randm(&mut rng, m, k);
            let b = randm(&mut rng, k, n);
            let c = randm(&mut rng, k, n);
            let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
            let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
            prop_assert!(approx_eq(&lhs, &rhs, 1e-9));
        }

        #[test]
        fn prop_transpose_of_product(seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (m, k, n) = (
                rng.gen_range(1..6usize),
                rng.gen_range(1..6usize),
                rng.gen_range(1..6usize),
            );
            let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-2.0..2.0));
            let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-2.0..2.0));
            // (AB)^T == B^T A^T
            let lhs = a.matmul(&b).unwrap().transpose();
            let rhs = b.transpose().matmul(&a.transpose()).unwrap();
            prop_assert!(approx_eq(&lhs, &rhs, 1e-9));
        }

        #[test]
        fn prop_scale_linear(x in -10.0f64..10.0, y in -10.0f64..10.0) {
            let m = Matrix::from_vec(1, 2, vec![x, y]).unwrap();
            let s = m.scale(2.0);
            prop_assert!((s.data()[0] - 2.0 * x).abs() < 1e-12);
            prop_assert!((s.data()[1] - 2.0 * y).abs() < 1e-12);
        }

        #[test]
        fn prop_matmul_matches_naive_reference(seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (m, k, n) = (
                rng.gen_range(1..8usize),
                rng.gen_range(1..8usize),
                rng.gen_range(1..8usize),
            );
            let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-3.0..3.0));
            let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-3.0..3.0));
            // Textbook triple loop, the definition of matrix multiplication.
            let mut naive = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    naive.data_mut()[i * n + j] = acc;
                }
            }
            prop_assert!(approx_eq(&a.matmul(&b).unwrap(), &naive, 1e-12));
        }

        #[test]
        fn prop_transpose_involution(seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (m, n) = (rng.gen_range(1..9usize), rng.gen_range(1..9usize));
            let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-10.0..10.0));
            // Bitwise equality: transpose moves values, never recomputes them.
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn prop_matmul_tn_matches_explicit_transpose(seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (k, m, n) = (
                rng.gen_range(1..8usize),
                rng.gen_range(1..8usize),
                rng.gen_range(1..8usize),
            );
            let a = Matrix::from_fn(k, m, |_, _| rng.gen_range(-3.0..3.0));
            let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-3.0..3.0));
            let expected = a.transpose().matmul(&b).unwrap();
            prop_assert!(approx_eq(&a.matmul_tn(&b).unwrap(), &expected, 1e-12));
        }

        #[test]
        fn prop_matmul_nt_matches_explicit_transpose(seed in 0u64..1000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let (m, k, n) = (
                rng.gen_range(1..8usize),
                rng.gen_range(1..8usize),
                rng.gen_range(1..8usize),
            );
            let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-3.0..3.0));
            let b = Matrix::from_fn(n, k, |_, _| rng.gen_range(-3.0..3.0));
            let expected = a.matmul(&b.transpose()).unwrap();
            prop_assert!(approx_eq(&a.matmul_nt(&b).unwrap(), &expected, 1e-12));
        }
    }
}
