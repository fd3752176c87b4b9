//! The tiled inference pass: every layer of an [`Mlp`] over a few dozen
//! rows at a time, with one pool fan-out per call.

use crate::kernels::{self, KernelKind};
use crate::matrix::{par_dispatch, serial_matmul_kernel};
use crate::{Matrix, Mlp, NnError, Result};
use std::ops::Range;

/// Rows one tile takes through every layer. At the 64-unit hidden width
/// of the PPO nets a tile's two hidden buffers are 2 × 16 KiB, so a tile's
/// whole hidden state stays in L1/L2 between layers. Any size gives the
/// same bits; 32 ran the 10⁵-device broadcast decide about 5% faster than
/// 64..1024 on an AVX-512 Xeon.
const TILE_ROWS: usize = 32;

/// The input rows of [`Mlp::infer_tiled`], in a layout that need not
/// materialize them.
pub enum TiledInput<'a> {
    /// Row `i` is `x.row(i)`.
    Rows(&'a Matrix),
    /// Row `r·D + d` is `prefix.row(r) ⊕ tail.row(d)` for `D = tail.rows()`
    /// (sample-major: every `tail` row is paired with each `prefix` row).
    /// The first layer sums each prefix row's terms once and continues that
    /// accumulator over each tail row, at the bits of the whole row.
    Broadcast {
        /// One row per sample.
        prefix: &'a Matrix,
        /// One row per paired item (a device).
        tail: &'a Matrix,
    },
    /// `rows` rows of `width` columns; `fill(i, row)` writes row `i`.
    Built {
        /// Number of rows.
        rows: usize,
        /// Columns per row.
        width: usize,
        /// Writes row `i` into the given `width`-long slice.
        #[allow(clippy::type_complexity)]
        fill: Box<dyn Fn(usize, &mut [f64]) + Sync + 'a>,
    },
}

impl TiledInput<'_> {
    /// Number of input rows.
    pub fn rows(&self) -> usize {
        match self {
            TiledInput::Rows(x) => x.rows(),
            TiledInput::Broadcast { prefix, tail } => prefix.rows() * tail.rows(),
            TiledInput::Built { rows, .. } => *rows,
        }
    }

    /// Columns per input row.
    pub fn width(&self) -> usize {
        match self {
            TiledInput::Rows(x) => x.cols(),
            TiledInput::Broadcast { prefix, tail } => prefix.cols() + tail.cols(),
            TiledInput::Built { width, .. } => *width,
        }
    }

    /// Every input row, materialized: what a training forward caches for
    /// its backward pass.
    pub fn to_matrix(&self) -> Matrix {
        let width = self.width();
        let mut out = Matrix::zeros(self.rows(), width);
        if width > 0 {
            for (i, row) in out.data_mut().chunks_exact_mut(width).enumerate() {
                self.fill_row(i, row);
            }
        }
        out
    }

    fn fill_row(&self, i: usize, row: &mut [f64]) {
        match self {
            TiledInput::Rows(x) => row.copy_from_slice(x.row(i)),
            TiledInput::Broadcast { prefix, tail } => {
                let (r, d) = (i / tail.rows(), i % tail.rows());
                let (head, rest) = row.split_at_mut(prefix.cols());
                head.copy_from_slice(prefix.row(r));
                rest.copy_from_slice(tail.row(d));
            }
            TiledInput::Built { fill, .. } => fill(i, row),
        }
    }
}

impl Mlp {
    /// Stateless inference over `input`'s rows, tile by tile: each pool
    /// partition takes its rows through every layer in tiles of
    /// 32 rows, so the hidden state of a tile stays in cache and the
    /// call fans out to the pool at most once.
    ///
    /// The fan-out is a pure function of the shape: the call fans out iff
    /// its widest layer alone would, by the matmul dispatch threshold
    /// (`FL_WORKERS` is read only then). A batch whose layers each stay on
    /// the calling thread as plain matmuls stays there as a whole.
    /// Every output element runs the op sequence of [`Mlp::try_forward`] on its
    /// own row, so neither the tile size, nor the partition, nor the layout
    /// of `input` changes a bit.
    pub fn infer_tiled(&self, input: &TiledInput<'_>) -> Result<Matrix> {
        let layers = self.layers().iter();
        let work = layers.map(|l| l.in_dim() * l.out_dim()).max();
        let workers = if par_dispatch(input.rows(), work.unwrap_or(0), 1) {
            fl_pool::env_workers()
        } else {
            1
        };
        self.infer_tiled_on(input, TILE_ROWS, workers)
    }

    /// [`Mlp::infer_tiled`] at an explicit tile size and pool width, for
    /// the checks that neither changes a bit.
    #[cfg(any(test, feature = "reference-kernels"))]
    pub fn infer_tiled_with(
        &self,
        input: &TiledInput<'_>,
        tile_rows: usize,
        workers: usize,
    ) -> Result<Matrix> {
        self.infer_tiled_on(input, tile_rows.max(1), workers)
    }

    fn infer_tiled_on(
        &self,
        input: &TiledInput<'_>,
        tile_rows: usize,
        workers: usize,
    ) -> Result<Matrix> {
        let layers = self.layers();
        let first = layers
            .first()
            .ok_or_else(|| NnError::InvalidArgument("infer on an empty MLP".to_string()))?;
        if input.width() != first.in_dim() {
            return Err(NnError::ShapeMismatch {
                op: "mlp infer",
                lhs: (input.rows(), input.width()),
                rhs: first.weights().shape(),
            });
        }
        let kind = kernels::kernel_kind();
        let (rows, out_dim) = (input.rows(), self.out_dim());
        // Broadcast: the prefix part of the first layer's k-sum, once per
        // prefix row (no bias: that comes last, after the tail terms).
        let prefix_sums = match input {
            TiledInput::Broadcast { prefix, .. } => {
                let (p, n) = (prefix.cols(), first.out_dim());
                let mut sums = Matrix::zeros(prefix.rows(), n);
                let w_head = &first.weights().data()[..p * n];
                serial_matmul_kernel(kind)(prefix.data(), w_head, sums.data_mut(), p, n);
                Some(sums)
            }
            _ => None,
        };
        let tiled = Tiles {
            net: self,
            input,
            prefix_sums: prefix_sums.as_ref(),
            kind,
            tile_rows,
        };
        let mut out = Matrix::zeros(rows, out_dim);
        let workers = workers.min(rows);
        if workers <= 1 {
            tiled.partition(0, out.data_mut());
        } else {
            let per = rows.div_ceil(workers);
            let parts: Vec<(usize, &mut [f64])> = out
                .data_mut()
                .chunks_mut(per * out_dim)
                .enumerate()
                .map(|(i, part)| (i * per, part))
                .collect();
            fl_pool::run_indexed(workers, parts, |_, (start, part)| {
                tiled.partition(start, part)
            });
        }
        Ok(out)
    }
}

/// One [`Mlp::infer_tiled`] call, shared by its partitions.
struct Tiles<'c, 'a> {
    net: &'c Mlp,
    input: &'c TiledInput<'a>,
    prefix_sums: Option<&'c Matrix>,
    kind: KernelKind,
    tile_rows: usize,
}

impl Tiles<'_, '_> {
    /// Output rows `start..` (as many as `out` holds), tile by tile.
    fn partition(&self, start: usize, out: &mut [f64]) {
        let out_dim = self.net.out_dim();
        let tile_rows = self.tile_rows.min(out.len() / out_dim);
        let width = self.net.layers().iter().map(|l| l.out_dim()).max();
        let hidden = vec![0.0; tile_rows * width.unwrap_or(0)];
        let mut hidden = [hidden.clone(), hidden];
        let mut built = match self.input {
            TiledInput::Built { width, .. } => vec![0.0; tile_rows * width],
            _ => Vec::new(),
        };
        for (t, out) in out.chunks_mut(tile_rows.max(1) * out_dim).enumerate() {
            let t0 = start + t * tile_rows;
            let range = t0..t0 + out.len() / out_dim;
            self.tile(range, &mut hidden, &mut built, out);
        }
    }

    /// Rows `range` through every layer: layer `l` writes its activated
    /// output into `hidden[l % 2]`, the last one into `out`.
    fn tile(
        &self,
        range: Range<usize>,
        hidden: &mut [Vec<f64>; 2],
        built: &mut [f64],
        out: &mut [f64],
    ) {
        let rows = range.len();
        let layers = self.net.layers();
        let last = layers.len() - 1;
        let [even, odd] = hidden;
        for (l, layer) in layers.iter().enumerate() {
            let (k, n) = (layer.in_dim(), layer.out_dim());
            let (src, dst) = if l % 2 == 0 {
                (&odd[..], &mut even[..])
            } else {
                (&even[..], &mut odd[..])
            };
            let dst = if l == last {
                &mut *out
            } else {
                &mut dst[..rows * n]
            };
            if l == 0 {
                self.first_layer(range.clone(), built, dst);
            } else {
                let (w, b) = (layer.weights().data(), layer.biases());
                kernels::affine(self.kind, None, &src[..rows * k], w, b, dst, k);
            }
            layer.activation().apply_slice(dst);
        }
    }

    /// The first layer's pre-activation of rows `range`.
    fn first_layer(&self, range: Range<usize>, built: &mut [f64], dst: &mut [f64]) {
        let layer = &self.net.layers()[0];
        let (k, n) = (layer.in_dim(), layer.out_dim());
        let (w, b) = (layer.weights().data(), layer.biases());
        match self.input {
            TiledInput::Rows(x) => {
                let x = &x.data()[range.start * k..range.end * k];
                kernels::affine(self.kind, None, x, w, b, dst, k);
            }
            TiledInput::Built { fill, .. } => {
                let x = &mut built[..range.len() * k];
                for (i, row) in range.clone().zip(x.chunks_exact_mut(k)) {
                    fill(i, row);
                }
                kernels::affine(self.kind, None, x, w, b, dst, k);
            }
            TiledInput::Broadcast { prefix, tail } => {
                let sums = self.prefix_sums.expect("broadcast prefix sums");
                let (p, s, d_rows) = (prefix.cols(), tail.cols(), tail.rows());
                let w_tail = &w[p * n..];
                // One segment per prefix row the tile touches.
                let mut i = range.start;
                while i < range.end {
                    let r = i / d_rows;
                    let end = range.end.min((r + 1) * d_rows);
                    let (d0, d1) = (i - r * d_rows, end - r * d_rows);
                    let x = &tail.data()[d0 * s..d1 * s];
                    let o = &mut dst[(i - range.start) * n..(end - range.start) * n];
                    kernels::affine(self.kind, Some(sums.row(r)), x, w_tail, b, o, s);
                    i = end;
                }
            }
        }
    }
}
