//! Distributed batch normalization (§3.4 of the paper).
//!
//! The node-feature matrix is partitioned across workers, so batch
//! statistics must be *global*: the forward pass all-reduces each worker's
//! per-column sum, squared sum and row count to obtain the exact full-batch
//! mean and variance, and the backward pass all-reduces the two gradient
//! summary statistics so the input gradient is exactly the single-machine
//! gradient. Only `O(F)` summary data crosses the network — the
//! "communicating only summary statistics and their gradients" design the
//! paper describes.

use std::rc::Rc;

use sar_tensor::{Function, Tensor, Var};

use crate::worker::Worker;

struct DistBnFn {
    parents: Vec<Var>, // [x]
    w: Rc<Worker>,
    inv_std: Tensor, // [F], global
    n_global: f32,
}

impl Function for DistBnFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "distributed_batchnorm"
    }

    fn backward(&self, grad_output: &Tensor, output: &Tensor) -> Vec<Option<Tensor>> {
        // y = (x − μ) / σ with global μ, σ over N total rows:
        // dx_i = (1/σ) (g_i − (1/N) Σ g − y_i (1/N) Σ (g ⊙ y)),
        // where both sums run over ALL workers' rows.
        let f = grad_output.cols();
        let mut buf = Vec::with_capacity(2 * f);
        buf.extend_from_slice(grad_output.sum_axis0().data());
        buf.extend_from_slice(grad_output.mul(output).sum_axis0().data());
        self.w.ctx.all_reduce_sum(&mut buf).unwrap_or_else(|e| {
            panic!(
                "worker {} all-reducing batch-norm gradients: {e}",
                self.w.rank()
            )
        });
        let mean_g = Tensor::from_vec(&[f], buf[..f].to_vec()).scale(1.0 / self.n_global);
        let mean_gy = Tensor::from_vec(&[f], buf[f..].to_vec()).scale(1.0 / self.n_global);

        let centered = grad_output
            .add_row_broadcast(&mean_g.scale(-1.0))
            .sub(&output.mul_row_broadcast(&mean_gy));
        let dx = centered.mul_row_broadcast(&self.inv_std);
        vec![Some(dx)]
    }
}

/// Distributed batch normalization layer: global batch statistics, exact
/// full-batch gradients, learnable `gamma`/`beta`.
///
/// Statistics are always computed from the current full batch — in
/// full-batch GNN training the "batch" is the entire (fixed) node set, so
/// batch statistics and running statistics coincide at convergence.
#[derive(Debug)]
pub struct DistBatchNorm {
    gamma: Var,
    beta: Var,
    eps: f32,
}

impl DistBatchNorm {
    /// Creates a distributed batch-norm layer over `dim` features.
    pub fn new(dim: usize) -> Self {
        DistBatchNorm {
            gamma: Var::parameter(Tensor::ones(&[dim])),
            beta: Var::parameter(Tensor::zeros(&[dim])),
            eps: 1e-5,
        }
    }

    /// Normalizes this worker's `[n_local, F]` rows with global statistics.
    ///
    /// All workers must call this collectively (it all-reduces).
    ///
    /// # Panics
    ///
    /// Panics if `x` width differs from the layer dimension, or (naming
    /// this rank) if the statistics all-reduce fails.
    pub fn forward(&self, w: &Rc<Worker>, x: &Var) -> Var {
        let f = x.value().cols();
        assert_eq!(f, self.gamma.value().numel(), "feature width mismatch");
        // Global sum, squared sum and row count in one all-reduce.
        let mut buf = Vec::with_capacity(2 * f + 1);
        {
            let xv = x.value();
            buf.extend_from_slice(xv.sum_axis0().data());
            buf.extend_from_slice(xv.mul(&xv).sum_axis0().data());
            buf.push(xv.rows() as f32);
        }
        w.ctx.all_reduce_sum(&mut buf).unwrap_or_else(|e| {
            panic!(
                "worker {} all-reducing batch-norm statistics: {e}",
                w.rank()
            )
        });
        let n_global = buf[2 * f].max(1.0);
        let mean = Tensor::from_vec(&[f], buf[..f].to_vec()).scale(1.0 / n_global);
        let sq_mean = Tensor::from_vec(&[f], buf[f..2 * f].to_vec()).scale(1.0 / n_global);
        let var = sq_mean.zip_map(&mean, |sq, m| (sq - m * m).max(0.0));
        let eps = self.eps;
        let inv_std = var.map(|v| 1.0 / (v + eps).sqrt());

        let value = {
            let xv = x.value();
            xv.add_row_broadcast(&mean.scale(-1.0))
                .mul_row_broadcast(&inv_std)
        };
        let x_hat = Var::from_function(
            value,
            DistBnFn {
                parents: vec![x.clone()],
                w: Rc::clone(w),
                inv_std,
                n_global,
            },
        );
        x_hat.mul_row(&self.gamma).add_bias(&self.beta)
    }

    /// Trainable parameters (`gamma`, `beta`).
    pub fn params(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}
