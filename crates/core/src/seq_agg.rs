//! Sequential Aggregation and Rematerialization — Algorithms 1 and 2.
//!
//! Each function here executes the message-passing + aggregation part of a
//! GNN layer *outside* the autograd tape (Algorithm 1: raw kernels over
//! one fetched partition block at a time, freed immediately), and records
//! a custom [`Function`] whose backward routes errors to the owning
//! workers (Algorithm 2):
//!
//! * [`sage_aggregate`] — **case 1**: `dAgg/dz` does not depend on `z`, so
//!   the backward pass sends error blocks directly without re-fetching any
//!   remote features. SAR adds no communication over domain-parallel
//!   training.
//! * [`gat_aggregate`] — **case 2**: the attention coefficients depend on
//!   `z`, so the backward pass *re-fetches* the remote features (the 50%
//!   communication overhead the paper describes), re-computes the
//!   coefficients with the saved online-softmax statistics, and routes
//!   gradients back. With `FakMode::Fused`, coefficients are produced on
//!   the fly (fused kernels, §3.3); with `FakMode::TwoStep`, each block's
//!   coefficients are materialized and re-read (the plain-SAR baseline of
//!   Figs. 4 and 6).

use std::rc::Rc;

use sar_comm::Phase;
use sar_graph::fused::{
    attn_grad_dot, gat_fused_block_backward, gat_fused_block_backward_indexed,
    gat_fused_block_forward, gat_fused_block_forward_indexed, gat_twostep_block_backward,
    gat_twostep_block_backward_indexed, gat_twostep_block_forward,
    gat_twostep_block_forward_indexed, OnlineAttnState,
};
use sar_graph::ops;
use sar_tensor::{Function, Tensor, Var};

use crate::worker::{FetchedBlock, Worker};

// ----------------------------------------------------------------------
// Case 1: GraphSage (linear aggregation, no refetch)
// ----------------------------------------------------------------------

struct SageAggFn {
    parents: Vec<Var>, // [z]
    w: Rc<Worker>,
    // Layer this aggregation was recorded under, restored in backward so
    // error routing is ledgered against the right layer.
    layer: Option<u16>,
}

impl Function for SageAggFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "sar_sage_aggregate"
    }

    fn backward(&self, grad_output: &Tensor, _output: &Tensor) -> Vec<Option<Tensor>> {
        // Case 1: the error for partition q's features is a linear map of
        // the output error — computed and shipped without refetching z.
        let w = &self.w;
        let _layer = w.ctx.layer_scope_opt(self.layer);
        let grad_z = w.exchange_grads(grad_output.cols(), |q| {
            ops::spmm_sum_backward(w.graph.block(q), grad_output)
        });
        vec![Some(grad_z)]
    }
}

/// SAR sum-aggregation for GraphSage-style layers (case 1).
///
/// Forward: Algorithm 1 — fetches each partition's projected features
/// `Z_{q→p}` one at a time, accumulates `Σ_q A_{p,q} Z_{q→p}` into a local
/// accumulator with raw kernels (no tape), and frees each block before the
/// next. Backward: Algorithm 2, case 1 — no refetch.
///
/// `z` must be this worker's `[n_local, F]` projected features. Returns
/// the *sum* aggregation; divide by the global in-degree for Eq. 2's mean.
///
/// # Panics
///
/// Panics if `z` has the wrong number of rows.
pub fn sage_aggregate(w: &Rc<Worker>, z: &Var) -> Var {
    let cols = z.value().cols();
    let mut acc = Tensor::zeros(&[w.graph.num_local(), cols]);
    {
        let _phase = w.ctx.phase_scope(Phase::ForwardFetch);
        // Round 0 aggregates straight out of the resident features through
        // the row table (fused gather+aggregate); remote blocks aggregate
        // from the wire buffer. Both paths are bitwise identical to
        // gather-then-aggregate.
        w.fetch_rounds(&z.value(), |q, fetched| match fetched {
            FetchedBlock::Local { data, rows } => {
                ops::spmm_sum_into_indexed(w.graph.block(q), data, rows, &mut acc);
            }
            FetchedBlock::Remote(block) => {
                ops::spmm_sum_into(w.graph.block(q), block, &mut acc);
            }
        });
    }
    Var::from_function(
        acc,
        SageAggFn {
            parents: vec![z.clone()],
            w: Rc::clone(w),
            layer: w.ctx.current_layer(),
        },
    )
}

// ----------------------------------------------------------------------
// Case 2: GAT (attention aggregation, refetch + recompute)
// ----------------------------------------------------------------------

/// Which attention kernel the sequential aggregation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FakMode {
    /// Fused attention kernels (§3.3): coefficients computed on the fly,
    /// never materialized — "SAR+FAK" in the paper's figures.
    Fused,
    /// DGL-style two-step kernels: each block's `[E_block, H]`
    /// coefficients are written to memory and read back — "SAR" (plain)
    /// in the paper's figures.
    TwoStep,
}

struct GatAggFn {
    parents: Vec<Var>, // [z, s_dst, a_src]
    w: Rc<Worker>,
    heads: usize,
    slope: f32,
    mode: FakMode,
    layer: Option<u16>,
    // Saved online-softmax statistics ([n_local, H] each) — the only
    // state SAR keeps to re-materialize attention in the backward pass.
    // With `--mem-budget` they live in the worker's disk tier between the
    // forward and backward passes instead of RAM.
    saved: std::cell::RefCell<RematInputs>,
}

/// Where a [`GatAggFn`]'s saved softmax statistics live between forward
/// and backward.
enum RematInputs {
    /// Held in RAM (tier disabled).
    Ram { max: Tensor, den: Tensor },
    /// Held by the worker's disk tier under remat-input ids; spilled past
    /// the budget, faulted back (bitwise identical) at backward time.
    Tiered { max_id: u64, den_id: u64 },
    /// Consumed by a backward pass.
    Taken,
}

impl GatAggFn {
    /// Takes the saved statistics, faulting from the disk tier if they
    /// were spilled. Panics if the backward pass runs twice.
    fn take_saved(&self) -> (Tensor, Tensor) {
        match self.saved.replace(RematInputs::Taken) {
            RematInputs::Ram { max, den } => (max, den),
            RematInputs::Tiered { max_id, den_id } => (
                self.w.tier_take(max_id, "remat softmax max"),
                self.w.tier_take(den_id, "remat softmax denominator"),
            ),
            RematInputs::Taken => panic!(
                "worker {}: GAT aggregation backward ran twice",
                self.w.rank()
            ),
        }
    }
}

impl Drop for GatAggFn {
    fn drop(&mut self) {
        // A recorded-but-never-run backward (e.g. an evaluation forward
        // taped under grad mode) must not leak its tier blocks.
        if let RematInputs::Tiered { max_id, den_id } = *self.saved.borrow() {
            self.w.tier_discard(max_id);
            self.w.tier_discard(den_id);
        }
    }
}

impl Function for GatAggFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "sar_gat_aggregate"
    }

    fn backward(&self, grad_output: &Tensor, output: &Tensor) -> Vec<Option<Tensor>> {
        let w = &self.w;
        let _layer = w.ctx.layer_scope_opt(self.layer);
        let (z, s_dst, a_src) = (&self.parents[0], &self.parents[1], &self.parents[2]);
        let heads = self.heads;
        let hd = z.value().cols();
        let grad_dot = attn_grad_dot(grad_output, output, heads);
        let mut d_s_dst = Tensor::zeros(&[w.graph.num_local(), heads]);
        let mut d_a_src = Tensor::zeros(&[hd]);
        let grad_tag = w.next_tag();
        // Saved softmax statistics first: faulting them back (if they
        // spilled to the disk tier) is part of re-materializing the
        // attention, so ledger the disk traffic as BackwardRefetch.
        let (max, den) = {
            let _refetch = w.ctx.phase_scope(Phase::BackwardRefetch);
            self.take_saved()
        };

        // Case 2: re-fetch every partition's features (the rematerialized
        // pieces of the computational graph), push gradients per block,
        // free the block, move on. The rotation fetch is ledgered as
        // BackwardRefetch — the paper's 50% extra communication — while
        // the per-block gradient sends nest under GradRouting.
        let a_src_val = a_src.value_clone();
        {
            let _refetch = w.ctx.phase_scope(Phase::BackwardRefetch);
            let s_dst_ref = s_dst.value();
            let z_ref = z.value();
            // The local round re-materializes nothing: logits, attention
            // gradients, and the s_src fold-back all read the resident
            // features through the row table (fused gather+aggregate).
            // Gradient outputs are block-shaped either way, so the
            // routing below is identical for both paths.
            w.fetch_rounds(&z_ref, |q, z_block| {
                let block = w.graph.block(q);
                let (grads, dz_from_s, da) = match z_block {
                    FetchedBlock::Local { data, rows } => {
                        let s_src_block = ops::head_project_indexed(data, rows, &a_src_val, heads);
                        let grads = match self.mode {
                            FakMode::Fused => gat_fused_block_backward_indexed(
                                block,
                                &s_dst_ref,
                                &s_src_block,
                                data,
                                rows,
                                self.slope,
                                &max,
                                &den,
                                grad_output,
                                &grad_dot,
                                &mut d_s_dst,
                            ),
                            FakMode::TwoStep => gat_twostep_block_backward_indexed(
                                block,
                                &s_dst_ref,
                                &s_src_block,
                                data,
                                rows,
                                self.slope,
                                &max,
                                &den,
                                grad_output,
                                &grad_dot,
                                &mut d_s_dst,
                            ),
                        };
                        // Fold the s_src path back into z and a_src:
                        // s_src = head_project(z, a_src).
                        let (dz_from_s, da) = ops::head_project_backward_indexed(
                            data,
                            rows,
                            &a_src_val,
                            heads,
                            &grads.d_s_src,
                        );
                        (grads, dz_from_s, da)
                    }
                    FetchedBlock::Remote(z_block) => {
                        let s_src_block = ops::head_project(z_block, &a_src_val, heads);
                        let grads = match self.mode {
                            FakMode::Fused => gat_fused_block_backward(
                                block,
                                &s_dst_ref,
                                &s_src_block,
                                z_block,
                                self.slope,
                                &max,
                                &den,
                                grad_output,
                                &grad_dot,
                                &mut d_s_dst,
                            ),
                            FakMode::TwoStep => gat_twostep_block_backward(
                                block,
                                &s_dst_ref,
                                &s_src_block,
                                z_block,
                                self.slope,
                                &max,
                                &den,
                                grad_output,
                                &grad_dot,
                                &mut d_s_dst,
                            ),
                        };
                        let (dz_from_s, da) =
                            ops::head_project_backward(z_block, &a_src_val, heads, &grads.d_s_src);
                        (grads, dz_from_s, da)
                    }
                };
                d_a_src.add_assign(&da);
                let mut d_z_block = grads.d_x_src;
                d_z_block.add_assign(&dz_from_s);
                let _route = w.ctx.phase_scope(Phase::GradRouting);
                // The local contribution (q == rank) loops back through
                // the context so all blocks take the same path below.
                w.ctx
                    .try_send(q, grad_tag, sar_comm::Payload::F32(d_z_block.into_data()))
                    .unwrap_or_else(|e| {
                        panic!("worker {} routing gradients to rank {q}: {e}", w.rank())
                    });
            });
        }

        // Accumulate the error blocks routed to this worker (E_p = Σ_q
        // E_{q→p} in Algorithm 2). The partner list is the full rotation
        // under the exact and stale protocols, and collapses to this rank
        // under gradonly — matching the sends above, which only fire for
        // the blocks the refetch actually consumed.
        let mut grad_z = Tensor::zeros(&[w.graph.num_local(), hd]);
        {
            let _route = w.ctx.phase_scope(Phase::GradRouting);
            for q in w.grad_route_partners() {
                let rows = w.graph.serves_to(q);
                let block = w
                    .try_receive_block(q, grad_tag, rows.len(), hd)
                    .unwrap_or_else(|e| {
                        panic!("worker {} routing gradients from rank {q}: {e}", w.rank())
                    });
                grad_z.scatter_add_rows(rows, &block);
            }
        }

        // "Sum θ^l.grad across all machines" (Algorithm 2): the attention
        // parameter gradient needs contributions from every worker's
        // destination edges.
        let mut buf = d_a_src.into_data();
        w.ctx.all_reduce_sum(&mut buf).unwrap_or_else(|e| {
            panic!("worker {} all-reducing attention gradients: {e}", w.rank())
        });
        let d_a_src = Tensor::from_vec(&[hd], buf);

        vec![Some(grad_z), Some(d_s_dst), Some(d_a_src)]
    }
}

/// SAR attention-aggregation for GAT layers (case 2).
///
/// * `z` — this worker's projected features `[n_local, H*D]`.
/// * `s_dst` — destination attention logits `[n_local, H]` (on the tape;
///   its gradient flows back through `head_project`).
/// * `a_src` — the source attention vector `[H*D]`; source logits for
///   *fetched* features are recomputed from it on the fly, so only `z`
///   rows ever cross the network.
///
/// Forward: Algorithm 1 with the incremental stable softmax of §3.4 —
/// per-block online-softmax accumulation with running-max renormalization.
/// Backward: Algorithm 2, case 2 — refetch, recompute, route.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
pub fn gat_aggregate(
    w: &Rc<Worker>,
    z: &Var,
    s_dst: &Var,
    a_src: &Var,
    heads: usize,
    slope: f32,
    mode: FakMode,
) -> Var {
    let hd = z.value().cols();
    assert_eq!(hd % heads, 0, "feature width not divisible by heads");
    let head_dim = hd / heads;
    let a_src_val = a_src.value_clone();
    let mut state = OnlineAttnState::new(w.graph.num_local(), heads, head_dim);
    {
        let _phase = w.ctx.phase_scope(Phase::ForwardFetch);
        let s_dst_ref = s_dst.value();
        // Round 0 computes source logits and aggregates straight out of
        // the resident features through the row table (fused
        // gather+aggregate); remote blocks use the materialized wire
        // buffer. Both paths are bitwise identical.
        w.fetch_rounds(&z.value(), |q, z_block| {
            let block = w.graph.block(q);
            match z_block {
                FetchedBlock::Local { data, rows } => {
                    let s_src_block = ops::head_project_indexed(data, rows, &a_src_val, heads);
                    match mode {
                        FakMode::Fused => gat_fused_block_forward_indexed(
                            block,
                            &s_dst_ref,
                            &s_src_block,
                            data,
                            rows,
                            slope,
                            &mut state,
                        ),
                        FakMode::TwoStep => gat_twostep_block_forward_indexed(
                            block,
                            &s_dst_ref,
                            &s_src_block,
                            data,
                            rows,
                            slope,
                            &mut state,
                        ),
                    }
                }
                FetchedBlock::Remote(z_block) => {
                    let s_src_block = ops::head_project(z_block, &a_src_val, heads);
                    match mode {
                        FakMode::Fused => gat_fused_block_forward(
                            block,
                            &s_dst_ref,
                            &s_src_block,
                            z_block,
                            slope,
                            &mut state,
                        ),
                        FakMode::TwoStep => gat_twostep_block_forward(
                            block,
                            &s_dst_ref,
                            &s_src_block,
                            z_block,
                            slope,
                            &mut state,
                        ),
                    }
                }
            }
        });
    }
    let (value, max, den) = state.finalize_into();
    // Under a memory budget the saved statistics go to the disk tier so
    // they can spill between forward and backward. Only worth recording
    // when a backward will actually run: with grad disabled,
    // `Var::from_function` drops the Function (and its RAM copy) anyway.
    let saved = if sar_tensor::grad_enabled() && w.tier_enabled() {
        let max_id = w.next_remat_id();
        let den_id = w.next_remat_id();
        w.tier_put(max_id, max, "remat softmax max");
        w.tier_put(den_id, den, "remat softmax denominator");
        RematInputs::Tiered { max_id, den_id }
    } else {
        RematInputs::Ram { max, den }
    };
    Var::from_function(
        value,
        GatAggFn {
            parents: vec![z.clone(), s_dst.clone(), a_src.clone()],
            w: Rc::clone(w),
            heads,
            slope,
            mode,
            layer: w.ctx.current_layer(),
            saved: std::cell::RefCell::new(saved),
        },
    )
}
