//! Vanilla domain-parallel training — the baseline SAR is compared against
//! (Fig. 1a of the paper).
//!
//! Domain-parallel training fetches **all** boundary features at the start
//! of a layer and keeps them alive on the autograd tape until the backward
//! pass, together with every per-edge intermediate (for GAT, the `[E, H]`
//! attention coefficients). The result is the memory blow-up of Fig. 1a:
//! by the end of the forward pass a worker stores a substantial portion of
//! the whole graph as part of its output's computational graph.

use std::rc::Rc;

use sar_comm::{Payload, Phase};
use sar_tensor::{Function, Tensor, Var};

use crate::worker::Worker;

struct HaloFetchFn {
    parents: Vec<Var>, // [z]
    w: Rc<Worker>,
    layer: Option<u16>,
}

impl Function for HaloFetchFn {
    fn parents(&self) -> &[Var] {
        &self.parents
    }

    fn name(&self) -> &'static str {
        "domain_parallel_halo_fetch"
    }

    fn backward(&self, grad_output: &Tensor, _output: &Tensor) -> Vec<Option<Tensor>> {
        // Slice the halo gradient per partition section and route each
        // slice back to the owner; accumulate what peers route to us.
        let w = &self.w;
        let _layer = w.ctx.layer_scope_opt(self.layer);
        let cols = grad_output.cols();
        let grad_z = w.exchange_grads(cols, |q| {
            let start = w.graph.halo_offset(q);
            let len = w.graph.needed_from(q).len();
            grad_output.slice_rows(start..start + len)
        });
        vec![Some(grad_z)]
    }
}

/// Fetches the full halo of `z` in one shot and returns it as a tape
/// variable (`[halo_width, F]`, sections ordered by partition as in
/// [`DistGraph::halo_graph`](crate::DistGraph::halo_graph)).
///
/// Unlike SAR's [`fetch_rounds`](crate::Worker::fetch_rounds), the fetched
/// features become part of the computational graph and stay resident until
/// the backward pass completes.
///
/// # Panics
///
/// Panics if `z` does not have one row per local node, or (naming this
/// rank and the peer) if a peer dies or sends a malformed halo block.
pub fn halo_fetch(w: &Rc<Worker>, z: &Var) -> Var {
    let n = w.world();
    let p = w.rank();
    let cols = z.value().cols();
    assert_eq!(
        z.value().rows(),
        w.graph.num_local(),
        "z rows != local nodes"
    );
    let tag = w.next_tag();
    let phase = w.ctx.phase_scope(Phase::ForwardFetch);

    // Send every peer its rows, then assemble the halo in partition order.
    {
        let zv = z.value();
        for r in 1..n {
            let q = (p + r) % n;
            let block = zv.gather_rows(w.graph.serves_to(q));
            w.ctx
                .try_send(q, tag, Payload::F32(block.into_data()))
                .unwrap_or_else(|e| panic!("worker {p} serving halo to rank {q}: {e}"));
        }
    }
    let mut sections: Vec<Tensor> = Vec::with_capacity(n);
    for q in 0..n {
        if q == p {
            sections.push(z.value().gather_rows(w.graph.needed_from(p)));
        } else {
            let rows = w.graph.needed_from(q).len();
            let block = w
                .try_receive_block(q, tag, rows, cols)
                .unwrap_or_else(|e| panic!("worker {p} fetching halo from rank {q}: {e}"));
            sections.push(block);
        }
    }
    let refs: Vec<&Tensor> = sections.iter().collect();
    let halo = Tensor::vstack(&refs);
    drop(sections);
    drop(phase);

    Var::from_function(
        halo,
        HaloFetchFn {
            parents: vec![z.clone()],
            w: Rc::clone(w),
            layer: w.ctx.current_layer(),
        },
    )
}
