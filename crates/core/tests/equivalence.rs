//! Exactness tests: SAR and domain-parallel training must reproduce
//! single-machine full-batch results for any number of workers — the
//! paper's central claim ("The results of training are exactly the same
//! regardless of the number of machines").

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_core::{
    domain_parallel::halo_fetch, gat_aggregate, sage_aggregate, DistGraph, FakMode, Worker,
};
use sar_graph::{generators::erdos_renyi, ops, CsrGraph};
use sar_partition::{multilevel, random, Partitioning};
use sar_tensor::{init, Tensor, Var};

const N_NODES: usize = 60;
const FEAT: usize = 6;

fn test_graph(seed: u64) -> CsrGraph {
    erdos_renyi(N_NODES, 420, &mut StdRng::seed_from_u64(seed))
        .symmetrize()
        .with_self_loops()
}

/// Reassembles per-worker row blocks into a full matrix.
fn assemble(parts: Vec<(Vec<u32>, Tensor)>, cols: usize) -> Tensor {
    let mut out = Tensor::zeros(&[N_NODES, cols]);
    for (ids, block) in parts {
        out.scatter_add_rows(&ids, &block);
    }
    out
}

#[test]
fn sar_sage_aggregation_matches_single_machine() {
    let g = test_graph(0);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(1));
    let grad_out = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(2));

    let expect_out = ops::spmm_sum(&g, &x);
    let expect_grad = ops::spmm_sum_backward(&g, &grad_out);

    for world in [1usize, 2, 3, 5] {
        let part = random(&g, world, 7);
        let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let x = Arc::new(x.data().to_vec());
        let go = Arc::new(grad_out.data().to_vec());

        let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let graph = Arc::clone(&graphs[ctx.rank()]);
            let ids = graph.local_nodes().to_vec();
            let full_x = Tensor::from_vec(&[N_NODES, FEAT], x.as_ref().clone());
            let full_g = Tensor::from_vec(&[N_NODES, FEAT], go.as_ref().clone());
            let z = Var::parameter(full_x.gather_rows(&ids));
            let w = Worker::new(ctx, graph);
            let agg = sage_aggregate(&w, &z);
            let out = agg.value_clone();
            agg.backward_with(&full_g.gather_rows(&ids));
            let grad = z.grad().expect("z grad");
            (ids.clone(), out.into_data(), grad.into_data())
        });

        let outs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let (ids, out, _) = &o.result;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), FEAT], out.clone()),
                    )
                })
                .collect(),
            FEAT,
        );
        let grads = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let (ids, _, g) = &o.result;
                    (ids.clone(), Tensor::from_vec(&[ids.len(), FEAT], g.clone()))
                })
                .collect(),
            FEAT,
        );
        assert!(
            outs.allclose(&expect_out, 1e-4),
            "world {world}: forward mismatch"
        );
        assert!(
            grads.allclose(&expect_grad, 1e-4),
            "world {world}: backward mismatch"
        );
    }
}

/// Single-machine GAT attention aggregation reference (standard ops).
fn gat_reference(
    g: &CsrGraph,
    x: &Tensor,
    a_dst: &Tensor,
    a_src: &Tensor,
    heads: usize,
    grad_out: &Tensor,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let garc = Arc::new(g.clone());
    let z = Var::parameter(x.clone());
    let ad = Var::parameter(a_dst.clone());
    let asr = Var::parameter(a_src.clone());
    let s_dst = sar_nn::graph_autograd::head_project(&z, &ad, heads);
    let s_src = sar_nn::graph_autograd::head_project(&z, &asr, heads);
    let scores = sar_nn::graph_autograd::gat_edge_scores(&garc, &s_dst, &s_src, 0.2);
    let alpha = sar_nn::graph_autograd::edge_softmax(&garc, &scores);
    let out = sar_nn::graph_autograd::spmm_multihead(&garc, &alpha, &z);
    let value = out.value_clone();
    out.backward_with(grad_out);
    (
        value,
        z.grad().unwrap(),
        ad.grad().unwrap(),
        asr.grad().unwrap(),
    )
}

fn check_sar_gat(mode: FakMode) {
    let heads = 2;
    let hd = heads * 3;
    let g = test_graph(3);
    let x = init::randn(&[N_NODES, hd], 1.0, &mut StdRng::seed_from_u64(4));
    let a_dst = init::randn(&[hd], 1.0, &mut StdRng::seed_from_u64(5));
    let a_src = init::randn(&[hd], 1.0, &mut StdRng::seed_from_u64(6));
    let grad_out = init::randn(&[N_NODES, hd], 1.0, &mut StdRng::seed_from_u64(7));

    let (ref_out, ref_dz, ref_dad, ref_das) =
        gat_reference(&g, &x, &a_dst, &a_src, heads, &grad_out);

    for world in [1usize, 3, 4] {
        let part = multilevel(&g, world.min(N_NODES), 11);
        let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let xs = Arc::new(x.data().to_vec());
        let gos = Arc::new(grad_out.data().to_vec());
        let ads = Arc::new(a_dst.data().to_vec());
        let ass = Arc::new(a_src.data().to_vec());

        let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let graph = Arc::clone(&graphs[ctx.rank()]);
            let ids = graph.local_nodes().to_vec();
            let full_x = Tensor::from_vec(&[N_NODES, hd], xs.as_ref().clone());
            let full_g = Tensor::from_vec(&[N_NODES, hd], gos.as_ref().clone());
            let z = Var::parameter(full_x.gather_rows(&ids));
            let ad = Var::parameter(Tensor::from_vec(&[hd], ads.as_ref().clone()));
            let asr = Var::parameter(Tensor::from_vec(&[hd], ass.as_ref().clone()));
            let w = Worker::new(ctx, graph);
            let s_dst = sar_nn::graph_autograd::head_project(&z, &ad, heads);
            let agg = gat_aggregate(&w, &z, &s_dst, &asr, heads, 0.2, mode);
            let out = agg.value_clone();
            agg.backward_with(&full_g.gather_rows(&ids));
            (
                ids,
                out.into_data(),
                z.grad().unwrap().into_data(),
                ad.grad().unwrap().into_data(),
                asr.grad().unwrap().into_data(),
            )
        });

        let outs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), hd], o.result.1.clone()),
                    )
                })
                .collect(),
            hd,
        );
        let dzs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), hd], o.result.2.clone()),
                    )
                })
                .collect(),
            hd,
        );
        assert!(
            outs.allclose(&ref_out, 1e-3),
            "world {world}: forward mismatch ({mode:?})"
        );
        assert!(
            dzs.allclose(&ref_dz, 1e-3),
            "world {world}: dz mismatch ({mode:?})"
        );
        // a_dst grads are per-worker partial sums (the trainer all-reduces
        // them); a_src grads are already all-reduced inside Algorithm 2.
        let mut dad = Tensor::zeros(&[hd]);
        for o in &outcomes {
            dad.add_assign(&Tensor::from_vec(&[hd], o.result.3.clone()));
        }
        assert!(
            dad.allclose(&ref_dad, 1e-3),
            "world {world}: d_a_dst mismatch ({mode:?})"
        );
        let das = Tensor::from_vec(&[hd], outcomes[0].result.4.clone());
        assert!(
            das.allclose(&ref_das, 1e-3),
            "world {world}: d_a_src mismatch ({mode:?})"
        );
    }
}

#[test]
fn sar_gat_fused_matches_single_machine() {
    check_sar_gat(FakMode::Fused);
}

#[test]
fn sar_gat_twostep_matches_single_machine() {
    check_sar_gat(FakMode::TwoStep);
}

#[test]
fn domain_parallel_halo_matches_single_machine() {
    let g = test_graph(8);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(9));
    let grad_out = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(10));
    let expect_out = ops::spmm_sum(&g, &x);
    let expect_grad = ops::spmm_sum_backward(&g, &grad_out);

    for world in [1usize, 2, 4] {
        let part = random(&g, world, 13);
        let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
            DistGraph::build_all(&g, &part)
                .into_iter()
                .map(Arc::new)
                .collect(),
        );
        let xs = Arc::new(x.data().to_vec());
        let gos = Arc::new(grad_out.data().to_vec());

        let outcomes = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let graph = Arc::clone(&graphs[ctx.rank()]);
            let ids = graph.local_nodes().to_vec();
            let full_x = Tensor::from_vec(&[N_NODES, FEAT], xs.as_ref().clone());
            let full_g = Tensor::from_vec(&[N_NODES, FEAT], gos.as_ref().clone());
            let z = Var::parameter(full_x.gather_rows(&ids));
            let w = Worker::new(ctx, graph);
            let halo = halo_fetch(&w, &z);
            let agg = sar_nn::graph_autograd::spmm_sum(w.graph.halo_graph(), &halo);
            let out = agg.value_clone();
            agg.backward_with(&full_g.gather_rows(&ids));
            (ids, out.into_data(), z.grad().unwrap().into_data())
        });

        let outs = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), FEAT], o.result.1.clone()),
                    )
                })
                .collect(),
            FEAT,
        );
        let grads = assemble(
            outcomes
                .iter()
                .map(|o| {
                    let ids = &o.result.0;
                    (
                        ids.clone(),
                        Tensor::from_vec(&[ids.len(), FEAT], o.result.2.clone()),
                    )
                })
                .collect(),
            FEAT,
        );
        assert!(
            outs.allclose(&expect_out, 1e-4),
            "world {world}: DP forward mismatch"
        );
        assert!(
            grads.allclose(&expect_grad, 1e-4),
            "world {world}: DP backward mismatch"
        );
    }
}

#[test]
fn prefetch_does_not_change_results() {
    let g = test_graph(20);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(21));
    let part = random(&g, 4, 22);
    let expect = ops::spmm_sum(&g, &x);

    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&g, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let xs = Arc::new(x.data().to_vec());
    let outcomes = Cluster::new(4, CostModel::default()).run(move |ctx| {
        let graph = Arc::clone(&graphs[ctx.rank()]);
        let ids = graph.local_nodes().to_vec();
        let full_x = Tensor::from_vec(&[N_NODES, FEAT], xs.as_ref().clone());
        let z = Var::constant(full_x.gather_rows(&ids));
        let w = Worker::from_shared(Rc::new(ctx), graph, 1);
        let agg = sage_aggregate(&w, &z);
        (ids, agg.value_clone().into_data())
    });
    let outs = assemble(
        outcomes
            .iter()
            .map(|o| {
                let ids = &o.result.0;
                (
                    ids.clone(),
                    Tensor::from_vec(&[ids.len(), FEAT], o.result.1.clone()),
                )
            })
            .collect(),
        FEAT,
    );
    assert!(outs.allclose(&expect, 1e-4));
}

#[test]
fn partitioning_choice_does_not_change_results() {
    // SAR must be exact under any partitioning, balanced or not.
    let g = test_graph(30);
    let x = init::randn(&[N_NODES, FEAT], 1.0, &mut StdRng::seed_from_u64(31));
    let expect = ops::spmm_sum(&g, &x);
    // A deliberately skewed partitioning.
    let assignment: Vec<u32> = (0..N_NODES).map(|i| if i < 5 { 0 } else { 1 }).collect();
    let part = Partitioning::new(2, assignment);
    let graphs: Arc<Vec<Arc<DistGraph>>> = Arc::new(
        DistGraph::build_all(&g, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    let xs = Arc::new(x.data().to_vec());
    let outcomes = Cluster::new(2, CostModel::default()).run(move |ctx| {
        let graph = Arc::clone(&graphs[ctx.rank()]);
        let ids = graph.local_nodes().to_vec();
        let full_x = Tensor::from_vec(&[N_NODES, FEAT], xs.as_ref().clone());
        let z = Var::constant(full_x.gather_rows(&ids));
        let w = Worker::new(ctx, graph);
        let agg = sage_aggregate(&w, &z);
        (ids, agg.value_clone().into_data())
    });
    let outs = assemble(
        outcomes
            .iter()
            .map(|o| {
                let ids = &o.result.0;
                (
                    ids.clone(),
                    Tensor::from_vec(&[ids.len(), FEAT], o.result.1.clone()),
                )
            })
            .collect(),
        FEAT,
    );
    assert!(outs.allclose(&expect, 1e-4));
}
