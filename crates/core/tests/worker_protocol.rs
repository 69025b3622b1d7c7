//! Protocol-level tests of the Worker exchange primitives (fetch rounds,
//! gradient routing) and of model replication.

use std::rc::Rc;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_comm::{Cluster, CostModel};
use sar_core::{Arch, DistGraph, DistModel, Mode, ModelConfig, Worker};
use sar_graph::{generators::erdos_renyi, CsrGraph};
use sar_partition::random;
use sar_tensor::Tensor;

const N: usize = 40;

fn setup(world: usize, seed: u64) -> (CsrGraph, Vec<Arc<DistGraph>>) {
    let g = erdos_renyi(N, 240, &mut StdRng::seed_from_u64(seed)).symmetrize();
    let part = random(&g, world, seed);
    let graphs = DistGraph::build_all(&g, &part)
        .into_iter()
        .map(Arc::new)
        .collect();
    (g, graphs)
}

#[test]
fn fetch_rounds_delivers_each_partition_once_in_rotation_order() {
    let world = 4;
    let (_, graphs) = setup(world, 0);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        // Encode each worker's rank into its features.
        let data = Tensor::full(&[w.graph.num_local(), 2], rank as f32);
        let mut seen = Vec::new();
        w.fetch_rounds(&data, |q, fetched| {
            seen.push(q);
            assert_eq!(fetched.rows(), w.graph.needed_from(q).len());
            // Every row of a block fetched from q must carry q's value
            // (round 0 arrives unmaterialized; gather it for inspection).
            assert!(fetched.to_tensor().data().iter().all(|&v| v == q as f32));
        });
        seen
    });
    for (rank, o) in out.iter().enumerate() {
        let expect: Vec<usize> = (0..world).map(|r| (rank + r) % world).collect();
        assert_eq!(o.result, expect, "rotation order for rank {rank}");
    }
}

#[test]
fn fetch_rounds_with_prefetch_same_payloads() {
    let world = 3;
    let (_, graphs) = setup(world, 1);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::from_shared(Rc::new(ctx), Arc::clone(&graphs[rank]), 1);
        let data = Tensor::full(&[w.graph.num_local(), 1], rank as f32 + 1.0);
        let mut sums = 0.0f32;
        w.fetch_rounds(&data, |q, fetched| {
            let block = fetched.to_tensor();
            sums += block.sum();
            assert!(block.data().iter().all(|&v| v == q as f32 + 1.0));
        });
        sums
    });
    assert!(out.iter().all(|o| o.result.is_finite()));
}

#[test]
fn exchange_grads_routes_to_owners() {
    // Worker p produces a gradient block of constant value (p+1) for every
    // peer; each owner must accumulate Σ over contributing peers at
    // exactly its served rows.
    let world = 3;
    let (_, graphs) = setup(world, 2);
    let graphs_outer = Arc::new(graphs);
    let graphs = Arc::clone(&graphs_outer);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let grad = w.exchange_grads(1, |q| {
            Tensor::full(&[w.graph.needed_from(q).len(), 1], rank as f32 + 1.0)
        });
        grad.into_data()
    });
    // Verify against a directly computed expectation.
    for (p, o) in out.iter().enumerate() {
        let shard = &graphs_outer[p];
        let mut expect = vec![0.0f32; shard.num_local()];
        for q in 0..world {
            for &row in shard.serves_to(q) {
                expect[row as usize] += q as f32 + 1.0;
            }
        }
        assert_eq!(o.result, expect, "worker {p} gradient routing");
    }
}

#[test]
fn model_replicas_are_identical_across_workers() {
    let world = 3;
    let (_, graphs) = setup(world, 3);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let _w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let model = DistModel::new(&ModelConfig {
            arch: Arch::Gat {
                head_dim: 4,
                heads: 2,
            },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 10,
            num_classes: 3,
            dropout: 0.0,
            batch_norm: true,
            jumping_knowledge: false,
            seed: 42,
        });
        // Fingerprint all parameters.
        model
            .params()
            .iter()
            .map(|p| p.value().data().iter().sum::<f32>())
            .collect::<Vec<f32>>()
    });
    for o in &out[1..] {
        assert_eq!(o.result, out[0].result, "replicas must be bit-identical");
    }
}

#[test]
fn tags_stay_aligned_across_interleaved_protocols() {
    // Two consecutive fetch_rounds plus an exchange_grads must not
    // cross-talk even though they share the channel.
    let world = 4;
    let (_, graphs) = setup(world, 4);
    let graphs = Arc::new(graphs);
    let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
        let rank = ctx.rank();
        let w = Worker::new(ctx, Arc::clone(&graphs[rank]));
        let a = Tensor::full(&[w.graph.num_local(), 1], 1.0);
        let b = Tensor::full(&[w.graph.num_local(), 1], 2.0);
        let mut ok = true;
        w.fetch_rounds(&a, |_, f| {
            ok &= f.to_tensor().data().iter().all(|&v| v == 1.0);
        });
        w.fetch_rounds(&b, |_, f| {
            ok &= f.to_tensor().data().iter().all(|&v| v == 2.0);
        });
        let g = w.exchange_grads(1, |q| Tensor::full(&[w.graph.needed_from(q).len(), 1], 3.0));
        ok && g.data().iter().all(|&v| v == 0.0 || v % 3.0 == 0.0)
    });
    assert!(out.iter().all(|o| o.result));
}
