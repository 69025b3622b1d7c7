//! Property-based tests of the collectives: the ring all-reduce must
//! equal an elementwise sum for arbitrary buffer lengths and world sizes,
//! and traffic accounting must balance.

use proptest::prelude::*;
use sar_comm::{Cluster, CostModel, Payload, WIRE_HEADER_LEN};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_all_reduce_equals_sum(world in 1usize..7, len in 0usize..40, seed in 0u64..1000) {
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            // Deterministic pseudo-random local buffer per rank.
            let mut data: Vec<f32> = (0..len)
                .map(|i| ((seed + ctx.rank() as u64 * 31 + i as u64 * 7) % 97) as f32)
                .collect();
            ctx.all_reduce_sum(&mut data).unwrap();
            data
        });
        let expect: Vec<f32> = (0..len)
            .map(|i| {
                (0..world)
                    .map(|r| ((seed + r as u64 * 31 + i as u64 * 7) % 97) as f32)
                    .sum()
            })
            .collect();
        for o in out {
            prop_assert_eq!(&o.result, &expect);
        }
    }

    #[test]
    fn broadcast_agrees_for_any_root(world in 1usize..6, root in 0usize..6, len in 1usize..20) {
        let root = root % world;
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let mut data = vec![ctx.rank() as f32; len];
            ctx.broadcast_f32(root, &mut data).unwrap();
            data
        });
        for o in out {
            prop_assert!(o.result.iter().all(|&v| v == root as f32));
        }
    }

    #[test]
    fn sent_and_received_bytes_balance(world in 2usize..6, len in 1usize..50) {
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            // Everyone sends `len` floats to everyone else and receives
            // the same amount back.
            let tag = 5;
            for dst in 0..ctx.world_size() {
                if dst != ctx.rank() {
                    ctx.try_send(dst, tag, Payload::F32(vec![1.0; len])).unwrap();
                }
            }
            for src in 0..ctx.world_size() {
                if src != ctx.rank() {
                    ctx.try_recv(src, tag).unwrap();
                }
            }
        });
        let total_sent: u64 = out.iter().map(|o| o.comm.total_sent()).sum();
        let total_recv: u64 = out.iter().map(|o| o.comm.recv_bytes).sum();
        prop_assert_eq!(total_sent, total_recv);
        // Each message carries `len` floats plus the framed-wire header.
        prop_assert_eq!(
            total_sent as usize,
            world * (world - 1) * (len * 4 + WIRE_HEADER_LEN)
        );
    }

    #[test]
    fn all_gather_round_trips_rank_data(world in 1usize..6, len in 0usize..20) {
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            ctx.all_gather_f32(&vec![ctx.rank() as f32; len]).unwrap()
        });
        for o in out {
            for (r, buf) in o.result.iter().enumerate() {
                prop_assert_eq!(buf.len(), len);
                prop_assert!(buf.iter().all(|&v| v == r as f32));
            }
        }
    }
}
