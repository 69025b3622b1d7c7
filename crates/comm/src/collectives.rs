//! Collective operations over the simulated cluster.
//!
//! All collectives are SPMD: every worker must call the same collectives
//! in the same order (tags are allocated from a per-worker sequence
//! counter that must stay in lockstep). This mirrors torch.distributed's
//! contract. Every collective is fallible: a dead peer, a timeout or a
//! buffer-length disagreement comes back as a [`TransportError`] naming
//! the peer involved.

use crate::ctx::WorkerCtx;
use crate::message::Payload;
use crate::transport::TransportError;

/// Checks that the buffer `what` received from `peer` holds `expected`
/// values; a disagreement means peers passed different buffer lengths to
/// the same collective.
fn check_len(peer: usize, what: &str, got: &[f32], expected: usize) -> Result<(), TransportError> {
    if got.len() == expected {
        return Ok(());
    }
    Err(TransportError::Corrupt {
        peer,
        detail: format!(
            "{what} carried {} f32s, expected {expected} \
             (peers passed different buffer lengths?)",
            got.len()
        ),
    })
}

impl WorkerCtx {
    /// Sum-all-reduce of an `f32` buffer in place, using a bandwidth-optimal
    /// ring (reduce-scatter followed by all-gather), the same algorithm
    /// family OneCCL uses for large tensors.
    ///
    /// After the call every worker holds the elementwise sum across all
    /// workers.
    ///
    /// # Errors
    ///
    /// [`TransportError::Corrupt`] naming the left ring neighbour if its
    /// chunk length disagrees with this worker's (buffers of different
    /// lengths on different workers); otherwise whatever
    /// [`WorkerCtx::try_send`] / [`WorkerCtx::try_recv`] report.
    pub fn all_reduce_sum(&self, data: &mut [f32]) -> Result<(), TransportError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        let len = data.len();
        let right = (self.rank() + 1) % n;
        let left = (self.rank() + n - 1) % n;
        let chunk = |c: usize| -> std::ops::Range<usize> {
            let c = c % n;
            (c * len / n)..((c + 1) * len / n)
        };

        // Reduce-scatter: after n-1 steps, chunk (rank+1)%n is complete here.
        for step in 0..n - 1 {
            let send_c = chunk(self.rank() + n - step);
            self.try_send(right, tag, Payload::F32(data[send_c].to_vec()))?;
            let recv_c = chunk(self.rank() + n - step - 1);
            let incoming = self.try_recv(left, tag)?.try_into_f32()?;
            check_len(left, "ring chunk", &incoming, recv_c.len())?;
            for (d, v) in data[recv_c].iter_mut().zip(incoming) {
                *d += v;
            }
        }
        // All-gather: circulate completed chunks.
        for step in 0..n - 1 {
            let send_c = chunk(self.rank() + 1 + n - step);
            self.try_send(right, tag + (1 << 32), Payload::F32(data[send_c].to_vec()))?;
            let recv_c = chunk(self.rank() + n - step);
            let incoming = self.try_recv(left, tag + (1 << 32))?.try_into_f32()?;
            check_len(left, "ring chunk", &incoming, recv_c.len())?;
            data[recv_c].copy_from_slice(&incoming);
        }
        Ok(())
    }

    /// Sum-all-reduce of one scalar.
    ///
    /// # Errors
    ///
    /// As for [`WorkerCtx::all_reduce_sum`].
    pub fn all_reduce_sum_scalar(&self, x: f32) -> Result<f32, TransportError> {
        let mut buf = [x];
        self.all_reduce_sum(&mut buf)?;
        Ok(buf[0])
    }

    /// Max-all-reduce of one scalar.
    ///
    /// # Errors
    ///
    /// As for [`WorkerCtx::all_gather_f32`], plus
    /// [`TransportError::Corrupt`] naming a peer that contributed other
    /// than one value.
    pub fn all_reduce_max_scalar(&self, x: f32) -> Result<f32, TransportError> {
        let mut max = f32::NEG_INFINITY;
        for (peer, v) in self.all_gather_f32(&[x])?.iter().enumerate() {
            check_len(peer, "max-reduce scalar", v, 1)?;
            max = max.max(v[0]);
        }
        Ok(max)
    }

    /// Gathers each worker's buffer to every worker. Buffers may have
    /// different lengths; the result is indexed by rank.
    ///
    /// # Errors
    ///
    /// Whatever [`WorkerCtx::try_send`] / [`WorkerCtx::try_recv`] report,
    /// or [`TransportError::UnexpectedDtype`] for a non-`F32` payload.
    pub fn all_gather_f32(&self, data: &[f32]) -> Result<Vec<Vec<f32>>, TransportError> {
        let n = self.world_size();
        let tag = self.next_coll_tag();
        for dst in 0..n {
            if dst != self.rank() {
                self.try_send(dst, tag, Payload::F32(data.to_vec()))?;
            }
        }
        (0..n)
            .map(|src| {
                if src == self.rank() {
                    Ok(data.to_vec())
                } else {
                    self.try_recv(src, tag)?.try_into_f32()
                }
            })
            .collect()
    }

    /// Gathers each worker's `u32` buffer to every worker.
    ///
    /// # Errors
    ///
    /// As for [`WorkerCtx::all_gather_f32`], with `U32` payloads.
    pub fn all_gather_u32(&self, data: &[u32]) -> Result<Vec<Vec<u32>>, TransportError> {
        let n = self.world_size();
        let tag = self.next_coll_tag();
        for dst in 0..n {
            if dst != self.rank() {
                self.try_send(dst, tag, Payload::U32(data.to_vec()))?;
            }
        }
        (0..n)
            .map(|src| {
                if src == self.rank() {
                    Ok(data.to_vec())
                } else {
                    self.try_recv(src, tag)?.try_into_u32()
                }
            })
            .collect()
    }

    /// Broadcasts `root`'s buffer to all workers (overwriting theirs).
    ///
    /// # Errors
    ///
    /// On a receiving worker, [`TransportError::Corrupt`] naming `root` if
    /// the broadcast buffer's length differs from this worker's; otherwise
    /// whatever [`WorkerCtx::try_send`] / [`WorkerCtx::try_recv`] report.
    pub fn broadcast_f32(&self, root: usize, data: &mut [f32]) -> Result<(), TransportError> {
        let n = self.world_size();
        if n == 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        if self.rank() == root {
            for dst in 0..n {
                if dst != root {
                    self.try_send(dst, tag, Payload::F32(data.to_vec()))?;
                }
            }
        } else {
            let incoming = self.try_recv(root, tag)?.try_into_f32()?;
            check_len(root, "broadcast", &incoming, data.len())?;
            data.copy_from_slice(&incoming);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, CostModel};

    #[test]
    fn all_reduce_sum_vectors() {
        for n in [1, 2, 3, 4, 7] {
            let out = Cluster::new(n, CostModel::default()).run(move |ctx| {
                let mut data: Vec<f32> = (0..10).map(|i| (ctx.rank() * 10 + i) as f32).collect();
                ctx.all_reduce_sum(&mut data).unwrap();
                data
            });
            // Expected: elementwise sum over ranks.
            let expect: Vec<f32> = (0..10)
                .map(|i| (0..n).map(|r| (r * 10 + i) as f32).sum())
                .collect();
            for o in out {
                assert_eq!(o.result, expect, "world size {n}");
            }
        }
    }

    #[test]
    fn all_reduce_handles_short_buffers() {
        // len < world: some ring chunks are empty.
        let out = Cluster::new(5, CostModel::default()).run(|ctx| {
            let mut data = vec![ctx.rank() as f32 + 1.0];
            ctx.all_reduce_sum(&mut data).unwrap();
            data[0]
        });
        for o in out {
            assert_eq!(o.result, 15.0);
        }
    }

    #[test]
    fn all_gather_collects_by_rank() {
        let out = Cluster::new(3, CostModel::default()).run(|ctx| {
            ctx.all_gather_f32(&vec![ctx.rank() as f32; ctx.rank() + 1])
                .unwrap()
        });
        for o in out {
            assert_eq!(o.result[0], vec![0.0]);
            assert_eq!(o.result[1], vec![1.0, 1.0]);
            assert_eq!(o.result[2], vec![2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_overwrites() {
        let out = Cluster::new(4, CostModel::default()).run(|ctx| {
            let mut data = vec![ctx.rank() as f32; 3];
            ctx.broadcast_f32(2, &mut data).unwrap();
            data
        });
        for o in out {
            assert_eq!(o.result, vec![2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn max_scalar() {
        let out = Cluster::new(4, CostModel::default())
            .run(|ctx| ctx.all_reduce_max_scalar(-(ctx.rank() as f32)).unwrap());
        for o in out {
            assert_eq!(o.result, 0.0);
        }
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        use crate::Payload;
        let out = Cluster::new(2, CostModel::default()).run(|ctx| {
            // Fire a p2p message first, run a collective, then receive —
            // the tag matcher must keep them apart.
            let peer = 1 - ctx.rank();
            ctx.try_send(peer, 7, Payload::F32(vec![ctx.rank() as f32]))
                .unwrap();
            let s = ctx.all_reduce_sum_scalar(1.0).unwrap();
            let p = ctx.try_recv(peer, 7).unwrap().try_into_f32().unwrap();
            (s, p[0])
        });
        assert_eq!(out[0].result, (2.0, 1.0));
        assert_eq!(out[1].result, (2.0, 0.0));
    }

    #[test]
    fn length_mismatch_is_a_corrupt_error_naming_the_peer() {
        use crate::TransportError;
        // Rank r passes 3(r+1) values, so every ring chunk it expects is
        // r+1 long while its left neighbour sends chunks of another
        // length: every rank detects the mismatch on its first receive.
        let out = Cluster::new(3, CostModel::default()).run(|ctx| {
            let mut data = vec![1.0; 3 * (ctx.rank() + 1)];
            ctx.all_reduce_sum(&mut data)
        });
        for o in out {
            let left = (o.rank + 2) % 3;
            match o.result {
                Err(TransportError::Corrupt { peer, detail }) => {
                    assert_eq!(peer, left, "rank {}: {detail}", o.rank);
                    assert!(detail.contains("different buffer lengths"), "{detail}");
                }
                other => panic!("rank {}: expected Corrupt, got {other:?}", o.rank),
            }
        }
        // Broadcast: every receiver names the root; the root, which
        // receives nothing, cannot see the disagreement.
        let out = Cluster::new(3, CostModel::default()).run(|ctx| {
            let mut data = vec![0.0; ctx.rank() + 1];
            ctx.broadcast_f32(0, &mut data)
        });
        for o in out {
            match (o.rank, o.result) {
                (0, r) => assert!(r.is_ok(), "root: {r:?}"),
                (_, Err(TransportError::Corrupt { peer: 0, .. })) => {}
                (rank, other) => panic!("rank {rank}: expected Corrupt from root 0, got {other:?}"),
            }
        }
    }
}
