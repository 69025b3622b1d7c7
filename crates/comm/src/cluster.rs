//! Spawning and joining a simulated cluster of worker threads.

use std::sync::Arc;
use std::time::Duration;

use sar_tensor::MemoryTracker;

use crate::ctx::WorkerCtx;
use crate::net::{CommStats, CostModel};
use crate::transport::ChannelTransport;

/// What one worker produced: its closure result plus measurements.
#[derive(Debug, Clone)]
pub struct WorkerOutcome<T> {
    /// The worker's rank.
    pub rank: usize,
    /// Value returned by the worker closure.
    pub result: T,
    /// Communication statistics (bytes, messages, simulated time).
    pub comm: CommStats,
    /// Peak live tensor bytes on this worker's thread during the run.
    pub peak_tensor_bytes: usize,
}

/// A simulated cluster of `n` worker threads.
///
/// [`Cluster::run`] executes one SPMD program: the same closure runs on
/// every worker with its own [`WorkerCtx`]. Results and per-worker
/// measurements come back as [`WorkerOutcome`]s ordered by rank.
///
/// # Example
///
/// ```
/// use sar_comm::{Cluster, CostModel, Payload, TransportError};
///
/// let out = Cluster::new(2, CostModel::default()).run(|ctx| -> Result<u32, TransportError> {
///     let peer = 1 - ctx.rank();
///     ctx.try_send(peer, 0, Payload::U32(vec![ctx.rank() as u32]))?;
///     Ok(ctx.try_recv(peer, 0)?.try_into_u32()?[0])
/// });
/// assert_eq!(out[0].result.as_ref().ok(), Some(&1));
/// assert_eq!(out[1].result.as_ref().ok(), Some(&0));
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    world: usize,
    cost: CostModel,
    recv_timeout: Duration,
}

impl Cluster {
    /// Creates a cluster description with `world` workers and the given
    /// network cost model.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new(world: usize, cost: CostModel) -> Self {
        if world == 0 {
            panic!("cluster needs at least one worker");
        }
        Cluster {
            world,
            cost,
            recv_timeout: Duration::from_secs(300),
        }
    }

    /// Sets how long a blocked `recv` waits before declaring the protocol
    /// dead (default 300 s). Shorten in tests that exercise failure paths.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Number of workers.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Runs `f` on every worker and joins.
    ///
    /// The closure receives this worker's [`WorkerCtx`] *by value*, so SAR
    /// can move it into an `Rc` and let backward-pass tape closures
    /// communicate. Anything `Send` may be returned. Peak tensor memory is
    /// measured from the start of the closure (the worker thread starts
    /// with zero live tensors).
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic after all workers have been
    /// joined. Workers blocked on a peer that panicked fail their `recv`
    /// after the configured timeout, so a single failure tears down the
    /// whole cluster rather than hanging it.
    pub fn run<T, F>(&self, f: F) -> Vec<WorkerOutcome<T>>
    where
        T: Send + 'static,
        F: Fn(WorkerCtx) -> T + Send + Sync + 'static,
    {
        let n = self.world;
        let f = Arc::new(f);
        // Each mesh transport holds a sender clone for every rank, so a
        // worker that finishes early (dropping its transport) never
        // invalidates a peer's in-flight send.
        let mesh = ChannelTransport::mesh(n);

        let mut handles = Vec::with_capacity(n);
        for (rank, transport) in mesh.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let cost = self.cost;
            let timeout = self.recv_timeout;
            let handle = std::thread::Builder::new()
                .name(format!("sar-worker-{rank}"))
                .spawn(move || {
                    let ctx = WorkerCtx::new(Box::new(transport), cost, timeout);
                    let stats = ctx.share_stats();
                    MemoryTracker::reset_peak();
                    let result = f(ctx);
                    let peak = MemoryTracker::stats().peak_bytes;
                    let comm = stats.borrow().clone();
                    WorkerOutcome {
                        rank,
                        result,
                        comm,
                        peak_tensor_bytes: peak,
                    }
                })
                .unwrap_or_else(|e| panic!("failed to spawn worker thread for rank {rank}: {e}"));
            handles.push(handle);
        }

        let mut outcomes = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => panic = panic.or(Some(e)),
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
        outcomes.sort_by_key(|o| o.rank);
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;

    #[test]
    fn single_worker_runs() {
        let out = Cluster::new(1, CostModel::default()).run(|ctx| ctx.rank());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].result, 0);
    }

    #[test]
    fn ring_message_passing() {
        let out = Cluster::new(5, CostModel::default()).run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.world_size();
            let prev = (ctx.rank() + ctx.world_size() - 1) % ctx.world_size();
            ctx.try_send(next, 1, Payload::U32(vec![ctx.rank() as u32]))
                .unwrap();
            ctx.try_recv(prev, 1).unwrap().try_into_u32().unwrap()[0]
        });
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.result as usize, (i + 4) % 5);
        }
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let out = Cluster::new(2, CostModel::default()).run(|ctx| {
            let peer = 1 - ctx.rank();
            ctx.try_send(peer, 10, Payload::F32(vec![1.0])).unwrap();
            ctx.try_send(peer, 20, Payload::F32(vec![2.0])).unwrap();
            // Receive in the opposite order.
            let b = ctx.try_recv(peer, 20).unwrap().try_into_f32().unwrap()[0];
            let a = ctx.try_recv(peer, 10).unwrap().try_into_f32().unwrap()[0];
            (a, b)
        });
        assert_eq!(out[0].result, (1.0, 2.0));
    }

    #[test]
    fn send_to_self_loops_back() {
        let out = Cluster::new(1, CostModel::default()).run(|ctx| {
            ctx.try_send(0, 3, Payload::U32(vec![42])).unwrap();
            ctx.try_recv(0, 3).unwrap().try_into_u32().unwrap()[0]
        });
        assert_eq!(out[0].result, 42);
    }

    #[test]
    fn traffic_is_counted_and_charged() {
        use crate::wire::WIRE_HEADER_LEN;
        let out = Cluster::new(2, CostModel::default()).run(|ctx| {
            let peer = 1 - ctx.rank();
            ctx.try_send(peer, 0, Payload::F32(vec![0.0; 1000]))
                .unwrap();
            ctx.try_recv(peer, 0).unwrap();
        });
        // 4000 payload bytes + the framed-message header.
        let wire = 4000 + WIRE_HEADER_LEN as u64;
        for o in &out {
            assert_eq!(o.comm.total_sent(), wire);
            assert_eq!(o.comm.recv_bytes, wire);
            let expect = CostModel::default().message_cost_us(wire as usize);
            assert!((o.comm.comm_us - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn self_messages_are_free() {
        let out = Cluster::new(1, CostModel::default()).run(|ctx| {
            ctx.try_send(0, 0, Payload::F32(vec![0.0; 100])).unwrap();
            ctx.try_recv(0, 0).unwrap();
        });
        assert_eq!(out[0].comm.comm_us, 0.0);
    }

    #[test]
    fn peak_memory_is_per_worker() {
        use sar_tensor::Tensor;
        let out = Cluster::new(3, CostModel::default()).run(|ctx| {
            // Worker r allocates (r+1) * 100 KiB.
            let rows = (ctx.rank() + 1) * 25_600;
            let t = Tensor::zeros(&[rows, 1]);
            t.sum()
        });
        for (r, o) in out.iter().enumerate() {
            let expect = (r + 1) * 25_600 * 4;
            assert!(
                o.peak_tensor_bytes >= expect && o.peak_tensor_bytes < expect + 4096,
                "rank {r}: peak {} vs expected {expect}",
                o.peak_tensor_bytes
            );
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BEFORE: AtomicUsize = AtomicUsize::new(0);
        let out = Cluster::new(4, CostModel::default()).run(|ctx| {
            BEFORE.fetch_add(1, Ordering::SeqCst);
            ctx.try_barrier().unwrap();
            // After the barrier, all 4 increments must be visible.
            BEFORE.load(Ordering::SeqCst)
        });
        for o in out {
            assert_eq!(o.result, 4);
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = Cluster::new(2, CostModel::default())
            .recv_timeout(Duration::from_millis(200))
            .run(|ctx| {
                if ctx.rank() == 0 {
                    panic!("boom");
                }
            });
    }
}
