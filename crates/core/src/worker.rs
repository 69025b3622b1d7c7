//! The per-worker handle tying together communication, the local graph
//! shard, and the rotation-schedule feature exchange at the heart of SAR.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use sar_comm::{buffer, Payload, Phase, TransportError, WorkerCtx};
use sar_tensor::tier::TieredStore;
use sar_tensor::Tensor;

use crate::dist_graph::DistGraph;
use crate::plan::{self, FetchStep, GradStep};
use crate::protocol::Protocol;

/// Tags below the collective range, reserved for SAR's point-to-point
/// exchanges.
const P2P_TAG_BASE: u64 = 1 << 40;

/// One partition block handed to the [`Worker::fetch_rounds`] consumer.
///
/// Remote rounds deliver the materialized block received from the wire.
/// The round-0 local block is *not* materialized: the consumer gets the
/// worker's resident feature tensor plus the row table selecting the
/// block's compacted columns, and reads through it with the fused
/// gather+aggregate kernels (`ops::spmm_sum_into_indexed`,
/// `ops::head_project_indexed`, `fused::gat_fused_block_forward_indexed`,
/// …) — the gathered copy earlier revisions staged through the buffer
/// pool never exists, so round 0 contributes zero staged bytes to the
/// fetch-phase watermark.
pub enum FetchedBlock<'a> {
    /// Round 0: the local features, viewed through `rows` (one entry per
    /// block column, each an index into `data`).
    Local {
        /// The worker's resident `[n_local, F]` feature tensor.
        data: &'a Tensor,
        /// Row table selecting the block's compacted columns from `data`.
        rows: &'a [u32],
    },
    /// A remote partition's rows, received and bounds-checked.
    Remote(&'a Tensor),
}

impl FetchedBlock<'_> {
    /// Number of rows in the block (its compacted column count).
    pub fn rows(&self) -> usize {
        match self {
            FetchedBlock::Local { rows, .. } => rows.len(),
            FetchedBlock::Remote(t) => t.rows(),
        }
    }

    /// Feature width of the block.
    pub fn cols(&self) -> usize {
        match self {
            FetchedBlock::Local { data, .. } => data.cols(),
            FetchedBlock::Remote(t) => t.cols(),
        }
    }

    /// Materializes the block as an owned tensor: gathers the local
    /// round's rows, copies a remote block into a pooled buffer. For cold
    /// paths and tests — hot paths consume `Local` in place via the
    /// `*_indexed` kernels.
    pub fn to_tensor(&self) -> Tensor {
        match self {
            FetchedBlock::Local { data, rows } => data.gather_rows(rows),
            FetchedBlock::Remote(t) => {
                // A pooled buffer instead of `Tensor::clone`: steady-state
                // callers stop allocating once the pool is primed.
                let mut buf = buffer::take_f32(t.data().len());
                buf.copy_from_slice(t.data());
                Tensor::from_vec(t.shape(), buf)
            }
        }
    }
}

/// A worker's handle during distributed training: the communication
/// context, this worker's shard, and a tag allocator.
///
/// `Worker` is shared via `Rc` so autograd [`Function`](sar_tensor::Function)s
/// recorded during the forward pass can communicate during the backward
/// pass — the mechanism behind Algorithm 2.
pub struct Worker {
    /// Communication context.
    pub ctx: Rc<WorkerCtx>,
    /// This worker's partition-local graph view.
    pub graph: Arc<DistGraph>,
    /// Pipeline depth `k` of the rotation exchange (§3.4 of the paper):
    /// up to `k` fetched blocks are staged ahead of the one being
    /// aggregated, so communication for later rounds overlaps the current
    /// round's compute. Memory scales as `(k+2)/N` blocks (the local
    /// partition plus the block being consumed plus `k` staged). Depth 0
    /// is the strictly sequential `2/N` path; depth 1 is the paper's
    /// single-block prefetch (`3/N`).
    pub prefetch_depth: usize,
    tags: Cell<u64>,
    /// Exchange protocol (exact by default; see [`Protocol`]).
    protocol: Cell<Protocol>,
    /// Whether the current epoch refreshes remote blocks (always true
    /// outside [`Protocol::Stale`]).
    epoch_fresh: Cell<bool>,
    /// Within-epoch index of the next [`Worker::fetch_rounds`] call —
    /// the key into `stale_cache` (every epoch runs the same SPMD call
    /// sequence, so the index identifies the exchange).
    fetch_call: Cell<usize>,
    /// Per-fetch-call cache of the remote blocks received on the last
    /// refresh epoch, in rotation order `p+1, p+2, …` (the local block is
    /// never cached — it is always read fresh from the resident tensor).
    /// With the disk tier enabled the blocks live in `tier` instead and
    /// each slot only records its round count.
    stale_cache: RefCell<Vec<StaleSlot>>,
    /// The out-of-core disk tier (`--mem-budget`): cached stale blocks
    /// and rematerialization inputs past the budget spill here and fault
    /// back through the same depth-k staging as network prefetches.
    /// `None` (the default) keeps every path byte-identical to the
    /// tier-less code.
    tier: RefCell<Option<TieredStore>>,
    /// Allocator for rematerialization-input block ids in the tier.
    remat_ids: Cell<u64>,
}

/// One fetch call's worth of cached stale-protocol remote blocks.
enum StaleSlot {
    /// Blocks held in RAM (tier disabled), rotation order `p+1, p+2, …`.
    Ram(Vec<Tensor>),
    /// Blocks held by the worker's [`TieredStore`] under
    /// [`stale_block_id`] keys; the slot records only the round count.
    Tiered {
        /// Number of remote rounds cached (`world − 1`).
        rounds: usize,
    },
}

/// Tier key of the stale-cache block fetched in `round` of fetch call
/// `call`. Bit 63 namespaces stale blocks away from remat-input ids.
fn stale_block_id(call: usize, round: usize) -> u64 {
    (1 << 63) | ((call as u64) << 24) | round as u64
}

impl Worker {
    /// Wraps a communication context and shard into a shared handle
    /// (pipeline depth 0 — the strictly sequential exchange).
    pub fn new(ctx: WorkerCtx, graph: Arc<DistGraph>) -> Rc<Worker> {
        Worker::from_shared(Rc::new(ctx), graph, 0)
    }

    /// Builds a worker with pipeline depth `prefetch_depth` over an
    /// already-shared communication context. The caller keeps its `Rc`
    /// clone, e.g. to read the context's statistics (or gather them over
    /// the transport) after training consumed the worker.
    pub fn from_shared(
        ctx: Rc<WorkerCtx>,
        graph: Arc<DistGraph>,
        prefetch_depth: usize,
    ) -> Rc<Worker> {
        Rc::new(Worker {
            ctx,
            graph,
            prefetch_depth,
            tags: Cell::new(0),
            protocol: Cell::new(Protocol::Exact),
            epoch_fresh: Cell::new(true),
            fetch_call: Cell::new(0),
            stale_cache: RefCell::new(Vec::new()),
            tier: RefCell::new(None),
            remat_ids: Cell::new(0),
        })
    }

    /// Wraps an *already shared* communication context with another graph
    /// view. Used when one worker thread operates over several distributed
    /// structures at once (e.g. the per-offset shift graphs of
    /// [`spatial::DistConv1d`](crate::spatial::DistConv1d)); tag spaces
    /// start at distinct bases per view so their exchanges cannot collide.
    ///
    /// `view_index` must be assigned identically on every rank.
    pub fn with_shared_ctx(
        ctx: Rc<WorkerCtx>,
        graph: Arc<DistGraph>,
        view_index: u64,
    ) -> Rc<Worker> {
        let w = Worker::from_shared(ctx, graph, 0);
        // Disjoint tag sub-spaces per view (2^20 tags each).
        w.tags.set(view_index << 20);
        w
    }

    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Cluster size.
    pub fn world(&self) -> usize {
        self.ctx.world_size()
    }

    /// Allocates the next point-to-point tag. Relies on SPMD execution:
    /// all workers allocate tags in the same order.
    pub fn next_tag(&self) -> u64 {
        let t = self.tags.get();
        self.tags.set(t + 1);
        P2P_TAG_BASE + t
    }

    /// The exchange protocol this worker currently runs under.
    pub fn protocol(&self) -> Protocol {
        self.protocol.get()
    }

    /// Enables the out-of-core disk tier with a resident-byte budget
    /// (`--mem-budget`). Cached stale-protocol blocks and
    /// rematerialization inputs past the budget spill to an mmap-backed
    /// temp file and fault back through the depth-k staging pipeline;
    /// results are bitwise identical at any budget. `0` disables tiering
    /// and drops any spilled state.
    ///
    /// # Panics
    ///
    /// Panics (naming this rank) if the spill arena cannot be created —
    /// a setup-time environment failure, not a training-path error.
    pub fn set_mem_budget(&self, budget_bytes: u64) {
        if budget_bytes == 0 {
            *self.tier.borrow_mut() = None;
            return;
        }
        match TieredStore::new(budget_bytes) {
            Ok(store) => *self.tier.borrow_mut() = Some(store),
            Err(e) => panic!(
                "worker {}: creating spill tier (budget {budget_bytes} bytes): {e}",
                self.rank()
            ),
        }
    }

    /// Whether the disk tier is active.
    pub fn tier_enabled(&self) -> bool {
        self.tier.borrow().is_some()
    }

    /// Inserts a block into the tier (spilling coldest past the budget).
    ///
    /// # Panics
    ///
    /// Panics (naming this rank) if the tier is disabled or spill IO
    /// fails.
    pub(crate) fn tier_put(&self, id: u64, t: Tensor, what: &str) {
        let mut tier = self.tier.borrow_mut();
        let Some(store) = tier.as_mut() else {
            panic!(
                "worker {}: tier_put({what}) with the disk tier disabled",
                self.rank()
            );
        };
        if let Err(e) = store.put(id, t) {
            panic!("worker {}: spilling {what}: {e}", self.rank());
        }
    }

    /// Removes a block from the tier, faulting from disk if spilled.
    ///
    /// # Panics
    ///
    /// Panics (naming this rank) if the tier is disabled, the id is
    /// absent, or fault IO fails.
    pub(crate) fn tier_take(&self, id: u64, what: &str) -> Tensor {
        let mut tier = self.tier.borrow_mut();
        let Some(store) = tier.as_mut() else {
            panic!(
                "worker {}: tier_take({what}) with the disk tier disabled",
                self.rank()
            );
        };
        match store.take(id) {
            Ok(t) => t,
            Err(e) => panic!("worker {}: faulting {what}: {e}", self.rank()),
        }
    }

    /// Quietly removes a block from the tier if present (cleanup paths:
    /// a recorded-but-never-run backward, slot overwrite). IO errors are
    /// ignored — the block is being discarded anyway.
    pub(crate) fn tier_discard(&self, id: u64) {
        if let Some(store) = self.tier.borrow_mut().as_mut() {
            if store.contains(id) {
                let _ = store.take(id);
            }
        }
    }

    /// Allocates a fresh rematerialization-input block id.
    pub(crate) fn next_remat_id(&self) -> u64 {
        let id = self.remat_ids.get();
        self.remat_ids.set(id + 1);
        id
    }

    /// Drops every block the tier holds (stale cache invalidation). No-op
    /// when the tier is disabled.
    ///
    /// # Panics
    ///
    /// Panics (naming this rank) on tier IO failure.
    fn tier_clear(&self) {
        if let Some(store) = self.tier.borrow_mut().as_mut() {
            if let Err(e) = store.clear() {
                panic!("worker {}: clearing spill tier: {e}", self.rank());
            }
        }
    }

    /// Switches the exchange protocol. Must be invoked identically on
    /// every rank (SPMD) — a rank skipping sends its peer still expects
    /// would deadlock the rotation. Clears any cached stale blocks and
    /// resets the epoch state, so the next exchange starts fresh.
    pub fn set_protocol(&self, protocol: Protocol) {
        self.protocol.set(protocol);
        self.epoch_fresh.set(true);
        self.fetch_call.set(0);
        self.stale_cache.borrow_mut().clear();
        // Tiered stale blocks are invalidated with the cache. No remat
        // state is live at a protocol switch (it exists only between one
        // forward and its backward), so a full clear is safe.
        self.tier_clear();
    }

    /// Declares an epoch boundary for the staleness protocol: resets the
    /// within-epoch fetch-call counter, and — when `refresh` is true —
    /// drops the cached remote blocks so this epoch's exchanges fetch
    /// fresh data and repopulate the cache. Under [`Protocol::Stale`] the
    /// trainer passes `refresh = (epoch % r == 0)`; other protocols
    /// ignore staleness and any `refresh` value is fine.
    pub fn begin_epoch(&self, refresh: bool) {
        self.fetch_call.set(0);
        self.epoch_fresh.set(refresh);
        if refresh {
            self.stale_cache.borrow_mut().clear();
            self.tier_clear();
        }
    }

    /// The ranks this worker exchanges gradient blocks with during error
    /// routing, in receive order `p, p−1, …` — every rank under the exact
    /// and stale protocols (error routing stays exact under staleness),
    /// only this rank under [`Protocol::GradOnly`]. Callers that hand-roll
    /// a routing loop (the GAT backward pass) iterate this instead of
    /// `0..world()` so approximate protocols never wait on a gradient
    /// block no peer will send.
    pub fn grad_route_partners(&self) -> Vec<usize> {
        let n = self.world();
        let p = self.rank();
        match self.protocol.get() {
            Protocol::GradOnly => vec![p],
            Protocol::Exact | Protocol::Stale(_) => (0..n).map(|r| (p + n - r) % n).collect(),
        }
    }

    /// Gathers `rows` of `data` into a pooled buffer — the shared gather
    /// kernel of the serve path and the round-0 local block. The
    /// destination comes from the process-wide buffer pool, so
    /// steady-state rounds stop allocating once the pool is primed.
    fn gather_pooled(data: &Tensor, rows: &[usize], cols: usize) -> Vec<f32> {
        let src = data.data();
        let mut buf = buffer::take_f32(rows.len() * cols);
        for (out, &r) in buf.chunks_exact_mut(cols).zip(rows) {
            out.copy_from_slice(&src[r * cols..(r + 1) * cols]);
        }
        buf
    }

    /// Serves rows of `data` to worker `dst` under `tag`: gathers the rows
    /// `dst` needs from this worker into a pooled buffer and hands it to
    /// the transport's non-blocking send path (on TCP the frame encode and
    /// socket write run on the destination's writer thread, which recycles
    /// the buffer afterwards). The staging buffer is never registered with
    /// this worker's memory tracker — egress in flight is not resident
    /// state under the paper's accounting.
    // Helper of fetch_rounds, which opens the ForwardFetch/BackwardRefetch
    // scope before any serve.
    // sar-check: allow(phase-scope)
    fn serve(&self, data: &Tensor, dst: usize, tag: u64) {
        let buf = Worker::gather_pooled(data, self.graph.serve_table(dst), data.cols());
        self.ctx
            .try_send(dst, tag, Payload::F32(buf))
            .unwrap_or_else(|e| panic!("worker {} serving rank {dst}: {e}", self.rank()));
    }

    /// Receives one `[rows, cols]` f32 block from worker `src` under
    /// `tag` — the single receive-and-check behind the rotation fetch,
    /// gradient routing and the domain-parallel halo. The received bytes
    /// are registered with *this* worker's memory tracker, as in the
    /// paper's accounting.
    ///
    /// # Errors
    ///
    /// Whatever [`WorkerCtx::try_recv`] reports (timeout, disconnect, …),
    /// plus [`TransportError::Corrupt`] naming `src` if the block arrives
    /// with the wrong dtype or element count — a malformed peer frame
    /// becomes a typed error instead of a process-poisoning panic.
    // Every caller opens its ForwardFetch/BackwardRefetch/GradRouting
    // scope before any receive.
    // sar-check: allow(phase-scope)
    pub fn try_receive_block(
        &self,
        src: usize,
        tag: u64,
        rows: usize,
        cols: usize,
    ) -> Result<Tensor, TransportError> {
        let data = self.ctx.try_recv(src, tag)?.try_into_f32()?;
        if data.len() != rows * cols {
            return Err(TransportError::Corrupt {
                peer: src,
                detail: format!(
                    "block has {} f32 elements, expected {rows} rows × {cols} cols = {}",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Tensor::from_vec(&[rows, cols], data))
    }

    /// The sequential rotation exchange of Algorithm 1, pipelined to depth
    /// `k = prefetch_depth`: fetches each partition's needed rows of
    /// `data`, invoking `consume(q, block)` per partition in the fixed
    /// rank order `p, p+1, …` regardless of arrival order — out-of-order
    /// frames are staged by the communication context and blocks are
    /// accumulated deterministically, so results are bitwise identical at
    /// every depth, thread count, and transport.
    ///
    /// The step sequence — which round serves which peer, how far serves
    /// and fetches run ahead of consumption, and the consumption order —
    /// comes verbatim from [`plan::fetch_steps`], the pure schedule the
    /// `sar-check` protocol verifier proves matched, deadlock-free, and
    /// within the `(k+2)/N` residency bound for every `(N, k)` it sweeps.
    /// This function only binds the plan to tensors and the transport.
    ///
    /// Round `r`: this worker serves partition `(p − r) mod N` and fetches
    /// from partition `(p + r) mod N`; round 0 is the local block,
    /// delivered as [`FetchedBlock::Local`] — no communication and no
    /// gathered copy, the consumer reads the resident features through the
    /// row table via the fused gather+aggregate kernels. Serves are issued
    /// eagerly on the non-blocking send path, and up to `k` fetched blocks
    /// are staged ahead of the one being consumed, so at most `k + 1`
    /// remote blocks are live alongside the local partition ⇒ the
    /// `(k+2)/N` memory bound (2/N at depth 0, the paper's 3/N at
    /// depth 1).
    ///
    /// `data` must have one row per local node.
    ///
    /// # Panics
    ///
    /// Panics if `data` has the wrong number of rows, or if a peer dies or
    /// sends a malformed block mid-exchange.
    pub fn fetch_rounds(&self, data: &Tensor, mut consume: impl FnMut(usize, FetchedBlock<'_>)) {
        let n = self.world();
        let p = self.rank();
        if data.rows() != self.graph.num_local() {
            panic!(
                "worker {p}: fetch_rounds data has {} rows, expected {} local nodes",
                data.rows(),
                self.graph.num_local()
            );
        }
        let cols = data.cols();
        // Tags are allocated unconditionally — approximate protocols skip
        // messages, not tags, so the SPMD tag streams stay aligned across
        // protocol phases (e.g. a stale epoch followed by a refresh).
        let tag = self.next_tag();
        // Ledger the rotation exchange as a forward fetch unless the
        // caller already declared a phase (the GAT backward pass runs this
        // same loop under BackwardRefetch).
        let _phase = (self.ctx.current_phase() == Phase::Other)
            .then(|| self.ctx.phase_scope(Phase::ForwardFetch));

        match self.protocol.get() {
            // Local-subgraph training: the rotation collapses to round 0.
            // Every rank skips the same serves and fetches, so no peer
            // waits on a message that will never come.
            Protocol::GradOnly => {
                consume(
                    p,
                    FetchedBlock::Local {
                        data,
                        rows: self.graph.needed_from(p),
                    },
                );
                return;
            }
            // Stale epoch: zero fetch-phase traffic. The local block is
            // read fresh from the resident tensor; remote blocks replay
            // from the refresh epoch's cache in rotation order — from RAM,
            // or faulted from the disk tier through the same depth-k
            // staging as a network fetch.
            Protocol::Stale(_) if !self.epoch_fresh.get() => {
                let call = self.fetch_call.get();
                self.fetch_call.set(call + 1);
                let tiered = {
                    let cache = self.stale_cache.borrow();
                    match cache.get(call) {
                        Some(StaleSlot::Ram(_)) => false,
                        Some(StaleSlot::Tiered { .. }) => true,
                        None => panic!(
                            "worker {p}: stale epoch fetch call #{call} has no cached \
                             refresh-epoch blocks ({} cached calls) — the SPMD call \
                             sequence diverged from the refresh epoch",
                            cache.len()
                        ),
                    }
                };
                if tiered {
                    self.replay_tiered(call, data, &mut consume);
                    return;
                }
                let cache = self.stale_cache.borrow();
                let Some(StaleSlot::Ram(blocks)) = cache.get(call) else {
                    panic!("worker {p}: stale cache slot #{call} changed kind mid-replay");
                };
                for r in 0..n {
                    let q = (p + r) % n;
                    if r == 0 {
                        consume(
                            q,
                            FetchedBlock::Local {
                                data,
                                rows: self.graph.needed_from(p),
                            },
                        );
                    } else {
                        consume(q, FetchedBlock::Remote(&blocks[r - 1]));
                    }
                }
                return;
            }
            Protocol::Exact | Protocol::Stale(_) => {}
        }
        // Refresh epochs keep each remote block after consumption instead
        // of recycling it, repopulating the cache slot for this call.
        // With the disk tier active, kept blocks go straight into the
        // tiered store (spilling past the budget) instead of RAM.
        let record = matches!(self.protocol.get(), Protocol::Stale(_));
        let tiered = record && self.tier_enabled();
        let call = self.fetch_call.get();
        let mut recorded: Vec<Tensor> = Vec::new();
        if tiered {
            // Re-recording over an existing tiered slot (e.g. a refresh
            // epoch revisiting a call index): drop the old tier blocks
            // before the walk puts new ones under the same ids.
            let old_rounds = match self.stale_cache.borrow().get(call) {
                Some(StaleSlot::Tiered { rounds }) => *rounds,
                _ => 0,
            };
            for r in 1..=old_rounds {
                self.tier_discard(stale_block_id(call, r));
            }
        }

        // Staged blocks, oldest first; the plan bounds the queue to
        // `min(k, n-1) + 1` entries. The local round stages no tensor —
        // `None` marks it and consumption reads `data` in place through
        // the row table. Remote blocks land in pooled buffers and are
        // recycled after consumption, so allocations are reused across
        // rounds, layers and epochs.
        let mut staged: VecDeque<(usize, Option<Tensor>)> = VecDeque::new();
        for step in plan::fetch_steps(n, p, self.prefetch_depth) {
            match step {
                FetchStep::GatherLocal => staged.push_back((p, None)),
                FetchStep::Serve { dst, .. } => self.serve(data, dst, tag),
                FetchStep::Fetch { src, .. } => {
                    let rows = self.graph.needed_from(src).len();
                    let block = self
                        .try_receive_block(src, tag, rows, cols)
                        .unwrap_or_else(|e| {
                            panic!("worker {p} fetching block from rank {src}: {e}")
                        });
                    staged.push_back((src, Some(block)));
                }
                FetchStep::Consume { q } => {
                    let (staged_q, block) = staged.pop_front().unwrap_or_else(|| {
                        panic!("worker {p}: pipeline underrun consuming partition {q}")
                    });
                    debug_assert_eq!(staged_q, q, "plan consumption order diverged");
                    match block {
                        None => consume(
                            q,
                            FetchedBlock::Local {
                                data,
                                rows: self.graph.needed_from(p),
                            },
                        ),
                        Some(block) => {
                            consume(q, FetchedBlock::Remote(&block));
                            if tiered {
                                let round = (q + n - p) % n;
                                self.tier_put(
                                    stale_block_id(call, round),
                                    block,
                                    "stale cache block",
                                );
                            } else if record {
                                recorded.push(block);
                            } else {
                                buffer::recycle_f32(block.into_data());
                            }
                        }
                    }
                }
            }
        }
        if record {
            self.fetch_call.set(call + 1);
            let slot = if tiered {
                StaleSlot::Tiered { rounds: n - 1 }
            } else {
                StaleSlot::Ram(recorded)
            };
            let mut cache = self.stale_cache.borrow_mut();
            if call < cache.len() {
                cache[call] = slot;
            } else {
                cache.push(slot);
            }
        }
    }

    /// Replays fetch call `call` of a stale epoch out of the disk tier,
    /// walking the *same* depth-k schedule as a network exchange
    /// ([`plan::fetch_steps`]) with `Fetch` reinterpreted as a disk fault
    /// and `Serve` as a no-op: up to `k` faulted blocks are staged ahead
    /// of the one being consumed, so `--prefetch-depth` hides disk
    /// latency exactly as it hides network latency, and at most
    /// `min(k, n−1) + 1` staged blocks join the local partition in RAM —
    /// the (K+2)-blocks-in-RAM bound with the remainder on disk that
    /// `sar-check` proves over the full `(N, K)` sweep.
    ///
    /// Consumed blocks return to the tiered store for the next stale
    /// epoch; consumption order is the same fixed rotation as every other
    /// path, so results stay bitwise identical to the untiered replay.
    fn replay_tiered(
        &self,
        call: usize,
        data: &Tensor,
        consume: &mut impl FnMut(usize, FetchedBlock<'_>),
    ) {
        let n = self.world();
        let p = self.rank();
        let mut staged: VecDeque<(usize, Option<Tensor>)> = VecDeque::new();
        for step in plan::fetch_steps(n, p, self.prefetch_depth) {
            match step {
                FetchStep::GatherLocal => staged.push_back((p, None)),
                // A stale epoch is communication-free: nothing to serve.
                FetchStep::Serve { .. } => {}
                FetchStep::Fetch { round, src } => {
                    let block = self.tier_take(stale_block_id(call, round), "stale cache block");
                    staged.push_back((src, Some(block)));
                }
                FetchStep::Consume { q } => {
                    let (staged_q, block) = staged.pop_front().unwrap_or_else(|| {
                        panic!("worker {p}: pipeline underrun replaying partition {q}")
                    });
                    debug_assert_eq!(staged_q, q, "plan consumption order diverged");
                    match block {
                        None => consume(
                            q,
                            FetchedBlock::Local {
                                data,
                                rows: self.graph.needed_from(p),
                            },
                        ),
                        Some(block) => {
                            consume(q, FetchedBlock::Remote(&block));
                            // Back to the store for the next stale epoch.
                            let round = (q + n - p) % n;
                            self.tier_put(stale_block_id(call, round), block, "stale cache block");
                        }
                    }
                }
            }
        }
    }

    /// Scatter-style gradient return: sends one gradient block per peer
    /// (rows aligned with `needed_from(q)`), then accumulates the blocks
    /// received from all peers (rows aligned with `serves_to(q)`) into a
    /// `[num_local, cols]` tensor. This is the error-routing step of
    /// Algorithm 2 (`send error E_{p→q} to worker q`, then
    /// `E_p = Σ_q E_{q→p}`).
    ///
    /// The step sequence comes from [`plan::grad_steps`] — the same pure
    /// schedule the `sar-check` protocol verifier proves matched and
    /// deadlock-free: all sends go out on the non-blocking path before any
    /// receive, so peers' error blocks are in flight while this worker is
    /// still scattering — but accumulation runs in the fixed rank order
    /// `q = (p + n − r) mod N`, so the floating-point sum is bitwise
    /// identical at every pipeline depth and transport.
    ///
    /// `make_block(q)` must return the gradient for the rows fetched from
    /// `q` during the forward pass.
    ///
    /// # Panics
    ///
    /// Panics, naming this rank and the peer, if a peer dies or sends a
    /// malformed gradient block mid-exchange.
    pub fn exchange_grads(
        &self,
        cols: usize,
        mut make_block: impl FnMut(usize) -> Tensor,
    ) -> Tensor {
        let n = self.world();
        let p = self.rank();
        // Allocated even when gradonly skips the exchange — see
        // fetch_rounds on tag-stream alignment.
        let tag = self.next_tag();
        let _phase = self.ctx.phase_scope(Phase::GradRouting);
        let mut grad = Tensor::zeros(&[self.graph.num_local(), cols]);

        if self.protocol.get() == Protocol::GradOnly {
            // Local-subgraph training: only this worker's own error block
            // is accumulated; nothing is routed. Uniform across ranks, so
            // no peer blocks on a missing gradient block.
            let block = make_block(p);
            grad.scatter_add_rows(self.graph.needed_from(p), &block);
            buffer::recycle_f32(block.into_data());
            return grad;
        }

        for step in plan::grad_steps(n, p) {
            match step {
                GradStep::AccumulateLocal => {
                    // Local contribution (no communication).
                    let block = make_block(p);
                    grad.scatter_add_rows(self.graph.needed_from(p), &block);
                    buffer::recycle_f32(block.into_data());
                }
                GradStep::Send { dst } => {
                    let block = make_block(dst);
                    if block.rows() != self.graph.needed_from(dst).len() {
                        panic!(
                            "worker {p}: gradient block for rank {dst} has {} rows, \
                             expected {}",
                            block.rows(),
                            self.graph.needed_from(dst).len()
                        );
                    }
                    self.ctx
                        .try_send(dst, tag, Payload::F32(block.into_data()))
                        .unwrap_or_else(|e| {
                            panic!("worker {p} routing gradients to rank {dst}: {e}")
                        });
                }
                GradStep::Recv { src } => {
                    let rows = self.graph.serves_to(src);
                    let block = self
                        .try_receive_block(src, tag, rows.len(), cols)
                        .unwrap_or_else(|e| {
                            panic!("worker {p} routing gradients from rank {src}: {e}")
                        });
                    grad.scatter_add_rows(rows, &block);
                    buffer::recycle_f32(block.into_data());
                }
            }
        }
        grad
    }
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("rank", &self.rank())
            .field("world", &self.world())
            .field("prefetch_depth", &self.prefetch_depth)
            .finish()
    }
}
