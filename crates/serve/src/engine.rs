//! The per-rank resident serving engine.
//!
//! Every rank constructs a [`ServeEngine`] over its [`DistGraph`]
//! partition, feature shard and checkpoint parameters, then the cluster
//! runs SPMD: rank 0 originates control messages (query batches, feature
//! updates, reloads, shutdown) and every rank — rank 0 included —
//! executes the identical sequence, which keeps the rotation in lockstep
//! without any scheduler.
//!
//! A query batch executes in three phases:
//!
//! 1. **MFG build** — an L-round request exchange. Starting from the
//!    rank's owned query rows at the top level, each round slices one
//!    layer ([`mfg::slice_layer`]), ships the per-peer source-row request
//!    lists, learns which local rows peers will need
//!    (`serve_rows`), and expands to the next-shallower activation row
//!    set ([`mfg::expand_inputs`]). Rows found in the [`EmbedCache`] are
//!    pruned before slicing, shrinking every level below them.
//! 2. **Restricted rotation forward** — per level, the projected
//!    features `z` are computed over exactly the planned activation
//!    rows; every peer's requested rows are gathered and sent first,
//!    then blocks are consumed in the training rotation's order
//!    (`q = p, p+1, …`): the local block through the fused
//!    indexed kernels, remote blocks straight from the wire buffer —
//!    the same kernels, in the same per-row ascending-column order, as
//!    full-batch training, which is what makes served logits bitwise
//!    equal to [`infer`](sar_core::infer) rows.
//! 3. **Result gather** — each rank ships `(query position, logits row)`
//!    pairs to rank 0, which assembles the `[Q, C]` response without
//!    needing any partitioning knowledge.
//!
//! Byte accounting: MFG traffic (request lists + fetched rows) is
//! ledgered under [`Phase::ForwardFetch`]; control and result traffic
//! under [`Phase::Collective`]. [`BatchStats`] exposes the measured
//! per-batch fetch volume next to the full-graph rotation's predicted
//! volume — the serving tier's reason to exist is keeping the former
//! strictly below the latter.

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Arc;

use sar_comm::{Payload, Phase, TransportError, WorkerCtx};
use sar_core::mfg::{self, LayerSlice};
use sar_core::{checkpoint, DistGraph, DistModel, Mode, ModelConfig, Shard};
use sar_graph::fused::{
    gat_fused_block_forward, gat_fused_block_forward_indexed, gat_twostep_block_forward,
    gat_twostep_block_forward_indexed, OnlineAttnState,
};
use sar_graph::ops;
use sar_tensor::Tensor;

use crate::cache::EmbedCache;
use crate::error::ServeError;
use crate::params::{check_servable, LayerParams, ServeModel};
use crate::proto::{self, Ctrl};

/// Raw model parameters as `(shape, row-major values)` pairs — the form
/// checkpoints load into and the control broadcast ships on reload.
pub type RawParams = Vec<(Vec<usize>, Vec<f32>)>;

/// Base of the serving tag range. Far above the per-epoch training tags,
/// far below the collective range (`1 << 62`), so serving traffic keeps
/// normal phase attribution.
const SERVE_TAG_BASE: u64 = 1 << 42;
/// Tags per batch sequence number; sequence numbers wrap at this span.
const SEQ_SPAN: u64 = 1 << 20;
/// Control broadcast (rank 0 → workers).
const OFF_CTRL: u64 = 0;
/// MFG build request lists, plus the level number.
const OFF_BUILD: u64 = 0x100;
/// Rotation feature blocks, plus the level number.
const OFF_FWD: u64 = 0x200;
/// Result-gather query positions.
const OFF_RES_POS: u64 = 0x300;
/// Result-gather logits rows.
const OFF_RES_VAL: u64 = 0x301;

fn batch_base(seq: u64) -> u64 {
    SERVE_TAG_BASE + (seq % SEQ_SPAN) * SEQ_SPAN
}

/// Static engine configuration, identical on every rank.
#[derive(Debug, Clone)]
pub struct EngineSetup {
    /// Model configuration; `in_dim` is resolved from the shard (plus
    /// label-augmentation channels), so callers may leave it 0.
    pub model_cfg: ModelConfig,
    /// Whether training used label augmentation (must match: it changes
    /// the input width and values).
    pub label_aug: bool,
    /// Embedding-cache row budget (0 disables caching).
    pub cache_rows: usize,
    /// Checkpoint path for [`ServeEngine`] reloads (`None` disables the
    /// reload op).
    pub checkpoint: Option<PathBuf>,
}

/// Per-batch byte accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchStats {
    /// Queried node ids in the batch.
    pub queries: usize,
    /// Measured [`Phase::ForwardFetch`] bytes received this batch (MFG
    /// request lists + fetched feature rows).
    pub fetch_bytes: u64,
    /// The MFG's predicted fetch volume
    /// ([`LayerSlice::predicted_fetch_bytes`] summed over levels).
    pub predicted_bytes: u64,
    /// What one full-graph rotation forward would have fetched
    /// ([`DistGraph::predicted_fetch_bytes`] summed over layers) — the
    /// ceiling MFG-restricted compute must stay strictly below.
    pub full_forward_bytes: u64,
}

/// Cumulative serving counters, encodable for the Stats opcode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Query batches executed.
    pub batches: u64,
    /// Individual node queries answered.
    pub queries: u64,
    /// Cumulative measured ForwardFetch bytes across batches.
    pub fetch_bytes: u64,
    /// Per-batch full-graph fetch prediction (the comparison ceiling).
    pub full_forward_bytes: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache insertions.
    pub cache_inserts: u64,
    /// Cache invalidations.
    pub cache_invalidations: u64,
    /// Cluster size.
    pub world: u64,
}

impl StatsSnapshot {
    /// Flattens to the positional counter list the Stats response carries.
    #[must_use]
    pub fn to_counters(&self) -> Vec<u64> {
        vec![
            self.batches,
            self.queries,
            self.fetch_bytes,
            self.full_forward_bytes,
            self.cache_hits,
            self.cache_misses,
            self.cache_inserts,
            self.cache_invalidations,
            self.world,
        ]
    }

    /// Parses a positional counter list.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if the list is too short.
    pub fn from_counters(counters: &[u64]) -> Result<StatsSnapshot, ServeError> {
        if counters.len() < 9 {
            return Err(ServeError::Protocol(format!(
                "stats block has {} counters, expected 9",
                counters.len()
            )));
        }
        Ok(StatsSnapshot {
            batches: counters[0],
            queries: counters[1],
            fetch_bytes: counters[2],
            full_forward_bytes: counters[3],
            cache_hits: counters[4],
            cache_misses: counters[5],
            cache_inserts: counters[6],
            cache_invalidations: counters[7],
            world: counters[8],
        })
    }
}

/// What one [`ServeEngine::step`] call on a worker rank did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStep {
    /// No control message arrived within the receive timeout.
    Idle,
    /// One control operation was executed.
    Served,
    /// Rank 0 ordered shutdown; the final barrier has completed.
    Shutdown,
}

/// One level of a batch's MFG plan.
struct LevelPlan {
    /// Rows computed at this level, ascending. The rest of `active` is
    /// answered from the cache at assembly time.
    computed: Vec<u32>,
    /// The layer restriction over `computed`.
    slice: LayerSlice,
    /// Rows each peer requested of this rank, per peer.
    serve_rows: Vec<Vec<u32>>,
    /// `computed ∪ cached` — the level's activation row set.
    active: Vec<u32>,
}

struct BatchPlan {
    /// Per level `k`, at index `k - 1`.
    levels: Vec<LevelPlan>,
    /// Input rows (level 0) this rank must gather from its features.
    active0: Vec<u32>,
}

struct Counters {
    batches: u64,
    queries: u64,
    fetch_bytes: u64,
    last: BatchStats,
}

/// The per-rank resident serving core. See the module docs for the
/// batch protocol.
pub struct ServeEngine {
    ctx: WorkerCtx,
    graph: Arc<DistGraph>,
    cfg: ModelConfig,
    model: ServeModel,
    /// Resident `[n_local, in_dim]` input (features ‖ label channels).
    input: Tensor,
    feat_dim: usize,
    num_nodes: usize,
    inv_deg: Tensor,
    inv_sqrt: Tensor,
    cache: EmbedCache,
    checkpoint: Option<PathBuf>,
    seq: u64,
    counters: Counters,
}

impl ServeEngine {
    /// Builds the resident engine for one rank.
    ///
    /// `params` is the checkpoint's raw parameter list in
    /// [`DistModel::params`] order; `num_nodes` the global node count
    /// (for query validation). The configuration's `in_dim` is resolved
    /// from the shard, mirroring [`sar_core::try_infer`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] or [`ServeError::BadCheckpoint`] when
    /// the configuration/checkpoint pair cannot be served.
    pub fn new(
        ctx: WorkerCtx,
        graph: Arc<DistGraph>,
        shard: &Shard,
        num_nodes: usize,
        setup: &EngineSetup,
        params: &[(Vec<usize>, Vec<f32>)],
    ) -> Result<ServeEngine, ServeError> {
        let mut cfg = setup.model_cfg.clone();
        cfg.in_dim = shard.feat_dim
            + if setup.label_aug {
                shard.num_classes
            } else {
                0
            };
        cfg.num_classes = shard.num_classes;
        check_servable(&cfg)?;
        let model = ServeModel::from_raw(&cfg, params)?;

        // Inference-time label augmentation, exactly as `infer` builds it:
        // every training node sees its one-hot label.
        let feats = shard.features_tensor();
        let input = if setup.label_aug {
            let mut aug = Tensor::zeros(&[shard.num_local(), shard.num_classes]);
            for i in 0..shard.num_local() {
                if shard.train_mask[i] {
                    aug.row_mut(i)[shard.labels[i] as usize] = 1.0;
                }
            }
            Tensor::hstack(&[&feats, &aug])
        } else {
            feats
        };

        let n_local = graph.num_local();
        let inv_deg = Tensor::from_vec(&[n_local], graph.inv_in_degree());
        let inv_sqrt = Tensor::from_vec(
            &[n_local],
            graph
                .global_in_degree()
                .iter()
                .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
                .collect(),
        );
        let cache = EmbedCache::new(cfg.layers, setup.cache_rows);
        Ok(ServeEngine {
            ctx,
            graph,
            cfg,
            model,
            input,
            feat_dim: shard.feat_dim,
            num_nodes,
            inv_deg,
            inv_sqrt,
            cache,
            checkpoint: setup.checkpoint.clone(),
            seq: 0,
            counters: Counters {
                batches: 0,
                queries: 0,
                fetch_bytes: 0,
                last: BatchStats::default(),
            },
        })
    }

    /// This rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.graph.rank()
    }

    /// Cluster size.
    #[must_use]
    pub fn world(&self) -> usize {
        self.graph.world()
    }

    /// Global node count.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Base (un-augmented) feature width updates must match.
    #[must_use]
    pub fn feat_dim(&self) -> usize {
        self.feat_dim
    }

    /// Number of output classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.cfg.num_classes
    }

    /// The previous batch's byte accounting.
    #[must_use]
    pub fn last_batch(&self) -> BatchStats {
        self.counters.last
    }

    /// What one full-graph rotation forward would fetch — the ceiling
    /// every MFG batch is measured against.
    #[must_use]
    pub fn full_forward_fetch_bytes(&self) -> u64 {
        self.model
            .specs
            .iter()
            .map(|s| self.graph.predicted_fetch_bytes(s.z_width))
            .sum()
    }

    /// Cumulative serving counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let cs = self.cache.stats();
        StatsSnapshot {
            batches: self.counters.batches,
            queries: self.counters.queries,
            fetch_bytes: self.counters.fetch_bytes,
            full_forward_bytes: self.full_forward_fetch_bytes(),
            cache_hits: cs.hits,
            cache_misses: cs.misses,
            cache_inserts: cs.inserts,
            cache_invalidations: cs.invalidations,
            world: self.world() as u64,
        }
    }

    // ------------------------------------------------------------------
    // Rank-0 entry points
    // ------------------------------------------------------------------

    fn ensure_rank0(&self) -> Result<(), ServeError> {
        if self.rank() == 0 {
            Ok(())
        } else {
            Err(ServeError::Protocol(format!(
                "control op invoked on rank {}, only rank 0 originates",
                self.rank()
            )))
        }
    }

    /// Executes one query batch across the cluster and returns `[Q, C]`
    /// logits in request order. Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueryOutOfRange`] before anything is broadcast;
    /// [`ServeError::Comm`] if the mesh fails mid-batch.
    pub fn execute_query(&mut self, ids: &[u32]) -> Result<(Tensor, BatchStats), ServeError> {
        self.ensure_rank0()?;
        for &id in ids {
            if id as usize >= self.num_nodes {
                return Err(ServeError::QueryOutOfRange {
                    id,
                    nodes: self.num_nodes,
                });
            }
        }
        self.broadcast_ctrl(&Ctrl::Query(ids.to_vec()))?;
        let out = self.apply_ctrl(Ctrl::Query(ids.to_vec()))?.0;
        match out {
            Some(t) => Ok((t, self.counters.last)),
            None => Err(ServeError::Protocol(
                "rank 0 batch produced no result".into(),
            )),
        }
    }

    /// Overwrites one node's input feature row cluster-wide and
    /// invalidates every rank's cache. Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueryOutOfRange`] / [`ServeError::Protocol`] on a
    /// bad node id or width, before anything is broadcast.
    pub fn update_feature(&mut self, node: u32, values: &[f32]) -> Result<(), ServeError> {
        self.ensure_rank0()?;
        if node as usize >= self.num_nodes {
            return Err(ServeError::QueryOutOfRange {
                id: node,
                nodes: self.num_nodes,
            });
        }
        if values.len() != self.feat_dim {
            return Err(ServeError::Protocol(format!(
                "feature update carries {} values, feature width is {}",
                values.len(),
                self.feat_dim
            )));
        }
        let ctrl = Ctrl::Update {
            node,
            values: values.to_vec(),
        };
        self.broadcast_ctrl(&ctrl)?;
        self.apply_ctrl(ctrl)?;
        Ok(())
    }

    /// Reloads parameters from the configured checkpoint path: rank 0
    /// reads and validates the file, then ships the raw values so every
    /// rank installs identical bits (all-or-nothing — a bad file leaves
    /// every rank's resident parameters untouched). Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] / [`ServeError::BadCheckpoint`] /
    /// [`ServeError::Unsupported`], all raised before any broadcast.
    pub fn reload(&mut self) -> Result<(), ServeError> {
        self.ensure_rank0()?;
        let path = self.checkpoint.clone().ok_or_else(|| {
            ServeError::Unsupported("reload without a configured checkpoint path".into())
        })?;
        let params = load_checkpoint_raw(&self.cfg, &path)?;
        // Dry-run the install before broadcasting, so a mismatched file
        // cannot leave ranks divergent.
        ServeModel::from_raw(&self.cfg, &params)?;
        self.broadcast_ctrl(&Ctrl::Reload(params.clone()))?;
        self.apply_ctrl(Ctrl::Reload(params))?;
        Ok(())
    }

    /// Broadcasts shutdown and joins the final barrier. Rank 0 only.
    ///
    /// # Errors
    ///
    /// [`ServeError::Comm`] if the mesh fails.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.ensure_rank0()?;
        self.broadcast_ctrl(&Ctrl::Shutdown)?;
        self.apply_ctrl(Ctrl::Shutdown)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Worker entry point
    // ------------------------------------------------------------------

    /// Waits for (at most one receive-timeout) and executes the next
    /// control operation. Worker ranks only; call in a loop until
    /// [`WorkerStep::Shutdown`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Comm`] on mesh failure (a receive timeout is
    /// [`WorkerStep::Idle`], not an error), [`ServeError::Protocol`] on
    /// an undecodable control message.
    pub fn step(&mut self) -> Result<WorkerStep, ServeError> {
        if self.rank() == 0 {
            return Err(ServeError::Protocol(
                "rank 0 drives the cluster; step() is for worker ranks".into(),
            ));
        }
        match self.poll_ctrl()? {
            None => Ok(WorkerStep::Idle),
            Some(ctrl) => {
                let (_, down) = self.apply_ctrl(ctrl)?;
                if down {
                    Ok(WorkerStep::Shutdown)
                } else {
                    Ok(WorkerStep::Served)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn broadcast_ctrl(&self, ctrl: &Ctrl) -> Result<(), ServeError> {
        let _phase = self.ctx.phase_scope(Phase::Collective);
        let bytes = proto::encode_ctrl(ctrl);
        let tag = batch_base(self.seq) + OFF_CTRL;
        for q in 1..self.world() {
            self.ctx.try_send(q, tag, Payload::Bytes(bytes.clone()))?;
        }
        Ok(())
    }

    fn poll_ctrl(&self) -> Result<Option<Ctrl>, ServeError> {
        let _phase = self.ctx.phase_scope(Phase::Collective);
        match self.ctx.try_recv(0, batch_base(self.seq) + OFF_CTRL) {
            Ok(p) => Ok(Some(proto::decode_ctrl(&p.try_into_bytes()?)?)),
            Err(TransportError::Timeout { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Executes one control operation locally (every rank runs this for
    /// every op — SPMD lockstep). Returns rank 0's batch result and
    /// whether the op was a shutdown.
    fn apply_ctrl(&mut self, ctrl: Ctrl) -> Result<(Option<Tensor>, bool), ServeError> {
        match ctrl {
            Ctrl::Query(ids) => {
                let out = self.run_batch(&ids)?;
                self.seq += 1;
                Ok((out, false))
            }
            Ctrl::Update { node, values } => {
                if let Ok(li) = self.graph.local_nodes().binary_search(&node) {
                    let width = self.input.cols();
                    let row = self.input.row_mut(li);
                    let n = values.len().min(width);
                    row[..n].copy_from_slice(&values[..n]);
                }
                // Any rank's cached activations may transitively depend on
                // the updated node — invalidate everywhere.
                self.cache.invalidate();
                self.seq += 1;
                Ok((None, false))
            }
            Ctrl::Reload(params) => {
                self.model = ServeModel::from_raw(&self.cfg, &params)?;
                self.cache.invalidate();
                self.seq += 1;
                Ok((None, false))
            }
            Ctrl::Shutdown => {
                self.quiesce()?;
                Ok((None, true))
            }
        }
    }

    /// The shutdown barrier: every rank parks here until the whole
    /// rotation has drained, so no rank exits while a peer still expects
    /// service.
    fn quiesce(&self) -> Result<(), ServeError> {
        let _phase = self.ctx.phase_scope(Phase::Collective);
        Ok(self.ctx.try_barrier()?)
    }

    // ------------------------------------------------------------------
    // Batch execution
    // ------------------------------------------------------------------

    fn forward_fetch_recv(&self) -> u64 {
        self.ctx
            .stats()
            .ledger
            .phase_total(Phase::ForwardFetch)
            .recv_bytes
    }

    /// Runs one query batch. Collective — every rank calls with the same
    /// id list. Returns `Some(logits)` on rank 0.
    fn run_batch(&mut self, queries: &[u32]) -> Result<Option<Tensor>, ServeError> {
        let base = batch_base(self.seq);
        let before = self.forward_fetch_recv();

        // Owned query positions: (position in `queries`, local row).
        let local_nodes = self.graph.local_nodes();
        let mut owned: Vec<(u32, u32)> = Vec::new();
        for (pos, gid) in queries.iter().enumerate() {
            if let Ok(li) = local_nodes.binary_search(gid) {
                owned.push((pos as u32, li as u32));
            }
        }
        let mut active: Vec<u32> = owned.iter().map(|&(_, li)| li).collect();
        active.sort_unstable();
        active.dedup();

        let plan = self.build_mfg(&active, base)?;
        let out = self.forward_mfg(&plan, base)?;

        let predicted: u64 = plan
            .levels
            .iter()
            .zip(self.model.specs.iter())
            .map(|(lvl, spec)| {
                lvl.slice
                    .predicted_fetch_bytes(self.graph.rank(), spec.z_width)
            })
            .sum();
        let measured = self.forward_fetch_recv() - before;
        self.counters.batches += 1;
        self.counters.queries += queries.len() as u64;
        self.counters.fetch_bytes += measured;
        self.counters.last = BatchStats {
            queries: queries.len(),
            fetch_bytes: measured,
            predicted_bytes: predicted,
            full_forward_bytes: self.full_forward_fetch_bytes(),
        };

        let top = &plan.levels[self.cfg.layers - 1];
        self.gather_results(queries.len(), &owned, &top.computed, &out, base)
    }

    /// The L-round MFG build exchange (see module docs). Top level is
    /// never cache-pruned — its rows are the batch's answer.
    fn build_mfg(&mut self, query_rows: &[u32], base: u64) -> Result<BatchPlan, ServeError> {
        let g = Arc::clone(&self.graph);
        let (p, world, levels) = (g.rank(), g.world(), self.cfg.layers);
        let _phase = self.ctx.phase_scope(Phase::ForwardFetch);
        let mut plans: Vec<LevelPlan> = Vec::with_capacity(levels);
        let mut active = query_rows.to_vec();
        for k in (1..=levels).rev() {
            let (_cached, computed) = if k < levels {
                self.cache.split(k, &active)
            } else {
                (Vec::new(), active.clone())
            };
            let slice = mfg::slice_layer(&g, &computed);
            let tag = base + OFF_BUILD + k as u64;
            // Send-all-then-receive-all: deadlock-free on both backends.
            for q in 0..world {
                if q != p {
                    self.ctx
                        .try_send(q, tag, Payload::U32(slice.req_rows[q].clone()))?;
                }
            }
            let mut serve_rows = vec![Vec::new(); world];
            for (q, rows) in serve_rows.iter_mut().enumerate() {
                if q != p {
                    *rows = self.ctx.try_recv(q, tag)?.try_into_u32()?;
                }
            }
            let next = mfg::expand_inputs(&g, &slice, &serve_rows);
            plans.push(LevelPlan {
                computed,
                slice,
                serve_rows,
                active,
            });
            active = next;
        }
        plans.reverse();
        Ok(BatchPlan {
            levels: plans,
            active0: active,
        })
    }

    /// The restricted rotation forward over a built plan. Returns the top
    /// level's computed rows (ascending local query rows × classes).
    fn forward_mfg(&mut self, plan: &BatchPlan, base: u64) -> Result<Tensor, ServeError> {
        let g = Arc::clone(&self.graph);
        let (p, world, n_local) = (g.rank(), g.world(), g.num_local());
        let fused = self.cfg.mode == Mode::SarFused;
        let mut h_prev = self.input.gather_rows(&plan.active0);
        let mut prev_rows: &[u32] = &plan.active0;
        let mut out = Tensor::zeros(&[0, self.cfg.num_classes]);

        for k in 1..=self.cfg.layers {
            let lvl = &plan.levels[k - 1];
            let spec = self.model.specs[k - 1];
            let hpos = mfg::position_map(n_local, prev_rows);
            let pos_of = |r: u32| -> Result<u32, ServeError> {
                let v = hpos[r as usize];
                if v == u32::MAX {
                    Err(ServeError::Protocol(format!(
                        "level {k}: row {r} missing from the planned activation set"
                    )))
                } else {
                    Ok(v)
                }
            };
            let dst_map: Vec<u32> = lvl
                .computed
                .iter()
                .map(|&r| pos_of(r))
                .collect::<Result<_, _>>()?;

            // Projected features over every planned activation row — this
            // one matrix serves the local block (indexed kernels), the
            // residual/attention destination paths, and every peer's
            // requested rows.
            let layer = &self.model.layers[k - 1];
            let z = match layer {
                LayerParams::Sage { w_neigh, .. } => h_prev.matmul(w_neigh),
                LayerParams::Gcn { w } => h_prev
                    .matmul(w)
                    .mul_col_broadcast(&gather_scalar(&self.inv_sqrt, prev_rows)),
                LayerParams::Gat { w, .. } => h_prev.matmul(w),
            };
            let zw = spec.z_width;

            let computed_out = {
                let _phase = self.ctx.phase_scope(Phase::ForwardFetch);
                let tag = base + OFF_FWD + k as u64;
                // Ship every peer's requested rows before consuming any
                // block (empty requests still get a framed message,
                // mirroring the training rotation).
                for q in 0..world {
                    if q == p {
                        continue;
                    }
                    let mut buf = Vec::with_capacity(lvl.serve_rows[q].len() * zw);
                    for &r in &lvl.serve_rows[q] {
                        buf.extend_from_slice(z.row(pos_of(r)? as usize));
                    }
                    self.ctx.try_send(q, tag, Payload::F32(buf))?;
                }

                // Consume blocks in the training rotation's order:
                // q = p, p+1, …, p+N-1 (mod N).
                let recv_block = |ctx: &WorkerCtx, q: usize| -> Result<Tensor, ServeError> {
                    let data = ctx.try_recv(q, tag)?.try_into_f32()?;
                    let rows = lvl.slice.req_rows[q].len();
                    if data.len() != rows * zw {
                        return Err(ServeError::Protocol(format!(
                            "level {k}: peer {q} served {} values, expected {}",
                            data.len(),
                            rows * zw
                        )));
                    }
                    Ok(Tensor::from_vec(&[rows, zw], data))
                };
                let local_map: Vec<u32> = lvl.slice.req_rows[p]
                    .iter()
                    .map(|&r| pos_of(r))
                    .collect::<Result<_, _>>()?;

                match layer {
                    LayerParams::Sage { w_res, b_res, .. } => {
                        let mut acc = Tensor::zeros(&[lvl.computed.len(), zw]);
                        for r in 0..world {
                            let q = (p + r) % world;
                            if q == p {
                                ops::spmm_sum_into_indexed(
                                    &lvl.slice.blocks[p],
                                    &z,
                                    &local_map,
                                    &mut acc,
                                );
                            } else {
                                let block = recv_block(&self.ctx, q)?;
                                ops::spmm_sum_into(&lvl.slice.blocks[q], &block, &mut acc);
                            }
                        }
                        let h_dst = h_prev.gather_rows(&dst_map);
                        acc.mul_col_broadcast(&gather_scalar(&self.inv_deg, &lvl.computed))
                            .add(&h_dst.matmul(w_res).add_row_broadcast(b_res))
                    }
                    LayerParams::Gcn { .. } => {
                        let mut acc = Tensor::zeros(&[lvl.computed.len(), zw]);
                        for r in 0..world {
                            let q = (p + r) % world;
                            if q == p {
                                ops::spmm_sum_into_indexed(
                                    &lvl.slice.blocks[p],
                                    &z,
                                    &local_map,
                                    &mut acc,
                                );
                            } else {
                                let block = recv_block(&self.ctx, q)?;
                                ops::spmm_sum_into(&lvl.slice.blocks[q], &block, &mut acc);
                            }
                        }
                        acc.mul_col_broadcast(&gather_scalar(&self.inv_sqrt, &lvl.computed))
                    }
                    LayerParams::Gat { a_dst, a_src, .. } => {
                        let heads = spec.heads;
                        let s_dst = ops::head_project_indexed(&z, &dst_map, a_dst, heads);
                        let mut state = OnlineAttnState::new(lvl.computed.len(), heads, zw / heads);
                        for r in 0..world {
                            let q = (p + r) % world;
                            let block = &lvl.slice.blocks[q];
                            if q == p {
                                let s_src = ops::head_project_indexed(&z, &local_map, a_src, heads);
                                if fused {
                                    gat_fused_block_forward_indexed(
                                        block, &s_dst, &s_src, &z, &local_map, 0.2, &mut state,
                                    );
                                } else {
                                    gat_twostep_block_forward_indexed(
                                        block, &s_dst, &s_src, &z, &local_map, 0.2, &mut state,
                                    );
                                }
                            } else {
                                let zb = recv_block(&self.ctx, q)?;
                                let s_src = ops::head_project(&zb, a_src, heads);
                                if fused {
                                    gat_fused_block_forward(
                                        block, &s_dst, &s_src, &zb, 0.2, &mut state,
                                    );
                                } else {
                                    gat_twostep_block_forward(
                                        block, &s_dst, &s_src, &zb, 0.2, &mut state,
                                    );
                                }
                            }
                        }
                        let (value, _max, _den) = state.finalize_into();
                        if spec.concat {
                            value
                        } else {
                            mean_heads_tensor(&value, heads)
                        }
                    }
                }
            };
            let computed_out = if spec.activation {
                computed_out.map(|x| x.max(0.0))
            } else {
                computed_out
            };

            if k == self.cfg.layers {
                out = computed_out;
                break;
            }

            // Assemble the level's activation matrix from computed and
            // cached rows, then bank the computed rows.
            let mut h = Tensor::zeros(&[lvl.active.len(), spec.out_width]);
            let mut ci = 0usize;
            for (i, &r) in lvl.active.iter().enumerate() {
                if ci < lvl.computed.len() && lvl.computed[ci] == r {
                    h.row_mut(i).copy_from_slice(computed_out.row(ci));
                    ci += 1;
                } else {
                    let row = self.cache.get(k, r).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "level {k}: row {r} vanished from the cache mid-batch"
                        ))
                    })?;
                    h.row_mut(i).copy_from_slice(row);
                }
            }
            for (i, &r) in lvl.computed.iter().enumerate() {
                self.cache.insert(k, r, computed_out.row(i).to_vec());
            }
            h_prev = h;
            prev_rows = &lvl.active;
        }
        Ok(out)
    }

    /// Ships each rank's `(query position, logits row)` pairs to rank 0
    /// and assembles the `[Q, C]` response there.
    fn gather_results(
        &self,
        num_queries: usize,
        owned: &[(u32, u32)],
        sorted_rows: &[u32],
        out: &Tensor,
        base: u64,
    ) -> Result<Option<Tensor>, ServeError> {
        let _phase = self.ctx.phase_scope(Phase::Collective);
        let (p, world, c) = (self.graph.rank(), self.graph.world(), self.cfg.num_classes);
        let mut positions = Vec::with_capacity(owned.len());
        let mut values = Vec::with_capacity(owned.len() * c);
        for &(pos, li) in owned {
            let i = sorted_rows.binary_search(&li).map_err(|_| {
                ServeError::Protocol(format!(
                    "owned query row {li} missing from the batch output"
                ))
            })?;
            positions.push(pos);
            values.extend_from_slice(out.row(i));
        }
        if p != 0 {
            self.ctx
                .try_send(0, base + OFF_RES_POS, Payload::U32(positions))?;
            self.ctx
                .try_send(0, base + OFF_RES_VAL, Payload::F32(values))?;
            return Ok(None);
        }
        let mut result = Tensor::zeros(&[num_queries, c]);
        let mut fill = |positions: &[u32], values: &[f32]| -> Result<(), ServeError> {
            if values.len() != positions.len() * c {
                return Err(ServeError::Protocol(format!(
                    "result block carries {} values for {} positions",
                    values.len(),
                    positions.len()
                )));
            }
            for (j, &pos) in positions.iter().enumerate() {
                if pos as usize >= num_queries {
                    return Err(ServeError::Protocol(format!(
                        "result position {pos} out of range for {num_queries} queries"
                    )));
                }
                result
                    .row_mut(pos as usize)
                    .copy_from_slice(&values[j * c..(j + 1) * c]);
            }
            Ok(())
        };
        fill(&positions, &values)?;
        for q in 1..world {
            let pos = self.ctx.try_recv(q, base + OFF_RES_POS)?.try_into_u32()?;
            let vals = self.ctx.try_recv(q, base + OFF_RES_VAL)?.try_into_f32()?;
            fill(&pos, &vals)?;
        }
        Ok(Some(result))
    }
}

/// Reads a checkpoint file into raw `(shape, values)` pairs by loading it
/// through a throwaway [`DistModel`] (which validates count and shapes).
fn load_checkpoint_raw(cfg: &ModelConfig, path: &std::path::Path) -> Result<RawParams, ServeError> {
    let model = DistModel::new(cfg);
    let params = model.params();
    let file = File::open(path)?;
    checkpoint::load_params(&params, BufReader::new(file))?;
    Ok(params
        .iter()
        .map(|p| (p.shape(), p.value().data().to_vec()))
        .collect())
}

/// Gathers per-row scalars (`[n_local]`) at the given rows.
fn gather_scalar(t: &Tensor, rows: &[u32]) -> Tensor {
    let data = t.data();
    Tensor::from_vec(
        &[rows.len()],
        rows.iter().map(|&r| data[r as usize]).collect(),
    )
}

/// Head-averaging of a `[N, H*D]` matrix to `[N, D]`, replicating the
/// training implementation's accumulation order bitwise (ascending head
/// index, division before accumulation).
// sar-check: deterministic(one-writer-per-row: sequential row loop, heads
// folded in fixed ascending order into a freshly zeroed buffer)
fn mean_heads_tensor(x: &Tensor, heads: usize) -> Tensor {
    let hd = x.cols();
    let d = hd / heads;
    let n = x.rows();
    let mut out = vec![0.0f32; n * d];
    for i in 0..n {
        let row = x.row(i);
        for h in 0..heads {
            for j in 0..d {
                out[i * d + j] += row[h * d + j] / heads as f32;
            }
        }
    }
    Tensor::from_vec(&[n, d], out)
}
