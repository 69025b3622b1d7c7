//! Per-rank driver for real multi-process training over the TCP
//! transport.
//!
//! The in-process paths ([`sar_core::train`]) hand every worker an
//! `Arc` of the shared dataset. Across OS processes nothing is shared,
//! so the contract here is *determinism instead of sharing*: a
//! [`Workload`] captures every knob that influences the run, every rank
//! rebuilds the synthetic dataset, the partitioning and the model from
//! those flags, and the training math is bitwise-reproducible — so N
//! independent processes end up with exactly the state the simulated
//! cluster would have handed them (verified end to end by the
//! `transport_parity` integration tests in `sar-core`).
//!
//! [`run_rank`] is the whole per-process lifecycle: rebuild state →
//! rendezvous over a file ([`crate::launcher`]) → mesh via
//! [`TcpTransport`] → [`run_worker`] → gather. The gather ships each
//! rank's [`WorkerSummary`] (losses, accuracies, memory peak, and the
//! full [`CommStats`] ledger) to rank 0 over the data plane itself,
//! using the stats snapshot taken *before* the gather messages so the
//! reported ledgers stay byte-comparable with the simulated backend.

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use sar_comm::{Codec, CommStats, CostModel, Payload, TcpOpts, TcpTransport, WorkerCtx};
use sar_core::{
    run_worker, Arch, DistGraph, EpochRecord, Mode, ModelConfig, Protocol, Shard, TrainConfig,
};
use sar_graph::{datasets, Dataset};
use sar_nn::{CsConfig, LrSchedule};
use sar_partition::{partition, Method, Partitioning};

use crate::report::{RunReport, WorkerProfile};

/// Tag space for the post-training stats gather: above every peer-to-peer
/// view-index tag (`1 << 40` + small offsets) and below the collective
/// tag space (`1 << 62`).
const GATHER_TAG_BASE: u64 = 1 << 61;

/// How long a rank waits on a message before declaring the cluster dead.
const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Everything that defines a training run, expressible as command-line
/// flags so independent processes can rebuild identical state.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Synthetic dataset family: `"products"` or `"papers"`.
    pub dataset: String,
    /// Node count for the synthetic generator.
    pub nodes: usize,
    /// Architecture name: `"sage"`, `"gcn"` or `"gat"`.
    pub arch: String,
    /// Hidden size (per-head dimension for GAT).
    pub hidden: usize,
    /// GAT attention heads.
    pub heads: usize,
    /// Execution mode: `"sar"`, `"sar-fak"` or `"dp"`.
    pub mode: String,
    /// GNN depth.
    pub layers: usize,
    /// Jumping-knowledge skip connections.
    pub jk: bool,
    /// Training epochs.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Dropout probability.
    pub dropout: f32,
    /// Masked label prediction (Shi et al. 2020).
    pub label_aug: bool,
    /// Fraction of training labels fed as input per epoch.
    pub aug_frac: f64,
    /// Run Correct & Smooth after training.
    pub cs: bool,
    /// Pipeline depth of the sequential fetch (`(k+2)/N` memory; 0 =
    /// strictly sequential, 1 = the paper's 3/N prefetch).
    pub prefetch_depth: usize,
    /// Partitioner: `"ml"`, `"random"`, `"range"` or `"bfs"`.
    pub partitioner: String,
    /// Learning-rate schedule: `"constant"` or `"step"` (the paper's
    /// thirds-of-training step decay).
    pub schedule: String,
    /// RNG seed for the dataset, the partitioner and training.
    pub seed: u64,
    /// Intra-worker kernel threads (`sar_tensor::pool`). Results are
    /// bitwise identical across thread counts.
    pub threads: usize,
    /// SIMD dispatch mode (`sar_tensor::simd`): `"auto"` (use AVX2 when
    /// the CPU has it) or `"scalar"`. Results are bitwise identical
    /// across modes — the scalar fallback mirrors the vector paths'
    /// accumulation order exactly.
    pub simd: String,
    /// Wire codec for compressible payloads: `"raw"`, `"f16"`, `"bf16"`,
    /// `"int8"` or `"delta"`. Negotiated at the TCP rendezvous — every
    /// rank must run the same codec.
    pub codec: String,
    /// Exchange protocol: `"exact"`, `"gradonly"` or `"stale:<r>"`.
    pub protocol: String,
    /// Resident-tensor budget in bytes for the disk tier (`--mem-budget`;
    /// 0 = spilling disabled). Results are bitwise identical at every
    /// budget.
    pub mem_budget: u64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            dataset: "products".into(),
            nodes: 1500,
            arch: "sage".into(),
            hidden: 64,
            heads: 4,
            mode: "sar".into(),
            layers: 3,
            jk: false,
            epochs: 3,
            lr: 0.01,
            dropout: 0.3,
            label_aug: true,
            aug_frac: 0.5,
            cs: false,
            prefetch_depth: 0,
            partitioner: "ml".into(),
            schedule: "constant".into(),
            seed: 0,
            threads: 1,
            simd: "auto".into(),
            codec: "raw".into(),
            protocol: "exact".into(),
            mem_budget: 0,
        }
    }
}

impl Workload {
    /// The flags that take no value.
    pub const SWITCHES: [&'static str; 3] = ["--jk", "--no-label-aug", "--cs"];

    /// Serializes the workload into the rank binaries' flags, every field
    /// explicit so child processes never depend on defaults drifting.
    /// [`Workload::from_args`] is the inverse.
    pub fn to_args(&self) -> Vec<String> {
        let mut a: Vec<String> = [
            ("--dataset", self.dataset.clone()),
            ("--nodes", self.nodes.to_string()),
            ("--arch", self.arch.clone()),
            ("--hidden", self.hidden.to_string()),
            ("--heads", self.heads.to_string()),
            ("--mode", self.mode.clone()),
            ("--layers", self.layers.to_string()),
            ("--epochs", self.epochs.to_string()),
            ("--lr", self.lr.to_string()),
            ("--dropout", self.dropout.to_string()),
            ("--aug-frac", self.aug_frac.to_string()),
            ("--partitioner", self.partitioner.clone()),
            ("--schedule", self.schedule.clone()),
            ("--seed", self.seed.to_string()),
            ("--threads", self.threads.to_string()),
            ("--simd", self.simd.clone()),
            ("--prefetch-depth", self.prefetch_depth.to_string()),
            ("--codec", self.codec.clone()),
            ("--protocol", self.protocol.clone()),
            ("--mem-budget", self.mem_budget.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect();
        if self.jk {
            a.push("--jk".into());
        }
        if !self.label_aug {
            a.push("--no-label-aug".into());
        }
        if self.cs {
            a.push("--cs".into());
        }
        a
    }

    /// Parses workload flags, starting from [`Workload::default`] — the
    /// inverse of [`Workload::to_args`].
    ///
    /// # Errors
    ///
    /// Names an unknown flag, a missing value or a malformed number.
    pub fn from_args(args: &[String]) -> Result<Workload, String> {
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag} takes a number, not {v}"))
        }
        let mut w = Workload::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--jk" => w.jk = true,
                "--no-label-aug" => w.label_aug = false,
                "--cs" => w.cs = true,
                f => {
                    let v = args
                        .next()
                        .ok_or_else(|| format!("missing value for {f}"))?;
                    match f {
                        "--dataset" => w.dataset = v.clone(),
                        "--nodes" => w.nodes = num(f, v)?,
                        "--arch" => w.arch = v.clone(),
                        "--hidden" => w.hidden = num(f, v)?,
                        "--heads" => w.heads = num(f, v)?,
                        "--mode" => w.mode = v.clone(),
                        "--layers" => w.layers = num(f, v)?,
                        "--epochs" => w.epochs = num(f, v)?,
                        "--lr" => w.lr = num(f, v)?,
                        "--dropout" => w.dropout = num(f, v)?,
                        "--aug-frac" => w.aug_frac = num(f, v)?,
                        "--partitioner" => w.partitioner = v.clone(),
                        "--schedule" => w.schedule = v.clone(),
                        "--seed" => w.seed = num(f, v)?,
                        "--threads" => w.threads = num(f, v)?,
                        "--simd" => w.simd = v.clone(),
                        "--prefetch-depth" => w.prefetch_depth = num(f, v)?,
                        "--codec" => w.codec = v.clone(),
                        "--protocol" => w.protocol = v.clone(),
                        "--mem-budget" => w.mem_budget = num(f, v)?,
                        other => return Err(format!("unknown flag {other}")),
                    }
                }
            }
        }
        Ok(w)
    }

    /// Rebuilds the dataset and partitioning deterministically from the
    /// flags — identical in every process.
    ///
    /// # Errors
    ///
    /// Rejects unknown dataset or partitioner names.
    pub fn build_data(&self, world: usize) -> Result<(Dataset, Partitioning), String> {
        let dataset = match self.dataset.as_str() {
            "products" => datasets::products_like(self.nodes, self.seed),
            "papers" => datasets::papers_like(self.nodes, self.seed),
            other => return Err(format!("unknown dataset {other}")),
        };
        let method = match self.partitioner.as_str() {
            "ml" => Method::Multilevel,
            "random" => Method::Random,
            "range" => Method::Range,
            "bfs" => Method::Bfs,
            other => return Err(format!("unknown partitioner {other}")),
        };
        let part = partition(&dataset.graph, world, method, self.seed);
        Ok((dataset, part))
    }

    /// Builds the [`TrainConfig`] for this workload.
    ///
    /// # Errors
    ///
    /// Rejects unknown architecture, mode or schedule names.
    pub fn train_config(&self, dataset: &Dataset) -> Result<TrainConfig, String> {
        let arch = match self.arch.as_str() {
            "sage" => Arch::GraphSage {
                hidden: self.hidden,
            },
            "gcn" => Arch::Gcn {
                hidden: self.hidden,
            },
            "gat" => Arch::Gat {
                head_dim: self.hidden,
                heads: self.heads,
            },
            other => return Err(format!("unknown arch {other}")),
        };
        let mode = match self.mode.as_str() {
            "sar" => Mode::Sar,
            "sar-fak" => Mode::SarFused,
            "dp" => Mode::DomainParallel,
            other => return Err(format!("unknown mode {other}")),
        };
        let schedule = match self.schedule.as_str() {
            "constant" => LrSchedule::Constant,
            "step" => LrSchedule::StepDecay {
                every: (self.epochs / 3).max(1),
                gamma: 0.5,
            },
            other => return Err(format!("unknown schedule {other}")),
        };
        let codec = Codec::parse(&self.codec)
            .ok_or_else(|| format!("unknown codec {} (raw|f16|bf16|int8|delta)", self.codec))?;
        let protocol = Protocol::parse(&self.protocol)?;
        Ok(TrainConfig {
            model: ModelConfig {
                arch,
                mode,
                layers: self.layers,
                in_dim: 0, // set by the trainer
                num_classes: dataset.num_classes,
                dropout: self.dropout,
                batch_norm: true,
                jumping_knowledge: self.jk,
                seed: self.seed,
            },
            epochs: self.epochs,
            lr: self.lr,
            schedule,
            label_aug: self.label_aug,
            aug_frac: self.aug_frac,
            cs: self.cs.then(CsConfig::default),
            prefetch_depth: self.prefetch_depth,
            seed: self.seed,
            threads: self.threads,
            protocol,
            codec,
            mem_budget: self.mem_budget,
        })
    }
}

/// One rank's results, gathered to rank 0 after training.
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Per-epoch loss / compute / comm / bytes records.
    pub epochs: Vec<EpochRecord>,
    /// Global validation accuracy (identical on every rank).
    pub val_acc: f64,
    /// Global test accuracy.
    pub test_acc: f64,
    /// Test accuracy after Correct & Smooth, if run.
    pub test_acc_cs: Option<f64>,
    /// Steady-state peak live tensor bytes on this rank.
    pub steady_peak_bytes: u64,
    /// The rank's full communication statistics, snapshotted before the
    /// gather itself so its traffic is not part of the ledger.
    pub comm: CommStats,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("worker summary truncated at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encodes a [`WorkerSummary`] for the wire (little-endian, no padding).
pub fn encode_summary(s: &WorkerSummary) -> Vec<u8> {
    let stats = s.comm.to_bytes();
    let mut buf = Vec::with_capacity(64 + 28 * s.epochs.len() + stats.len());
    put_u32(&mut buf, s.epochs.len() as u32);
    for e in &s.epochs {
        put_f32(&mut buf, e.loss);
        put_f64(&mut buf, e.compute_secs);
        put_f64(&mut buf, e.comm_secs);
        put_u64(&mut buf, e.sent_bytes);
    }
    put_f64(&mut buf, s.val_acc);
    put_f64(&mut buf, s.test_acc);
    buf.push(s.test_acc_cs.is_some() as u8);
    put_f64(&mut buf, s.test_acc_cs.unwrap_or(0.0));
    put_u64(&mut buf, s.steady_peak_bytes);
    put_u32(&mut buf, stats.len() as u32);
    buf.extend_from_slice(&stats);
    buf
}

/// Decodes a [`WorkerSummary`] from the wire.
///
/// # Errors
///
/// Rejects truncated or trailing bytes and propagates
/// [`CommStats::from_bytes`] errors.
pub fn decode_summary(buf: &[u8]) -> Result<WorkerSummary, String> {
    let mut c = Cursor { buf, pos: 0 };
    let n_epochs = c.u32()? as usize;
    if n_epochs > 1 << 20 {
        return Err(format!("implausible epoch count {n_epochs}"));
    }
    let mut epochs = Vec::with_capacity(n_epochs);
    for _ in 0..n_epochs {
        epochs.push(EpochRecord {
            loss: c.f32()?,
            compute_secs: c.f64()?,
            comm_secs: c.f64()?,
            sent_bytes: c.u64()?,
        });
    }
    let val_acc = c.f64()?;
    let test_acc = c.f64()?;
    let has_cs = c.u8()? != 0;
    let cs_val = c.f64()?;
    let steady_peak_bytes = c.u64()?;
    let stats_len = c.u32()? as usize;
    let comm = CommStats::from_bytes(c.take(stats_len)?)?;
    if c.pos != buf.len() {
        return Err(format!(
            "worker summary has {} trailing bytes",
            buf.len() - c.pos
        ));
    }
    Ok(WorkerSummary {
        epochs,
        val_acc,
        test_acc,
        test_acc_cs: has_cs.then_some(cs_val),
        steady_peak_bytes,
        comm,
    })
}

/// Assembles rank-indexed summaries into the serializable [`RunReport`],
/// mirroring how [`sar_core::train`] aggregates in-process outcomes:
/// modeled epoch time is `max_p compute + max_p comm`, the global loss
/// and accuracies are taken from rank 0 (every rank reports the same
/// all-reduced values).
pub fn assemble_report(
    experiment: &str,
    arch: &str,
    mode: &str,
    summaries: &[WorkerSummary],
) -> RunReport {
    let epochs = summaries.first().map_or(0, |s| s.epochs.len());
    let mut losses = Vec::with_capacity(epochs);
    let mut epoch_times = Vec::with_capacity(epochs);
    for e in 0..epochs {
        let max_compute = summaries
            .iter()
            .map(|s| s.epochs[e].compute_secs)
            .fold(0.0, f64::max);
        let max_comm = summaries
            .iter()
            .map(|s| s.epochs[e].comm_secs)
            .fold(0.0, f64::max);
        epoch_times.push(max_compute + max_comm);
        losses.push(summaries[0].epochs[e].loss);
    }
    RunReport {
        experiment: experiment.into(),
        arch: arch.into(),
        mode: mode.into(),
        world: summaries.len(),
        losses,
        epoch_times,
        val_acc: summaries.first().map_or(0.0, |s| s.val_acc),
        test_acc: summaries.first().map_or(0.0, |s| s.test_acc),
        test_acc_cs: summaries.first().and_then(|s| s.test_acc_cs),
        // Rank 0's own process pool; the other ranks' pools live in their
        // processes and are not gathered.
        buffer_pool: Some(sar_comm::buffer::pool_stats()),
        workers: summaries
            .iter()
            .enumerate()
            .map(|(rank, s)| WorkerProfile::from_stats(rank, s.steady_peak_bytes as usize, &s.comm))
            .collect(),
    }
}

/// Per-process options that are *not* part of the (shared) workload.
#[derive(Debug, Clone)]
pub struct RankOpts {
    /// This process's rank.
    pub rank: usize,
    /// Total rank count.
    pub world: usize,
    /// File through which rank 0 publishes its rendezvous address.
    pub rendezvous_file: PathBuf,
    /// How long non-zero ranks poll for the rendezvous file.
    pub rendezvous_timeout: Duration,
    /// Experiment label for the assembled report.
    pub experiment: String,
}

/// The whole per-process lifecycle: rebuild dataset/partition/model from
/// the workload flags, form the TCP mesh, train, gather. Returns the
/// assembled report on rank 0, `None` elsewhere.
///
/// # Errors
///
/// Flag, rendezvous and transport errors, each naming this rank.
pub fn run_rank(opts: &RankOpts, workload: &Workload) -> Result<Option<RunReport>, String> {
    let rank = opts.rank;
    if rank >= opts.world {
        return Err(format!(
            "--rank {rank} out of range for --world {}",
            opts.world
        ));
    }
    let simd_mode = sar_tensor::simd::parse_mode(&workload.simd)
        .ok_or_else(|| format!("unknown --simd {} (auto|scalar)", workload.simd))?;
    sar_tensor::simd::set_mode(simd_mode);
    let (dataset, part) = workload.build_data(opts.world)?;
    let cfg = workload.train_config(&dataset)?;
    let graph = Arc::new(DistGraph::build_all(&dataset.graph, &part).swap_remove(rank));
    let shard = Shard::build_all(&dataset, &part).swap_remove(rank);

    // The wire codec is negotiated at the rendezvous: every rank
    // advertises it in its hello and rank 0 rejects mismatches, so a
    // heterogeneous launch fails fast with a named diagnostic instead of
    // decoding garbage mid-epoch.
    let tcp_opts = TcpOpts {
        codec: cfg.codec,
        ..TcpOpts::default()
    };
    let transport = if rank == 0 {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| format!("rank 0: cannot bind rendezvous listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("rank 0: cannot read listener address: {e}"))?;
        crate::launcher::write_rendezvous_addr(&opts.rendezvous_file, &addr)
            .map_err(|e| format!("rank 0: cannot write rendezvous file: {e}"))?;
        TcpTransport::host(listener, opts.world, tcp_opts).map_err(|e| format!("rank 0: {e}"))?
    } else {
        let addr =
            crate::launcher::read_rendezvous_addr(&opts.rendezvous_file, opts.rendezvous_timeout)
                .map_err(|e| format!("rank {rank}: {e}"))?;
        TcpTransport::join(addr.as_str(), rank, opts.world, tcp_opts)
            .map_err(|e| format!("rank {rank}: {e}"))?
    };

    let ctx = Rc::new(WorkerCtx::new(
        Box::new(transport),
        CostModel::default(),
        RECV_TIMEOUT,
    ));
    let report = run_worker(Rc::clone(&ctx), graph, &shard, &cfg);

    // Snapshot the stats *before* any gather traffic so the shipped
    // ledgers match what an in-process run of the same program records.
    let summary = WorkerSummary {
        epochs: report.epochs.clone(),
        val_acc: report.val_acc,
        test_acc: report.test_acc,
        test_acc_cs: report.test_acc_cs,
        steady_peak_bytes: report.steady_peak_bytes as u64,
        comm: ctx.stats(),
    };

    // The gather and the final barrier use the fallible context paths:
    // a rank that died mid-protocol turns into an `Err` naming the
    // failing rank, so the process exits nonzero with a diagnostic
    // instead of panicking (or leaving the launcher to time out).
    let out = if rank == 0 {
        let mut summaries = vec![summary];
        for q in 1..opts.world {
            let blob = ctx
                .try_recv(q, GATHER_TAG_BASE + q as u64)
                .map_err(|e| format!("rank 0: gathering summary from rank {q}: {e}"))?
                .try_into_bytes()
                .map_err(|e| format!("rank 0: summary from rank {q}: {e}"))?;
            summaries
                .push(decode_summary(&blob).map_err(|e| format!("gather from rank {q}: {e}"))?);
        }
        Some(assemble_report(
            &opts.experiment,
            &workload.arch,
            &workload.mode,
            &summaries,
        ))
    } else {
        ctx.try_send(
            0,
            GATHER_TAG_BASE + rank as u64,
            Payload::Bytes(encode_summary(&summary)),
        )
        .map_err(|e| format!("rank {rank}: sending summary to rank 0: {e}"))?;
        None
    };
    // Hold every rank until the gather lands, so no process tears down
    // its sockets while a peer is still reading.
    ctx.try_barrier()
        .map_err(|e| format!("rank {rank}: final barrier: {e}"))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> WorkerSummary {
        let mut comm = CommStats::new(2);
        comm.sent_bytes[1] = 123;
        comm.recv_bytes = 456;
        comm.comm_us = 7.5;
        WorkerSummary {
            epochs: vec![
                EpochRecord {
                    loss: 1.25,
                    compute_secs: 0.5,
                    comm_secs: 0.25,
                    sent_bytes: 100,
                },
                EpochRecord {
                    loss: 0.75,
                    compute_secs: 0.4,
                    comm_secs: 0.2,
                    sent_bytes: 90,
                },
            ],
            val_acc: 0.5,
            test_acc: 0.625,
            test_acc_cs: Some(0.75),
            steady_peak_bytes: 4096,
            comm,
        }
    }

    #[test]
    fn summary_codec_round_trips() {
        let s = sample_summary();
        let d = decode_summary(&encode_summary(&s)).unwrap();
        assert_eq!(d.epochs.len(), 2);
        assert_eq!(d.epochs[0].loss.to_bits(), s.epochs[0].loss.to_bits());
        assert_eq!(d.epochs[1].sent_bytes, 90);
        assert_eq!(d.val_acc, 0.5);
        assert_eq!(d.test_acc_cs, Some(0.75));
        assert_eq!(d.steady_peak_bytes, 4096);
        assert_eq!(d.comm.sent_bytes, s.comm.sent_bytes);
        assert_eq!(d.comm.recv_bytes, 456);
    }

    #[test]
    fn summary_codec_rejects_truncation_and_trailing_garbage() {
        let buf = encode_summary(&sample_summary());
        assert!(decode_summary(&buf[..buf.len() - 1]).is_err());
        let mut longer = buf.clone();
        longer.push(0);
        assert!(decode_summary(&longer).is_err());
    }

    #[test]
    fn assemble_report_takes_max_times_and_rank0_metrics() {
        let mut a = sample_summary();
        let mut b = sample_summary();
        a.epochs[0].compute_secs = 1.0;
        b.epochs[0].comm_secs = 2.0;
        b.val_acc = 0.0; // must be ignored: rank 0 wins
        let r = assemble_report("exp", "sage", "sar", &[a, b]);
        assert_eq!(r.world, 2);
        assert_eq!(r.epoch_times[0], 1.0 + 2.0);
        assert_eq!(r.val_acc, 0.5);
        assert_eq!(r.losses.len(), 2);
        assert_eq!(r.workers.len(), 2);
        assert_eq!(r.workers[1].rank, 1);
    }

    #[test]
    fn workload_flags_round_trip_every_field() {
        let wl = Workload {
            dataset: "papers".into(),
            nodes: 777,
            arch: "gat".into(),
            hidden: 8,
            heads: 2,
            mode: "sar-fak".into(),
            layers: 2,
            jk: true,
            epochs: 5,
            lr: 0.025,
            dropout: 0.1,
            label_aug: false,
            aug_frac: 0.25,
            cs: true,
            prefetch_depth: 2,
            partitioner: "bfs".into(),
            schedule: "step".into(),
            seed: 9,
            threads: 4,
            simd: "scalar".into(),
            codec: "int8".into(),
            protocol: "stale:4".into(),
            mem_budget: 1 << 20,
        };
        assert_eq!(Workload::from_args(&wl.to_args()), Ok(wl));
        assert_eq!(
            Workload::from_args(&Workload::default().to_args()),
            Ok(Workload::default())
        );
        let bad = |args: &[&str]| {
            Workload::from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .unwrap_err()
        };
        assert!(bad(&["--nodes", "many"]).contains("--nodes"));
        assert!(bad(&["--bogus", "1"]).contains("unknown flag --bogus"));
        assert!(bad(&["--seed"]).contains("missing value"));
    }

    #[test]
    fn workload_rejects_unknown_codec_and_protocol() {
        let d = datasets::products_like(64, 0);
        let wl = Workload {
            codec: "zstd".into(),
            ..Workload::default()
        };
        assert!(wl.train_config(&d).unwrap_err().contains("codec"));
        let wl = Workload {
            protocol: "stale:0".into(),
            ..Workload::default()
        };
        assert!(wl.train_config(&d).is_err());
    }

    #[test]
    fn workload_rejects_unknown_names() {
        let d = datasets::products_like(64, 0);
        let wl = Workload {
            arch: "transformer".into(),
            ..Workload::default()
        };
        assert!(wl.train_config(&d).is_err());
        let wl = Workload {
            dataset: "citeseer".into(),
            ..Workload::default()
        };
        assert!(wl.build_data(2).is_err());
        let wl = Workload {
            schedule: "cosine".into(),
            ..Workload::default()
        };
        assert!(wl.train_config(&d).is_err());
    }
}
