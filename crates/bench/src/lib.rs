#![warn(missing_docs)]

//! Benchmark harness reproducing every table and figure of the SAR paper.
//!
//! Each experiment in [`experiments`] regenerates one table or figure of
//! the paper's evaluation section on the synthetic OGB stand-in datasets
//! (see the workspace DESIGN.md §2 for the substitution rationale):
//!
//! | Paper artifact | Function | `repro` subcommand |
//! |---|---|---|
//! | Table 1 (accuracies) | [`experiments::table1`] | `table1` |
//! | Fig. 2 (fused kernels) | [`experiments::fig2`] | `fig2` |
//! | Fig. 3 (Sage/products) | [`experiments::scaling`] | `fig3` |
//! | Fig. 4 (GAT/products) | [`experiments::scaling`] | `fig4` |
//! | Fig. 5 (Sage/papers) | [`experiments::scaling`] | `fig5` |
//! | Fig. 6 (GAT/papers) | [`experiments::scaling`] | `fig6` |
//! | §3.4 prefetching | [`experiments::ablation_prefetch`] | `ablation-prefetch` |
//! | §3.4 stable softmax | [`experiments::ablation_softmax`] | `ablation-softmax` |
//! | §4.2 METIS choice | [`experiments::ablation_partition`] | `ablation-partition` |
//! | §2 exactness claim | [`experiments::exactness`] | `exactness` |
//!
//! Run everything with `cargo run --release -p sar-bench --bin repro -- all`.
//!
//! Epoch times are modeled as `max_p(compute CPU-seconds) +
//! max_p(simulated α–β communication seconds)`; peak memory is the real
//! per-worker-thread live tensor high-water mark. Default sizes target a
//! small CI machine; scale up with `--nodes`.
//!
//! Beyond the training experiments, four benchmarks gate CI on committed
//! `BENCH_*.json` artifacts through one driver ([`harness`]):
//! [`kernelbench`] times the SAR kernel family over a fixed seeded
//! workload matrix, [`servebench`] measures the serving tier,
//! [`compressbench`] the wire codecs and approximate protocols, and
//! [`outofcorebench`] the disk tier. Every artifact is written and read
//! through the one [`json`] module.
//!
//! Besides the simulated in-process cluster, the harness can run real
//! multi-process training over TCP loopback: [`launcher::Cluster`]
//! spawns one `sar-worker` OS process per rank, [`distrun`] is the per-rank
//! lifecycle (rebuild state from flags → rendezvous → train → gather),
//! and [`smoke`] holds the CI gate's workloads and ledger invariants,
//! shared verbatim between both backends.
//!
//! The serving tier gets the same treatment: [`serverun`] is the
//! per-rank lifecycle of a resident `sar-serve` cluster (rebuild state →
//! load checkpoint → rendezvous → front-end/worker loop), and
//! [`servebench`] drives it with a closed-loop client load.

pub mod compressbench;
pub mod distrun;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod kernelbench;
pub mod launcher;
pub mod outofcorebench;
pub mod report;
pub mod servebench;
pub mod serverun;
pub mod smoke;
