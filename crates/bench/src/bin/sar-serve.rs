//! `sar-serve` — one OS process per rank for a resident serving cluster.
//!
//! ```text
//! sar-serve --spawn-local N [flags]                # launcher mode
//! sar-serve --rank R --world N --rendezvous-file PATH [flags]
//!
//! workload flags (identical on every rank — each process rebuilds the
//! dataset, partitioning and model deterministically from them; the
//! vocabulary and its parser are shared with sar-worker, and
//! training-only flags are accepted and ignored so one flag list can
//! drive both binaries):
//!   --dataset products|papers    synthetic stand-in        (products)
//!   --nodes N                    stand-in size             (1500)
//!   --arch sage|gcn|gat          model architecture        (sage)
//!   --hidden N                   hidden size / GAT head dim (64)
//!   --heads N                    GAT attention heads       (4)
//!   --mode sar|sar-fak           execution mode            (sar)
//!   --layers N                   GNN depth                 (3)
//!   --no-label-aug               disable masked label prediction
//!   --partitioner ml|random|range|bfs               (ml)
//!   --seed N                                        (0)
//!   --threads N                  intra-rank kernel threads (1)
//!   --simd auto|scalar           SIMD dispatch mode (auto)
//!
//! serving flags:
//!   --checkpoint PATH            parameter checkpoint every rank loads
//!                                (also the engine's reload source);
//!                                without it, the seeded deterministic
//!                                initialization is served
//!   --client-addr-file PATH      rank 0 publishes its client listener
//!                                address here (atomic rename)
//!   --max-batch N                front-end query coalescing bound (32)
//!   --max-delay-us N             coalescing delay, microseconds (2000)
//!   --queue-cap N                bounded job-queue depth        (256)
//!   --cache-rows N               per-rank embedding-cache rows  (4096)
//!
//! other:
//!   --rendezvous-timeout-secs N  poll budget for the rendezvous file (60)
//! ```
//!
//! Serving always runs with dropout 0 and batch normalization off (see
//! `sar_bench::serverun`); `--jk` is rejected by the engine because
//! jumping knowledge needs every layer over every node, defeating the
//! MFG restriction. Rank 0 prints the front-end summary on exit; the
//! cluster leaves when a client sends the Shutdown opcode.

use std::time::Duration;

use sar_bench::launcher::RankCli;
use sar_bench::serverun::{run_serve_rank, ServeRankOpts};
use sar_serve::ServerConfig;

fn fail(msg: &str) -> ! {
    eprintln!("sar-serve: {msg}");
    std::process::exit(2);
}

/// The value of the numeric flag `name`, if given.
fn num<T: std::str::FromStr>(cli: &RankCli, name: &str) -> Option<T> {
    cli.get(name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{name} takes a number, not {v}")))
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("see the doc comment at the top of crates/bench/src/bin/sar-serve.rs");
        std::process::exit(0);
    }
    let own = [
        "--checkpoint",
        "--client-addr-file",
        "--max-batch",
        "--max-delay-us",
        "--queue-cap",
        "--cache-rows",
    ];
    let cli = RankCli::parse(&argv, &own).unwrap_or_else(|e| fail(&e));
    if let Some(n) = cli.spawn_local {
        // The cluster serves until a client requests shutdown, so this
        // mode is only useful with --client-addr-file and an external
        // client.
        eprintln!(
            "[sar-serve] spawning {n} local rank processes ({} / {} on {} nodes) ...",
            cli.workload.arch, cli.workload.mode, cli.workload.nodes
        );
        match cli.spawn_local(n) {
            Ok(()) => {
                eprintln!("[sar-serve] all {n} ranks completed");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("[sar-serve] launch failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let (rank, world, rendezvous_file) = cli.rank_flags().unwrap_or_else(|e| fail(&e));
    let defaults = ServerConfig::default();
    let opts = ServeRankOpts {
        rank,
        world,
        rendezvous_file,
        rendezvous_timeout: cli.rendezvous_timeout,
        checkpoint: cli.get("--checkpoint").map(Into::into),
        client_addr_file: cli.get("--client-addr-file").map(Into::into),
        server: ServerConfig {
            max_batch: num(&cli, "--max-batch").unwrap_or(defaults.max_batch),
            max_delay: num(&cli, "--max-delay-us")
                .map_or(defaults.max_delay, Duration::from_micros),
            queue_cap: num(&cli, "--queue-cap").unwrap_or(defaults.queue_cap),
        },
        cache_rows: num(&cli, "--cache-rows").unwrap_or(4096),
    };

    match run_serve_rank(&opts, &cli.workload) {
        Ok(None) => {} // ranks 1..N: quiesced after the shutdown barrier
        Ok(Some(summary)) => {
            let s = &summary.stats;
            println!(
                "connections {} | requests {} | batches {} | queries {} | \
                 fetch {} B (full-forward ceiling {} B/batch) | cache {}h/{}m",
                summary.connections,
                summary.requests,
                s.batches,
                s.queries,
                s.fetch_bytes,
                s.full_forward_bytes,
                s.cache_hits,
                s.cache_misses
            );
        }
        Err(e) => {
            eprintln!("sar-serve: {e}");
            std::process::exit(1);
        }
    }
}
