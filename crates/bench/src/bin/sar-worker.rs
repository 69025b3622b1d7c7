//! `sar-worker` — one OS process per rank for real TCP training runs.
//!
//! ```text
//! sar-worker --spawn-local N [workload flags]      # launcher mode
//! sar-worker --rank R --world N --rendezvous-file PATH [workload flags]
//!
//! workload flags (identical on every rank — each process rebuilds the
//! dataset, partitioning and model deterministically from them):
//!   --dataset products|papers    synthetic stand-in        (products)
//!   --nodes N                    stand-in size             (1500)
//!   --arch sage|gcn|gat          model architecture        (sage)
//!   --hidden N                   hidden size / GAT head dim (64)
//!   --heads N                    GAT attention heads       (4)
//!   --mode sar|sar-fak|dp        execution mode            (sar)
//!   --layers N                   GNN depth                 (3)
//!   --jk                         jumping-knowledge skips
//!   --epochs N                   training epochs           (3)
//!   --lr X                       base learning rate        (0.01)
//!   --dropout X                  dropout probability       (0.3)
//!   --no-label-aug               disable masked label prediction
//!   --aug-frac X                 label-augmentation fraction (0.5)
//!   --cs                         Correct & Smooth post-processing
//!   --prefetch-depth K           fetch pipeline depth: (K+2)/N memory,
//!                                0 = sequential, 1 = paper's 3/N (0)
//!   --partitioner ml|random|range|bfs               (ml)
//!   --schedule constant|step     learning-rate schedule (constant)
//!   --seed N                                        (0)
//!   --threads N                  intra-worker kernel threads (1);
//!                                results are bitwise identical
//!                                across thread counts
//!   --simd auto|scalar           SIMD dispatch mode (auto); results
//!                                are bitwise identical across modes
//!   --codec raw|f16|bf16|int8|delta
//!                                wire codec for compressible payloads
//!                                (raw); negotiated at the rendezvous,
//!                                so every rank must agree
//!   --protocol exact|gradonly|stale:<r>
//!                                exchange protocol (exact); approximate
//!                                protocols trade accuracy for wire
//!                                volume, evaluation always runs exact
//!
//! rank-0-only outputs:
//!   --experiment NAME            report label       (<arch>-<mode>)
//!   --out PATH                   write the gathered RunReport JSON
//!   --check smoke                apply the smoke ledger invariants to
//!                                the gathered report; exit 1 on any
//!                                violation
//!   --digest-out PATH            write the run's determinism digest
//!                                (losses + per-worker byte ledgers) for
//!                                cross-thread-count parity checks
//!
//! other:
//!   --rendezvous-timeout-secs N  poll budget for the rendezvous file (60)
//! ```
//!
//! In `--spawn-local N` mode the binary re-execs itself once per rank
//! (via `std::env::current_exe`), wires the ranks together through a
//! fresh rendezvous file in the temp directory, waits for all children,
//! and exits non-zero if any rank does. Rank 0 gathers every rank's
//! per-phase communication ledger over the data plane after training and
//! assembles the same `RunReport` JSON the simulated backend writes.

use sar_bench::distrun::{run_rank, RankOpts};
use sar_bench::harness::write_file;
use sar_bench::launcher::RankCli;
use sar_bench::smoke;

fn fail(msg: &str) -> ! {
    eprintln!("sar-worker: {msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("see the doc comment at the top of crates/bench/src/bin/sar-worker.rs");
        std::process::exit(0);
    }
    let cli = RankCli::parse(&argv, &["--experiment", "--out", "--check", "--digest-out"])
        .unwrap_or_else(|e| fail(&e));
    if let Some(check) = cli.get("--check") {
        if check != "smoke" {
            fail(&format!("unknown --check {check} (only: smoke)"));
        }
    }
    if let Some(n) = cli.spawn_local {
        eprintln!(
            "[sar-worker] spawning {n} local rank processes ({} / {} on {} nodes) ...",
            cli.workload.arch, cli.workload.mode, cli.workload.nodes
        );
        match cli.spawn_local(n) {
            Ok(()) => {
                eprintln!("[sar-worker] all {n} ranks completed");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("[sar-worker] launch failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let (rank, world, rendezvous_file) = cli.rank_flags().unwrap_or_else(|e| fail(&e));
    let experiment = cli.get("--experiment").map_or_else(
        || format!("{}-{}", cli.workload.arch, cli.workload.mode),
        str::to_string,
    );
    let opts = RankOpts {
        rank,
        world,
        rendezvous_file,
        rendezvous_timeout: cli.rendezvous_timeout,
        experiment,
    };

    match run_rank(&opts, &cli.workload) {
        Ok(None) => {} // ranks 1..N: results were shipped to rank 0
        Ok(Some(report)) => {
            smoke::ledger_table(&report).print();
            println!(
                "losses {:?} | val {:.2}% | test {:.2}%",
                report.losses,
                100.0 * report.val_acc,
                100.0 * report.test_acc
            );
            if let Some(path) = cli.get("--out") {
                write_file(path, &report.to_json()).unwrap_or_else(|e| fail(&e));
                eprintln!("[sar-worker] wrote {path}");
            }
            if let Some(path) = cli.get("--digest-out") {
                std::fs::write(path, report.parity_digest())
                    .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                eprintln!("[sar-worker] wrote digest {path}");
            }
            if cli.get("--check") == Some("smoke") {
                let violations = smoke::violations(&report, cli.workload.epochs);
                if !violations.is_empty() {
                    for v in &violations {
                        eprintln!("[sar-worker] smoke VIOLATION: {v}");
                    }
                    std::process::exit(1);
                }
                eprintln!("[sar-worker] smoke: all ledger invariants hold over TCP");
            }
            if report.has_non_finite_loss() {
                eprintln!("sar-worker: training diverged (non-finite loss)");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("sar-worker: {e}");
            std::process::exit(1);
        }
    }
}
