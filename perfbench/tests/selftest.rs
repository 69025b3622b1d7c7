//! Self-tests: every workload end to end at a tiny size, and the
//! tracing transport leaving the program's results bit for bit alone.

use std::process::Command;
use std::rc::Rc;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sar_bench::distrun::{assemble_report, WorkerSummary};
use sar_comm::tcp::run_tcp_threads;
use sar_comm::{CostModel, TcpOpts, Transport, WorkerCtx};
use sar_core::{run_worker, DistGraph, Shard};
use sar_perfbench::spec::{self, Scale, WORLD};
use sar_perfbench::trace::{lock, Recorder, TagClass, TracedTransport};

const END_TO_END: [&str; 7] = [
    "setup_s",
    "train_s",
    "peak_rss_mib",
    "final_loss",
    "serve_qps",
    "serve_p50_ms",
    "serve_p90_ms",
];

const PER_LAYER: [&str; 6] = [
    "graph.gen_s",
    "comm.p2p.recv_wait_s",
    "core.run_worker_self_s",
    "core.backward_refetch.cpu_s",
    "serve.cache_hit_ratio",
    "trace.overhead_ratio",
];

/// Runs the benchmark binary at tiny size and returns its exit code and
/// last output line.
fn run_tiny(workload: &str, trace: u8) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

fn assert_tiny_workload(workload: &str) {
    for (trace, names) in [(0, &END_TO_END[..]), (1, &PER_LAYER[..])] {
        let (code, last) = run_tiny(workload, trace);
        assert_eq!(code, Some(0), "{workload} trace {trace}: {last}");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{last}");
        for name in names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload} trace {trace} lacks {name}: {last}"
            );
        }
    }
}

#[test]
fn sage_tcp2_runs_correctly_at_tiny_size() {
    assert_tiny_workload("sage-tcp2");
}

#[test]
fn gat_fak_tcp2_runs_correctly_at_tiny_size() {
    assert_tiny_workload("gat-fak-tcp2");
}

#[test]
fn bad_flags_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}

/// Trains the tiny sage workload on a 2-rank TCP mesh (one thread per
/// rank), with or without the tracing wrapper, and returns the parity
/// digest plus rank 0's p2p send count seen by the wrapper.
fn tcp_digest(traced: bool) -> (String, u64) {
    let spec = spec::spec("sage-tcp2", 9, Scale::Tiny).expect("known workload");
    let train = spec.train.clone();
    let out = run_tcp_threads(WORLD, TcpOpts::default(), move |tcp| {
        let rank = tcp.rank();
        let (dataset, part) = train.build_data(WORLD).expect("data builds");
        let cfg = train.train_config(&dataset).expect("config builds");
        let graph = Arc::new(DistGraph::build_all(&dataset.graph, &part).swap_remove(rank));
        let shard = Shard::build_all(&dataset, &part).swap_remove(rank);
        let rec = Arc::new(Mutex::new(Recorder::new(Instant::now())));
        let transport: Box<dyn Transport> = if traced {
            Box::new(TracedTransport::new(tcp, Arc::clone(&rec)))
        } else {
            Box::new(tcp)
        };
        let ctx = Rc::new(WorkerCtx::new(
            transport,
            CostModel::default(),
            Duration::from_secs(60),
        ));
        let report = run_worker(Rc::clone(&ctx), graph, &shard, &cfg);
        let sends = lock(&rec).take_window().sends(TagClass::P2p).calls;
        let summary = WorkerSummary {
            epochs: report.epochs,
            val_acc: report.val_acc,
            test_acc: report.test_acc,
            test_acc_cs: report.test_acc_cs,
            steady_peak_bytes: report.steady_peak_bytes as u64,
            comm: ctx.stats(),
        };
        // Keep the mesh up until both ranks are done with it.
        ctx.try_barrier().expect("final barrier");
        (summary, sends)
    });
    let sends = out[0].1;
    let summaries: Vec<WorkerSummary> = out.into_iter().map(|(s, _)| s).collect();
    let digest =
        assemble_report("tcp", &spec.train.arch, &spec.train.mode, &summaries).parity_digest();
    (digest, sends)
}

#[test]
fn tracing_wrapper_leaves_the_parity_digest_bitwise_identical() {
    let (plain, plain_sends) = tcp_digest(false);
    let (traced, traced_sends) = tcp_digest(true);
    assert_eq!(plain, traced);
    assert!(plain.contains("losses "));
    assert_eq!(plain_sends, 0, "nothing records without the wrapper");
    assert!(traced_sends > 0, "the wrapper saw the rotation traffic");
}
