//! One rank of a deployment: an OS process the coordinator spawns.
//!
//! The rank rebuilds its inputs from the workload name and seed, meshes
//! with its peer over TCP, trains with `run_worker`, then serves until a
//! client asks it to shut down. It reports to the coordinator in lines on
//! standard output, each a keyword and its values:
//!
//! ```text
//! hello                    process started
//! addr HOST:PORT           rank 0's rendezvous address (the coordinator
//!                          passes it to rank 1 on standard input)
//! mesh                     the TCP mesh is ready (ends set-up)
//! kv NAME VALUE            a measured number
//! check NAME 0|1 DETAIL    a correctness check this rank ran
//! summary HEX              the encoded training summary
//! serve_addr HOST:PORT     rank 0's serving front-end is listening
//! span NAME START_NS DUR_NS   a recorded span (traced runs)
//! done                     all output written
//! ```
//!
//! The rank exits as soon as its standard input closes, so a coordinator
//! that dies or gives up never leaves it behind.

use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::rc::Rc;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sar_bench::distrun::{encode_summary, WorkerSummary};
use sar_comm::{CostModel, Phase, TcpOpts, TcpTransport, Transport, WorkerCtx};
use sar_core::{run_worker, DistGraph, Shard};
use sar_graph::datasets;
use sar_partition::{partition, Method};
use sar_serve::{serve, worker_loop, EngineSetup, ServeEngine, ServerConfig};

use crate::spec::{self, Scale, WORLD};
use crate::trace::{lock, Recorder, SharedRecorder, TagClass, TracedTransport, Window};

/// How long a rank waits on one message before declaring its peer dead.
const RECV_TIMEOUT: Duration = Duration::from_secs(120);
/// How long rank 1 waits for the rendezvous address.
const ADDR_TIMEOUT: Duration = Duration::from_secs(60);

/// What the coordinator tells a rank.
#[derive(Debug, Clone)]
pub struct RankArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// This rank.
    pub rank: usize,
    /// Wrap the transport and record spans.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

fn emit(line: &str) {
    let mut out = std::io::stdout().lock();
    // A coordinator that stopped reading is gone; the stdin watchdog ends
    // this process.
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn kv(name: &str, value: f64) {
    emit(&format!("kv {name} {value}"));
}

fn check(name: &str, ok: bool, detail: &str) {
    emit(&format!("check {name} {} {detail}", u8::from(ok)));
}

/// Forwards standard-input lines, and exits the process when standard
/// input closes. The thread lives as long as the process, so it is not
/// joined.
fn watch_stdin() -> Receiver<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in std::io::stdin().lock().lines() {
            match line {
                Ok(l) => {
                    let _ = tx.send(l);
                }
                Err(_) => break,
            }
        }
        std::process::exit(3);
    });
    rx
}

/// Runs `f` as span `name`; in traced runs also reports its seconds.
fn stage<T>(rec: Option<&SharedRecorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    if let Some(rec) = rec {
        let end = Instant::now();
        lock(rec).span(name, start, end);
        kv(&format!("{name}_s"), (end - start).as_secs_f64());
    }
    out
}

fn emit_window(prefix: &str, w: &Window) {
    let s = |ns: u64| ns as f64 / 1e9;
    for class in [TagClass::P2p, TagClass::Coll, TagClass::Other] {
        let c = class.label();
        let (send, recv) = (w.sends(class), w.recvs(class));
        kv(&format!("{prefix}.{c}.send_calls"), send.calls as f64);
        kv(&format!("{prefix}.{c}.send_bytes"), send.bytes as f64);
        kv(&format!("{prefix}.{c}.send_s"), s(send.ns));
        kv(&format!("{prefix}.{c}.recv_calls"), recv.calls as f64);
        kv(&format!("{prefix}.{c}.recv_bytes"), recv.bytes as f64);
        kv(&format!("{prefix}.{c}.recv_wait_s"), s(recv.ns));
    }
    kv(&format!("{prefix}.child_s"), s(w.child_ns));
    kv(&format!("{prefix}.covered_s"), s(w.covered_ns));
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The whole life of one rank.
///
/// # Errors
///
/// Any set-up, mesh, training or serving failure, naming the rank.
pub fn run(args: &RankArgs) -> Result<(), String> {
    let origin = Instant::now();
    let rank = args.rank;
    let spec = spec::spec(&args.workload, args.seed, args.scale)?;
    let recorder: Option<SharedRecorder> = args
        .trace
        .then(|| Arc::new(Mutex::new(Recorder::new(origin))));
    let rec = recorder.as_ref();
    let addr_rx = watch_stdin();
    emit("hello");

    let rendezvous = if rank == 0 {
        let l = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| format!("rank 0: cannot bind the rendezvous listener: {e}"))?;
        let addr = l
            .local_addr()
            .map_err(|e| format!("rank 0: cannot read the rendezvous address: {e}"))?;
        emit(&format!("addr {addr}"));
        Some(l)
    } else {
        None
    };
    let simd = sar_tensor::simd::parse_mode(&spec.train.simd)
        .ok_or_else(|| format!("unknown simd mode {}", spec.train.simd))?;
    sar_tensor::simd::set_mode(simd);

    // ---- set-up: graph, partition, shard, mesh ----
    let train = &spec.train;
    let dataset = stage(rec, "graph.gen", || {
        datasets::products_like(train.nodes, train.seed)
    });
    let part = stage(rec, "partition.partition", || {
        partition(&dataset.graph, WORLD, Method::Multilevel, train.seed)
    });
    if rec.is_some() && rank == 0 {
        kv("partition.cut_fraction", part.cut_fraction(&dataset.graph));
    }
    let (graph, shard) = stage(rec, "core.build", || {
        (
            Arc::new(DistGraph::build_all(&dataset.graph, &part).swap_remove(rank)),
            Shard::build_all(&dataset, &part).swap_remove(rank),
        )
    });
    let cfg = train.train_config(&dataset)?;
    let tcp = stage(rec, "comm.mesh", || match rendezvous {
        Some(listener) => TcpTransport::host(listener, WORLD, TcpOpts::default())
            .map_err(|e| format!("rank 0: mesh: {e}")),
        None => {
            let addr = addr_rx
                .recv_timeout(ADDR_TIMEOUT)
                .map_err(|_| format!("rank {rank}: no rendezvous address on stdin"))?;
            TcpTransport::join(addr.trim(), rank, WORLD, TcpOpts::default())
                .map_err(|e| format!("rank {rank}: mesh: {e}"))
        }
    })?;
    emit("mesh");

    // ---- training ----
    let transport: Box<dyn Transport> = match rec {
        Some(r) => Box::new(TracedTransport::new(tcp, Arc::clone(r))),
        None => Box::new(tcp),
    };
    let ctx = Rc::new(WorkerCtx::new(
        transport,
        CostModel::default(),
        RECV_TIMEOUT,
    ));
    let cpu0 = sar_comm::thread_cpu_secs();
    let t0 = Instant::now();
    let report = run_worker(Rc::clone(&ctx), Arc::clone(&graph), &shard, &cfg);
    let t1 = Instant::now();
    kv("train_s", (t1 - t0).as_secs_f64());
    kv("cpu_s", sar_comm::thread_cpu_secs() - cpu0);
    let window = rec.map(|r| {
        let mut r = lock(r);
        r.span("core.run_worker", t0, t1);
        r.take_window()
    });
    let stats = ctx.stats();
    if let Some(w) = &window {
        emit_window("train", w);
        // The wrapper must see exactly the traffic the program's own
        // ledger charged to remote peers: the traced run measures the
        // same program. (Self-sends never reach the transport.)
        let remote: u64 = (0..WORLD)
            .filter(|&q| q != rank)
            .map(|q| stats.sent_bytes[q])
            .sum();
        let coll = stats.ledger.phase_total(Phase::Collective).sent_bytes;
        let (w_p2p, w_coll) = (w.sends(TagClass::P2p).bytes, w.sends(TagClass::Coll).bytes);
        check(
            "wrapper_matches_ledger",
            w_p2p + w_coll == remote && w_coll == coll,
            &format!(
                "rank {rank} wrapper p2p/coll {w_p2p}/{w_coll}, ledger remote {remote} coll {coll}"
            ),
        );
    }
    let pool = sar_comm::buffer::pool_stats();
    kv("pool.hits", pool.hits as f64);
    kv("pool.misses", pool.misses as f64);
    kv("pool.recycle_drops", pool.recycle_drops as f64);

    // Every rotation fetch, refetch and gradient route must move exactly
    // the volume the partition predicts: E+1 forward passes (E epochs
    // and the final evaluation), E backward passes.
    let epochs = cfg.epochs as u64;
    let refetches = if train.arch == "gat" { epochs } else { 0 };
    let mut mismatches = Vec::new();
    for (l, &w) in spec::fetch_widths(train, dataset.num_classes)
        .iter()
        .enumerate()
    {
        let layer = Some(l as u16);
        let cells = [
            (
                Phase::ForwardFetch,
                (epochs + 1) * graph.predicted_fetch_bytes(w),
            ),
            (
                Phase::BackwardRefetch,
                refetches * graph.predicted_fetch_bytes(w),
            ),
            (
                Phase::GradRouting,
                epochs * graph.predicted_grad_route_bytes(w),
            ),
        ];
        for (phase, want) in cells {
            let got = stats.ledger.get(phase, layer).recv_bytes;
            if got != want {
                mismatches.push(format!("{}/{l}: {got} != {want}", phase.name()));
            }
        }
    }
    check(
        "predicted_bytes",
        mismatches.is_empty(),
        &format!("rank {rank} {}", mismatches.join(", ")),
    );
    emit(&format!(
        "summary {}",
        hex(&encode_summary(&WorkerSummary {
            epochs: report.epochs.clone(),
            val_acc: report.val_acc,
            test_acc: report.test_acc,
            test_acc_cs: report.test_acc_cs,
            steady_peak_bytes: report.steady_peak_bytes as u64,
            comm: stats,
        }))
    ));
    drop(report);

    // ---- serving, on the same mesh ----
    let ctx = Rc::try_unwrap(ctx)
        .map_err(|_| format!("rank {rank}: the training context is still shared"))?;
    let sv = &spec.serve;
    let model_cfg = sar_bench::serverun::serve_model_config(&sv.workload, &dataset)?;
    let params = sar_bench::serverun::load_or_init_params(
        &model_cfg,
        &dataset,
        sv.workload.label_aug,
        None,
    )?;
    let setup = EngineSetup {
        model_cfg,
        label_aug: sv.workload.label_aug,
        cache_rows: sv.cache_rows,
        checkpoint: None,
    };
    let mut engine = ServeEngine::new(
        ctx,
        Arc::clone(&graph),
        &shard,
        dataset.num_nodes(),
        &setup,
        &params,
    )
    .map_err(|e| format!("rank {rank}: cannot build the serving engine: {e}"))?;
    drop((dataset, part));
    let t0 = Instant::now();
    if rank == 0 {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| format!("rank 0: cannot bind the client listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("rank 0: cannot read the client address: {e}"))?;
        emit(&format!("serve_addr {addr}"));
        let server = ServerConfig {
            max_batch: sv.max_batch,
            max_delay: sv.max_delay,
            ..ServerConfig::default()
        };
        serve(&mut engine, listener, &server)
            .map_err(|e| format!("rank 0: serving front-end: {e}"))?;
    } else {
        worker_loop(&mut engine).map_err(|e| format!("rank {rank}: serving worker: {e}"))?;
    }
    if let Some(r) = rec {
        let window = {
            let mut r = lock(r);
            r.span("serve.run", t0, Instant::now());
            r.take_window()
        };
        emit_window("serve", &window);
    }
    drop(engine);
    kv("peak_rss_mib", peak_rss_mib()?);

    if let Some(r) = rec {
        let r = lock(r);
        let (spans, dropped) = r.spans();
        for s in spans {
            emit(&format!("span {} {} {}", s.name, s.start_ns, s.dur_ns));
        }
        kv("spans_dropped", dropped as f64);
    }
    emit("done");
    Ok(())
}

/// Lower-case hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Inverse of [`hex`].
///
/// # Errors
///
/// Rejects odd lengths and non-hex digits.
pub fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| format!("bad hex: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let b = vec![0u8, 1, 0xab, 0xff];
        assert_eq!(hex(&b), "0001abff");
        assert_eq!(unhex(&hex(&b)).unwrap(), b);
        assert!(unhex("abc").is_err());
        assert!(unhex("zz").is_err());
    }
}
