//! `repro servebench` — closed-loop serving benchmark with a committed,
//! CI-gated `BENCH_serve.json`.
//!
//! Spawns a real `sar-serve` cluster (one OS process per rank over TCP
//! loopback), writes a seeded checkpoint for the workers to load, then
//! drives the rank-0 front-end from closed-loop client threads: each
//! client connects, issues its deterministic query sequence, and only
//! sends the next request after the previous answer lands. Per-request
//! wall latency is recorded client-side; p50/p99 and QPS are derived
//! from the union of all clients' samples. After the load, one control
//! connection fetches the engine's cumulative counters and requests the
//! graceful shutdown that lets every rank exit.
//!
//! Following the `BENCH_kernels.json` precedent, the committed artifact
//! is never compared on absolute numbers — latency and QPS are
//! machine-dependent. The gate checks *structure and invariants*
//! instead:
//!
//! * schema identity (a mismatch means the artifact is stale —
//!   regenerate with `repro servebench --out BENCH_serve.json`),
//! * run-set identity (the architecture list must match),
//! * per run, in both the fresh and the committed report: QPS positive
//!   and finite, `0 < p50 ≤ p99`, every issued query answered, and the
//!   paper-facing acceptance bound — cumulative measured MFG fetch
//!   bytes strictly below what full-graph rotation forwards over the
//!   same batches would have fetched.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sar_serve::ServeClient;

use crate::distrun::Workload;
use crate::harness::Bench;
use crate::json::{Obj, Value};
use crate::launcher::{self, Cluster, TempFiles};
use crate::report::Table;

/// Cluster size (OS processes).
const WORLD: usize = 4;
/// Synthetic products-like node count.
const NODES: usize = 900;
/// Architectures benchmarked, one run per entry.
const ARCHS: [&str; 2] = ["sage", "gat"];
/// Closed-loop client connections.
const CLIENTS: usize = 3;
/// Requests each client issues.
const REQUESTS: usize = 20;
/// Node ids per query request.
const IDS_PER_REQUEST: usize = 8;
/// Front-end batch coalescing bound.
const MAX_BATCH: usize = 16;
/// Front-end batch coalescing delay, microseconds.
const MAX_DELAY_US: u64 = 1_000;
/// Per-rank embedding-cache row budget.
const CACHE_ROWS: usize = 4096;

/// One architecture's measured serving run.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Architecture name (`"sage"`, `"gcn"`, `"gat"`).
    pub arch: String,
    /// Closed-loop clients driving the front-end.
    pub clients: usize,
    /// Total requests issued across clients.
    pub requests: usize,
    /// Node ids per request.
    pub ids_per_request: usize,
    /// Requests per second over the whole load window.
    pub qps: f64,
    /// Median per-request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_us: f64,
    /// Mean per-request latency, microseconds.
    pub mean_us: f64,
    /// Query batches the engine executed (coalescing merges requests).
    pub batches: u64,
    /// Individual node queries answered.
    pub queries: u64,
    /// Cumulative measured MFG fetch bytes across batches.
    pub fetch_bytes: u64,
    /// Per-batch full-graph forward fetch prediction — the ceiling
    /// `fetch_bytes` must stay strictly below `batches ×` this.
    pub full_forward_bytes: u64,
    /// Embedding-cache hits.
    pub cache_hits: u64,
    /// Embedding-cache misses.
    pub cache_misses: u64,
}

// ----------------------------------------------------------------------
// Driving the cluster
// ----------------------------------------------------------------------

/// The deterministic id stream one client queries: uniform over the
/// node range, seeded per (run seed, client index) so re-runs replay
/// the exact same load.
fn client_ids(
    seed: u64,
    client: usize,
    requests: usize,
    per_req: usize,
    nodes: usize,
) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED_C0DE + client as u64));
    (0..requests)
        .map(|_| {
            (0..per_req)
                .map(|_| rng.random_range(0..nodes as u32))
                .collect()
        })
        .collect()
}

/// A percentile over an ascending-sorted sample set (nearest-rank).
fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

/// Runs the closed-loop load against a live front-end: `clients`
/// threads, each replaying its deterministic query stream, then one
/// control connection for stats + shutdown. Returns the per-request
/// latencies (microseconds), the load window in seconds (first connect
/// to last answer — the stats/shutdown exchange is outside it), and the
/// engine's final counters.
fn drive_load(addr: &str, seed: u64) -> Result<(Vec<f64>, f64, sar_serve::StatsSnapshot), String> {
    let started = Instant::now();
    let mut handles = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let addr = addr.to_string();
        let ids = client_ids(seed, c, REQUESTS, IDS_PER_REQUEST, NODES);
        handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let mut client = ServeClient::connect(addr.as_str())
                .map_err(|e| format!("client {c}: connect: {e}"))?;
            client
                .set_timeout(Some(Duration::from_secs(120)))
                .map_err(|e| format!("client {c}: {e}"))?;
            let mut lat = Vec::with_capacity(ids.len());
            for req in &ids {
                let t = Instant::now();
                let logits = client
                    .query(req)
                    .map_err(|e| format!("client {c}: query: {e}"))?;
                lat.push(t.elapsed().as_secs_f64() * 1e6);
                if logits.rows() != IDS_PER_REQUEST {
                    return Err(format!(
                        "client {c}: got {} logit rows for {IDS_PER_REQUEST} queried ids",
                        logits.rows()
                    ));
                }
            }
            Ok(lat)
        }));
    }
    let mut latencies = Vec::with_capacity(CLIENTS * REQUESTS);
    let mut errors = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(lat)) => latencies.extend(lat),
            Ok(Err(e)) => errors.push(e),
            Err(_) => errors.push("a client thread panicked".into()),
        }
    }
    let wall = started.elapsed();

    // Stats + graceful shutdown go over their own connection, after the
    // load, so they never perturb the measured window. Shutdown must be
    // attempted even when clients failed — otherwise the cluster leaks.
    let control = (|| -> Result<sar_serve::StatsSnapshot, String> {
        let mut control =
            ServeClient::connect(addr).map_err(|e| format!("control connect: {e}"))?;
        control
            .set_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
        control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        Ok(stats)
    })();
    let stats = match control {
        Ok(s) => s,
        Err(e) => {
            errors.push(e);
            sar_serve::StatsSnapshot::default()
        }
    };
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    Ok((latencies, wall.as_secs_f64(), stats))
}

/// Benchmarks one architecture: spawn the cluster, drive the load, wait
/// for a clean exit, distill the run record. On any error the cluster
/// is dropped, which kills the ranks.
fn bench_arch(exe: &Path, arch: &str) -> Result<ServeRun, String> {
    let workload = serve_workload(arch);
    let mut files = TempFiles::default();
    let (client_addr, ckpt) = (files.path("client"), files.path("ckpt"));

    // Write the checkpoint the workers load: the seeded deterministic
    // initialization for this exact (dataset, arch) pair, saved through
    // the real checkpoint codec so the serving path exercises a genuine
    // load-from-disk.
    {
        let (dataset, _part) = workload.build_data(WORLD)?;
        let model_cfg = crate::serverun::serve_model_config(&workload, &dataset)?;
        let params =
            crate::serverun::load_or_init_params(&model_cfg, &dataset, workload.label_aug, None)?;
        let f = std::fs::File::create(&ckpt)
            .map_err(|e| format!("cannot create checkpoint {}: {e}", ckpt.display()))?;
        sar_core::checkpoint::save_raw_params(&params, std::io::BufWriter::new(f))
            .map_err(|e| format!("cannot write checkpoint {}: {e}", ckpt.display()))?;
    }

    let mut args = workload.to_args();
    args.extend([
        "--checkpoint".to_string(),
        ckpt.display().to_string(),
        "--client-addr-file".to_string(),
        client_addr.display().to_string(),
        "--max-batch".to_string(),
        MAX_BATCH.to_string(),
        "--max-delay-us".to_string(),
        MAX_DELAY_US.to_string(),
        "--cache-rows".to_string(),
        CACHE_ROWS.to_string(),
    ]);
    eprintln!(
        "[servebench] {arch}: spawning {WORLD} rank processes, {CLIENTS} clients × \
         {REQUESTS} requests × {IDS_PER_REQUEST} ids ..."
    );
    let mut cluster = Cluster::launch(exe, WORLD, &args)?;
    let addr = launcher::read_rendezvous_addr(&client_addr, Duration::from_secs(60))
        .map_err(|e| format!("front-end never published its client address: {e}"))?;
    let (mut latencies, wall_secs, stats) = drive_load(&addr, workload.seed)?;
    cluster.wait()?;
    latencies.sort_by(|a, b| a.total_cmp(b));
    let requests = latencies.len();
    Ok(ServeRun {
        arch: arch.to_string(),
        clients: CLIENTS,
        requests,
        ids_per_request: IDS_PER_REQUEST,
        qps: requests as f64 / wall_secs.max(1e-9),
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        mean_us: latencies.iter().sum::<f64>() / requests.max(1) as f64,
        batches: stats.batches,
        queries: stats.queries,
        fetch_bytes: stats.fetch_bytes,
        full_forward_bytes: stats.full_forward_bytes,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
    })
}

/// The serving workload for one architecture (reuses the training
/// workload vocabulary; training-only fields are ignored by serving).
fn serve_workload(arch: &str) -> Workload {
    Workload {
        dataset: "products".into(),
        nodes: NODES,
        arch: arch.to_string(),
        hidden: if arch == "gat" { 8 } else { 32 },
        heads: 4,
        mode: "sar".into(),
        layers: 2,
        seed: 0,
        ..Workload::default()
    }
}

/// Invariants one run record must satisfy, fresh or committed. Latency
/// and QPS magnitudes are machine-dependent and never compared — only
/// their internal consistency is.
fn run_invariants(label: &str, run: &Value) -> Vec<String> {
    let mut violations = Vec::new();
    let num = |k: &str| run.get(k).and_then(Value::num);
    let arch = run.get("arch").and_then(Value::str).unwrap_or("?");
    let ctx = format!("{label} run {arch}");
    let Some(qps) = num("qps") else {
        return vec![format!("{ctx}: missing qps")];
    };
    if !(qps.is_finite() && qps > 0.0) {
        violations.push(format!("{ctx}: qps {qps} is not positive and finite"));
    }
    match (num("p50_us"), num("p99_us")) {
        (Some(p50), Some(p99)) => {
            if !(p50 > 0.0 && p99 >= p50) {
                violations.push(format!(
                    "{ctx}: latency percentiles are inconsistent (p50={p50}, p99={p99})"
                ));
            }
        }
        _ => violations.push(format!("{ctx}: missing latency percentiles")),
    }
    match (
        num("queries"),
        num("requests"),
        num("ids_per_request"),
        num("batches"),
    ) {
        (Some(q), Some(r), Some(ipr), Some(b)) => {
            if q < r {
                violations.push(format!(
                    "{ctx}: {q} queries answered for {r} requests — requests were dropped"
                ));
            }
            if q != r * ipr {
                violations.push(format!(
                    "{ctx}: {q} queries ≠ {r} requests × {ipr} ids — the ledger is inconsistent"
                ));
            }
            if !(b > 0.0 && b <= r) {
                violations.push(format!(
                    "{ctx}: {b} batches for {r} requests — coalescing can only merge, not split"
                ));
            }
            match (num("fetch_bytes"), num("full_forward_bytes")) {
                (Some(fetch), Some(full)) => {
                    if fetch <= 0.0 {
                        violations.push(format!("{ctx}: no fetch traffic recorded"));
                    }
                    if fetch >= full * b {
                        violations.push(format!(
                            "{ctx}: MFG fetch bytes {fetch} are not strictly below the \
                             full-graph forward ceiling {} ({full} × {b} batches) — \
                             per-query compute is not restricted",
                            full * b
                        ));
                    }
                }
                _ => violations.push(format!("{ctx}: missing fetch-byte counters")),
            }
        }
        _ => violations.push(format!("{ctx}: missing request/query/batch counters")),
    }
    violations
}

/// `repro servebench`: one `sar-serve` cluster per architecture, gated
/// on `BENCH_serve.json` by architecture set and [`run_invariants`].
pub struct ServeBench;

impl Bench for ServeBench {
    const NAME: &'static str = "servebench";
    const SCHEMA: &'static str = "sar-servebench/v1";
    const ARTIFACT: &'static str = "BENCH_serve.json";
    const ARRAYS: &'static [&'static str] = &["runs"];
    type Report = Vec<ServeRun>;

    fn run() -> Result<Vec<ServeRun>, String> {
        let exe = launcher::sibling_binary("sar-serve")?;
        ARCHS
            .iter()
            .map(|arch| bench_arch(&exe, arch).map_err(|e| format!("{arch}: {e}")))
            .collect()
    }

    fn header(_runs: &Vec<ServeRun>) -> Vec<(&'static str, String)> {
        let wl = serve_workload(ARCHS[0]);
        vec![
            ("world", WORLD.to_string()),
            ("nodes", NODES.to_string()),
            ("threads", wl.threads.to_string()),
            ("simd", crate::json::string(&wl.simd)),
        ]
    }

    fn records(runs: &Vec<ServeRun>) -> Vec<Vec<String>> {
        vec![runs
            .iter()
            .map(|r| {
                Obj::new()
                    .str("arch", &r.arch)
                    .raw("clients", r.clients)
                    .raw("requests", r.requests)
                    .raw("ids_per_request", r.ids_per_request)
                    .num("qps", r.qps, 4)
                    .num("p50_us", r.p50_us, 4)
                    .num("p99_us", r.p99_us, 4)
                    .num("mean_us", r.mean_us, 4)
                    .raw("batches", r.batches)
                    .raw("queries", r.queries)
                    .raw("fetch_bytes", r.fetch_bytes)
                    .raw("full_forward_bytes", r.full_forward_bytes)
                    .raw("cache_hits", r.cache_hits)
                    .raw("cache_misses", r.cache_misses)
                    .finish()
            })
            .collect()]
    }

    fn tables(runs: &Vec<ServeRun>) -> Vec<Table> {
        let mut t = Table::new(
            format!("servebench — world={WORLD} nodes={NODES}"),
            &[
                "arch",
                "requests",
                "qps",
                "p50_us",
                "p99_us",
                "batches",
                "fetch_B",
                "full_fwd_B",
                "hits",
            ],
        );
        for r in runs {
            t.row(vec![
                r.arch.clone(),
                r.requests.to_string(),
                format!("{:.1}", r.qps),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                r.batches.to_string(),
                r.fetch_bytes.to_string(),
                (r.full_forward_bytes * r.batches).to_string(),
                r.cache_hits.to_string(),
            ]);
        }
        vec![t]
    }

    fn run_key(_array: &str, run: &Value) -> Result<String, String> {
        run.str_field("arch").map(|a| format!("\"{a}\""))
    }

    fn invariants(label: &str, doc: &Value) -> Vec<String> {
        doc.items("runs")
            .iter()
            .flat_map(|run| run_invariants(label, run))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, to_json};

    fn sample_report() -> Vec<ServeRun> {
        let run = |arch: &str, qps, batches, fetch_bytes, full_forward_bytes| ServeRun {
            arch: arch.into(),
            clients: 3,
            requests: 60,
            ids_per_request: 8,
            qps,
            p50_us: 1500.0,
            p99_us: 9000.0,
            mean_us: 2000.0,
            batches,
            queries: 480,
            fetch_bytes,
            full_forward_bytes,
            cache_hits: 12,
            cache_misses: 300,
        };
        vec![
            run("sage", 250.0, 40, 100_000, 50_000),
            run("gat", 120.0, 35, 220_000, 90_000),
        ]
    }

    fn gate(current: &Vec<ServeRun>, committed: &str) -> Vec<String> {
        check::<ServeBench>(&to_json::<ServeBench>(current), committed)
    }

    #[test]
    fn timings_may_drift_but_structure_may_not() {
        let r = sample_report();
        let committed = to_json::<ServeBench>(&r);
        // Latency and QPS drift freely.
        let mut fast = r.clone();
        fast[0].qps *= 50.0;
        fast[0].p50_us /= 30.0;
        fast[0].p99_us /= 30.0;
        assert!(gate(&fast, &committed).is_empty());
        // A missing run is structural drift.
        let mut fewer = r.clone();
        fewer.pop();
        assert!(gate(&fewer, &committed)
            .iter()
            .any(|v| v.contains("not produced")));
        // A new run needs a regenerated artifact.
        let mut extra = r.clone();
        extra.push(ServeRun {
            arch: "gcn".into(),
            ..r[0].clone()
        });
        assert!(gate(&extra, &committed).iter().any(|v| v.contains("new")));
    }

    #[test]
    fn gate_rejects_unrestricted_compute_and_dropped_requests() {
        let r = sample_report();
        let committed = to_json::<ServeBench>(&r);
        // MFG fetch at (or above) the full-forward ceiling = the
        // restriction is gone.
        let mut unrestricted = r.clone();
        unrestricted[0].fetch_bytes = unrestricted[0].full_forward_bytes * unrestricted[0].batches;
        assert!(gate(&unrestricted, &committed)
            .iter()
            .any(|v| v.contains("not restricted")));
        // Dropped queries are a correctness failure, not noise.
        let mut dropped = r.clone();
        dropped[1].queries -= 8;
        assert!(gate(&dropped, &committed)
            .iter()
            .any(|v| v.contains("inconsistent") || v.contains("dropped")));
        // A corrupt committed artifact must also fail.
        let corrupt = committed.replace("\"batches\": 40", "\"batches\": 0");
        assert!(gate(&r, &corrupt).iter().any(|v| v.contains("coalescing")));
    }

    #[test]
    fn client_id_streams_are_deterministic_and_in_range() {
        let a = client_ids(7, 2, 5, 4, 100);
        let b = client_ids(7, 2, 5, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a, client_ids(7, 3, 5, 4, 100));
        assert!(a.iter().flatten().all(|&id| id < 100));
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|req| req.len() == 4));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
