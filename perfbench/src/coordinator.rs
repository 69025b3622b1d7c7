//! The coordinator: spawns deployments, drives the serving load, runs every
//! correctness check and turns the ranks' reports into metrics.
//!
//! One run repeats deployments (a *rep*: spawn two ranks, set up, train,
//! serve, shut down) until `--seconds` have passed, then checks the
//! results against the in-process reference, outside the timed region.
//! An untraced run (`--trace 0`) reports the end-to-end metrics. A traced
//! run (`--trace 1`) alternates untraced and traced reps, takes the
//! per-layer metrics from the traced ones, and reports the tracing
//! overhead as the ratio of their training times.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sar_bench::distrun::{assemble_report, decode_summary, WorkerSummary};
use sar_bench::report::RunReport;
use sar_comm::{CostModel, Phase};
use sar_serve::{ServeClient, StatsSnapshot};

use crate::rank::unhex;
use crate::spec::{self, QueryStream, Scale, Spec, WORLD};

/// No rep may run past this point of a run, so the command ends well
/// within three minutes even when the program hangs.
const RUN_DEADLINE: Duration = Duration::from_secs(140);
/// Longest one rep may take.
const REP_DEADLINE: Duration = Duration::from_secs(100);
/// Client socket timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Report per-layer metrics from traced reps.
    pub trace: bool,
    /// Problem size.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The end-to-end metric it feeds (per-layer metrics only).
    pub feeds: &'static str,
}

/// Operations attempted and failed, with a line per failure.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted: training jobs, queries, checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
}

impl Ops {
    fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what);
    }
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Serving latency samples behind the percentiles.
    pub serve_samples: usize,
    /// Reps run, untraced and traced.
    pub reps: (usize, usize),
    /// Where the span trace was written, if it was.
    pub trace_file: Option<String>,
}

// ----------------------------------------------------------------------
// One rep
// ----------------------------------------------------------------------

/// What one rank reported.
#[derive(Debug, Default)]
struct RankOut {
    hello_at: Option<Instant>,
    mesh_at: Option<Instant>,
    kv: BTreeMap<String, f64>,
    summary: Option<WorkerSummary>,
    checks: Vec<(String, bool, String)>,
    spans: Vec<(String, u64, u64)>,
    done: bool,
    status: Option<ExitStatus>,
}

impl RankOut {
    fn get(&self, key: &str) -> Result<f64, String> {
        self.kv
            .get(key)
            .copied()
            .ok_or_else(|| format!("rank did not report {key}"))
    }
}

/// The serving load's results.
#[derive(Debug, Default)]
struct Load {
    queries: u64,
    latencies_s: Vec<f64>,
    window_s: f64,
    failures: Vec<String>,
    samples: Vec<(Vec<u32>, Vec<f32>)>,
    stats: StatsSnapshot,
}

/// One deployment.
#[derive(Debug)]
struct Rep {
    traced: bool,
    spawned: Instant,
    ranks: Vec<RankOut>,
    load: Load,
}

impl Rep {
    fn setup_s(&self) -> Result<f64, String> {
        self.ranks
            .iter()
            .map(|r| {
                r.mesh_at
                    .map(|t| (t - self.spawned).as_secs_f64())
                    .ok_or_else(|| "a rank never reported its mesh".to_string())
            })
            .try_fold(0.0, |m, x| x.map(|x| f64::max(m, x)))
    }

    fn max(&self, key: &str) -> Result<f64, String> {
        self.ranks
            .iter()
            .map(|r| r.get(key))
            .try_fold(0.0, |m, x| x.map(|x| f64::max(m, x)))
    }

    fn sum(&self, key: &str) -> Result<f64, String> {
        self.ranks.iter().map(|r| r.get(key)).sum()
    }

    fn summaries(&self) -> Result<Vec<WorkerSummary>, String> {
        self.ranks
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.summary
                    .clone()
                    .ok_or_else(|| format!("rank {i} sent no summary"))
            })
            .collect()
    }
}

enum Event {
    Line(usize, Instant, String),
    Eof(usize),
}

/// The rank processes of one rep. Dropping it kills and reaps every
/// process still running and joins the output readers.
struct Cluster {
    children: Vec<Child>,
    stdins: Vec<Option<ChildStdin>>,
    readers: Vec<JoinHandle<()>>,
}

impl Cluster {
    fn spawn(opts: &RunOpts, traced: bool, tx: &Sender<Event>) -> Result<Cluster, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut cluster = Cluster {
            children: Vec::new(),
            stdins: Vec::new(),
            readers: Vec::new(),
        };
        for rank in 0..WORLD {
            let mut child = Command::new(&exe)
                .arg("rank")
                .args(["--workload", &opts.workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--rank", &rank.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--scale", opts.scale.name()])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot spawn rank {rank}: {e}"))?;
            let stdout = child.stdout.take().expect("stdout was piped");
            cluster.stdins.push(child.stdin.take());
            cluster.children.push(child);
            let tx = tx.clone();
            cluster.readers.push(std::thread::spawn(move || {
                for line in BufReader::new(stdout).lines() {
                    let Ok(line) = line else { break };
                    if tx.send(Event::Line(rank, Instant::now(), line)).is_err() {
                        return;
                    }
                }
                let _ = tx.send(Event::Eof(rank));
            }));
        }
        Ok(cluster)
    }

    fn tell(&mut self, rank: usize, line: &str) -> Result<(), String> {
        let stdin = self.stdins[rank]
            .as_mut()
            .ok_or_else(|| format!("rank {rank} has no stdin"))?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("cannot write to rank {rank}: {e}"))
    }

    /// Waits for every rank to exit, until `deadline`.
    fn wait(&mut self, deadline: Instant) -> Result<Vec<ExitStatus>, String> {
        let mut statuses = vec![None; self.children.len()];
        loop {
            for (i, c) in self.children.iter_mut().enumerate() {
                if statuses[i].is_none() {
                    statuses[i] = c
                        .try_wait()
                        .map_err(|e| format!("cannot wait for rank {i}: {e}"))?;
                }
            }
            if statuses.iter().all(Option::is_some) {
                return Ok(statuses.into_iter().flatten().collect());
            }
            if Instant::now() >= deadline {
                return Err("ranks did not exit before the deadline".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for c in &mut self.children {
            if let Ok(None) = c.try_wait() {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
        self.stdins.clear();
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

fn parse_line(out: &mut RankOut, at: Instant, line: &str) -> Result<Option<String>, String> {
    let (word, rest) = line.split_once(' ').unwrap_or((line, ""));
    let bad = || format!("malformed rank output: {line}");
    match word {
        "hello" => out.hello_at = Some(at),
        "mesh" => out.mesh_at = Some(at),
        "done" => out.done = true,
        "kv" => {
            let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
            out.kv.insert(k.to_string(), v.parse().map_err(|_| bad())?);
        }
        "check" => {
            let mut it = rest.splitn(3, ' ');
            let (name, ok) = (it.next().ok_or_else(bad)?, it.next().ok_or_else(bad)?);
            out.checks.push((
                name.to_string(),
                ok == "1",
                it.next().unwrap_or("").to_string(),
            ));
        }
        "summary" => out.summary = Some(decode_summary(&unhex(rest)?)?),
        "span" => {
            let f: Vec<&str> = rest.split(' ').collect();
            let [name, start, dur] = f[..] else {
                return Err(bad());
            };
            out.spans.push((
                name.to_string(),
                start.parse().map_err(|_| bad())?,
                dur.parse().map_err(|_| bad())?,
            ));
        }
        // Addresses go back to the event loop.
        "addr" | "serve_addr" => return Ok(Some(line.to_string())),
        _ => return Err(bad()),
    }
    Ok(None)
}

/// Runs one deployment to completion or `deadline`.
fn run_rep(spec: &Spec, opts: &RunOpts, traced: bool, deadline: Instant) -> Result<Rep, String> {
    let (tx, rx): (Sender<Event>, Receiver<Event>) = mpsc::channel();
    let spawned = Instant::now();
    let mut cluster = Cluster::spawn(opts, traced, &tx)?;
    drop(tx);
    let mut ranks: Vec<RankOut> = (0..WORLD).map(|_| RankOut::default()).collect();
    let mut load = None;
    let mut open = WORLD;
    while open > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        let event = rx
            .recv_timeout(left)
            .map_err(|_| "deadline passed before the ranks finished".to_string())?;
        let (rank, at, line) = match event {
            Event::Eof(rank) => {
                // A rank that stops talking before `done` has failed;
                // waiting on its peer would only run into the deadline.
                if !ranks[rank].done {
                    return Err(format!("rank {rank} exited before finishing"));
                }
                open -= 1;
                continue;
            }
            Event::Line(rank, at, line) => (rank, at, line),
        };
        let Some(addr) = parse_line(&mut ranks[rank], at, &line)? else {
            continue;
        };
        match addr.split_once(' ') {
            Some(("addr", a)) => {
                for peer in 1..WORLD {
                    cluster.tell(peer, a)?;
                }
            }
            Some(("serve_addr", a)) => load = Some(drive_load(a, spec, deadline)?),
            _ => return Err(format!("unexpected line {addr}")),
        }
    }
    let statuses = cluster.wait(deadline)?;
    for (r, s) in ranks.iter_mut().zip(statuses) {
        r.status = Some(s);
    }
    Ok(Rep {
        traced,
        spawned,
        ranks,
        load: load.ok_or("rank 0 never opened its serving front-end")?,
    })
}

// ----------------------------------------------------------------------
// The closed-loop serving load
// ----------------------------------------------------------------------

struct ClientOut {
    queries: u64,
    latencies_s: Vec<f64>,
    warm_at: Option<Instant>,
    samples: Vec<(Vec<u32>, Vec<f32>)>,
    failures: Vec<String>,
}

/// One closed-loop client: sends its next query only after the previous
/// answer arrived, until `stop`. Latency is recorded once the first
/// `warmup_queries` are answered.
fn client_loop(addr: &str, spec: &Spec, client: usize, stop: Instant) -> ClientOut {
    let sv = &spec.serve;
    let mut out = ClientOut {
        queries: 0,
        latencies_s: Vec::new(),
        warm_at: None,
        samples: Vec::new(),
        failures: Vec::new(),
    };
    let mut conn = match ServeClient::connect(addr)
        .and_then(|mut c| c.set_timeout(Some(CLIENT_TIMEOUT)).map(|()| c))
    {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("client {client}: connect: {e}"));
            return out;
        }
    };
    let mut stream = QueryStream::new(spec.train.seed, client, sv.ids_per_query, spec.train.nodes);
    while Instant::now() < stop {
        let ids = stream.next_query();
        let t = Instant::now();
        let answer = conn.query(&ids);
        let latency = t.elapsed().as_secs_f64();
        let i = out.queries;
        out.queries += 1;
        if i == sv.warmup_queries {
            out.warm_at = Some(t);
        }
        if i >= sv.warmup_queries {
            out.latencies_s.push(latency);
        }
        match answer {
            Ok(logits) if logits.rows() == ids.len() => {
                if i.is_multiple_of(sv.check_every) {
                    out.samples.push((ids, logits.data().to_vec()));
                }
            }
            Ok(logits) => out.failures.push(format!(
                "client {client}: {} rows for {} ids",
                logits.rows(),
                ids.len()
            )),
            Err(e) => {
                out.failures.push(format!("client {client}: query: {e}"));
                break;
            }
        }
    }
    out
}

/// Runs the clients for the serving window, then fetches the engine's
/// counters and shuts the deployment down over a control connection.
fn drive_load(addr: &str, spec: &Spec, deadline: Instant) -> Result<Load, String> {
    let stop = (Instant::now() + spec.serve.window).min(deadline);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.serve.clients)
            .map(|c| s.spawn(move || client_loop(addr, spec, c, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let ended = Instant::now();
    let mut control = ServeClient::connect(addr).map_err(|e| format!("control connect: {e}"))?;
    control
        .set_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| format!("control: {e}"))?;
    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    control.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    // The measured window starts once every client is past its warm-up.
    let warm = outs.iter().map(|o| o.warm_at.unwrap_or(ended)).max();
    let mut load = Load {
        window_s: ended
            .saturating_duration_since(warm.unwrap_or(ended))
            .as_secs_f64(),
        stats,
        ..Load::default()
    };
    for o in outs {
        load.queries += o.queries;
        load.latencies_s.extend(o.latencies_s);
        load.samples.extend(o.samples);
        load.failures.extend(o.failures);
    }
    Ok(load)
}

// ----------------------------------------------------------------------
// Checks
// ----------------------------------------------------------------------

/// The per-rep checks that need no reference run.
fn check_rep(rep: &Rep, ops: &mut Ops) {
    for (i, r) in rep.ranks.iter().enumerate() {
        let ok = r.done && r.status.is_some_and(|s| s.success());
        ops.check("rank_exit", ok, || {
            format!("rank {i} status {:?}", r.status)
        });
        for (name, ok, detail) in &r.checks {
            ops.check(name, *ok, || detail.clone());
        }
    }
    ops.attempted += rep.load.queries;
    ops.failed += rep.load.failures.len() as u64;
    ops.failures.extend(rep.load.failures.iter().cloned());

    let losses: Vec<Vec<f32>> = rep
        .ranks
        .iter()
        .filter_map(|r| r.summary.as_ref())
        .map(|s| s.epochs.iter().map(|e| e.loss).collect())
        .collect();
    let first = losses.first().cloned().unwrap_or_default();
    let bits = |l: &[f32]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let ok = losses.len() == WORLD
        && !first.is_empty()
        && first.iter().all(|l| l.is_finite())
        && losses.iter().all(|l| bits(l) == bits(&first))
        && first.last() < first.first();
    ops.check("losses", ok, || format!("losses per rank {losses:?}"));

    if rep.traced {
        // Accounting closure: the run_worker span is its self time plus
        // the transport calls made inside it, which must not overlap.
        for (i, r) in rep.ranks.iter().enumerate() {
            let (span, child, covered) = (
                r.get("train_s"),
                r.get("train.child_s"),
                r.get("train.covered_s"),
            );
            let ok = match (&span, &child, &covered) {
                (Ok(span), Ok(child), Ok(covered)) => {
                    let own = span - covered;
                    own >= 0.0 && (own + child - span).abs() <= 1e-6
                }
                _ => false,
            };
            ops.check("closure", ok, || {
                format!("rank {i}: run_worker {span:?} vs self + children {child:?} (covered {covered:?})")
            });
        }
    }
}

/// The checks against the in-process reference: the TCP training digest
/// equals the channel-transport digest, and served logits equal
/// `sar_core::infer` bit for bit.
fn check_reference(spec: &Spec, reps: &[Rep], ops: &mut Ops) -> Result<(), String> {
    let train = &spec.train;
    let (dataset, part) = train.build_data(WORLD)?;
    let cfg = train.train_config(&dataset)?;
    let reference = sar_core::train(&dataset, &part, CostModel::default(), &cfg);
    let want =
        RunReport::from_train("reference", &train.arch, &train.mode, &reference).parity_digest();
    drop(reference);
    for rep in reps {
        let got =
            assemble_report("tcp", &train.arch, &train.mode, &rep.summaries()?).parity_digest();
        ops.check("digest", got == want, || {
            let line = got
                .lines()
                .zip(want.lines())
                .find(|(a, b)| a != b)
                .map_or_else(
                    || "length differs".to_string(),
                    |(a, b)| format!("{a} != {b}"),
                );
            format!("TCP digest differs from the channel transport: {line}")
        });
    }

    let sv = &spec.serve;
    let model_cfg = sar_bench::serverun::serve_model_config(&sv.workload, &dataset)?;
    let params = sar_bench::serverun::load_or_init_params(
        &model_cfg,
        &dataset,
        sv.workload.label_aug,
        None,
    )?;
    let logits = sar_core::infer(
        &dataset,
        &part,
        CostModel::default(),
        &model_cfg,
        &params,
        sv.workload.label_aug,
    );
    for rep in reps {
        let samples = &rep.load.samples;
        let mismatch = samples.iter().find_map(|(ids, got)| {
            let cols = got.len() / ids.len().max(1);
            ids.iter().enumerate().find_map(|(i, &id)| {
                let want = logits.row(id as usize);
                let row = &got[i * cols..(i + 1) * cols];
                let same = want.len() == row.len()
                    && want
                        .iter()
                        .zip(row)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                (!same).then(|| format!("node {id}"))
            })
        });
        ops.check(
            "served_logits",
            !samples.is_empty() && mismatch.is_none(),
            || {
                format!(
                    "{} samples; first mismatch at {}",
                    samples.len(),
                    mismatch.unwrap_or_default()
                )
            },
        );
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------------

/// Median (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn med(reps: &[&Rep], f: impl Fn(&Rep) -> Result<f64, String>) -> Result<f64, String> {
    let v = reps.iter().map(|r| f(r)).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&v))
}

impl Load {
    /// Queries answered per second after warm-up.
    fn qps(&self) -> Result<f64, String> {
        if self.window_s > 0.0 {
            Ok(self.latencies_s.len() as f64 / self.window_s)
        } else {
            Err("empty serving window".into())
        }
    }

    /// Nearest-rank latency percentile after warm-up, in milliseconds.
    fn latency_ms(&self, p: f64) -> Result<f64, String> {
        let mut v = self.latencies_s.clone();
        v.sort_by(f64::total_cmp);
        Ok(percentile(&v, p) * 1e3)
    }
}

/// The end-to-end metrics: each is measured per deployment, and the
/// median over the deployments is reported. Returns the metrics and the
/// latency samples per deployment (the smallest count).
fn end_to_end(reps: &[&Rep]) -> Result<(Vec<Metric>, usize), String> {
    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        feeds: "",
    };
    let final_loss = |r: &Rep| {
        r.summaries()?[0]
            .epochs
            .last()
            .map(|e| f64::from(e.loss))
            .ok_or_else(|| "no epochs".to_string())
    };
    let samples = reps.iter().map(|r| r.load.latencies_s.len()).min();
    Ok((
        vec![
            m("setup_s", med(reps, Rep::setup_s)?, "s"),
            m("train_s", med(reps, |r| r.max("train_s"))?, "s"),
            m("peak_rss_mib", med(reps, |r| r.max("peak_rss_mib"))?, "MiB"),
            m("final_loss", med(reps, final_loss)?, "nats"),
            m("serve_qps", med(reps, |r| r.load.qps())?, "1/s"),
            m(
                "serve_p50_ms",
                med(reps, |r| r.load.latency_ms(50.0))?,
                "ms",
            ),
            m(
                "serve_p90_ms",
                med(reps, |r| r.load.latency_ms(90.0))?,
                "ms",
            ),
        ],
        samples.unwrap_or(0),
    ))
}

/// Largest value of a ledger cell over the ranks, in seconds.
fn ledger_max(rep: &Rep, phase: Phase, cpu: bool) -> Result<f64, String> {
    let summaries = rep.summaries()?;
    let cells = summaries.iter().map(|s| {
        let e = s.comm.ledger.phase_total(phase);
        if cpu {
            e.cpu_us
        } else {
            e.wall_us
        }
    });
    Ok(cells.fold(0.0, f64::max) / 1e6)
}

fn per_layer(untraced: &[&Rep], traced: &[&Rep]) -> Result<Vec<Metric>, String> {
    const MIB: f64 = 1024.0 * 1024.0;
    type Cell = fn(&Rep) -> Result<f64, String>;
    let cells: Vec<(&'static str, &'static str, &'static str, Cell)> = vec![
        ("graph.gen_s", "s", "setup_s", |r| r.max("graph.gen_s")),
        ("partition.partition_s", "s", "setup_s", |r| {
            r.max("partition.partition_s")
        }),
        ("partition.cut_fraction", "ratio", "train_s", |r| {
            r.ranks[0].get("partition.cut_fraction")
        }),
        ("core.build_s", "s", "setup_s", |r| r.max("core.build_s")),
        ("comm.mesh_s", "s", "setup_s", |r| r.max("comm.mesh_s")),
        ("comm.p2p.recv_wait_s", "s", "train_s", |r| {
            r.max("train.p2p.recv_wait_s")
        }),
        ("comm.p2p.send_s", "s", "train_s", |r| {
            r.max("train.p2p.send_s")
        }),
        ("comm.coll.recv_wait_s", "s", "train_s", |r| {
            r.max("train.coll.recv_wait_s")
        }),
        ("comm.p2p.send_calls", "count", "train_s", |r| {
            r.sum("train.p2p.send_calls")
        }),
        ("comm.p2p.send_mib", "MiB", "train_s", |r| {
            Ok(r.sum("train.p2p.send_bytes")? / MIB)
        }),
        ("comm.pool.hit_ratio", "ratio", "train_s", |r| {
            let hits = r.sum("pool.hits")?;
            Ok(hits / (hits + r.sum("pool.misses")?).max(1.0))
        }),
        ("comm.pool.recycle_drops", "count", "peak_rss_mib", |r| {
            r.sum("pool.recycle_drops")
        }),
        ("core.run_worker_self_s", "s", "train_s", |r| {
            r.ranks.iter().try_fold(0.0, |m, k| {
                Ok(f64::max(m, k.get("train_s")? - k.get("train.covered_s")?))
            })
        }),
        ("core.cpu_s", "s", "train_s", |r| r.max("cpu_s")),
        ("core.forward_fetch.wall_s", "s", "train_s", |r| {
            ledger_max(r, Phase::ForwardFetch, false)
        }),
        ("core.forward_fetch.cpu_s", "s", "train_s", |r| {
            ledger_max(r, Phase::ForwardFetch, true)
        }),
        ("core.backward_refetch.wall_s", "s", "train_s", |r| {
            ledger_max(r, Phase::BackwardRefetch, false)
        }),
        ("core.backward_refetch.cpu_s", "s", "train_s", |r| {
            ledger_max(r, Phase::BackwardRefetch, true)
        }),
        ("core.grad_routing.wall_s", "s", "train_s", |r| {
            ledger_max(r, Phase::GradRouting, false)
        }),
        ("core.other.wall_s", "s", "train_s", |r| {
            ledger_max(r, Phase::Other, false)
        }),
        ("tensor.peak_tensor_mib", "MiB", "peak_rss_mib", |r| {
            let s = r.summaries()?;
            Ok(s.iter().map(|s| s.steady_peak_bytes).max().unwrap_or(0) as f64 / MIB)
        }),
        ("serve.batches_per_request", "ratio", "serve_p50_ms", |r| {
            Ok(r.load.stats.batches as f64 / r.load.queries.max(1) as f64)
        }),
        ("serve.cache_hit_ratio", "ratio", "serve_p50_ms", |r| {
            let s = &r.load.stats;
            Ok(s.cache_hits as f64 / (s.cache_hits + s.cache_misses).max(1) as f64)
        }),
        ("serve.fetch_kib_per_query", "KiB", "serve_p50_ms", |r| {
            Ok(r.load.stats.fetch_bytes as f64 / 1024.0 / r.load.queries.max(1) as f64)
        }),
        ("serve.p2p.recv_wait_s", "s", "serve_p90_ms", |r| {
            r.ranks[0].get("serve.p2p.recv_wait_s")
        }),
        ("serve.p2p.send_s", "s", "serve_p90_ms", |r| {
            r.ranks[0].get("serve.p2p.send_s")
        }),
    ];
    let mut out = Vec::with_capacity(cells.len() + 1);
    for (name, unit, feeds, f) in cells {
        out.push(Metric {
            name,
            value: med(traced, f)?,
            unit,
            feeds,
        });
    }
    let train = |r: &Rep| r.max("train_s");
    out.push(Metric {
        name: "trace.overhead_ratio",
        value: med(traced, train)? / med(untraced, train)?,
        unit: "ratio",
        feeds: "train_s",
    });
    Ok(out)
}

// ----------------------------------------------------------------------
// The run
// ----------------------------------------------------------------------

/// Chrome trace-event JSON of one traced rep: one `pid` per rank.
fn chrome_trace(rep: &Rep, host: &str) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for (rank, r) in rep.ranks.iter().enumerate() {
        // Rank clocks start at process start; place them at their hello.
        let offset_ns = r
            .hello_at
            .map_or(0, |t| (t - rep.spawned).as_nanos() as u64);
        for (name, start, dur) in &r.spans {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": {rank}, \"tid\": 0, \
                 \"ts\": {:.3}, \"dur\": {:.3}}}",
                (offset_ns + start) as f64 / 1e3,
                *dur as f64 / 1e3
            );
        }
    }
    let dropped: Vec<String> = rep
        .ranks
        .iter()
        .map(|r| r.get("spans_dropped").unwrap_or(0.0).to_string())
        .collect();
    let _ = write!(
        s,
        "\n], \"metadata\": {{\"host\": {host}, \"spans_dropped\": [{}]}}}}\n",
        dropped.join(", ")
    );
    s
}

/// Runs the workload for `opts.seconds`, checks it, and computes the
/// metrics. `host` is embedded in the trace file.
///
/// # Errors
///
/// Only for an unknown workload; every other failure is a failed
/// operation in the outcome.
pub fn run(opts: &RunOpts, host: &str) -> Result<Outcome, String> {
    let spec = spec::spec(&opts.workload, opts.seed, opts.scale)?;
    let start = Instant::now();
    let budget = Duration::from_secs(opts.seconds);
    let hard_stop = start + RUN_DEADLINE;
    let mut ops = Ops::default();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let count = |t: bool| reps.iter().filter(|r| r.traced == t).count();
        let enough = count(false) > 0 && (!opts.trace || count(true) > 0);
        if enough && start.elapsed() >= budget {
            break;
        }
        // Traced runs alternate: untraced, traced, untraced, ...
        let traced = opts.trace && reps.len() % 2 == 1;
        let deadline = hard_stop.min(Instant::now() + REP_DEADLINE);
        ops.attempted += 1; // the training job
        match run_rep(&spec, opts, traced, deadline) {
            Ok(rep) => {
                check_rep(&rep, &mut ops);
                reps.push(rep);
            }
            Err(e) => {
                ops.failed += 1;
                ops.failures.push(format!("rep {}: {e}", reps.len()));
                break;
            }
        }
    }
    let mut outcome = Outcome {
        ops,
        metrics: Vec::new(),
        serve_samples: 0,
        reps: (
            reps.iter().filter(|r| !r.traced).count(),
            reps.iter().filter(|r| r.traced).count(),
        ),
        trace_file: None,
    };
    if outcome.ops.failed > 0 {
        return Ok(outcome);
    }
    if let Err(e) = check_reference(&spec, &reps, &mut outcome.ops) {
        outcome.ops.fail(format!("reference run: {e}"));
    }
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let metrics = if opts.trace {
        per_layer(&untraced, &traced).map(|m| (m, 0))
    } else {
        end_to_end(&untraced)
    };
    match metrics {
        Ok((m, samples)) => {
            outcome.metrics = m;
            outcome.serve_samples = samples;
        }
        Err(e) => outcome.ops.fail(format!("metrics: {e}")),
    }
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        outcome
            .ops
            .fail(format!("metric {} is {}", bad.name, bad.value));
    }
    if let Some(rep) = traced.last() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.json", opts.workload, opts.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, chrome_trace(rep, host)))
        {
            Ok(()) => outcome.trace_file = Some(path),
            Err(e) => outcome.ops.fail(format!("cannot write {path}: {e}")),
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn rank_lines_parse_and_garbage_is_rejected() {
        let mut out = RankOut::default();
        let t = Instant::now();
        assert!(parse_line(&mut out, t, "kv train_s 1.5").unwrap().is_none());
        assert_eq!(out.get("train_s").unwrap(), 1.5);
        parse_line(&mut out, t, "check predicted_bytes 0 rank 1 x != y").unwrap();
        assert_eq!(out.checks[0].0, "predicted_bytes");
        assert!(!out.checks[0].1);
        assert_eq!(out.checks[0].2, "rank 1 x != y");
        parse_line(&mut out, t, "span comm.p2p.send 10 20").unwrap();
        assert_eq!(out.spans[0], ("comm.p2p.send".to_string(), 10, 20));
        assert_eq!(
            parse_line(&mut out, t, "addr 127.0.0.1:9")
                .unwrap()
                .as_deref(),
            Some("addr 127.0.0.1:9")
        );
        assert!(parse_line(&mut out, t, "kv x notanumber").is_err());
        assert!(parse_line(&mut out, t, "span a 1").is_err());
        assert!(parse_line(&mut out, t, "bogus").is_err());
    }

    #[test]
    fn ops_count_failures() {
        let mut ops = Ops::default();
        ops.check("a", true, String::new);
        ops.check("b", false, || "why".into());
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!(ops.failures, vec!["b: why".to_string()]);
    }
}
