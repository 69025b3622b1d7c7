//! Regenerates every table and figure of the SAR paper.
//!
//! ```text
//! repro <experiment> [flags]
//!
//! experiments:
//!   table1              dataset stats + final accuracies
//!   fig2                single-host fused attention kernels
//!   fig3 | fig4         GraphSage | GAT scaling on products-like
//!   fig5 | fig6         GraphSage | GAT scaling on papers-like
//!   ablation-prefetch   2/N vs 3/N memory (§3.4)
//!   ablation-softmax    stable vs naive online softmax (§3.4)
//!   ablation-partition  partitioner quality vs comm volume
//!   exactness           SAR results independent of worker count
//!   smoke               CI gate: scaled-down 4-worker Sage + GAT runs;
//!                       writes per-worker RunReport JSON (--out DIR) and
//!                       exits non-zero on NaN loss or a ledger-invariant
//!                       violation (Sage backward must add zero fetch
//!                       bytes; GAT must re-fetch what the forward fetched).
//!                       With --transport tcp the same workloads run as 4
//!                       real OS processes over TCP loopback (spawned via
//!                       the sar-worker binary) and are gated on the same
//!                       invariants
//!   kernelbench         single-host SAR kernel micro-benchmarks over a
//!                       fixed seeded workload matrix, gated on roofline
//!                       ratios against BENCH_kernels.json
//!   servebench          closed-loop serving benchmark: a real 4-process
//!                       sar-serve cluster over TCP loopback driven by
//!                       concurrent clients (p50/p99 latency + QPS),
//!                       gated on the serving invariants (all queries
//!                       answered, MFG fetch strictly below the
//!                       full-graph forward ceiling) of BENCH_serve.json
//!   outofcorebench      out-of-core tiering benchmark: a memory-flatness
//!                       sweep over the mmap-backed disk tier (graph
//!                       scale grows 8x under a fixed budget; peak
//!                       resident bytes must stay flat and the digest
//!                       must match a never-spilling baseline bit for
//!                       bit) plus training parity with --mem-budget on
//!                       vs off across {sim,tcp} x {threads} x
//!                       {prefetch-depth}, gated on BENCH_outofcore.json
//!   compressbench       codec/protocol ablation: the smoke workloads
//!                       across the {codec x protocol} grid (sim, plus a
//!                       TCP subset), gated on the logical-vs-wire ledger
//!                       invariants, cross-transport raw/exact digest
//!                       equality and the accuracy floor of
//!                       BENCH_compress.json
//!
//!                       The four benchmarks take only --out PATH (write
//!                       the fresh artifact) and --check PATH (gate it
//!                       against the committed one); their workloads are
//!                       fixed. No gate compares timing magnitudes.
//!   overlap-check       diff a freshly generated BENCH_overlap.json
//!                       against the committed copy on run-set identity
//!                       and ledger invariants (timings are not compared);
//!                       flags: --current PATH --committed PATH
//!   all                 everything above except smoke/kernelbench
//!
//! flags:
//!   --transport sim|tcp  smoke backend: in-process simulated cluster or
//!                        one OS process per rank over TCP    (sim)
//!   --products-nodes N   products-like size     (default 4000)
//!   --papers-nodes N     papers-like size       (default 8000)
//!   --epochs N           accuracy-run epochs    (default 40)
//!   --timing-epochs N    timing-run epochs      (default 3)
//!   --bw-scale X         bandwidth down-scale   (default 100)
//!   --mem-budget-products-mib X  OOM budget, Figs. 3/4 (default 512)
//!   --mem-budget-papers-mib X    OOM budget, Figs. 5/6 (default 48)
//!   --worlds A,B,C       worker counts override
//!   --out DIR            RunReport JSON output directory (smoke only)
//!   --model sage|gat|all smoke model selection (default all); validated
//!                        against the supported model list at parse time
//!   --threads A,B        smoke intra-worker thread counts (default 1).
//!                        With more than one count, the same workload runs
//!                        once per count and the gate fails unless every
//!                        run's losses and byte ledgers are identical —
//!                        the kernels' determinism contract (DESIGN.md §8)
//!   --prefetch-depth A,B smoke fetch-pipeline depths (default 0). With
//!                        more than one depth, the same workload runs once
//!                        per depth and the gate fails unless every run's
//!                        losses and byte ledgers are identical — the
//!                        pipelined exchange's deterministic-accumulation
//!                        contract (DESIGN.md §9). Crosses with --threads.
//!   --simd A,B           smoke SIMD dispatch modes (default auto). With
//!                        more than one mode (auto,scalar), the same
//!                        workload runs once per mode and the gate fails
//!                        unless every run's parity digest is identical —
//!                        the SIMD paths' bitwise-determinism contract
//!                        (DESIGN.md §11). Crosses with --threads and
//!                        --prefetch-depth.
//!   --mem-budget BYTES   smoke resident-tensor budget for the disk
//!                        tier (0 = spilling disabled). The ledger
//!                        invariants and cross-combination digests must
//!                        hold unchanged — spilling is invisible to
//!                        training                        (default 0)
//!   --seed N             RNG seed               (default 0)
//! ```
//!
//! With `--out DIR`, smoke also writes `DIR/BENCH_overlap.json`: one
//! record per (model, threads, depth) run with the per-phase
//! blocked-vs-wall overlap summary, so the realized comm/compute overlap
//! is tracked as a CI artifact.

use sar_bench::compressbench::CompressBench;
use sar_bench::experiments::{
    ablation_partition, ablation_prefetch, ablation_softmax, exactness, fig2, scaling, table1,
    ExpConfig, Workload,
};
use sar_bench::harness::{cli, write_file};
use sar_bench::json::{self, Obj};
use sar_bench::kernelbench::KernelBench;
use sar_bench::outofcorebench::OutOfCoreBench;
use sar_bench::servebench::ServeBench;
use sar_bench::smoke;
use sar_core::Arch;

struct Flags {
    cfg: ExpConfig,
    worlds: Option<Vec<usize>>,
    out: Option<String>,
    transport: String,
    /// Intra-worker thread counts the smoke gate runs (and cross-checks).
    threads: Vec<usize>,
    /// Fetch-pipeline depths the smoke gate runs (and cross-checks).
    depths: Vec<usize>,
    /// SIMD dispatch modes the smoke gate runs (and cross-checks).
    simds: Vec<String>,
    /// Smoke model selection: `"all"` or one of [`smoke::MODELS`].
    model: String,
    /// Smoke `--mem-budget` (bytes; 0 = spilling disabled).
    mem_budget: u64,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut cfg = ExpConfig::default();
    let mut worlds = None;
    let mut out = None;
    let mut transport = "sim".to_string();
    let mut threads = vec![1usize];
    let mut depths = vec![0usize];
    let mut simds = vec!["auto".to_string()];
    let mut model = "all".to_string();
    let mut mem_budget = 0u64;
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        let value = args.get(i + 1).cloned();
        let mut take = |name: &str| -> Option<String> {
            if key == name {
                i += 1;
                Some(value.clone().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                }))
            } else {
                None
            }
        };
        if let Some(v) = take("--products-nodes") {
            cfg.products_nodes = v.parse().expect("--products-nodes");
        } else if let Some(v) = take("--papers-nodes") {
            cfg.papers_nodes = v.parse().expect("--papers-nodes");
        } else if let Some(v) = take("--epochs") {
            cfg.epochs = v.parse().expect("--epochs");
        } else if let Some(v) = take("--timing-epochs") {
            cfg.timing_epochs = v.parse().expect("--timing-epochs");
        } else if let Some(v) = take("--bw-scale") {
            cfg.bandwidth_scale = v.parse().expect("--bw-scale");
        } else if let Some(v) = take("--mem-budget-products-mib") {
            cfg.mem_budget_products_mib = v.parse().expect("--mem-budget-products-mib");
        } else if let Some(v) = take("--mem-budget-papers-mib") {
            cfg.mem_budget_papers_mib = v.parse().expect("--mem-budget-papers-mib");
        } else if let Some(v) = take("--worlds") {
            worlds = Some(v.split(',').map(|x| x.parse().expect("--worlds")).collect());
        } else if let Some(v) = take("--out") {
            out = Some(v);
        } else if let Some(v) = take("--transport") {
            if v != "sim" && v != "tcp" {
                eprintln!("--transport must be sim or tcp, not {v}");
                std::process::exit(2);
            }
            transport = v;
        } else if let Some(v) = take("--threads") {
            threads = v
                .split(',')
                .map(|x| match x.parse::<usize>() {
                    Ok(t) if t >= 1 => t,
                    _ => {
                        eprintln!("--threads takes a comma list of counts >= 1, e.g. 1,4");
                        std::process::exit(2);
                    }
                })
                .collect();
        } else if let Some(v) = take("--prefetch-depth") {
            depths = v
                .split(',')
                .map(|x| match x.parse::<usize>() {
                    Ok(d) => d,
                    _ => {
                        eprintln!("--prefetch-depth takes a comma list of depths, e.g. 0,2");
                        std::process::exit(2);
                    }
                })
                .collect();
        } else if let Some(v) = take("--simd") {
            simds = v
                .split(',')
                .map(|x| {
                    if sar_tensor::simd::parse_mode(x).is_none() {
                        eprintln!("--simd takes a comma list of modes from: auto, scalar");
                        std::process::exit(2);
                    }
                    x.to_string()
                })
                .collect();
        } else if let Some(v) = take("--model") {
            if v != "all" && !smoke::MODELS.contains(&v.as_str()) {
                eprintln!(
                    "unknown --model {v}; supported models: {}, all",
                    smoke::MODELS.join(", ")
                );
                std::process::exit(2);
            }
            model = v;
        } else if let Some(v) = take("--mem-budget") {
            mem_budget = v.parse().expect("--mem-budget");
        } else if let Some(v) = take("--seed") {
            cfg.seed = v.parse().expect("--seed");
        } else {
            eprintln!("unknown flag: {key}");
            std::process::exit(2);
        }
        i += 1;
    }
    Flags {
        cfg,
        worlds,
        out,
        transport,
        threads,
        depths,
        simds,
        model,
        mem_budget,
    }
}

// ----------------------------------------------------------------------
// `smoke` — the CI gate
// ----------------------------------------------------------------------

/// The `(threads, prefetch_depth, simd)` grid a smoke workload runs
/// over, in a deterministic order with the baseline combination first.
fn combos(threads: &[usize], depths: &[usize], simds: &[String]) -> Vec<(usize, usize, String)> {
    simds
        .iter()
        .flat_map(|s| {
            depths
                .iter()
                .flat_map(move |&d| threads.iter().map(move |&t| (t, d, s.clone())))
        })
        .collect()
}

/// Report-file name for one combination: the baseline keeps the bare
/// `{exp}.json` name CI has always archived; variants get suffixes.
fn report_path(dir: &str, exp: &str, k: usize, t: usize, d: usize, s: &str) -> String {
    if k == 0 {
        format!("{dir}/{exp}.json")
    } else {
        format!("{dir}/{exp}-t{t}-d{d}-{s}.json")
    }
}

/// Scaled-down 4-worker GraphSage and GAT training runs whose
/// observability ledgers are checked against the paper's communication
/// claims, in-process (`--transport sim`) or as one `sar-worker` OS
/// process per rank over TCP loopback (`--transport tcp`). The workloads,
/// the training launch and the invariants live in [`sar_bench::smoke`],
/// shared verbatim by both backends. With more than one entry in
/// `--threads`, `--prefetch-depth` or `--simd`, the same workload runs
/// once per combination and the runs' parity digests must match exactly
/// — the parallel kernels', the pipelined exchange's and the SIMD paths'
/// bitwise-determinism contracts. With `--out DIR`, every report and
/// `DIR/BENCH_overlap.json` (one per-phase blocked-vs-wall record per
/// run, diffed against the committed copy by `repro overlap-check`) are
/// written. Returns the violations found (empty = gate passes).
fn smoke(flags: &Flags) -> Vec<String> {
    let models: Vec<&str> = if flags.model == "all" {
        smoke::MODELS.to_vec()
    } else {
        vec![flags.model.as_str()]
    };
    let transport = flags.transport.as_str();
    let nodes = flags.cfg.products_nodes.min(1500);
    let mut overlaps = Vec::new();
    let mut violations = Vec::new();
    for arch_name in models {
        let exp = format!("smoke-{arch_name}");
        let base = match smoke::workload(arch_name, nodes, flags.cfg.seed) {
            Ok(w) => w,
            Err(e) => {
                violations.push(format!("{exp}: {e}"));
                continue;
            }
        };
        let mut first_digest: Option<String> = None;
        let grid = combos(&flags.threads, &flags.depths, &flags.simds);
        for (k, (t, d, s)) in grid.into_iter().enumerate() {
            let mut wl = base.clone();
            wl.threads = t;
            wl.prefetch_depth = d;
            wl.simd = s.clone();
            wl.mem_budget = flags.mem_budget;
            eprintln!(
                "[repro] smoke: training {arch_name}/{} on {} {transport} ranks \
                 (threads={t}, prefetch-depth={d}, simd={s}) ...",
                wl.mode,
                smoke::WORLD
            );
            let trained = smoke::train(transport, &wl, smoke::WORLD, &exp, flags.cfg.cost_model());
            let (report, digest) = match trained {
                Ok(r) => r,
                Err(e) => {
                    violations.push(format!("{exp}: {e}"));
                    continue;
                }
            };
            smoke::ledger_table(&report).print();
            violations.extend(smoke::violations(&report, wl.epochs));
            match &first_digest {
                None => first_digest = Some(digest),
                Some(d0) => {
                    if let Some(diff) = smoke::digest_diff(d0, &digest) {
                        violations.push(format!(
                            "{exp}: --threads {t} --prefetch-depth {d} --simd {s} diverged \
                             from the baseline combination — {diff}"
                        ));
                    }
                }
            }
            overlaps.push(
                Obj::new()
                    .str("experiment", &exp)
                    .str("transport", transport)
                    .raw("threads", t)
                    .raw("prefetch_depth", d)
                    .str("simd", &s)
                    .raw("overlap", report.overlap_json())
                    .finish(),
            );
            if let Some(dir) = &flags.out {
                let path = report_path(dir, &exp, k, t, d, &s);
                match write_file(&path, &report.to_json()) {
                    Ok(()) => eprintln!("[repro] wrote {path}"),
                    Err(e) => violations.push(format!("{exp}: {e}")),
                }
            }
        }
    }
    // Leave the process in the default dispatch mode for whatever runs next.
    sar_tensor::simd::set_mode(sar_tensor::simd::SimdMode::Auto);
    if let Some(dir) = &flags.out {
        let path = format!("{dir}/BENCH_overlap.json");
        match write_file(&path, &json::document(&[], &[("runs", overlaps)])) {
            Ok(()) => eprintln!("[repro] wrote {path}"),
            Err(e) => violations.push(format!("smoke: {e}")),
        }
    }
    violations
}

fn run(name: &str, cfg: &ExpConfig, worlds: Option<&[usize]>) {
    let products_worlds = worlds.unwrap_or(&[4, 8, 16]).to_vec();
    let papers_worlds = worlds.unwrap_or(&[32, 64, 128]).to_vec();
    let tables = match name {
        "table1" => table1(cfg),
        "fig2" => fig2(cfg),
        "fig3" => scaling(
            Arch::GraphSage { hidden: 256 },
            Workload::Products,
            &products_worlds,
            cfg,
        ),
        "fig4" => scaling(
            Arch::Gat {
                head_dim: 128,
                heads: 4,
            },
            Workload::Products,
            &products_worlds,
            cfg,
        ),
        "fig5" => scaling(
            Arch::GraphSage { hidden: 256 },
            Workload::Papers,
            &papers_worlds,
            cfg,
        ),
        "fig6" => scaling(
            Arch::Gat {
                head_dim: 128,
                heads: 4,
            },
            Workload::Papers,
            &papers_worlds,
            cfg,
        ),
        "ablation-prefetch" => vec![ablation_prefetch(cfg)],
        "ablation-softmax" => vec![ablation_softmax(cfg)],
        "ablation-partition" => vec![ablation_partition(cfg)],
        "exactness" => vec![exactness(cfg)],
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };
    for t in tables {
        t.print();
    }
}

/// `repro overlap-check --current PATH --committed PATH`: diff a fresh
/// `BENCH_overlap.json` against the committed copy (run-set identity and
/// ledger invariants; timings are not compared).
fn overlap_check_cmd(args: &[String]) -> i32 {
    let mut current: Option<String> = None;
    let mut committed: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let key = args[i].clone();
        i += 1;
        let Some(v) = args.get(i).cloned() else {
            eprintln!("missing value for {key}");
            return 2;
        };
        match key.as_str() {
            "--current" => current = Some(v),
            "--committed" => committed = Some(v),
            other => {
                eprintln!("unknown overlap-check flag: {other}");
                return 2;
            }
        }
        i += 1;
    }
    let (Some(current), Some(committed)) = (current, committed) else {
        eprintln!("overlap-check needs --current PATH and --committed PATH");
        return 2;
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let (cur, base) = match (read(&current), read(&committed)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[repro] overlap-check: {e}");
            return 1;
        }
    };
    let violations = smoke::overlap_check(&cur, &base);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("[repro] overlap-check VIOLATION: {v}");
        }
        return 1;
    }
    eprintln!("[repro] overlap-check: {current} is consistent with {committed}");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <experiment|all> [flags] — see crate docs");
        std::process::exit(2);
    }
    let rest = &args[1..];
    match args[0].as_str() {
        "kernelbench" => std::process::exit(cli::<KernelBench>(rest)),
        "servebench" => std::process::exit(cli::<ServeBench>(rest)),
        "compressbench" => std::process::exit(cli::<CompressBench>(rest)),
        "outofcorebench" => std::process::exit(cli::<OutOfCoreBench>(rest)),
        "overlap-check" => std::process::exit(overlap_check_cmd(rest)),
        _ => {}
    }
    let flags = parse_flags(&args[1..]);
    let (cfg, worlds, transport) = (&flags.cfg, &flags.worlds, &flags.transport);
    eprintln!(
        "[repro] products-like n={}, papers-like n={}, epochs={}, timing-epochs={}, bw-scale={}",
        cfg.products_nodes, cfg.papers_nodes, cfg.epochs, cfg.timing_epochs, cfg.bandwidth_scale
    );
    if args[0] == "smoke" {
        let violations = smoke(&flags);
        if violations.is_empty() {
            eprintln!("[repro] smoke ({transport}): all ledger invariants hold");
        } else {
            for v in &violations {
                eprintln!("[repro] smoke VIOLATION: {v}");
            }
            std::process::exit(1);
        }
        return;
    }
    if args[0] == "all" {
        for name in [
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "ablation-prefetch",
            "ablation-softmax",
            "ablation-partition",
            "exactness",
        ] {
            eprintln!("[repro] running {name} ...");
            run(name, cfg, worlds.as_deref());
        }
    } else {
        run(&args[0], cfg, worlds.as_deref());
    }
}
