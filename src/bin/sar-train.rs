//! `sar-train` — command-line distributed full-batch GNN training.
//!
//! ```text
//! sar-train [flags]
//!
//!   --transport sim|tcp           in-process simulated cluster, or one
//!                                 OS process per rank over TCP loopback
//!                                 (spawns the sar-worker binary)   (sim)
//!   --dataset products|papers     synthetic stand-in to generate  (products)
//!   --dataset-file PATH           or load a binary dataset (sar_graph::io)
//!   --nodes N                     stand-in size                   (4000)
//!   --workers N                   cluster size                    (4)
//!   --arch sage|gat|gcn           model architecture              (sage)
//!   --mode sar|sar-fak|dp         execution mode                  (sar-fak)
//!   --layers N                    GNN depth                       (3)
//!   --hidden N                    hidden size (per head for GAT)  (128)
//!   --heads N                     GAT attention heads             (4)
//!   --epochs N                    training epochs                 (50)
//!   --lr X                        base learning rate              (0.01)
//!   --dropout X                   dropout probability             (0.3)
//!   --jk                          jumping-knowledge skip connections
//!   --no-label-aug                disable masked label prediction
//!   --no-cs                       disable Correct & Smooth
//!   --prefetch-depth K            fetch pipeline depth: (K+2)/N memory,
//!                                 0 = sequential, 1 = paper's 3/N   (0)
//!   --partitioner ml|random|range|bfs                             (ml)
//!   --threads N                   intra-worker kernel threads     (1)
//!   --simd auto|scalar            SIMD dispatch mode              (auto)
//!   --codec raw|f16|bf16|int8|delta
//!                                 wire codec for remote activation/
//!                                 gradient payloads; negotiated at the
//!                                 TCP rendezvous                  (raw)
//!   --mem-budget BYTES            resident-tensor budget for the disk
//!                                 tier: blocks past the budget spill to
//!                                 an mmap-backed store and fault back
//!                                 on demand, bitwise identical results;
//!                                 0 disables spilling              (0)
//!   --protocol exact|gradonly|stale:<r>
//!                                 exchange protocol; approximate modes
//!                                 trade accuracy for wire volume, the
//!                                 final evaluation always runs exact
//!                                                                 (exact)
//!   --save-model PATH             checkpoint final parameters
//!   --report-json PATH            write the per-worker observability
//!                                 RunReport (phase/layer comm ledger,
//!                                 memory peaks, timings) as JSON
//!   --seed N                                                      (0)
//! ```
//!
//! Exits with status 1 if training diverged (non-finite loss) — after
//! writing the report, so CI can archive the evidence.
//!
//! Under `--transport tcp` the run is delegated to `sar-worker`
//! processes, which rebuild the synthetic dataset deterministically from
//! flags; `--dataset-file` and `--save-model` are therefore rejected
//! there (the multi-process path gathers ledgers and metrics to rank 0,
//! not trained parameters or logits).

use sar::bench::distrun::Workload;
use sar::bench::launcher;
use sar::bench::report::RunReport;
use sar::comm::CostModel;
use sar::core::{checkpoint, train};
use sar::graph::io;
use sar::nn::ConfusionMatrix;

/// The command line: the training run as a [`Workload`], plus the
/// options that only `sar-train` has.
struct Args {
    transport: String,
    dataset_file: Option<String>,
    workers: usize,
    save_model: Option<String>,
    report_json: Option<String>,
    workload: Workload,
}

fn fail(msg: &str) -> ! {
    eprintln!("sar-train: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        transport: "sim".into(),
        dataset_file: None,
        workers: 4,
        save_model: None,
        report_json: None,
        // sar-train's documented defaults; C&S and the step schedule
        // (StepDecay{epochs/3, 0.5}) are the paper's recipe.
        workload: Workload {
            nodes: 4000,
            hidden: 128,
            mode: "sar-fak".into(),
            epochs: 50,
            cs: true,
            schedule: "step".into(),
            ..Workload::default()
        },
    };
    let wl = &mut args.workload;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> String {
            i += 1;
            argv.get(i)
                .cloned()
                .unwrap_or_else(|| fail(&format!("missing value for {flag}")))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> T {
            v.parse().unwrap_or_else(|_| fail(flag))
        }
        match flag {
            "--transport" => args.transport = value(),
            "--dataset" => wl.dataset = value(),
            "--dataset-file" => args.dataset_file = Some(value()),
            "--nodes" => wl.nodes = num(flag, value()),
            "--workers" => args.workers = num(flag, value()),
            "--arch" => wl.arch = value(),
            "--mode" => wl.mode = value(),
            "--layers" => wl.layers = num(flag, value()),
            "--hidden" => wl.hidden = num(flag, value()),
            "--heads" => wl.heads = num(flag, value()),
            "--epochs" => wl.epochs = num(flag, value()),
            "--lr" => wl.lr = num(flag, value()),
            "--dropout" => wl.dropout = num(flag, value()),
            "--jk" => wl.jk = true,
            "--no-label-aug" => wl.label_aug = false,
            "--no-cs" => wl.cs = false,
            "--prefetch-depth" => wl.prefetch_depth = num(flag, value()),
            "--partitioner" => wl.partitioner = value(),
            "--threads" => wl.threads = num(flag, value()),
            "--simd" => wl.simd = value(),
            "--codec" => wl.codec = value(),
            "--protocol" => wl.protocol = value(),
            "--mem-budget" => wl.mem_budget = num(flag, value()),
            "--save-model" => args.save_model = Some(value()),
            "--report-json" => args.report_json = Some(value()),
            "--seed" => wl.seed = num(flag, value()),
            "--help" | "-h" => {
                eprintln!("see the doc comment at the top of src/bin/sar-train.rs");
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    args
}

/// `--transport tcp`: delegate the run to one `sar-worker` OS process
/// per rank. The workload maps onto `sar-worker` flags one-to-one; the
/// options that need shared memory or a full parameter/logit gather are
/// rejected up front with an explanation instead of silently dropped.
fn run_tcp(args: &Args) -> ! {
    if args.dataset_file.is_some() {
        fail(
            "--dataset-file is not supported with --transport tcp: every rank rebuilds \
             the dataset deterministically from flags (use --dataset/--nodes/--seed)",
        );
    }
    if args.save_model.is_some() {
        fail(
            "--save-model is not supported with --transport tcp: the multi-process run \
             gathers ledgers and metrics to rank 0, not trained parameters",
        );
    }
    let wl = &args.workload;
    let exe = launcher::sibling_binary("sar-worker").unwrap_or_else(|e| fail(&e));
    let mut worker_args = wl.to_args();
    worker_args.extend([
        "--experiment".to_string(),
        format!("sar-train/{}", wl.dataset),
    ]);
    if let Some(path) = &args.report_json {
        worker_args.extend(["--out".to_string(), path.clone()]);
    }
    println!(
        "training {} / {} for {} epochs on {} OS processes over TCP ...",
        wl.arch, wl.mode, wl.epochs, args.workers
    );
    match launcher::spawn_ranks(&exe, args.workers, &worker_args) {
        Ok(()) => std::process::exit(0),
        Err(e) => fail(&format!("tcp run failed: {e}")),
    }
}

fn main() {
    let args = parse_args();
    let wl = &args.workload;
    // The tcp path re-validates in each rank process; the sim path
    // applies the dispatch mode here, before any kernels run.
    match sar::tensor::simd::parse_mode(&wl.simd) {
        Some(mode) => sar::tensor::simd::set_mode(mode),
        None => fail(&format!("unknown --simd {} (auto|scalar)", wl.simd)),
    }
    match args.transport.as_str() {
        "sim" => {}
        "tcp" => run_tcp(&args),
        other => fail(&format!("unknown transport {other} (sim or tcp)")),
    }
    let (dataset, partitioning) = match &args.dataset_file {
        Some(path) => {
            let dataset = io::load_dataset(path)
                .unwrap_or_else(|e| fail(&format!("cannot load {path}: {e}")));
            let part = wl
                .partition(&dataset, args.workers)
                .unwrap_or_else(|e| fail(&e));
            (dataset, part)
        }
        None => wl.build_data(args.workers).unwrap_or_else(|e| fail(&e)),
    };
    let cfg = wl.train_config(&dataset).unwrap_or_else(|e| fail(&e));

    println!(
        "dataset {} | {} nodes, {} edges, {} classes",
        dataset.name,
        dataset.num_nodes(),
        dataset.graph.num_edges(),
        dataset.num_classes
    );
    println!(
        "partitioned into {} parts | cut {:.1}% | balance {:.3}",
        args.workers,
        100.0 * partitioning.cut_fraction(&dataset.graph),
        partitioning.balance()
    );
    println!(
        "training {:?} / {:?} for {} epochs on {} workers ...",
        cfg.model.arch, cfg.model.mode, wl.epochs, args.workers
    );
    let report = train(&dataset, &partitioning, CostModel::default(), &cfg);

    for (e, loss) in report.losses.iter().enumerate() {
        if e % (wl.epochs / 10).max(1) == 0 || e + 1 == report.losses.len() {
            println!("epoch {e:>4}  loss {loss:.4}");
        }
    }
    println!("val  accuracy: {:.2}%", 100.0 * report.val_acc);
    println!("test accuracy: {:.2}%", 100.0 * report.test_acc);
    if let Some(cs) = report.test_acc_cs {
        println!("test accuracy after C&S: {:.2}%", 100.0 * cs);
    }
    let cm = ConfusionMatrix::from_logits(
        &report.logits,
        &dataset.labels,
        &dataset.test_mask,
        dataset.num_classes,
    );
    println!("test macro-F1: {:.3}", cm.macro_f1());
    println!(
        "avg epoch time (modeled): {:.3}s | max peak memory/worker: {:.2} MiB | total traffic: {:.1} MiB",
        report.avg_epoch_time(),
        report.max_peak_bytes() as f64 / (1024.0 * 1024.0),
        report.total_sent_bytes as f64 / (1024.0 * 1024.0),
    );

    if let Some(path) = &args.save_model {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
        checkpoint::save_raw_params(&report.final_params, file)
            .unwrap_or_else(|e| fail(&format!("cannot save model: {e}")));
        println!("saved trained parameters to {path}");
    }

    let json_report = RunReport::from_train(
        format!("sar-train/{}", dataset.name),
        &wl.arch,
        &wl.mode,
        &report,
    );
    if let Some(path) = &args.report_json {
        json_report
            .write_json(path)
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        println!("wrote observability report to {path}");
    }
    if json_report.has_non_finite_loss() {
        eprintln!("sar-train: training diverged (non-finite loss)");
        std::process::exit(1);
    }
}
