//! `perfbench` — runs one workload and prints its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! Prints a host record, a metric table and, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones. Exits 1 if any correctness check failed, 2 on bad
//! flags. `perfbench rank ...` is the rank process the coordinator spawns.

use std::process::{Command, Stdio};

use sar_perfbench::coordinator::{self, Outcome, RunOpts};
use sar_perfbench::rank::{self, RankArgs};
use sar_perfbench::spec::{Scale, WORLD};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--scale full|tiny]"
    );
    std::process::exit(2);
}

/// Parses `--flag value` pairs into a lookup.
fn flags(args: &[String]) -> std::collections::BTreeMap<String, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag}"));
        };
        let Some(value) = it.next() else {
            usage(&format!("missing value for {flag}"));
        };
        out.insert(name.to_string(), value.clone());
    }
    out
}

fn take<T: std::str::FromStr>(
    f: &mut std::collections::BTreeMap<String, String>,
    name: &str,
    default: Option<&str>,
) -> T {
    let raw = f
        .remove(name)
        .or_else(|| default.map(str::to_string))
        .unwrap_or_else(|| usage(&format!("--{name} is required")));
    raw.parse()
        .unwrap_or_else(|_| usage(&format!("bad value for --{name}: {raw}")))
}

fn trace_flag(v: u8) -> bool {
    match v {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    }
}

fn scale_flag(s: &str) -> Scale {
    Scale::parse(s).unwrap_or_else(|| usage(&format!("bad --scale {s}")))
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The host record as a JSON object.
fn host_record() -> String {
    sar_tensor::simd::set_mode(sar_tensor::simd::SimdMode::Auto);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cores\": {cores}, \"ranks\": {WORLD}, \"threads_per_rank\": 1, \
         \"simd\": \"{}\", \"commit\": \"{}\"}}",
        sar_tensor::simd::dispatch_label(),
        commit()
    )
}

fn print_table(opts: &RunOpts, out: &Outcome) {
    println!(
        "workload {} seed {} | reps untraced {} traced {} | ops {} attempted, {} failed",
        opts.workload, opts.seed, out.reps.0, out.reps.1, out.ops.attempted, out.ops.failed
    );
    if !opts.trace {
        println!(
            "median over {} deployments; serving percentiles from at least {} \
             closed-loop samples per deployment",
            out.reps.0, out.serve_samples
        );
    }
    println!("{:<30} {:>16} {:<6} feeds", "metric", "value", "unit");
    for m in &out.metrics {
        println!("{:<30} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.feeds);
    }
    if let Some(path) = &out.trace_file {
        println!("spans written to {path}");
    }
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.failed == 0,
        out.ops.attempted,
        out.ops.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("rank") {
        let mut f = flags(&args[1..]);
        let a = RankArgs {
            workload: take(&mut f, "workload", None),
            seed: take(&mut f, "seed", None),
            rank: take(&mut f, "rank", None),
            trace: trace_flag(take(&mut f, "trace", None)),
            scale: scale_flag(&take::<String>(&mut f, "scale", Some("full"))),
        };
        if let Err(e) = rank::run(&a) {
            eprintln!("perfbench rank {}: {e}", a.rank);
            std::process::exit(1);
        }
        return;
    }
    let mut f = flags(&args);
    let opts = RunOpts {
        workload: take(&mut f, "workload", None),
        seed: take(&mut f, "seed", None),
        seconds: take(&mut f, "seconds", None),
        trace: trace_flag(take(&mut f, "trace", None)),
        scale: scale_flag(&take::<String>(&mut f, "scale", Some("full"))),
    };
    if let Some(extra) = f.keys().next() {
        usage(&format!("unknown flag --{extra}"));
    }
    let host = host_record();
    println!("host {host}");
    let out = coordinator::run(&opts, &host).unwrap_or_else(|e| usage(&e));
    print_table(&opts, &out);
    for failure in &out.ops.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    println!("{}", result_json(&out));
    if out.ops.failed > 0 {
        std::process::exit(1);
    }
}
