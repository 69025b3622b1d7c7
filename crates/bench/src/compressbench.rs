//! `repro compressbench` — the codec/protocol ablation with a committed,
//! CI-gated `BENCH_compress.json`.
//!
//! Trains the scaled-down smoke workloads across a fixed grid of
//! `{wire codec} × {exchange protocol}` combinations and records, per
//! run, the accuracy outcome plus the *logical* (raw-f32) and *wire*
//! (post-codec) byte volumes of the fetch and gradient-routing phases.
//! Simulated runs train in-process; the TCP subset spawns one
//! `sar-worker` OS process per rank over loopback and reads back the
//! gathered `RunReport` JSON, so the negotiated wire path is measured
//! end to end.
//!
//! Following the `BENCH_kernels.json` precedent, the committed artifact
//! is never compared on timing magnitudes — epoch times are recorded for
//! human eyes only. The gate checks *structure and invariants*, on both
//! the fresh and the committed report:
//!
//! * schema and run-set identity (a mismatch means the artifact is
//!   stale — regenerate with `repro compressbench --out`),
//! * `raw` moves exactly its logical volume (wire == logical),
//! * every lossy codec beats the 2× payload-reduction bar on the fetch
//!   phases; `delta` (lossless) stays within its header overhead,
//! * `gradonly` moves zero gradient-routing bytes and only the exact
//!   final evaluation's fetch volume; `stale:<r>` undercuts the exact
//!   fetch volume,
//! * the `raw`/`exact` parity digest agrees between the simulated and
//!   the TCP transport (the codec layer cannot perturb training),
//! * every run's final loss is finite and its validation accuracy stays
//!   within [`ACC_FLOOR`] of the same transport's `raw`/`exact` run.

use sar_comm::{CostModel, Phase};

use crate::harness::Bench;
use crate::json::{Obj, Value};
use crate::report::{PhaseRow, Table};
use crate::smoke;

/// How far a lossy/approximate run's validation accuracy may fall below
/// the same transport's `raw`/`exact` baseline before the gate fails.
pub const ACC_FLOOR: f64 = 0.20;

/// Minimum payload-only wire reduction a lossy codec must deliver on the
/// fetch phases (`(logical − header) / (wire − header)`). f16/bf16 halve
/// the payload exactly but carry an 8-byte stream header per block, so
/// the bar sits just under 2×; int8 clears it with ≈3.8×.
pub const LOSSY_REDUCTION_BAR: f64 = 1.9;

/// Cluster size (simulated workers / OS processes).
const WORLD: usize = 4;
/// Synthetic products-like node count.
const NODES: usize = 1200;
/// Training epochs per run.
const EPOCHS: usize = 8;

/// One `(arch, codec, protocol)` grid cell.
type Cell = (&'static str, &'static str, &'static str);

/// The simulated-transport grid: the full codec sweep plus the
/// approximate protocols on GraphSage, and a GAT spot-check.
const SIM_GRID: [Cell; 10] = [
    ("sage", "raw", "exact"),
    ("sage", "f16", "exact"),
    ("sage", "int8", "exact"),
    ("sage", "raw", "gradonly"),
    ("sage", "raw", "stale:4"),
    ("sage", "bf16", "exact"),
    ("sage", "delta", "exact"),
    ("sage", "int8", "stale:4"),
    ("gat", "raw", "exact"),
    ("gat", "int8", "exact"),
];

/// The TCP subset: enough to pin the negotiated wire path (exact parity,
/// a lossy codec, an approximate protocol) without a full OS-process
/// sweep per cell.
const TCP_GRID: [Cell; 3] = [
    ("sage", "raw", "exact"),
    ("sage", "int8", "exact"),
    ("sage", "raw", "stale:4"),
];

/// One grid cell's measured run.
#[derive(Debug, Clone)]
pub struct CompressRun {
    /// `"sim"` or `"tcp"`.
    pub transport: String,
    /// Architecture name (`"sage"`, `"gat"`).
    pub arch: String,
    /// Negotiated wire codec.
    pub codec: String,
    /// Exchange protocol (`"exact"`, `"gradonly"`, `"stale:<r>"`).
    pub protocol: String,
    /// Final-epoch training loss.
    pub final_loss: f64,
    /// Validation accuracy after the (always exact) final evaluation.
    pub val_acc: f64,
    /// Test accuracy.
    pub test_acc: f64,
    /// Logical (raw-f32) bytes sent in the fetch phases
    /// (`forward_fetch` + `backward_refetch`), summed over workers.
    pub fetch_logical_bytes: u64,
    /// Post-codec wire bytes for the same phases.
    pub fetch_wire_bytes: u64,
    /// Messages sent in the fetch phases.
    pub fetch_messages: u64,
    /// Logical bytes sent in the `grad_routing` phase.
    pub grad_logical_bytes: u64,
    /// Post-codec wire bytes for `grad_routing`.
    pub grad_wire_bytes: u64,
    /// Messages sent in `grad_routing`.
    pub grad_messages: u64,
    /// Mean epoch time, seconds (modeled on sim, measured on tcp) —
    /// recorded for humans, never gated.
    pub epoch_time_s: f64,
    /// FNV-1a 64 fingerprint of the run's parity digest; recorded only
    /// for `raw`/`exact` runs, where it must agree across transports.
    pub digest: Option<String>,
}

/// FNV-1a 64 over a string — the stable fingerprint committed in place
/// of the multi-line parity digest.
#[must_use]
pub fn fingerprint(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The workload for one grid cell (the smoke workload with the cell's
/// codec/protocol and this benchmark's epoch count).
fn cell_workload((arch, codec, protocol): Cell) -> Result<crate::distrun::Workload, String> {
    let mut wl = smoke::workload(arch, NODES, 0)?;
    wl.epochs = EPOCHS;
    wl.codec = codec.to_string();
    wl.protocol = protocol.to_string();
    Ok(wl)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Trains one grid cell on `transport` (in-process, or one `sar-worker`
/// OS process per rank) and distills its run record.
fn run_cell(transport: &str, cell: Cell) -> Result<CompressRun, String> {
    let (arch, codec, protocol) = cell;
    let wl = cell_workload(cell)?;
    eprintln!("[compressbench] {transport}: {arch} codec={codec} protocol={protocol} ...");
    let experiment = format!("compressbench-{arch}-{codec}-{protocol}");
    let (report, digest) = smoke::train(transport, &wl, WORLD, &experiment, CostModel::default())
        .map_err(|e| format!("{transport} {arch}/{codec}/{protocol}: {e}"))?;
    let sum = |phases: &[Phase], f: fn(&PhaseRow) -> u64| -> u64 {
        let phases: Vec<&str> = phases.iter().map(|p| p.name()).collect();
        report
            .workers
            .iter()
            .flat_map(|w| &w.phases)
            .filter(|r| phases.contains(&r.phase))
            .map(f)
            .sum()
    };
    let fetch = [Phase::ForwardFetch, Phase::BackwardRefetch];
    let grad = [Phase::GradRouting];
    Ok(CompressRun {
        transport: transport.into(),
        arch: arch.into(),
        codec: codec.into(),
        protocol: protocol.into(),
        final_loss: f64::from(report.losses.last().copied().unwrap_or(f32::NAN)),
        val_acc: report.val_acc,
        test_acc: report.test_acc,
        fetch_logical_bytes: sum(&fetch, |r| r.sent_bytes),
        fetch_wire_bytes: sum(&fetch, |r| r.wire_sent_bytes),
        fetch_messages: sum(&fetch, |r| r.sent_messages),
        grad_logical_bytes: sum(&grad, |r| r.sent_bytes),
        grad_wire_bytes: sum(&grad, |r| r.wire_sent_bytes),
        grad_messages: sum(&grad, |r| r.sent_messages),
        epoch_time_s: mean(&report.epoch_times),
        digest: (codec == "raw" && protocol == "exact").then(|| fingerprint(&digest)),
    })
}

// ----------------------------------------------------------------------
// The CI gate
// ----------------------------------------------------------------------

/// Payload-only bytes: the ledgered volume minus the 32-byte frame
/// header each message carries on both the logical and the wire side.
fn payload(bytes: f64, messages: f64) -> f64 {
    bytes - 32.0 * messages
}

/// The identity of one run within a report.
fn run_key(r: &Value) -> String {
    let s = |k: &str| r.get(k).and_then(Value::str).unwrap_or("?");
    format!(
        "{}/{}/{}/{}",
        s("transport"),
        s("arch"),
        s("codec"),
        s("protocol")
    )
}

/// Invariants one report's run set must satisfy, fresh or committed.
/// `label` names the side in violation messages. Epoch times are never
/// compared.
fn report_invariants(label: &str, runs: &[Value]) -> Vec<String> {
    let mut violations = Vec::new();
    let find = |transport: &str, arch: &str, codec: &str, protocol: &str| {
        runs.iter().find(|r| {
            let s = |k: &str| r.get(k).and_then(Value::str).unwrap_or("");
            s("transport") == transport
                && s("arch") == arch
                && s("codec") == codec
                && s("protocol") == protocol
        })
    };
    for r in runs {
        let ctx = format!("{label} run {}", run_key(r));
        let num = |k: &str| r.get(k).and_then(Value::num);
        let s = |k: &str| r.get(k).and_then(Value::str).unwrap_or("?");
        let (codec, protocol) = (s("codec"), s("protocol"));
        match num("final_loss") {
            Some(l) if l.is_finite() => {}
            _ => violations.push(format!("{ctx}: final loss is missing or non-finite")),
        }
        let Some([f_log, f_wire, f_msgs, g_log, g_wire, _g_msgs]) = [
            "fetch_logical_bytes",
            "fetch_wire_bytes",
            "fetch_messages",
            "grad_logical_bytes",
            "grad_wire_bytes",
            "grad_messages",
        ]
        .into_iter()
        .map(num)
        .collect::<Option<Vec<f64>>>()
        .and_then(|v| <[f64; 6]>::try_from(v).ok()) else {
            violations.push(format!("{ctx}: missing byte counters"));
            continue;
        };
        if codec == "raw" && (f_wire != f_log || g_wire != g_log) {
            violations.push(format!(
                "{ctx}: raw codec moved wire bytes ≠ logical bytes \
                 (fetch {f_wire} vs {f_log}, grad {g_wire} vs {g_log})"
            ));
        }
        if matches!(codec, "f16" | "bf16" | "int8") {
            let (lp, wp) = (payload(f_log, f_msgs), payload(f_wire, f_msgs));
            if !(wp > 0.0 && lp / wp >= LOSSY_REDUCTION_BAR) {
                violations.push(format!(
                    "{ctx}: fetch payload reduction {:.2}× is below the \
                     {LOSSY_REDUCTION_BAR}× bar ({lp} logical vs {wp} wire payload bytes)",
                    if wp > 0.0 { lp / wp } else { f64::INFINITY }
                ));
            }
        }
        if codec == "delta" && f_wire > f_log + 16.0 * f_msgs {
            violations.push(format!(
                "{ctx}: lossless delta wire bytes {f_wire} exceed logical {f_log} \
                 beyond the per-message header overhead"
            ));
        }
        // Baselines for the protocol and accuracy gates: the same
        // transport + arch at raw/exact.
        let baseline = find(s("transport"), s("arch"), "raw", "exact");
        if protocol == "gradonly" {
            if g_log != 0.0 || g_wire != 0.0 {
                violations.push(format!(
                    "{ctx}: gradonly routed {g_log} logical / {g_wire} wire gradient bytes"
                ));
            }
            if let Some(b) = baseline.and_then(|b| b.get("fetch_logical_bytes")) {
                if let Some(b) = b.num() {
                    if f_log * 2.0 >= b {
                        violations.push(format!(
                            "{ctx}: fetch volume {f_log} is not under half the exact \
                             baseline {b} — training epochs fetched remotely"
                        ));
                    }
                }
            }
        }
        if protocol.starts_with("stale:") {
            if let Some(b) = baseline
                .and_then(|b| b.get("fetch_logical_bytes"))
                .and_then(Value::num)
            {
                if f_log >= b * 3.0 / 4.0 {
                    violations.push(format!(
                        "{ctx}: fetch volume {f_log} does not undercut the exact \
                         baseline {b} — stale epochs fetched remotely"
                    ));
                }
            }
        }
        if let (Some(acc), Some(base_acc)) = (
            num("val_acc"),
            baseline.and_then(|b| b.get("val_acc")).and_then(Value::num),
        ) {
            if acc < base_acc - ACC_FLOOR {
                violations.push(format!(
                    "{ctx}: val accuracy {acc:.4} fell more than {ACC_FLOOR} below \
                     the exact baseline {base_acc:.4}"
                ));
            }
        }
    }
    // The raw/exact parity digest must agree across transports *for the
    // same workload*: the codec layer and the negotiation cannot perturb
    // training. Different architectures legitimately digest differently.
    let digests: Vec<(&str, &str, &str)> = runs
        .iter()
        .filter_map(|r| {
            let d = r.get("digest").and_then(Value::str)?;
            Some((
                r.get("arch").and_then(Value::str)?,
                r.get("transport").and_then(Value::str)?,
                d,
            ))
        })
        .collect();
    for (i, a) in digests.iter().enumerate() {
        for b in &digests[i + 1..] {
            if a.0 == b.0 && a.2 != b.2 {
                violations.push(format!(
                    "{label}: {} raw/exact parity digest differs across transports \
                     ({} {} vs {} {})",
                    a.0, a.1, a.2, b.1, b.2
                ));
            }
        }
    }
    violations
}

/// `repro compressbench`: the sim grid in-process, then the TCP subset
/// as real OS processes, gated on `BENCH_compress.json` by run set and
/// [`report_invariants`].
pub struct CompressBench;

impl Bench for CompressBench {
    const NAME: &'static str = "compressbench";
    const SCHEMA: &'static str = "sar-compressbench/v1";
    const ARTIFACT: &'static str = "BENCH_compress.json";
    const ARRAYS: &'static [&'static str] = &["runs"];
    type Report = Vec<CompressRun>;

    fn run() -> Result<Vec<CompressRun>, String> {
        let sim = SIM_GRID.iter().map(|&cell| run_cell("sim", cell));
        let tcp = TCP_GRID.iter().map(|&cell| run_cell("tcp", cell));
        sim.chain(tcp).collect()
    }

    fn header(_runs: &Vec<CompressRun>) -> Vec<(&'static str, String)> {
        vec![
            ("world", WORLD.to_string()),
            ("nodes", NODES.to_string()),
            ("epochs", EPOCHS.to_string()),
        ]
    }

    fn records(runs: &Vec<CompressRun>) -> Vec<Vec<String>> {
        vec![runs
            .iter()
            .map(|r| {
                Obj::new()
                    .str("transport", &r.transport)
                    .str("arch", &r.arch)
                    .str("codec", &r.codec)
                    .str("protocol", &r.protocol)
                    .num("final_loss", r.final_loss, 6)
                    .num("val_acc", r.val_acc, 6)
                    .num("test_acc", r.test_acc, 6)
                    .raw("fetch_logical_bytes", r.fetch_logical_bytes)
                    .raw("fetch_wire_bytes", r.fetch_wire_bytes)
                    .raw("fetch_messages", r.fetch_messages)
                    .raw("grad_logical_bytes", r.grad_logical_bytes)
                    .raw("grad_wire_bytes", r.grad_wire_bytes)
                    .raw("grad_messages", r.grad_messages)
                    .num("epoch_time_s", r.epoch_time_s, 6)
                    .raw(
                        "digest",
                        r.digest
                            .as_deref()
                            .map_or("null".into(), crate::json::string),
                    )
                    .finish()
            })
            .collect()]
    }

    fn tables(runs: &Vec<CompressRun>) -> Vec<Table> {
        let mut t = Table::new(
            format!("compressbench — world={WORLD} nodes={NODES} epochs={EPOCHS}"),
            &[
                "xprt",
                "arch",
                "codec",
                "protocol",
                "loss",
                "val%",
                "fetch_log_B",
                "fetch_wire_B",
                "reduce",
                "grad_log_B",
                "grad_wire_B",
            ],
        );
        for r in runs {
            let lp = payload(r.fetch_logical_bytes as f64, r.fetch_messages as f64);
            let wp = payload(r.fetch_wire_bytes as f64, r.fetch_messages as f64);
            t.row(vec![
                r.transport.clone(),
                r.arch.clone(),
                r.codec.clone(),
                r.protocol.clone(),
                format!("{:.4}", r.final_loss),
                format!("{:.2}", 100.0 * r.val_acc),
                r.fetch_logical_bytes.to_string(),
                r.fetch_wire_bytes.to_string(),
                if wp > 0.0 {
                    format!("{:.2}x", lp / wp)
                } else {
                    "-".into()
                },
                r.grad_logical_bytes.to_string(),
                r.grad_wire_bytes.to_string(),
            ]);
        }
        vec![t]
    }

    fn run_key(_array: &str, run: &Value) -> Result<String, String> {
        Ok(run_key(run))
    }

    fn invariants(label: &str, doc: &Value) -> Vec<String> {
        report_invariants(label, doc.items("runs"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, to_json};

    fn run(transport: &str, codec: &str, protocol: &str, digest: Option<&str>) -> CompressRun {
        // Logical volumes mimic a real sweep: 1000 fetch messages of
        // 32-byte header + 4000 payload bytes each.
        let (msgs, logical) = (1000u64, 1000 * (32 + 4000) as u64);
        let wire = match codec {
            "f16" => 1000 * (32 + 8 + 2000),
            "bf16" => 1000 * (32 + 8 + 2000),
            "int8" => 1000 * (32 + 8 + 1000 + 4 * 16),
            "delta" => 1000 * (32 + 9 + 4000),
            _ => logical,
        };
        let training_fetch = if protocol == "gradonly" {
            logical / 9
        } else if protocol.starts_with("stale:") {
            logical / 3
        } else {
            logical
        };
        let scale = |b: u64| (b as f64 * training_fetch as f64 / logical as f64) as u64;
        CompressRun {
            transport: transport.into(),
            arch: "sage".into(),
            codec: codec.into(),
            protocol: protocol.into(),
            final_loss: 1.25,
            val_acc: 0.62,
            test_acc: 0.60,
            fetch_logical_bytes: training_fetch,
            fetch_wire_bytes: scale(wire),
            fetch_messages: (msgs as f64 * training_fetch as f64 / logical as f64) as u64,
            grad_logical_bytes: if protocol == "gradonly" { 0 } else { 500_000 },
            grad_wire_bytes: if protocol == "gradonly" { 0 } else { 500_000 },
            grad_messages: if protocol == "gradonly" { 0 } else { 120 },
            epoch_time_s: 0.05,
            digest: digest.map(str::to_string),
        }
    }

    fn sample_report() -> Vec<CompressRun> {
        vec![
            run("sim", "raw", "exact", Some("00ff00ff00ff00ff")),
            run("sim", "f16", "exact", None),
            run("sim", "int8", "exact", None),
            run("sim", "delta", "exact", None),
            run("sim", "raw", "gradonly", None),
            run("sim", "raw", "stale:4", None),
            run("tcp", "raw", "exact", Some("00ff00ff00ff00ff")),
        ]
    }

    fn gate(current: &Vec<CompressRun>, committed: &str) -> Vec<String> {
        check::<CompressBench>(&to_json::<CompressBench>(current), committed)
    }

    #[test]
    fn timings_may_drift_but_the_grid_may_not() {
        let r = sample_report();
        let committed = to_json::<CompressBench>(&r);
        // Epoch times drift freely.
        let mut slow = r.clone();
        for run in &mut slow {
            run.epoch_time_s *= 100.0;
        }
        assert!(gate(&slow, &committed).is_empty());
        // A missing run is structural drift.
        let mut fewer = r.clone();
        fewer.pop();
        assert!(gate(&fewer, &committed)
            .iter()
            .any(|v| v.contains("not produced")));
    }

    #[test]
    fn gate_rejects_broken_codec_and_protocol_claims() {
        let r = sample_report();
        let committed = to_json::<CompressBench>(&r);
        // raw must move exactly its logical volume.
        let mut leaky = r.clone();
        leaky[0].fetch_wire_bytes += 64;
        assert!(gate(&leaky, &committed)
            .iter()
            .any(|v| v.contains("raw codec")));
        // A lossy codec that stops compressing fails the 2x bar.
        let mut bloated = r.clone();
        bloated[1].fetch_wire_bytes = bloated[1].fetch_logical_bytes;
        assert!(gate(&bloated, &committed)
            .iter()
            .any(|v| v.contains("below the")));
        // gradonly moving gradient bytes is a protocol violation.
        let mut routed = r.clone();
        routed[4].grad_wire_bytes = 9000;
        routed[4].grad_logical_bytes = 9000;
        assert!(gate(&routed, &committed)
            .iter()
            .any(|v| v.contains("gradonly")));
        // A stale run with the full exact fetch volume skipped nothing.
        let mut eager = r.clone();
        eager[5].fetch_logical_bytes = eager[0].fetch_logical_bytes;
        eager[5].fetch_wire_bytes = eager[0].fetch_wire_bytes;
        assert!(gate(&eager, &committed).iter().any(|v| v.contains("stale")));
        // Diverging cross-transport digests mean the codec perturbed
        // training.
        let mut skew = r.clone();
        skew[6].digest = Some("deadbeefdeadbeef".into());
        assert!(gate(&skew, &committed).iter().any(|v| v.contains("digest")));
        // Accuracy collapse under an approximate protocol fails the floor.
        let mut collapsed = r.clone();
        collapsed[4].val_acc = 0.1;
        assert!(gate(&collapsed, &committed)
            .iter()
            .any(|v| v.contains("accuracy")));
    }

    #[test]
    fn fingerprint_is_stable_and_collision_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("").len(), 16);
    }

    #[test]
    fn grids_cover_the_claimed_cells() {
        assert!(SIM_GRID.contains(&("sage", "raw", "exact")));
        assert!(SIM_GRID.contains(&("sage", "delta", "exact")));
        assert!(SIM_GRID.contains(&("gat", "int8", "exact")));
        // Every TCP raw/exact cell also exists in the sim grid, so the
        // digest cross-check always has both sides.
        for cell in TCP_GRID {
            assert!(
                cell.1 != "raw" || cell.2 != "exact" || SIM_GRID.contains(&cell),
                "tcp raw/exact cell missing from the sim grid"
            );
        }
    }
}
