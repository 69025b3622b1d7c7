//! Plain-text table rendering and machine-readable run reports.
//!
//! [`Table`] renders the paper's tables/figures for human eyes;
//! [`RunReport`] serializes a full training run — per-worker, per-layer,
//! per-phase timings, communication volumes and tensor-memory peaks — to
//! JSON so CI can archive and gate on it. The JSON goes through
//! [`crate::json`]; the schema is documented on [`RunReport::to_json`].

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use sar_comm::Phase;

use crate::json::{self, Value};

/// A printable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. `"Figure 3a — epoch time (s)"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats bytes as mebibytes with two decimals.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats seconds with three decimals.
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Formats a probability as a percentage with one decimal.
pub fn pct(p: f64) -> String {
    format!("{:.1}%", p * 100.0)
}

// ----------------------------------------------------------------------
// Machine-readable run reports
// ----------------------------------------------------------------------

/// One `(phase, layer)` cell of a worker's observability ledger.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name (`"forward_fetch"`, `"backward_refetch"`,
    /// `"grad_routing"`, `"collective"`, `"other"`).
    pub phase: &'static str,
    /// GNN layer the traffic was attributed to, if any.
    pub layer: Option<u16>,
    /// Bytes sent while this cell was active (self-sends included).
    /// *Logical* volume: raw-f32 payload + frame header, independent of
    /// the negotiated wire codec (the parity digest pins these).
    pub sent_bytes: u64,
    /// Bytes received from remote peers (logical volume, as above).
    pub recv_bytes: u64,
    /// Bytes that actually crossed the transport while sending — the
    /// post-codec wire volume. Equals `sent_bytes` under the `raw` codec.
    pub wire_sent_bytes: u64,
    /// Bytes that actually arrived off the transport (post-codec).
    pub wire_recv_bytes: u64,
    /// Messages sent.
    pub sent_messages: u64,
    /// Messages received from remote peers.
    pub recv_messages: u64,
    /// Simulated α–β communication time charged, microseconds.
    pub comm_us: f64,
    /// Exclusive CPU time spent under this cell, microseconds (includes
    /// pool helper threads — see DESIGN.md §8).
    pub cpu_us: f64,
    /// Exclusive wall-clock time under this cell, microseconds.
    /// `cpu_us / wall_us` reads as the cell's parallel speedup.
    pub wall_us: f64,
    /// Wall-clock time spent *parked* in a blocking receive under this
    /// cell, microseconds. `blocked_us / wall_us` is the cell's
    /// un-overlapped communication fraction — the number the pipelined
    /// rotation exchange drives down as `--prefetch-depth` grows.
    pub blocked_us: f64,
    /// Peak live tensor bytes observed inside this cell's scopes.
    pub peak_tensor_bytes: u64,
    /// Bytes evicted to the out-of-core disk tier under this cell (zero
    /// unless `--mem-budget` is set).
    pub spill_bytes: u64,
    /// Bytes faulted back from the disk tier under this cell.
    pub fault_bytes: u64,
    /// Wall-clock time spent blocked on disk-tier IO under this cell,
    /// microseconds — the disk analogue of `blocked_us`.
    pub disk_blocked_us: f64,
}

/// One worker's profile: totals plus the per-phase ledger.
#[derive(Debug, Clone)]
pub struct WorkerProfile {
    /// Worker rank.
    pub rank: usize,
    /// Steady-state peak live tensor bytes (from the second epoch on).
    pub steady_peak_bytes: usize,
    /// Total bytes sent over the whole run.
    pub total_sent_bytes: u64,
    /// Total bytes received over the whole run.
    pub total_recv_bytes: u64,
    /// Total simulated communication time, microseconds.
    pub comm_us: f64,
    /// The per-phase / per-layer ledger rows, in ledger order.
    pub phases: Vec<PhaseRow>,
}

impl WorkerProfile {
    /// Lifts one worker's [`sar_comm::CommStats`] (plus its measured
    /// steady-state memory peak) into the serializable profile. Used both
    /// by [`RunReport::from_train`] for in-process runs and by the
    /// multi-process launcher, which gathers each rank's stats over the
    /// wire.
    pub fn from_stats(rank: usize, steady_peak_bytes: usize, comm: &sar_comm::CommStats) -> Self {
        WorkerProfile {
            rank,
            steady_peak_bytes,
            total_sent_bytes: comm.total_sent(),
            total_recv_bytes: comm.recv_bytes,
            comm_us: comm.comm_us,
            phases: comm
                .ledger
                .rows()
                .map(|(phase, layer, e)| PhaseRow {
                    phase: phase.name(),
                    layer,
                    sent_bytes: e.sent_bytes,
                    recv_bytes: e.recv_bytes,
                    wire_sent_bytes: e.wire_sent_bytes,
                    wire_recv_bytes: e.wire_recv_bytes,
                    sent_messages: e.sent_messages,
                    recv_messages: e.recv_messages,
                    comm_us: e.comm_us,
                    cpu_us: e.cpu_us,
                    wall_us: e.wall_us,
                    blocked_us: e.blocked_us,
                    peak_tensor_bytes: e.peak_tensor_bytes,
                    spill_bytes: e.spill_bytes,
                    fault_bytes: e.fault_bytes,
                    disk_blocked_us: e.disk_blocked_us,
                })
                .collect(),
        }
    }

    /// Sums `f` over this worker's ledger rows in the given phase.
    pub fn phase_sum(&self, phase: &str, f: impl Fn(&PhaseRow) -> u64) -> u64 {
        self.phases.iter().filter(|r| r.phase == phase).map(f).sum()
    }

    /// Max of `f` over this worker's ledger rows in the given phase.
    pub fn phase_max(&self, phase: &str, f: impl Fn(&PhaseRow) -> u64) -> u64 {
        self.phases
            .iter()
            .filter(|r| r.phase == phase)
            .map(f)
            .max()
            .unwrap_or(0)
    }
}

/// A machine-readable record of one distributed training run.
///
/// Build with [`RunReport::from_train`], serialize with
/// [`RunReport::to_json`] / [`RunReport::write_json`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Free-form experiment label (e.g. `"smoke-sage"`).
    pub experiment: String,
    /// Architecture label (e.g. `"sage"`, `"gat"`).
    pub arch: String,
    /// Execution-mode label (e.g. `"sar"`, `"sar-fak"`, `"dp"`).
    pub mode: String,
    /// Number of workers.
    pub world: usize,
    /// Global training loss per epoch.
    pub losses: Vec<f32>,
    /// Modeled epoch times (max compute + max comm), seconds.
    pub epoch_times: Vec<f64>,
    /// Validation accuracy.
    pub val_acc: f64,
    /// Test accuracy.
    pub test_acc: f64,
    /// Test accuracy after Correct & Smooth, if run.
    pub test_acc_cs: Option<f64>,
    /// Snapshot of the process-wide send-buffer pool counters at report
    /// time (the pool is shared by all in-process workers, so this is a
    /// run-level, not per-rank, statistic). `None` when not captured.
    pub buffer_pool: Option<sar_comm::buffer::PoolStats>,
    /// Per-worker profiles, indexed by rank.
    pub workers: Vec<WorkerProfile>,
}

impl RunReport {
    /// Lifts a [`sar_core::RunReport`] into the serializable form.
    pub fn from_train(
        experiment: impl Into<String>,
        arch: impl Into<String>,
        mode: impl Into<String>,
        run: &sar_core::RunReport,
    ) -> Self {
        let workers = run
            .worker_comm
            .iter()
            .enumerate()
            .map(|(rank, comm)| {
                WorkerProfile::from_stats(
                    rank,
                    run.peak_bytes.get(rank).copied().unwrap_or(0),
                    comm,
                )
            })
            .collect();
        RunReport {
            experiment: experiment.into(),
            arch: arch.into(),
            mode: mode.into(),
            world: run.world,
            losses: run.losses.clone(),
            epoch_times: run.epoch_times.clone(),
            val_acc: run.val_acc,
            test_acc: run.test_acc,
            test_acc_cs: run.test_acc_cs,
            buffer_pool: Some(sar_comm::buffer::pool_stats()),
            workers,
        }
    }

    /// `true` if any recorded epoch loss is NaN or infinite.
    pub fn has_non_finite_loss(&self) -> bool {
        self.losses.iter().any(|l| !l.is_finite())
    }

    /// The worker's ledger total for `(phase, metric)` summed across
    /// layers, for all workers. Convenience for CI gates.
    pub fn per_worker_phase_sum(&self, phase: Phase, f: impl Fn(&PhaseRow) -> u64) -> Vec<u64> {
        self.workers
            .iter()
            .map(|w| w.phase_sum(phase.name(), &f))
            .collect()
    }

    /// Serializes to a self-contained JSON document:
    ///
    /// ```json
    /// {
    ///   "experiment": "...", "arch": "...", "mode": "...", "world": 4,
    ///   "losses": [...], "epoch_times_secs": [...],
    ///   "val_acc": 0.9, "test_acc": 0.9, "test_acc_cs": null,
    ///   "buffer_pool": {"hits": 0, "misses": 0, "recycles": 0,
    ///                   "recycle_drops": 0},
    ///   "workers": [
    ///     {"rank": 0, "steady_peak_bytes": 0, "total_sent_bytes": 0,
    ///      "total_recv_bytes": 0, "comm_us": 0.0,
    ///      "phases": [
    ///        {"phase": "forward_fetch", "layer": 0, "sent_bytes": 0,
    ///         "recv_bytes": 0, "wire_sent_bytes": 0,
    ///         "wire_recv_bytes": 0, "sent_messages": 0,
    ///         "recv_messages": 0, "comm_us": 0.0, "cpu_us": 0.0,
    ///         "wall_us": 0.0, "blocked_us": 0.0, "peak_tensor_bytes": 0,
    ///         "spill_bytes": 0, "fault_bytes": 0, "disk_blocked_us": 0.0}
    ///      ]}
    ///   ]
    /// }
    /// ```
    ///
    /// Non-finite floats serialize as `null` (JSON has no NaN).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", json::string(&self.experiment));
        let _ = writeln!(s, "  \"arch\": {},", json::string(&self.arch));
        let _ = writeln!(s, "  \"mode\": {},", json::string(&self.mode));
        let _ = writeln!(s, "  \"world\": {},", self.world);
        let _ = writeln!(
            s,
            "  \"losses\": [{}],",
            join(self.losses.iter().map(|&l| json::float(l as f64)))
        );
        let _ = writeln!(
            s,
            "  \"epoch_times_secs\": [{}],",
            join(self.epoch_times.iter().map(|&t| json::float(t)))
        );
        let _ = writeln!(s, "  \"val_acc\": {},", json::float(self.val_acc));
        let _ = writeln!(s, "  \"test_acc\": {},", json::float(self.test_acc));
        let _ = writeln!(
            s,
            "  \"test_acc_cs\": {},",
            self.test_acc_cs.map_or("null".into(), json::float)
        );
        match &self.buffer_pool {
            Some(p) => {
                let _ = writeln!(
                    s,
                    "  \"buffer_pool\": {{\"hits\": {}, \"misses\": {}, \
                     \"recycles\": {}, \"recycle_drops\": {}}},",
                    p.hits, p.misses, p.recycles, p.recycle_drops
                );
            }
            None => {
                let _ = writeln!(s, "  \"buffer_pool\": null,");
            }
        }
        s.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            s.push_str("    {");
            let _ = write!(
                s,
                "\"rank\": {}, \"steady_peak_bytes\": {}, \"total_sent_bytes\": {}, \
                 \"total_recv_bytes\": {}, \"comm_us\": {},",
                w.rank,
                w.steady_peak_bytes,
                w.total_sent_bytes,
                w.total_recv_bytes,
                json::float(w.comm_us)
            );
            s.push_str("\n     \"phases\": [");
            for (j, r) in w.phases.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\n       {{\"phase\": {}, \"layer\": {}, \"sent_bytes\": {}, \
                     \"recv_bytes\": {}, \"wire_sent_bytes\": {}, \
                     \"wire_recv_bytes\": {}, \"sent_messages\": {}, \
                     \"recv_messages\": {}, \
                     \"comm_us\": {}, \"cpu_us\": {}, \"wall_us\": {}, \
                     \"blocked_us\": {}, \"peak_tensor_bytes\": {}, \
                     \"spill_bytes\": {}, \"fault_bytes\": {}, \
                     \"disk_blocked_us\": {}}}",
                    json::string(r.phase),
                    r.layer.map_or("null".to_string(), |l| l.to_string()),
                    r.sent_bytes,
                    r.recv_bytes,
                    r.wire_sent_bytes,
                    r.wire_recv_bytes,
                    r.sent_messages,
                    r.recv_messages,
                    json::float(r.comm_us),
                    json::float(r.cpu_us),
                    json::float(r.wall_us),
                    json::float(r.blocked_us),
                    r.peak_tensor_bytes,
                    r.spill_bytes,
                    r.fault_bytes,
                    json::float(r.disk_blocked_us),
                );
            }
            s.push_str("]}");
            s.push_str(if i + 1 < self.workers.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads back a document written by [`RunReport::to_json`] — how the
    /// report gathered by rank 0 of a multi-process run reaches the
    /// launching process. `null` floats read back as NaN.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing field, or an unknown phase name.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text)?;
        let float = |v: &Value, k: &str| v.get(k).and_then(Value::num).unwrap_or(f64::NAN);
        let floats = |k: &str| doc.items(k).iter().map(|v| v.num().unwrap_or(f64::NAN));
        let count = |v: &Value, k: &str| v.num_field(k).map(|n| n as u64);
        let row = |r: &Value| -> Result<PhaseRow, String> {
            let name = r.str_field("phase")?;
            Ok(PhaseRow {
                phase: Phase::ALL
                    .iter()
                    .map(|p| p.name())
                    .find(|&p| p == name)
                    .ok_or_else(|| format!("unknown phase \"{name}\""))?,
                layer: r.get("layer").and_then(Value::num).map(|l| l as u16),
                sent_bytes: count(r, "sent_bytes")?,
                recv_bytes: count(r, "recv_bytes")?,
                wire_sent_bytes: count(r, "wire_sent_bytes")?,
                wire_recv_bytes: count(r, "wire_recv_bytes")?,
                sent_messages: count(r, "sent_messages")?,
                recv_messages: count(r, "recv_messages")?,
                comm_us: float(r, "comm_us"),
                cpu_us: float(r, "cpu_us"),
                wall_us: float(r, "wall_us"),
                blocked_us: float(r, "blocked_us"),
                peak_tensor_bytes: count(r, "peak_tensor_bytes")?,
                spill_bytes: count(r, "spill_bytes")?,
                fault_bytes: count(r, "fault_bytes")?,
                disk_blocked_us: float(r, "disk_blocked_us"),
            })
        };
        let worker = |w: &Value| -> Result<WorkerProfile, String> {
            Ok(WorkerProfile {
                rank: count(w, "rank")? as usize,
                steady_peak_bytes: count(w, "steady_peak_bytes")? as usize,
                total_sent_bytes: count(w, "total_sent_bytes")?,
                total_recv_bytes: count(w, "total_recv_bytes")?,
                comm_us: float(w, "comm_us"),
                phases: w
                    .items("phases")
                    .iter()
                    .map(row)
                    .collect::<Result<_, _>>()?,
            })
        };
        let buffer_pool = match doc.get("buffer_pool") {
            Some(p @ Value::Obj(_)) => Some(sar_comm::buffer::PoolStats {
                hits: count(p, "hits")?,
                misses: count(p, "misses")?,
                recycles: count(p, "recycles")?,
                recycle_drops: count(p, "recycle_drops")?,
            }),
            _ => None,
        };
        Ok(RunReport {
            experiment: doc.str_field("experiment")?.to_string(),
            arch: doc.str_field("arch")?.to_string(),
            mode: doc.str_field("mode")?.to_string(),
            world: count(&doc, "world")? as usize,
            losses: floats("losses").map(|l| l as f32).collect(),
            epoch_times: floats("epoch_times_secs").collect(),
            val_acc: float(&doc, "val_acc"),
            test_acc: float(&doc, "test_acc"),
            test_acc_cs: doc.get("test_acc_cs").and_then(Value::num),
            buffer_pool,
            workers: doc
                .items("workers")
                .iter()
                .map(worker)
                .collect::<Result<_, _>>()?,
        })
    }

    /// A determinism digest of everything that must be bitwise identical
    /// across intra-worker thread counts: the per-epoch losses (as exact
    /// f32 bit patterns) and every worker's per-`(phase, layer)` byte and
    /// message counters. Timings and memory peaks are deliberately
    /// excluded — they legitimately vary run to run — so two runs of the
    /// same workload at different `--threads` must produce identical
    /// digests (the CI thread-parity gate compares these strings).
    pub fn parity_digest(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = writeln!(s, "world {}", self.world);
        let _ = writeln!(
            s,
            "losses {}",
            join(self.losses.iter().map(|l| format!("{:08x}", l.to_bits())))
        );
        for w in &self.workers {
            for r in &w.phases {
                let _ = writeln!(
                    s,
                    "w{} {}/{} sent={} recv={} smsg={} rmsg={}",
                    w.rank,
                    r.phase,
                    r.layer.map_or("-".to_string(), |l| l.to_string()),
                    r.sent_bytes,
                    r.recv_bytes,
                    r.sent_messages,
                    r.recv_messages,
                );
            }
        }
        s
    }

    /// The per-phase overlap scoreboard as a self-contained JSON object:
    /// wall, blocked, comm and CPU microseconds summed across workers and
    /// layers. `blocked_us / wall_us` is the fraction of the phase the
    /// cluster spent parked in blocking receives — the pipelined rotation
    /// exchange drives it down as `--prefetch-depth` grows. This is the
    /// fragment `repro smoke` embeds into `BENCH_overlap.json`.
    pub fn overlap_json(&self) -> String {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<&'static str, (f64, f64, f64, f64)> = BTreeMap::new();
        for w in &self.workers {
            for r in &w.phases {
                let e = agg.entry(r.phase).or_insert((0.0, 0.0, 0.0, 0.0));
                e.0 += r.wall_us;
                e.1 += r.blocked_us;
                e.2 += r.comm_us;
                e.3 += r.cpu_us;
            }
        }
        let mut s = String::from("{\"phases\": [");
        for (i, (phase, (wall, blocked, comm, cpu))) in agg.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"phase\": {}, \"wall_us\": {}, \"blocked_us\": {}, \
                 \"comm_us\": {}, \"cpu_us\": {}}}",
                json::string(phase),
                json::float(*wall),
                json::float(*blocked),
                json::float(*comm),
                json::float(*cpu)
            );
        }
        s.push_str("]}");
        s
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(mib(1024 * 1024), "1.00");
        assert_eq!(secs(1.23456), "1.235");
        assert_eq!(pct(0.801), "80.1%");
    }

    fn sample_report() -> RunReport {
        RunReport {
            experiment: "smoke \"quoted\"".into(),
            arch: "sage".into(),
            mode: "sar".into(),
            world: 2,
            losses: vec![1.5, f32::NAN],
            epoch_times: vec![0.25],
            val_acc: 0.5,
            test_acc: 0.75,
            test_acc_cs: None,
            buffer_pool: Some(sar_comm::buffer::PoolStats {
                hits: 10,
                misses: 4,
                recycles: 9,
                recycle_drops: 1,
            }),
            workers: vec![WorkerProfile {
                rank: 0,
                steady_peak_bytes: 1024,
                total_sent_bytes: 64,
                total_recv_bytes: 32,
                comm_us: 12.5,
                phases: vec![PhaseRow {
                    phase: "forward_fetch",
                    layer: Some(1),
                    sent_bytes: 64,
                    recv_bytes: 32,
                    wire_sent_bytes: 40,
                    wire_recv_bytes: 24,
                    sent_messages: 2,
                    recv_messages: 1,
                    comm_us: 12.5,
                    cpu_us: 3.0,
                    wall_us: 4.5,
                    blocked_us: 1.5,
                    peak_tensor_bytes: 512,
                    spill_bytes: 256,
                    fault_bytes: 128,
                    disk_blocked_us: 0.5,
                }],
            }],
        }
    }

    #[test]
    fn json_escapes_and_nulls() {
        let r = sample_report();
        let json = r.to_json();
        assert!(json.contains(r#""experiment": "smoke \"quoted\"""#));
        // NaN loss must serialize as null, not a bare NaN token.
        assert!(json.contains("\"losses\": [1.5, null]"));
        assert!(!json.contains("NaN"));
        assert!(json.contains("\"test_acc_cs\": null"));
        assert!(json.contains(r#""phase": "forward_fetch", "layer": 1"#));
        assert!(json.contains(r#""blocked_us": 1.5"#));
        assert!(json.contains(r#""spill_bytes": 256"#));
        assert!(json.contains(r#""fault_bytes": 128"#));
        assert!(json.contains(r#""disk_blocked_us": 0.5"#));
        assert!(json.contains(
            r#""buffer_pool": {"hits": 10, "misses": 4, "recycles": 9, "recycle_drops": 1}"#
        ));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency set.
        let count = |c: char| json.chars().filter(|&x| x == c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }

    #[test]
    fn json_reads_back_into_the_same_report() {
        let r = sample_report();
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back.to_json(), r.to_json());
        assert_eq!(back.overlap_json(), r.overlap_json());
        assert!(back.losses[1].is_nan());
        let no_pool = RunReport {
            buffer_pool: None,
            test_acc_cs: Some(0.5),
            ..r
        };
        let back = RunReport::from_json(&no_pool.to_json()).unwrap();
        assert_eq!(back.to_json(), no_pool.to_json());
        let bad_phase = no_pool.to_json().replace("forward_fetch", "teleport");
        assert!(RunReport::from_json(&bad_phase)
            .unwrap_err()
            .contains("teleport"));
    }

    #[test]
    fn non_finite_loss_detected() {
        let mut r = sample_report();
        assert!(r.has_non_finite_loss());
        r.losses = vec![1.0, 0.5];
        assert!(!r.has_non_finite_loss());
    }

    #[test]
    fn parity_digest_ignores_timings_but_pins_bytes_and_losses() {
        let a = sample_report();
        let mut b = sample_report();
        // Timings and peaks vary run to run — the digest must not see them.
        b.workers[0].phases[0].cpu_us = 999.0;
        b.workers[0].phases[0].wall_us = 999.0;
        b.workers[0].phases[0].blocked_us = 999.0;
        b.workers[0].phases[0].comm_us = 999.0;
        b.workers[0].phases[0].peak_tensor_bytes = 999;
        // Disk-tier traffic legitimately differs between spill-on and
        // spill-off runs of the same training — the digest must not see it.
        b.workers[0].phases[0].spill_bytes = 999;
        b.workers[0].phases[0].fault_bytes = 999;
        b.workers[0].phases[0].disk_blocked_us = 999.0;
        b.buffer_pool = None;
        b.epoch_times = vec![9.0];
        assert_eq!(a.parity_digest(), b.parity_digest());
        // A single flipped loss bit or ledger byte must break the digest.
        let mut c = sample_report();
        c.losses[0] = f32::from_bits(c.losses[0].to_bits() ^ 1);
        assert_ne!(a.parity_digest(), c.parity_digest());
        let mut d = sample_report();
        d.workers[0].phases[0].recv_bytes += 1;
        assert_ne!(a.parity_digest(), d.parity_digest());
    }

    #[test]
    fn overlap_json_aggregates_blocked_vs_wall() {
        let r = sample_report();
        let j = r.overlap_json();
        assert!(j.contains(r#""phase": "forward_fetch""#));
        assert!(j.contains(r#""wall_us": 4.5"#));
        assert!(j.contains(r#""blocked_us": 1.5"#));
        let count = |c: char| j.chars().filter(|&x| x == c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }

    #[test]
    fn phase_sums_filter_by_phase() {
        let r = sample_report();
        assert_eq!(
            r.workers[0].phase_sum("forward_fetch", |p| p.recv_bytes),
            32
        );
        assert_eq!(r.workers[0].phase_sum("grad_routing", |p| p.recv_bytes), 0);
        assert_eq!(
            r.per_worker_phase_sum(Phase::ForwardFetch, |p| p.sent_bytes),
            vec![64]
        );
    }
}
