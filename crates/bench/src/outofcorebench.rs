//! `repro outofcorebench` — the out-of-core tiering benchmark with a
//! committed, CI-gated `BENCH_outofcore.json`.
//!
//! Two halves, both exercising the real `sar_tensor::tier` machinery:
//!
//! * **Sweep** — an out-of-core microbenchmark over the tier + staging
//!   primitives. A synthetic `[rows, F]` feature matrix is ingested into
//!   a budgeted [`TieredStore`] chunk by chunk (everything past the
//!   budget spills to the mmap arena as it arrives, so the matrix is
//!   never fully resident), then swept for several epochs with the same
//!   depth-`k` rotation schedule the trainer uses
//!   ([`sar_core::plan::fetch_steps`]) — `Fetch` steps become disk
//!   faults, `Consume` steps accumulate deterministically and put the
//!   chunk back. The graph scale grows 8× across the sweep while the
//!   budget stays fixed: peak resident tensor bytes must stay flat
//!   (within [`FLATNESS`]), and the result digest must be bitwise
//!   identical to an unbounded (never-spilling) store's.
//!
//! * **Parity** — end-to-end training runs of the smoke GAT workload
//!   with `--mem-budget` on vs off, across transports, thread counts,
//!   prefetch depths and exchange protocols. The two runs'
//!   [`RunReport::parity_digest`]s must be identical — spilling
//!   rematerialization inputs and stale-protocol cache blocks to disk
//!   cannot perturb training by a single bit.
//!
//! Following the `BENCH_kernels.json` precedent, the gate never compares
//! timings — elapsed times are recorded for human eyes only. It checks
//! schema/run-set identity, digest determinism (fresh vs committed),
//! spill/fault engagement, memory flatness and digest parity.

use std::collections::VecDeque;

use sar_comm::CostModel;
use sar_core::plan::{self, FetchStep};
use sar_tensor::tier::TieredStore;
use sar_tensor::{MemoryTracker, Tensor};

use crate::compressbench::fingerprint;
use crate::harness::{runs_by_key, Bench};
use crate::json::{Obj, Value};
use crate::report::{RunReport, Table};
use crate::smoke;

/// How far the largest sweep scale's peak resident bytes may exceed the
/// smallest scale's before the gate fails. The working set is
/// budget-derived, not graph-derived, so the ratio sits near 1 by
/// construction; 1.25 absorbs partial-chunk and allocator jitter.
pub const FLATNESS: f64 = 1.25;

/// Epochs of rotation sweeps per scale.
const SWEEP_EPOCHS: usize = 2;
/// Rows of the synthetic feature matrix at scale 1.
const BASE_ROWS: usize = 2048;
/// Feature width of the synthetic matrix.
const FEAT_DIM: usize = 64;
/// Resident-tensor budget (bytes) for the sweep's tiered store.
const BUDGET_BYTES: u64 = 96 * 1024;
/// Depth of the staging pipeline the sweep faults through.
const PREFETCH_DEPTH: usize = 2;
/// Row multipliers swept (peak memory must stay flat across them).
const SCALES: [usize; 4] = [1, 2, 4, 8];
/// Cluster size for the parity training runs.
const WORLD: usize = 4;
/// Synthetic dataset node count for the parity training runs.
const NODES: usize = 1200;
/// `--mem-budget` for the budgeted parity runs (bytes). Tight enough
/// that both the stale cache blocks (tens of KiB each) and the GAT
/// rematerialization inputs (a few KiB per layer) must spill.
const TRAIN_BUDGET: u64 = 8 * 1024;

/// One sweep scale's measured run.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Row multiplier over `base_rows`.
    pub scale: usize,
    /// Total matrix rows at this scale.
    pub rows: usize,
    /// Chunk count the matrix was split into.
    pub chunks: usize,
    /// Rows per chunk (budget-derived, identical across scales).
    pub chunk_rows: usize,
    /// Peak resident tensor bytes over ingest + sweep (the gated value).
    pub peak_resident_bytes: u64,
    /// Bytes spilled to the mmap arena.
    pub spill_bytes: u64,
    /// Bytes faulted back from the arena.
    pub fault_bytes: u64,
    /// FNV-1a 64 over the accumulator's f32 bit patterns.
    pub digest: String,
    /// The same accumulation through an unbounded (never-spilling)
    /// store — must equal `digest`.
    pub unbounded_digest: String,
    /// Wall time, milliseconds — recorded for humans, never gated.
    pub elapsed_ms: f64,
}

/// One parity grid cell: the same training run with `--mem-budget` on
/// and off.
#[derive(Debug, Clone)]
pub struct ParityRun {
    /// `"sim"` or `"tcp"`.
    pub transport: String,
    /// Exchange protocol (`"exact"` exercises remat spilling, `"stale:<r>"`
    /// additionally spills the cached protocol blocks).
    pub protocol: String,
    /// Intra-worker kernel threads.
    pub threads: usize,
    /// Fetch-pipeline depth.
    pub prefetch_depth: usize,
    /// `--mem-budget` of the budgeted run (bytes).
    pub budget_bytes: u64,
    /// FNV-1a 64 fingerprint of the budgeted run's parity digest.
    pub digest_budget: String,
    /// Fingerprint of the unbudgeted (`--mem-budget 0`) run's digest —
    /// must equal `digest_budget`.
    pub digest_unbounded: String,
    /// Bytes the budgeted run spilled, summed over ranks and phases.
    pub spill_bytes: u64,
    /// Bytes the budgeted run faulted back.
    pub fault_bytes: u64,
}

/// A full outofcorebench run.
#[derive(Debug, Clone)]
pub struct OocBenchReport {
    /// Per-scale sweep runs, ascending scale.
    pub sweep: Vec<SweepRun>,
    /// Parity grid results, sim first, then tcp.
    pub parity: Vec<ParityRun>,
}

// ----------------------------------------------------------------------
// The out-of-core sweep
// ----------------------------------------------------------------------

/// Deterministic synthetic feature chunk: pure integer-derived f32
/// values, bitwise identical on every platform.
fn synth_chunk(global_row0: usize, rows: usize, f: usize) -> Tensor {
    let mut data = Vec::with_capacity(rows * f);
    for r in 0..rows {
        let i = global_row0 + r;
        for j in 0..f {
            data.push(((i * 31 + j * 7) % 97) as f32 * 0.015_625);
        }
    }
    Tensor::from_vec(&[rows, f], data)
}

/// Ingests the `[rows, f]` matrix into a store with the given budget and
/// sweeps it for [`SWEEP_EPOCHS`] rotations of the depth-`k` schedule.
/// Returns the accumulator digest; the caller reads the tier counters
/// and the memory peak around this call.
fn sweep_store(
    rows: usize,
    f: usize,
    chunk_rows: usize,
    k: usize,
    budget: u64,
) -> Result<String, String> {
    let err = |what: &str, e: sar_tensor::tier::TierError| format!("{what}: {e}");
    let mut store = TieredStore::new(budget).map_err(|e| err("store", e))?;
    let n = rows.div_ceil(chunk_rows);
    for c in 0..n {
        let r0 = c * chunk_rows;
        let nr = chunk_rows.min(rows - r0);
        store
            .put(c as u64, synth_chunk(r0, nr, f))
            .map_err(|e| err("ingest", e))?;
    }
    let mut acc = vec![0f32; f];
    for epoch in 0..SWEEP_EPOCHS {
        // A different perspective each epoch rotates the consumption
        // order, like a different rank's schedule.
        let p = epoch % n;
        let mut staged: VecDeque<(usize, Tensor)> = VecDeque::new();
        for step in plan::fetch_steps(n, p, k) {
            match step {
                FetchStep::GatherLocal => {
                    staged.push_back((p, store.take(p as u64).map_err(|e| err("gather", e))?));
                }
                // No peer to serve in the single-process sweep.
                FetchStep::Serve { .. } => {}
                FetchStep::Fetch { src, .. } => {
                    // The disk prefetch: faulting here, ahead of the
                    // consume, is what hides disk latency behind compute
                    // exactly like the network prefetch hides the wire.
                    staged.push_back((src, store.take(src as u64).map_err(|e| err("fault", e))?));
                }
                FetchStep::Consume { q } => {
                    let (id, t) = staged.pop_front().ok_or("staging queue underrun")?;
                    if id != q {
                        return Err(format!("consumed chunk {id}, schedule expected {q}"));
                    }
                    let d = t.data();
                    for r in 0..t.rows() {
                        for (j, a) in acc.iter_mut().enumerate() {
                            *a += d[r * f + j];
                        }
                    }
                    store.put(id as u64, t).map_err(|e| err("put-back", e))?;
                }
            }
        }
        if !staged.is_empty() {
            return Err(format!(
                "{} chunks left staged after the sweep",
                staged.len()
            ));
        }
    }
    let bits: String = acc.iter().map(|v| format!("{:08x}", v.to_bits())).collect();
    Ok(fingerprint(&bits))
}

/// Runs one sweep scale: the budgeted store (measured) and the unbounded
/// baseline (digest only).
fn run_scale(scale: usize) -> Result<SweepRun, String> {
    let (f, k) = (FEAT_DIM, PREFETCH_DEPTH);
    // Fit (k+2) staged chunks plus headroom for the accumulator and the
    // in-flight copy inside the budget, so the working set is
    // budget-derived and independent of the matrix size.
    let chunk_rows = ((BUDGET_BYTES as usize / (4 * f)) / (k + 4)).max(1);
    let rows = BASE_ROWS * scale;
    let chunks = rows.div_ceil(chunk_rows);
    eprintln!(
        "[outofcorebench] sweep: scale {scale} — {rows} x {f} rows in {chunks} chunks, \
         budget {} KiB, depth {k} ...",
        BUDGET_BYTES / 1024
    );
    let start = std::time::Instant::now();
    let _ = sar_tensor::tier::take_tier_counters();
    MemoryTracker::reset_peak();
    let before = MemoryTracker::stats().current_bytes;
    let digest = sweep_store(rows, f, chunk_rows, k, BUDGET_BYTES)?;
    let peak = MemoryTracker::stats().peak_bytes.saturating_sub(before) as u64;
    let (spill_bytes, fault_bytes, _) = sar_tensor::tier::take_tier_counters();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    // The unbounded baseline holds every chunk resident — nothing ever
    // touches disk, so a digest match proves the round-trips exact.
    let unbounded_digest = sweep_store(rows, f, chunk_rows, k, u64::MAX)?;
    let _ = sar_tensor::tier::take_tier_counters();
    Ok(SweepRun {
        scale,
        rows,
        chunks,
        chunk_rows,
        peak_resident_bytes: peak,
        spill_bytes,
        fault_bytes,
        digest,
        unbounded_digest,
        elapsed_ms,
    })
}

// ----------------------------------------------------------------------
// The training parity grid
// ----------------------------------------------------------------------

/// One parity grid cell: `(protocol, threads, prefetch_depth)`.
type Cell = (&'static str, usize, usize);

/// The simulated-transport parity grid. GAT everywhere — its saved
/// softmax statistics are the rematerialization inputs that spill.
const SIM_GRID: [Cell; 3] = [("stale:2", 1, 0), ("exact", 1, 2), ("stale:2", 2, 2)];

/// The TCP subset: a stale cell pins the multi-process path, an
/// exact/threaded cell the remat spill.
const TCP_GRID: [Cell; 2] = [("stale:2", 1, 2), ("exact", 2, 0)];

/// Sums a phase counter over every rank and phase row of a report.
fn report_sum(report: &RunReport, pick: impl Fn(&crate::report::PhaseRow) -> u64) -> u64 {
    report
        .workers
        .iter()
        .flat_map(|w| w.phases.iter())
        .map(&pick)
        .sum()
}

/// Trains one parity cell on `transport` with `--mem-budget` on, then
/// off, and records both digests.
fn run_parity(transport: &str, cell: Cell) -> Result<ParityRun, String> {
    let (protocol, threads, depth) = cell;
    let mut digests = Vec::new();
    let (mut spill, mut fault) = (0, 0);
    for budget in [TRAIN_BUDGET, 0] {
        let mut wl = smoke::workload("gat", NODES, 0)?;
        wl.protocol = protocol.to_string();
        wl.threads = threads;
        wl.prefetch_depth = depth;
        wl.mem_budget = budget;
        eprintln!(
            "[outofcorebench] {transport} parity: gat protocol={protocol} threads={threads} \
             depth={depth} mem-budget={budget} ..."
        );
        let experiment = format!("outofcorebench-{protocol}-b{budget}");
        let (report, digest) =
            smoke::train(transport, &wl, WORLD, &experiment, CostModel::default())
                .map_err(|e| format!("{transport} {protocol}/t{threads}/d{depth}: {e}"))?;
        if budget > 0 {
            spill = report_sum(&report, |p| p.spill_bytes);
            fault = report_sum(&report, |p| p.fault_bytes);
        }
        digests.push(fingerprint(&digest));
    }
    Ok(ParityRun {
        transport: transport.into(),
        protocol: protocol.into(),
        threads,
        prefetch_depth: depth,
        budget_bytes: TRAIN_BUDGET,
        digest_budget: digests[0].clone(),
        digest_unbounded: digests[1].clone(),
        spill_bytes: spill,
        fault_bytes: fault,
    })
}

// ----------------------------------------------------------------------
// The gate
// ----------------------------------------------------------------------

/// Invariants of one sweep record.
fn sweep_violations(tag: &str, s: &Value) -> Result<Vec<String>, String> {
    let mut v = Vec::new();
    let scale = s.num_field("scale")?;
    let (digest, unbounded) = (s.str_field("digest")?, s.str_field("unbounded_digest")?);
    if digest != unbounded {
        v.push(format!(
            "{tag}: sweep scale {scale} digest {digest} != unbounded {unbounded} — the disk \
             round-trip perturbed the result bits"
        ));
    }
    let (spill, fault) = (s.num_field("spill_bytes")?, s.num_field("fault_bytes")?);
    if spill == 0.0 || fault == 0.0 {
        v.push(format!(
            "{tag}: sweep scale {scale} spilled {spill}B / faulted {fault}B — the budget never \
             engaged the disk tier"
        ));
    }
    s.num_field("rows")?;
    s.num_field("peak_resident_bytes")?;
    Ok(v)
}

/// Invariants of one parity record.
fn parity_violations(tag: &str, p: &Value) -> Result<Vec<String>, String> {
    let mut v = Vec::new();
    let cell = OutOfCoreBench::run_key("parity", p)?;
    let (budget, unbounded) = (
        p.str_field("digest_budget")?,
        p.str_field("digest_unbounded")?,
    );
    if budget != unbounded {
        v.push(format!(
            "{tag}: parity {cell}: budgeted digest {budget} != unbudgeted {unbounded} — \
             spilling changed training"
        ));
    }
    let (spill, fault) = (p.num_field("spill_bytes")?, p.num_field("fault_bytes")?);
    if spill == 0.0 || fault == 0.0 {
        v.push(format!(
            "{tag}: parity {cell}: spilled {spill}B / faulted {fault}B under --mem-budget {} — \
             the budget never engaged the disk tier",
            p.num_field("budget_bytes")?
        ));
    }
    Ok(v)
}

/// `repro outofcorebench`: the memory-flatness sweep, then the parity
/// grid (sim in-process, the TCP subset as real OS processes), gated on
/// `BENCH_outofcore.json`. The gate never compares timings.
pub struct OutOfCoreBench;

impl Bench for OutOfCoreBench {
    const NAME: &'static str = "outofcorebench";
    const SCHEMA: &'static str = "sar-outofcorebench/v1";
    const ARTIFACT: &'static str = "BENCH_outofcore.json";
    const ARRAYS: &'static [&'static str] = &["sweep", "parity"];
    type Report = OocBenchReport;

    fn run() -> Result<OocBenchReport, String> {
        let sweep = SCALES
            .iter()
            .map(|&scale| run_scale(scale).map_err(|e| format!("sweep scale {scale}: {e}")))
            .collect::<Result<_, _>>()?;
        let sim = SIM_GRID.iter().map(|&cell| run_parity("sim", cell));
        let tcp = TCP_GRID.iter().map(|&cell| run_parity("tcp", cell));
        Ok(OocBenchReport {
            sweep,
            parity: sim.chain(tcp).collect::<Result<_, _>>()?,
        })
    }

    fn header(_r: &OocBenchReport) -> Vec<(&'static str, String)> {
        vec![
            ("base_rows", BASE_ROWS.to_string()),
            ("feat_dim", FEAT_DIM.to_string()),
            ("budget_bytes", BUDGET_BYTES.to_string()),
            ("prefetch_depth", PREFETCH_DEPTH.to_string()),
        ]
    }

    fn records(r: &OocBenchReport) -> Vec<Vec<String>> {
        let sweep = r.sweep.iter().map(|s| {
            Obj::new()
                .raw("scale", s.scale)
                .raw("rows", s.rows)
                .raw("chunks", s.chunks)
                .raw("chunk_rows", s.chunk_rows)
                .raw("peak_resident_bytes", s.peak_resident_bytes)
                .raw("spill_bytes", s.spill_bytes)
                .raw("fault_bytes", s.fault_bytes)
                .str("digest", &s.digest)
                .str("unbounded_digest", &s.unbounded_digest)
                .num("elapsed_ms", s.elapsed_ms, 3)
                .finish()
        });
        let parity = r.parity.iter().map(|p| {
            Obj::new()
                .str("transport", &p.transport)
                .str("protocol", &p.protocol)
                .raw("threads", p.threads)
                .raw("prefetch_depth", p.prefetch_depth)
                .raw("budget_bytes", p.budget_bytes)
                .str("digest_budget", &p.digest_budget)
                .str("digest_unbounded", &p.digest_unbounded)
                .raw("spill_bytes", p.spill_bytes)
                .raw("fault_bytes", p.fault_bytes)
                .finish()
        });
        vec![sweep.collect(), parity.collect()]
    }

    fn tables(report: &OocBenchReport) -> Vec<Table> {
        let kib = |b: u64| format!("{:.1}", b as f64 / 1024.0);
        let mut sweep = Table::new(
            format!(
                "outofcorebench sweep — budget {} KiB, depth {PREFETCH_DEPTH}",
                BUDGET_BYTES / 1024
            ),
            &[
                "scale",
                "rows",
                "chunks",
                "peak KiB",
                "spill KiB",
                "fault KiB",
                "parity",
                "ms",
            ],
        );
        for s in &report.sweep {
            sweep.row(vec![
                s.scale.to_string(),
                s.rows.to_string(),
                s.chunks.to_string(),
                kib(s.peak_resident_bytes),
                kib(s.spill_bytes),
                kib(s.fault_bytes),
                (s.digest == s.unbounded_digest).to_string(),
                format!("{:.1}", s.elapsed_ms),
            ]);
        }
        let mut parity = Table::new(
            "outofcorebench parity — --mem-budget on vs off",
            &[
                "transport",
                "protocol",
                "threads",
                "depth",
                "spill KiB",
                "fault KiB",
                "parity",
            ],
        );
        for p in &report.parity {
            parity.row(vec![
                p.transport.clone(),
                p.protocol.clone(),
                p.threads.to_string(),
                p.prefetch_depth.to_string(),
                kib(p.spill_bytes),
                kib(p.fault_bytes),
                (p.digest_budget == p.digest_unbounded).to_string(),
            ]);
        }
        vec![sweep, parity]
    }

    fn run_key(array: &str, run: &Value) -> Result<String, String> {
        if array == "sweep" {
            Ok(format!(
                "scale {}/rows {}/chunks {}",
                run.num_field("scale")?,
                run.num_field("rows")?,
                run.num_field("chunks")?
            ))
        } else {
            Ok(format!(
                "{}/{} t{} d{}",
                run.str_field("transport")?,
                run.str_field("protocol")?,
                run.num_field("threads")?,
                run.num_field("prefetch_depth")?
            ))
        }
    }

    fn invariants(tag: &str, doc: &Value) -> Vec<String> {
        let mut v = Vec::new();
        let sweep = doc.items("sweep");
        let records = sweep.iter().map(|s| sweep_violations(tag, s));
        let records = records.chain(
            doc.items("parity")
                .iter()
                .map(|p| parity_violations(tag, p)),
        );
        for found in records {
            match found {
                Ok(found) => v.extend(found),
                Err(e) => v.push(format!("{tag}: {e}")),
            }
        }
        if sweep.is_empty() {
            v.push(format!("{tag}: empty sweep"));
            return v;
        }
        let range = |k: &str| {
            let xs = sweep.iter().filter_map(|s| s.get(k).and_then(Value::num));
            xs.fold((f64::INFINITY, 0f64), |(lo, hi), x| (lo.min(x), hi.max(x)))
        };
        let (min_rows, max_rows) = range("rows");
        let (min_peak, max_peak) = range("peak_resident_bytes");
        if min_rows == 0.0 || max_rows < 4.0 * min_rows {
            v.push(format!(
                "{tag}: sweep only spans {min_rows}..{max_rows} rows — the flatness claim \
                 needs at least 4x growth"
            ));
        }
        if min_peak == 0.0 || max_peak > min_peak * FLATNESS {
            v.push(format!(
                "{tag}: peak resident bytes grew {min_peak} -> {max_peak} across the sweep \
                 (tolerance {FLATNESS}x) — out-of-core memory is not flat"
            ));
        }
        v
    }

    fn compare(current: &Value, committed: &Value) -> Vec<String> {
        let mut v = Vec::new();
        let config = |doc: &Value| {
            ["base_rows", "feat_dim", "budget_bytes", "prefetch_depth"]
                .map(|k| doc.get(k).and_then(Value::num))
        };
        if config(current) != config(committed) {
            v.push(
                "sweep configuration differs from the committed artifact — regenerate it with \
                 `repro outofcorebench --out BENCH_outofcore.json`"
                    .into(),
            );
        }
        // The sweep is pure integer-derived f32 arithmetic in a fixed
        // order: its digest is machine-independent and must not drift.
        let key = |s: &Value| Self::run_key("sweep", s);
        let digest = |s: &Value| {
            s.get("digest")
                .and_then(Value::str)
                .unwrap_or("?")
                .to_string()
        };
        if let (Ok(cur), Ok(com)) = (
            runs_by_key("current", current, "sweep", key),
            runs_by_key("committed", committed, "sweep", key),
        ) {
            for (k, c) in &cur {
                if let Some(base) = com.get(k).filter(|base| digest(base) != digest(c)) {
                    v.push(format!(
                        "sweep {k}: digest {} != committed {} — the accumulation is no \
                         longer bitwise reproducible",
                        digest(c),
                        digest(base)
                    ));
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, to_json};

    fn sample_sweep(scale: usize, peak: u64) -> SweepRun {
        SweepRun {
            scale,
            rows: 2048 * scale,
            chunks: 32 * scale,
            chunk_rows: 64,
            peak_resident_bytes: peak,
            spill_bytes: 400_000,
            fault_bytes: 390_000,
            digest: format!("d{scale:015x}"),
            unbounded_digest: format!("d{scale:015x}"),
            elapsed_ms: 12.0,
        }
    }

    fn sample_parity() -> ParityRun {
        ParityRun {
            transport: "sim".into(),
            protocol: "stale:2".into(),
            threads: 1,
            prefetch_depth: 0,
            budget_bytes: 65536,
            digest_budget: "abcdabcdabcdabcd".into(),
            digest_unbounded: "abcdabcdabcdabcd".into(),
            spill_bytes: 123_456,
            fault_bytes: 120_000,
        }
    }

    fn sample_report() -> OocBenchReport {
        OocBenchReport {
            sweep: vec![
                sample_sweep(1, 100_000),
                sample_sweep(2, 101_000),
                sample_sweep(4, 102_000),
                sample_sweep(8, 103_000),
            ],
            parity: vec![sample_parity()],
        }
    }

    fn json(r: &OocBenchReport) -> String {
        to_json::<OutOfCoreBench>(r)
    }

    fn gate(current: &OocBenchReport, committed: &OocBenchReport) -> Vec<String> {
        check::<OutOfCoreBench>(&json(current), &json(committed))
    }

    #[test]
    fn memory_growth_fails_the_flatness_gate() {
        let mut r = sample_report();
        r.sweep[3].peak_resident_bytes = 200_000;
        let v = gate(&r, &r);
        assert!(v.iter().any(|m| m.contains("not flat")), "{v:?}");
    }

    #[test]
    fn digest_divergence_fails_the_gate() {
        let mut r = sample_report();
        r.sweep[1].unbounded_digest = "ffffffffffffffff".into();
        let v = gate(&r, &sample_report());
        assert!(v.iter().any(|m| m.contains("perturbed")), "{v:?}");
        let mut r = sample_report();
        r.parity[0].digest_unbounded = "ffffffffffffffff".into();
        let v = gate(&r, &sample_report());
        assert!(v.iter().any(|m| m.contains("changed training")), "{v:?}");
    }

    #[test]
    fn idle_tier_fails_the_engagement_gate() {
        let mut r = sample_report();
        r.sweep[0].spill_bytes = 0;
        let v = gate(&r, &sample_report());
        assert!(v.iter().any(|m| m.contains("never engaged")), "{v:?}");
        let mut r = sample_report();
        r.parity[0].fault_bytes = 0;
        let v = gate(&r, &sample_report());
        assert!(v.iter().any(|m| m.contains("never engaged")), "{v:?}");
    }

    #[test]
    fn stale_artifact_fails_on_run_set_and_config() {
        let r = sample_report();
        let mut fewer = r.clone();
        fewer.sweep.pop();
        let v = gate(&fewer, &r);
        assert!(v.iter().any(|m| m.contains("not produced")), "{v:?}");
        let other_budget = json(&r).replace("\"budget_bytes\": 98304", "\"budget_bytes\": 1");
        let v = check::<OutOfCoreBench>(&json(&r), &other_budget);
        assert!(
            v.iter().any(|m| m.contains("configuration differs")),
            "{v:?}"
        );
    }

    #[test]
    fn insufficient_scale_growth_fails_the_gate() {
        let mut r = sample_report();
        r.sweep.truncate(2); // 1x..2x only
        let v = gate(&r, &r);
        assert!(v.iter().any(|m| m.contains("4x growth")), "{v:?}");
    }

    #[test]
    fn sweep_digest_drift_against_committed_fails() {
        let mut fresh = sample_report();
        fresh.sweep[2].digest = "1111111111111111".into();
        fresh.sweep[2].unbounded_digest = "1111111111111111".into();
        let v = gate(&fresh, &sample_report());
        assert!(
            v.iter()
                .any(|m| m.contains("no longer bitwise reproducible")),
            "{v:?}"
        );
    }

    #[test]
    fn sweep_is_deterministic_and_budget_independent() {
        // Tiny end-to-end sweep through the real store: bounded (forcing
        // spills) and unbounded digests must agree, twice over.
        let a = sweep_store(256, 8, 16, 1, 2048).unwrap();
        let b = sweep_store(256, 8, 16, 1, 2048).unwrap();
        let c = sweep_store(256, 8, 16, 1, u64::MAX).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn grids_cover_both_protocol_families() {
        for grid in [&SIM_GRID[..], &TCP_GRID[..]] {
            assert!(grid.iter().any(|(p, _, _)| p.starts_with("stale")));
            assert!(grid.iter().any(|(p, _, _)| *p == "exact"));
        }
    }
}
