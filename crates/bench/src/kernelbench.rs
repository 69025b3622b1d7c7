//! `repro kernelbench` — single-host kernel micro-benchmarks with a
//! committed, CI-gated performance trajectory.
//!
//! Times the SAR kernel family (sparse aggregation, edge softmax,
//! multi-head SpMM, fused/two-step GAT blocks, per-head projection and
//! the three dense matmul variants) over a fixed, seeded workload matrix
//! and writes a schema-versioned JSON report (`BENCH_kernels.json`).
//!
//! Raw GFLOP/s are machine-dependent, so the committed baseline is never
//! compared on absolute throughput. Instead each run calibrates the host
//! (an in-cache `axpy` loop as a peak-GFLOP/s proxy, a large streaming
//! `add_assign` as a memory-bandwidth proxy), derives a per-kernel
//! roofline `min(peak, bandwidth × arithmetic-intensity)`, and reports
//! the achieved fraction of that roofline. The CI gate compares these
//! *roofline ratios* against the committed baseline with a deliberately
//! generous tolerance ([`REL_TOLERANCE`] relative slack plus an
//! [`ABS_TOLERANCE`] absolute floor): the goal is to catch an
//! accidentally-deleted SIMD path or a quadratic regression, not 10%
//! noise. The gate *hard-fails* on a schema mismatch or a kernel-set
//! mismatch — both mean the baseline is stale and must be regenerated
//! with `repro kernelbench --out BENCH_kernels.json`.
//!
//! The FLOP and byte counts per kernel are documented estimates (see
//! EXPERIMENTS.md), fixed per schema version: they only need to be
//! *consistent* between the baseline and the checking run, which the
//! schema tag guarantees.
//!
//! Helper-thread CPU time is drained through
//! [`sar_tensor::pool::take_helper_cpu_us`] after each timed kernel, so
//! the reported `cpu_us` covers the whole pool, not just the timing
//! thread.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sar_graph::fused::{self, OnlineAttnState};
use sar_graph::generators::erdos_renyi;
use sar_graph::ops;
use sar_tensor::init::randn;
use sar_tensor::{pool, simd};

use crate::harness::Bench;
use crate::json::{self, Obj, Value};
use crate::report::Table;

/// Relative slack on the baseline roofline ratio: a kernel fails the
/// gate only below `baseline × (1 − REL_TOLERANCE) − ABS_TOLERANCE`.
/// Generous by design — shared CI runners are noisy and the gate exists
/// to catch structural regressions (a lost SIMD path, an accidental
/// rematerialization), not run-to-run jitter.
pub const REL_TOLERANCE: f64 = 0.5;

/// Absolute floor subtracted on top of the relative slack, so kernels
/// with tiny baseline ratios cannot fail on rounding.
pub const ABS_TOLERANCE: f64 = 0.02;

/// One timed kernel's results.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Stable kernel identifier, e.g. `"spmm_sum/f32"`.
    pub name: String,
    /// Timed iterations (after one warm-up run).
    pub iters: usize,
    /// Best per-iteration wall time, microseconds.
    pub wall_us: f64,
    /// Mean per-iteration CPU time (timing thread + drained pool helper
    /// time), microseconds.
    pub cpu_us: f64,
    /// Achieved GFLOP/s at the best wall time, under this kernel's
    /// documented FLOP model.
    pub gflops: f64,
    /// Modeled arithmetic intensity, FLOPs per byte of traffic.
    pub ai: f64,
    /// Roofline estimate `min(peak, bandwidth × ai)`, GFLOP/s.
    pub roofline_gflops: f64,
    /// `gflops / roofline_gflops` — the machine-normalized figure the CI
    /// gate tracks.
    pub roofline_ratio: f64,
}

/// A full kernelbench run: calibration plus every kernel's results.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The active SIMD dispatch label (`"avx2"` or `"scalar"`).
    pub simd: String,
    /// Kernel-pool thread count the run used.
    pub threads: usize,
    /// Calibrated single-thread peak-GFLOP/s proxy (in-cache `axpy`).
    pub peak_gflops: f64,
    /// Calibrated streaming-bandwidth proxy, GB/s (large `add_assign`).
    pub stream_gbs: f64,
    /// Per-kernel results, in workload-matrix order.
    pub kernels: Vec<KernelResult>,
}

// ----------------------------------------------------------------------
// Timing harness
// ----------------------------------------------------------------------

struct Timing {
    iters: usize,
    wall_us: f64,
    cpu_us: f64,
}

/// Times one kernel: a warm-up run, then iterations until the time
/// budget or iteration cap is reached (at least 3). The best wall time
/// is the throughput estimate; drained helper CPU time is folded into
/// the mean per-iteration CPU time.
fn time_case(run: &mut dyn FnMut(), quick: bool) -> Timing {
    run(); // warm-up: faults pages, fills the branch predictors
    let _ = pool::take_helper_cpu_us(); // discard warm-up helper time
    let (budget_us, max_iters) = if quick {
        (2_000.0, 5)
    } else {
        (100_000.0, 1_000)
    };
    let mut iters = 0usize;
    let mut total_us = 0.0f64;
    let mut best = f64::INFINITY;
    while iters < 3 || (total_us < budget_us && iters < max_iters) {
        let t = Instant::now();
        run();
        let us = t.elapsed().as_secs_f64() * 1e6;
        total_us += us;
        best = best.min(us);
        iters += 1;
    }
    let helper_us = pool::take_helper_cpu_us();
    Timing {
        iters,
        wall_us: best,
        cpu_us: (total_us + helper_us) / iters as f64,
    }
}

/// Best-of-N wall time for a closure, microseconds.
fn best_of(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Calibrates the host: returns `(peak_gflops, stream_gbs)`.
///
/// Both proxies run single-threaded through the *dispatching* SIMD entry
/// points, so a `--simd scalar` run is normalized against a scalar
/// roofline and its ratios stay comparable to an AVX2 run's.
fn calibrate(quick: bool) -> (f64, f64) {
    // Peak proxy: repeated axpy over an L1-resident pair of buffers.
    let len = 4096usize;
    let reps = if quick { 32 } else { 256 };
    let a = vec![1.000_001f32; len];
    let mut b = vec![1.0f32; len];
    let rounds = if quick { 3 } else { 20 };
    let best_us = best_of(rounds, || {
        for _ in 0..reps {
            simd::axpy(1.000_001, &a, black_box(&mut b));
        }
    });
    let peak_gflops = (2.0 * len as f64 * reps as f64) / (best_us * 1e3);

    // Stream proxy: add_assign over buffers far larger than L2.
    let slen = if quick { 1 << 18 } else { 1 << 22 };
    let src = vec![1.0e-30f32; slen];
    let mut dst = vec![0.0f32; slen];
    let best_us = best_of(if quick { 2 } else { 8 }, || {
        simd::add_assign(black_box(&mut dst), &src);
    });
    // Per element: read dst, read src, write dst.
    let stream_gbs = (3.0 * 4.0 * slen as f64) / (best_us * 1e3);
    (peak_gflops, stream_gbs)
}

// ----------------------------------------------------------------------
// Workload matrix
// ----------------------------------------------------------------------

/// One benchmark case: a named kernel closure plus its FLOP/byte model.
struct Case {
    name: String,
    flops: f64,
    bytes: f64,
    run: Box<dyn FnMut()>,
}

/// The graph-kernel cases: a seeded Erdős–Rényi graph (symmetrized, so
/// rows are sorted and the cache-blocked traversals engage), feature
/// widths 32 and 128 at 4 heads. The narrow width exercises the ragged
/// SIMD tails (head_dim 8), the wide one the steady-state lanes.
fn graph_cases(quick: bool) -> Vec<Case> {
    let n = if quick { 192 } else { 2048 };
    let m = 8 * n;
    let mut rng = StdRng::seed_from_u64(0x5A2C_0FFE);
    let g = Rc::new(erdos_renyi(n, m, &mut rng).symmetrize());
    let e = g.num_edges() as f64;
    let nn = n as f64;
    let heads = 4usize;
    let hh = heads as f64;
    let slope = 0.2f32;
    let mut cases: Vec<Case> = Vec::new();

    for &f in &[32usize, 128] {
        let ff = f as f64;
        let x = randn(&[n, f], 1.0, &mut rng);
        let grad = randn(&[n, f], 1.0, &mut rng);
        let scores = randn(&[g.num_edges(), heads], 1.0, &mut rng);
        let alpha = ops::edge_softmax(&g, &scores);
        let s_dst = randn(&[n, heads], 1.0, &mut rng);
        let s_src = randn(&[n, heads], 1.0, &mut rng);

        {
            let (g, x) = (Rc::clone(&g), x.clone());
            cases.push(Case {
                name: format!("spmm_sum/f{f}"),
                flops: e * ff,
                bytes: 4.0 * (e * ff + nn * ff + e),
                run: Box::new(move || {
                    black_box(ops::spmm_sum(&g, &x));
                }),
            });
        }
        {
            let (g, grad) = (Rc::clone(&g), grad.clone());
            cases.push(Case {
                name: format!("spmm_sum_backward/f{f}"),
                flops: e * ff,
                bytes: 4.0 * (e * ff + nn * ff + e),
                run: Box::new(move || {
                    black_box(ops::spmm_sum_backward(&g, &grad));
                }),
            });
        }
        {
            let (g, alpha, x) = (Rc::clone(&g), alpha.clone(), x.clone());
            cases.push(Case {
                name: format!("spmm_multihead/f{f}"),
                flops: 2.0 * e * ff,
                bytes: 4.0 * (e * (ff + hh) + nn * ff),
                run: Box::new(move || {
                    black_box(ops::spmm_multihead(&g, &alpha, &x));
                }),
            });
        }
        {
            let (g, s_dst, s_src, x) = (Rc::clone(&g), s_dst.clone(), s_src.clone(), x.clone());
            let d = f / heads;
            cases.push(Case {
                name: format!("gat_fused_forward/f{f}"),
                flops: e * hh * (2.0 * (d as f64) + 8.0),
                bytes: 4.0 * (e * (ff + 2.0 * hh) + nn * (ff + 3.0 * hh)),
                run: Box::new(move || {
                    let mut state = OnlineAttnState::new(g.num_rows(), heads, d);
                    fused::gat_fused_block_forward(&g, &s_dst, &s_src, &x, slope, &mut state);
                    black_box(state.num.data()[0]);
                }),
            });
        }

        // The remaining kernels are attention-shaped and not very
        // sensitive to feature width; benchmark them once at f = 128.
        if f != 128 {
            continue;
        }
        let d = f / heads;
        {
            let (g, scores) = (Rc::clone(&g), scores.clone());
            cases.push(Case {
                name: "edge_softmax".into(),
                flops: 5.0 * e * hh,
                bytes: 4.0 * (2.0 * e * hh + 2.0 * nn * hh),
                run: Box::new(move || {
                    black_box(ops::edge_softmax(&g, &scores));
                }),
            });
        }
        {
            let (g, s_dst, s_src) = (Rc::clone(&g), s_dst.clone(), s_src.clone());
            cases.push(Case {
                name: "gat_edge_scores".into(),
                flops: 4.0 * e * hh,
                bytes: 4.0 * (2.0 * nn * hh + e * hh + e),
                run: Box::new(move || {
                    black_box(ops::gat_edge_scores(&g, &s_dst, &s_src, slope));
                }),
            });
        }
        {
            let (g, alpha, x, grad) = (Rc::clone(&g), alpha.clone(), x.clone(), grad.clone());
            cases.push(Case {
                name: "spmm_multihead_backward".into(),
                flops: 4.0 * e * ff,
                bytes: 4.0 * (2.0 * e * (ff + hh) + 2.0 * nn * ff),
                run: Box::new(move || {
                    black_box(ops::spmm_multihead_backward(&g, &alpha, &x, &grad));
                }),
            });
        }
        {
            let (g, s_dst, s_src, x) = (Rc::clone(&g), s_dst.clone(), s_src.clone(), x.clone());
            cases.push(Case {
                name: "gat_twostep_forward".into(),
                flops: e * hh * (2.0 * (d as f64) + 8.0),
                bytes: 4.0 * (e * (ff + 4.0 * hh) + nn * (ff + 3.0 * hh)),
                run: Box::new(move || {
                    let mut state = OnlineAttnState::new(g.num_rows(), heads, d);
                    fused::gat_twostep_block_forward(&g, &s_dst, &s_src, &x, slope, &mut state);
                    black_box(state.num.data()[0]);
                }),
            });
        }
        {
            let a = randn(&[f], 1.0, &mut rng);
            let x = x.clone();
            cases.push(Case {
                name: "head_project".into(),
                flops: 2.0 * nn * ff,
                bytes: 4.0 * (nn * ff + nn * hh + ff),
                run: Box::new(move || {
                    black_box(ops::head_project(&x, &a, heads));
                }),
            });
        }
    }
    cases
}

/// The dense matmul cases exercising the k-panel blocking (`matmul`,
/// `matmul_tn`) and the fixed-tree SIMD dot (`matmul_nt`).
fn matmul_cases(quick: bool) -> Vec<Case> {
    let (m, k, n) = if quick { (48, 32, 32) } else { (384, 256, 256) };
    let mut rng = StdRng::seed_from_u64(0xD07);
    let a = randn(&[m, k], 1.0, &mut rng);
    let at = randn(&[k, m], 1.0, &mut rng);
    let b = randn(&[k, n], 1.0, &mut rng);
    let bt = randn(&[n, k], 1.0, &mut rng);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let bytes = 4.0 * (m as f64 * k as f64 + k as f64 * n as f64 + m as f64 * n as f64);
    let mk = |name: &str, run: Box<dyn FnMut()>| Case {
        name: format!("{name}/{m}x{k}x{n}"),
        flops,
        bytes,
        run,
    };
    vec![
        {
            let (a, b) = (a.clone(), b.clone());
            mk(
                "matmul",
                Box::new(move || {
                    black_box(a.matmul(&b));
                }),
            )
        },
        {
            let (at, b) = (at.clone(), b.clone());
            mk(
                "matmul_tn",
                Box::new(move || {
                    black_box(at.matmul_tn(&b));
                }),
            )
        },
        {
            let (a, bt) = (a.clone(), bt.clone());
            mk(
                "matmul_nt",
                Box::new(move || {
                    black_box(a.matmul_nt(&bt));
                }),
            )
        },
    ]
}

/// Runs the full workload matrix under the *current* SIMD mode and pool
/// thread count and returns the report. `quick` shrinks sizes and time
/// budgets for tests.
pub fn run_bench(quick: bool) -> BenchReport {
    let (peak_gflops, stream_gbs) = calibrate(quick);
    let mut kernels = Vec::new();
    let mut cases = graph_cases(quick);
    cases.extend(matmul_cases(quick));
    for case in &mut cases {
        let t = time_case(&mut case.run, quick);
        let gflops = case.flops / (t.wall_us * 1e3);
        let ai = case.flops / case.bytes;
        let roofline = peak_gflops.min(stream_gbs * ai);
        kernels.push(KernelResult {
            name: case.name.clone(),
            iters: t.iters,
            wall_us: t.wall_us,
            cpu_us: t.cpu_us,
            gflops,
            ai,
            roofline_gflops: roofline,
            roofline_ratio: gflops / roofline,
        });
    }
    BenchReport {
        simd: simd::dispatch_label().to_string(),
        threads: pool::threads(),
        peak_gflops,
        stream_gbs,
        kernels,
    }
}

// ----------------------------------------------------------------------
// The CI gate
// ----------------------------------------------------------------------

/// `repro kernelbench`: the workload matrix at one pool thread under the
/// default SIMD dispatch, gated on `BENCH_kernels.json`.
///
/// The gate *hard-fails* on a schema mismatch or a kernel-set mismatch
/// (the baseline is stale — regenerate it); per-kernel roofline ratios
/// must be finite and fail only below `baseline × (1 − REL_TOLERANCE) −
/// ABS_TOLERANCE`.
pub struct KernelBench;

impl Bench for KernelBench {
    const NAME: &'static str = "kernelbench";
    const SCHEMA: &'static str = "sar-kernelbench/v1";
    const ARTIFACT: &'static str = "BENCH_kernels.json";
    const ARRAYS: &'static [&'static str] = &["kernels"];
    type Report = BenchReport;

    fn run() -> Result<BenchReport, String> {
        pool::set_threads(1);
        eprintln!(
            "[repro] kernelbench: simd={}, threads=1 ...",
            simd::dispatch_label()
        );
        Ok(run_bench(false))
    }

    fn header(r: &BenchReport) -> Vec<(&'static str, String)> {
        vec![
            ("simd", json::string(&r.simd)),
            ("threads", r.threads.to_string()),
            (
                "calibration",
                Obj::new()
                    .num("peak_gflops", r.peak_gflops, 4)
                    .num("stream_gbs", r.stream_gbs, 4)
                    .finish(),
            ),
        ]
    }

    fn records(r: &BenchReport) -> Vec<Vec<String>> {
        vec![r
            .kernels
            .iter()
            .map(|k| {
                Obj::new()
                    .str("name", &k.name)
                    .raw("iters", k.iters)
                    .num("wall_us", k.wall_us, 4)
                    .num("cpu_us", k.cpu_us, 4)
                    .num("gflops", k.gflops, 4)
                    .num("ai_flops_per_byte", k.ai, 4)
                    .num("roofline_gflops", k.roofline_gflops, 4)
                    .num("roofline_ratio", k.roofline_ratio, 4)
                    .finish()
            })
            .collect()]
    }

    fn tables(r: &BenchReport) -> Vec<Table> {
        let mut t = Table::new(
            format!(
                "kernelbench — simd={} threads={} peak={:.2} GFLOP/s stream={:.2} GB/s",
                r.simd, r.threads, r.peak_gflops, r.stream_gbs
            ),
            &[
                "kernel", "iters", "wall_us", "cpu_us", "GFLOP/s", "AI", "roofline", "ratio",
            ],
        );
        for k in &r.kernels {
            t.row(vec![
                k.name.clone(),
                k.iters.to_string(),
                format!("{:.1}", k.wall_us),
                format!("{:.1}", k.cpu_us),
                format!("{:.3}", k.gflops),
                format!("{:.3}", k.ai),
                format!("{:.3}", k.roofline_gflops),
                format!("{:.3}", k.roofline_ratio),
            ]);
        }
        vec![t]
    }

    fn run_key(_array: &str, run: &Value) -> Result<String, String> {
        run.str_field("name").map(|n| format!("\"{n}\""))
    }

    fn invariants(label: &str, doc: &Value) -> Vec<String> {
        doc.items("kernels")
            .iter()
            .filter(|k| {
                !k.get("roofline_ratio")
                    .and_then(Value::num)
                    .is_some_and(f64::is_finite)
            })
            .map(|k| {
                let name = k.get("name").and_then(Value::str).unwrap_or("?");
                format!("{label} kernel \"{name}\" has no finite roofline ratio")
            })
            .collect()
    }

    fn compare(current: &Value, committed: &Value) -> Vec<String> {
        let ratio = |k: &Value| k.get("roofline_ratio").and_then(Value::num);
        let mut violations = Vec::new();
        for k in current.items("kernels") {
            let name = k.get("name").and_then(Value::str);
            let base = committed
                .items("kernels")
                .iter()
                .find(|b| b.get("name").and_then(Value::str) == name);
            let (Some(name), Some(ratio), Some(base_ratio)) =
                (name, ratio(k), base.and_then(ratio))
            else {
                continue;
            };
            let floor = base_ratio * (1.0 - REL_TOLERANCE) - ABS_TOLERANCE;
            if ratio < floor {
                violations.push(format!(
                    "kernel \"{name}\" regressed: roofline ratio {ratio:.4} is below the \
                     gate floor {floor:.4} (baseline {base_ratio:.4}, tolerance \
                     −{:.0}% −{ABS_TOLERANCE})",
                    REL_TOLERANCE * 100.0
                ));
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check, to_json};

    fn sample_report() -> BenchReport {
        BenchReport {
            simd: "avx2".into(),
            threads: 1,
            peak_gflops: 10.0,
            stream_gbs: 20.0,
            kernels: vec![
                KernelResult {
                    name: "spmm_sum/f32".into(),
                    iters: 10,
                    wall_us: 100.0,
                    cpu_us: 110.0,
                    gflops: 2.0,
                    ai: 0.25,
                    roofline_gflops: 5.0,
                    roofline_ratio: 0.4,
                },
                KernelResult {
                    name: "matmul/384x256x256".into(),
                    iters: 5,
                    wall_us: 2000.0,
                    cpu_us: 2100.0,
                    gflops: 8.0,
                    ai: 60.0,
                    roofline_gflops: 10.0,
                    roofline_ratio: 0.8,
                },
            ],
        }
    }

    fn gate(current: &BenchReport, committed: &BenchReport) -> Vec<String> {
        check::<KernelBench>(
            &to_json::<KernelBench>(current),
            &to_json::<KernelBench>(committed),
        )
    }

    #[test]
    fn check_fails_on_regression_within_tolerance_band() {
        let r = sample_report();
        let mut slow = r.clone();
        // Within tolerance: half the baseline ratio is still allowed.
        slow.kernels[1].roofline_ratio = 0.45;
        assert!(gate(&slow, &r).is_empty());
        // Beyond tolerance: must fail.
        slow.kernels[1].roofline_ratio = 0.1;
        let v = gate(&slow, &r);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("matmul"), "{v:?}");
        // A non-finite ratio is never within tolerance.
        slow.kernels[1].roofline_ratio = f64::NAN;
        assert!(gate(&slow, &r).iter().any(|v| v.contains("no finite")));
    }

    #[test]
    fn check_fails_on_kernel_set_mismatch() {
        let r = sample_report();
        let mut extra = r.clone();
        extra.kernels.push(KernelResult {
            name: "brand_new".into(),
            ..r.kernels[0].clone()
        });
        assert!(gate(&extra, &r).iter().any(|v| v.contains("brand_new")));
        let mut fewer = r.clone();
        fewer.kernels.pop();
        assert!(gate(&fewer, &r).iter().any(|v| v.contains("matmul")));
        let mut empty = r.clone();
        empty.kernels.clear();
        assert!(gate(&r, &empty)
            .iter()
            .any(|v| v.contains("no \"kernels\"")));
    }

    #[test]
    fn quick_bench_produces_finite_parseable_report() {
        let r = run_bench(true);
        assert!(!r.kernels.is_empty());
        for k in &r.kernels {
            assert!(k.wall_us > 0.0, "{}", k.name);
            assert!(k.gflops.is_finite(), "{}", k.name);
            assert!(k.roofline_ratio.is_finite(), "{}", k.name);
        }
        assert!(gate(&r, &r).is_empty());
    }
}
