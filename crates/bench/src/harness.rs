//! The one benchmark driver behind `repro kernelbench`, `servebench`,
//! `compressbench` and `outofcorebench`.
//!
//! A benchmark implements [`Bench`]: it runs its fixed workload's cells
//! into a report, renders the report's header fields and run records,
//! keys each run, and states the invariants a document must satisfy.
//! Everything else is shared here: the artifact layout ([`to_json`]), the
//! command line (`--out PATH`, `--check PATH`; [`cli`]) and the gate
//! ([`check`]).
//!
//! Following the `BENCH_kernels.json` precedent, a committed artifact is
//! never compared on raw timings, which are machine-dependent. The gate
//! checks schema identity (a mismatch means the artifact is stale),
//! run-set identity in both directions, each bench's invariants on the
//! committed records and on the fresh ones — re-read through their own
//! JSON, so both sides go through identical field checks — and the
//! bench's own fresh-versus-committed comparison.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::report::Table;

/// A benchmark with a committed, schema-versioned JSON artifact.
pub trait Bench {
    /// The `repro` subcommand.
    const NAME: &'static str;
    /// Schema tag written into (and required from) the artifact. Bump it
    /// whenever the workload, the counters or the field layout change.
    const SCHEMA: &'static str;
    /// The committed artifact's file name.
    const ARTIFACT: &'static str;
    /// The record arrays of the artifact, in document order.
    const ARRAYS: &'static [&'static str];
    /// The measured results.
    type Report;

    /// Runs every cell of the fixed workload.
    ///
    /// # Errors
    ///
    /// Names the cell that failed.
    fn run() -> Result<Self::Report, String>;
    /// Header fields after `schema`, each value already JSON.
    fn header(report: &Self::Report) -> Vec<(&'static str, String)>;
    /// One rendered record per run, for each of [`Bench::ARRAYS`].
    fn records(report: &Self::Report) -> Vec<Vec<String>>;
    /// Human-readable summary tables.
    fn tables(report: &Self::Report) -> Vec<Table>;
    /// Identity of one record of `array`: the fresh and the committed
    /// run sets must match on it.
    ///
    /// # Errors
    ///
    /// Names a missing identity field.
    fn run_key(array: &str, run: &Value) -> Result<String, String>;
    /// Invariants one document must satisfy on its own; `label` names
    /// the side (`"committed"` or `"current"`) in the messages.
    fn invariants(label: &str, doc: &Value) -> Vec<String>;
    /// Checks of the fresh document against the committed one beyond
    /// run-set identity.
    fn compare(_current: &Value, _committed: &Value) -> Vec<String> {
        Vec::new()
    }
}

/// Renders `report` as the artifact document.
#[must_use]
pub fn to_json<B: Bench>(report: &B::Report) -> String {
    let mut fields = vec![("schema", json::string(B::SCHEMA))];
    fields.extend(B::header(report));
    let arrays: Vec<(&str, Vec<String>)> =
        B::ARRAYS.iter().copied().zip(B::records(report)).collect();
    json::document(&fields, &arrays)
}

/// The records of `doc`'s `array`, keyed by `key`. `label` names the
/// document in the error.
///
/// # Errors
///
/// The first record whose key cannot be formed.
pub(crate) fn runs_by_key<'a>(
    label: &str,
    doc: &'a Value,
    array: &str,
    key: impl Fn(&Value) -> Result<String, String>,
) -> Result<BTreeMap<String, &'a Value>, String> {
    doc.items(array)
        .iter()
        .map(|run| {
            Ok((
                key(run).map_err(|e| format!("{label}: run record is {e}"))?,
                run,
            ))
        })
        .collect()
}

/// One violation per run that is only in one of the two run sets.
#[must_use]
pub(crate) fn run_set_diff<T>(
    artifact: &str,
    current: &BTreeMap<String, T>,
    committed: &BTreeMap<String, T>,
) -> Vec<String> {
    let missing = committed.keys().filter(|k| !current.contains_key(*k));
    let new = current.keys().filter(|k| !committed.contains_key(*k));
    missing
        .map(|k| {
            format!(
                "run {k} is in the committed {artifact} but was not produced — the \
                 workload changed; regenerate the committed copy"
            )
        })
        .chain(new.map(|k| {
            format!(
                "run {k} is new (not in the committed {artifact}) — regenerate the committed copy"
            )
        }))
        .collect()
}

/// Gates a fresh artifact against the committed one. Returns the
/// violations (empty = the gate passes); a schema mismatch or an
/// unparsable document is reported alone.
#[must_use]
pub fn check<B: Bench>(current_text: &str, committed_text: &str) -> Vec<String> {
    let parse = |label: &str, text: &str| -> Result<Value, String> {
        let doc = json::parse(text).map_err(|e| format!("{label} JSON parse error: {e}"))?;
        match doc.get("schema").and_then(Value::str) {
            Some(s) if s == B::SCHEMA => Ok(doc),
            Some(s) => Err(format!(
                "{label} schema \"{s}\" does not match this binary's \"{}\" — regenerate \
                 with `repro {} --out {}`",
                B::SCHEMA,
                B::NAME,
                B::ARTIFACT
            )),
            None => Err(format!("{label} {} has no \"schema\" field", B::ARTIFACT)),
        }
    };
    let (committed, current) = match (
        parse("committed", committed_text),
        parse("current", current_text),
    ) {
        (Ok(committed), Ok(current)) => (committed, current),
        (Err(e), _) | (_, Err(e)) => return vec![e],
    };
    let mut violations = Vec::new();
    for &array in B::ARRAYS {
        let key = |run: &Value| B::run_key(array, run);
        match (
            runs_by_key("current", &current, array, key),
            runs_by_key("committed", &committed, array, key),
        ) {
            (Ok(cur), Ok(com)) => {
                if com.is_empty() {
                    violations.push(format!(
                        "committed {} has no \"{array}\" records — regenerate it",
                        B::ARTIFACT
                    ));
                }
                violations.extend(run_set_diff(B::ARTIFACT, &cur, &com));
            }
            (Err(e), _) | (_, Err(e)) => violations.push(e),
        }
    }
    violations.extend(B::invariants("committed", &committed));
    violations.extend(B::invariants("current", &current));
    violations.extend(B::compare(&current, &committed));
    violations
}

/// Writes `text` to `path`, creating the parent directory.
///
/// # Errors
///
/// Names the path on any filesystem failure.
pub fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `repro <bench> [--out PATH] [--check PATH]`: runs the benchmark,
/// prints its tables, writes the artifact to `--out`, and gates it
/// against the committed `--check` copy. Returns the exit code: 0 pass,
/// 1 run failure or gate violation, 2 usage or output error.
pub fn cli<B: Bench>(args: &[String]) -> i32 {
    let (mut out, mut committed_path) = (None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--out" => &mut out,
            "--check" => &mut committed_path,
            other => {
                eprintln!(
                    "unknown {} flag: {other} (takes --out PATH, --check PATH)",
                    B::NAME
                );
                return 2;
            }
        };
        let Some(value) = args.next() else {
            eprintln!("missing value for {flag}");
            return 2;
        };
        *slot = Some(value.clone());
    }
    let report = match B::run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[repro] {} FAIL: {e}", B::NAME);
            return 1;
        }
    };
    for table in B::tables(&report) {
        table.print();
    }
    let json = to_json::<B>(&report);
    if let Some(path) = &out {
        if let Err(e) = write_file(path, &json) {
            eprintln!("[repro] {e}");
            return 2;
        }
        eprintln!("[repro] wrote {path}");
    }
    if let Some(path) = &committed_path {
        let committed = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!(
                    "[repro] {} FAIL: no committed artifact at {path}: {e} — generate one \
                     with `repro {} --out {path}`",
                    B::NAME,
                    B::NAME
                );
                return 1;
            }
        };
        let violations = check::<B>(&json, &committed);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("[repro] {} VIOLATION: {v}", B::NAME);
            }
            return 1;
        }
        eprintln!(
            "[repro] {}: structure and invariants consistent with {path}",
            B::NAME
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressbench::CompressBench;
    use crate::kernelbench::KernelBench;
    use crate::outofcorebench::OutOfCoreBench;
    use crate::servebench::ServeBench;

    type Gate = fn(&str, &str) -> Vec<String>;

    #[test]
    fn committed_artifacts_pass_their_own_gate() {
        let gates: [(&str, Gate); 4] = [
            (KernelBench::ARTIFACT, check::<KernelBench>),
            (ServeBench::ARTIFACT, check::<ServeBench>),
            (CompressBench::ARTIFACT, check::<CompressBench>),
            (OutOfCoreBench::ARTIFACT, check::<OutOfCoreBench>),
        ];
        for (artifact, gate) in gates {
            let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(artifact);
            let text = std::fs::read_to_string(&path).expect("committed artifact");
            assert_eq!(gate(&text, &text), Vec::<String>::new(), "{artifact}");
            // The schema gate is shared: a stale tag fails every bench.
            let stale = text.replacen("/v1\"", "/v0\"", 1);
            assert!(gate(&text, &stale)[0].contains("schema"), "{artifact}");
            assert!(gate(&stale, &text)[0].contains("schema"), "{artifact}");
            assert!(
                gate(&text, "not json")[0].contains("parse error"),
                "{artifact}"
            );
        }
    }

    #[test]
    fn run_sets_are_compared_in_both_directions() {
        let doc = |keys: &[&str]| {
            let runs = keys.iter().map(|k| format!("{{\"k\": \"{k}\"}}")).collect();
            json::parse(&json::document(&[], &[("runs", runs)])).unwrap()
        };
        let key = |r: &Value| r.str_field("k").map(str::to_string);
        let (a, b) = (doc(&["x", "y"]), doc(&["y", "z"]));
        let a = runs_by_key("a", &a, "runs", key).unwrap();
        let b = runs_by_key("b", &b, "runs", key).unwrap();
        let v = run_set_diff("BENCH_x.json", &a, &b);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].contains("run z") && v[0].contains("not produced"),
            "{v:?}"
        );
        assert!(v[1].contains("run x") && v[1].contains("new"), "{v:?}");
        let err = runs_by_key("a", &doc(&["x"]), "runs", |r| {
            r.str_field("missing").map(str::to_string)
        })
        .unwrap_err();
        assert!(
            err.contains("a: run record is missing string field"),
            "{err}"
        );
    }
}
