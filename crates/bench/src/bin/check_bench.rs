//! CI regression gate over a `--json` dump from the workspace benches.
//!
//! Usage: `check_bench <BENCH_*.json>`
//!
//! Reads the schema-version-1 document the criterion stand-in emits and
//! gates four kinds of baseline pairs, the first three at parameters
//! `≥ 1000`:
//!
//! * `acct/fold/folded/{T}` against `acct/fold/unfolded/{T}` — the O(w)
//!   folded accountant's per-release audit must not cost more than the
//!   O(T) unfolded history it summarizes away.
//! * `resume/mmap/{T}` against `resume/copy/{T}` — the zero-copy mapped
//!   snapshot view must answer the worst-TPL audit in at most
//!   [`MMAP_TOLERANCE`] (a tenth) of the materializing resume's time;
//!   this is the "≥ 10× faster" checkpoint read-path floor.
//! * `serve/ingest/{users}u-readers/{tenants}` against the
//!   `{users}u-quiet` sibling — ingesting the same release wave across
//!   ≥ 1000 tenants while reader threads stream queries must stay
//!   within [`serve_tolerance`] (the CPU time-sharing bound for this
//!   box's core count, plus margin) of the reader-free baseline:
//!   queries run on published snapshots, never on a writer lock.
//! * `alg1/table/{shape}/{n}` against `alg1/sweep/{shape}/{n}` at the
//!   daemon's n = 16 and 32, for the shapes in [`TABLE_GATED_SHAPES`] —
//!   a 64-step FPL-style chain served from the Algorithm 1 piece table
//!   must cost at most [`TABLE_TOLERANCE`] (a quarter) of the same chain
//!   through the warm-started sweep.
//!
//! The job fails (non-zero exit) if a pair's mean-time ratio exceeds
//! its family tolerance ([`TOLERANCE`] for the fold pair,
//! [`MMAP_TOLERANCE`] for the resume pair, [`serve_tolerance`] for the
//! daemon ingest pair, [`TABLE_TOLERANCE`] for the table pair). Entries
//! with no sibling in the dump are ignored; a dump holding *no*
//! comparable pair of any kind is itself an error, so renaming benches
//! cannot silently disable the gate.

use serde::Value;
use std::process::ExitCode;

/// Allowed folded/unfolded mean-time ratio. Above 1.0 to absorb
/// shared-CI noise at smoke-sized measurement windows; low enough that a
/// real regression (the fold slower than the history it replaces) still
/// fails.
const TOLERANCE: f64 = 1.25;

/// Allowed mmap/copy resume mean-time ratio: the mapped view must be at
/// least 10× faster than the materializing resume, so its mean may be
/// at most a tenth of the baseline's. Well below 1.0 on purpose — this
/// family gates a claimed order-of-magnitude win, not mere parity.
const MMAP_TOLERANCE: f64 = 0.1;

/// Allowed table/sweep mean-time ratio for Algorithm 1's piece table:
/// the table must serve a chain at least 4× faster than the sweep. On
/// the gated shapes it measured 0.04–0.13, so the gate holds a claimed
/// gain with room for shared-runner noise.
const TABLE_TOLERANCE: f64 = 0.25;

/// The table family is measured at the daemon's sizes, far below
/// [`MIN_PARAM`]: n = 16 and 32.
const TABLE_MIN_PARAM: i64 = 16;

/// The `alg1/table` shapes the gate holds: the `ceiling` mix's shard
/// shapes, whose chains the table exists to serve. The `dense` rows are
/// reported, not gated: on weakly correlated dense rows the chain stays
/// at small α, where the warm-started sweep already stops after a pair
/// or two and a table has little to save.
const TABLE_GATED_SHAPES: [&str; 2] = ["clickstream", "roadrestart"];

/// Reader threads `bench_serve` races against ingest — mirrored here
/// because the legitimate contention bound depends on it.
const SERVE_READER_THREADS: f64 = 2.0;

/// Allowed readers/quiet ingest mean-time ratio for the serve daemon.
/// Readers stream queries off published snapshots and never take a
/// writer lock, so the only legitimate cost is CPU time-sharing: on a
/// box with `c` cores the writer's fair share shrinks by at most
/// `1 + readers/c` (3× on a single core, 1.5× on four). The gate
/// allows that bound plus a noise margin; a blocking design — queries
/// serializing ingest behind the writer mutex — stalls the writer for
/// the query stream itself and lands well above it on any core count.
fn serve_tolerance() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1.0, |c| c.get() as f64);
    1.35 * (1.0 + SERVE_READER_THREADS / cores)
}

/// Sizes small enough to be dominated by fixed overheads are not gated.
const MIN_PARAM: i64 = 1000;

fn mean_ns(entry: &Value) -> Option<f64> {
    match entry.get("mean_ns") {
        Some(Value::Num(v)) if *v > 0.0 => Some(*v),
        _ => None,
    }
}

fn run(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("bad JSON in {path}: {e}"))?;
    let Some(Value::Seq(results)) = doc.get("results") else {
        return Err(format!("{path}: no results array"));
    };
    let mut compared = 0usize;
    let mut failures = Vec::new();
    for entry in results {
        let (Some(Value::Str(group)), Some(Value::Num(param))) =
            (entry.get("group"), entry.get("param"))
        else {
            continue;
        };
        let param = *param as i64;
        // Candidate vs baseline naming, tolerance and smallest gated
        // parameter, per bench family.
        let (prefix, sibling, tolerance, min_param) = if let Some(p) = group.strip_suffix("/folded")
        {
            if !p.starts_with("acct/") {
                continue;
            }
            (
                format!("{p}/folded"),
                format!("{p}/unfolded"),
                TOLERANCE,
                MIN_PARAM,
            )
        } else if let Some(p) = group.strip_suffix("/mmap") {
            if p != "resume" {
                continue;
            }
            (
                format!("{p}/mmap"),
                format!("{p}/copy"),
                MMAP_TOLERANCE,
                MIN_PARAM,
            )
        } else if let Some(p) = group.strip_suffix("-readers") {
            if !p.starts_with("serve/") {
                continue;
            }
            (
                group.clone(),
                format!("{p}-quiet"),
                serve_tolerance(),
                MIN_PARAM,
            )
        } else if let Some(shape) = group.strip_prefix("alg1/table/") {
            if !TABLE_GATED_SHAPES.contains(&shape) {
                continue;
            }
            let sibling = format!("alg1/sweep/{shape}");
            (group.clone(), sibling, TABLE_TOLERANCE, TABLE_MIN_PARAM)
        } else {
            continue;
        };
        if param < min_param {
            continue;
        }
        let baseline = results.iter().find(|e| {
            e.get("group") == Some(&Value::Str(sibling.clone()))
                && e.get("param")
                    .is_some_and(|p| matches!(p, Value::Num(v) if *v as i64 == param))
        });
        let Some(baseline) = baseline else {
            continue; // no baseline at this size
        };
        let (Some(c_ns), Some(s_ns)) = (mean_ns(entry), mean_ns(baseline)) else {
            continue;
        };
        compared += 1;
        let ratio = c_ns / s_ns;
        let verdict = if ratio <= tolerance { "ok" } else { "FAIL" };
        println!(
            "{verdict}: {prefix} n={param}: candidate {:.3} ms vs {sibling} {:.3} ms \
             (ratio {ratio:.3}, tolerance {tolerance})",
            c_ns / 1e6,
            s_ns / 1e6,
        );
        if ratio > tolerance {
            failures.push(format!(
                "{prefix} n={param} ratio {ratio:.3} (tolerance {tolerance})"
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "{path}: no candidate/baseline pair at a gated size — \
             the gate would be vacuous (were benches renamed?)"
        ));
    }
    if failures.is_empty() {
        println!("check_bench: {compared} pair(s) within tolerance");
        Ok(())
    } else {
        Err(format!(
            "candidate slower than its family tolerance allows: {}",
            failures.join("; ")
        ))
    }
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: check_bench <BENCH_*.json>");
        return ExitCode::FAILURE;
    };
    match run(&path) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("check_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
