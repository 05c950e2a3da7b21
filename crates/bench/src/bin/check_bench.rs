//! CI regression gate over a `--json` dump from the workspace benches.
//!
//! Usage: `check_bench <BENCH_*.json>`
//!
//! Reads the schema-version-1 document the criterion stand-in emits and
//! gates four bench families, the first three at parameters `≥ 1000`:
//!
//! * `acct/fold/folded/{T}` against `acct/fold/unfolded/{T}` — the O(w)
//!   folded accountant's per-release audit must not cost more than the
//!   O(T) unfolded history it summarizes away.
//! * `resume/mmap/{T}` against `resume/copy/{T}` — the zero-copy mapped
//!   snapshot view must answer the worst-TPL audit in at most
//!   [`MMAP_TOLERANCE`] (a tenth) of the materializing resume's time;
//!   this is the "≥ 10× faster" checkpoint read-path floor.
//! * `serve/ingest/{users}u-readers/{tenants}` — while reader threads
//!   stream queries, the ingest writer may spend at most
//!   [`SERVE_OFFCPU_TOLERANCE`] of its wall time blocked (the row's
//!   `offcpu_frac`: neither on a CPU, host steal included, nor
//!   runnable): queries run on published snapshots, never on a lock
//!   ingest takes. Sharing CPUs slows the writer as runnable time, so
//!   the gate does not depend on the core count. The `serve/ingest/{users}u-lockstep/{tenants}`
//!   control row, whose readers do take a lock ingest takes, must read
//!   *above* the tolerance, or the measure is blind and the gate fails.
//!   The readers/quiet time ratio is printed, not gated.
//! * `alg1/table/{shape}/{n}` against `alg1/sweep/{shape}/{n}` for the
//!   shapes and sizes in [`TABLE_GATED`] — a 64-step FPL-style chain
//!   served from the Algorithm 1 table must cost at most the shape's
//!   tolerance of the same chain through the warm-started sweep.
//!
//! The job fails (non-zero exit) if a pair's mean-time ratio exceeds
//! its family tolerance ([`TOLERANCE`] for the fold pair,
//! [`MMAP_TOLERANCE`] for the resume pair, the [`TABLE_GATED`] entry
//! for the table pair) or a serve row misses its bound. Entries with
//! no sibling in the dump are ignored; a dump holding *no* comparable
//! pair or serve row is itself an error, so renaming benches cannot
//! silently disable the gate.

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

/// The `alg1/table` shapes the gate holds, each with its smallest gated
/// `n` and its allowed table/sweep mean-time ratio:
///
/// * the `ceiling` mix's shard shapes at the daemon's n = 16 and 32,
///   whose chains the table exists to serve: at most a quarter (they
///   measure 0.02–0.07);
/// * the `fleet` mix's sticky 2-state shape at n = 2, where a 2-pair
///   sweep is already cheap and the formula saves the solves and the
///   witness: it measured 0.25, gated at 0.5 for shared-runner noise.
///
/// The `dense` rows are reported, not gated: on weakly correlated dense
/// rows the chain stays at small α, where the warm-started sweep
/// already stops after a pair or two and a table has little to save.
const TABLE_GATED: [(&str, i64, f64); 3] = [
    ("clickstream", 16, 0.25),
    ("roadrestart", 16, 0.25),
    ("sticky", 2, 0.5),
];

/// Most share of the ingest writer's wall time that may pass blocked —
/// neither on a CPU nor runnable — while readers stream queries. With
/// readers that take no lock ingest takes, `bench_serve`'s 1000-tenant
/// rows read 0.04–0.19 on a 2-vCPU VM; the lockstep control, whose
/// readers take turns with ingest on one FIFO lock, read 0.69–0.79.
const SERVE_OFFCPU_TOLERANCE: f64 = 0.5;

/// Sizes small enough to be dominated by fixed overheads are not gated.
const MIN_PARAM: i64 = 1000;

fn mean_ns(entry: &Value) -> Option<f64> {
    match entry.get("mean_ns") {
        Some(Value::Num(v)) if *v > 0.0 => Some(*v),
        _ => None,
    }
}

/// The result in `results` with this group and parameter.
fn find<'a>(results: &'a [Value], group: &str, param: i64) -> Option<&'a Value> {
    results.iter().find(|e| {
        e.get("group") == Some(&Value::Str(group.to_string()))
            && e.get("param")
                .is_some_and(|p| matches!(p, Value::Num(v) if *v as i64 == param))
    })
}

/// Gate the serve rows: every `serve/ingest/*-readers` row at a gated
/// size must read `offcpu_frac` within [`SERVE_OFFCPU_TOLERANCE`], and
/// every `*-lockstep` control row above it; one control row is required
/// once a readers row is gated. Returns the number of rows judged.
fn gate_serve(results: &[Value], failures: &mut Vec<String>) -> usize {
    let mut judged = 0;
    let mut controls = 0;
    for entry in results {
        let (Some(Value::Str(group)), Some(Value::Num(param))) =
            (entry.get("group"), entry.get("param"))
        else {
            continue;
        };
        let param = *param as i64;
        let Some(rest) = group.strip_prefix("serve/") else {
            continue;
        };
        let control = rest.ends_with("-lockstep");
        if param < MIN_PARAM || !(control || rest.ends_with("-readers")) {
            continue;
        }
        let Some(Value::Num(offcpu)) = entry.get("offcpu_frac") else {
            continue;
        };
        judged += 1;
        let tol = SERVE_OFFCPU_TOLERANCE;
        if control {
            controls += 1;
            let seen = *offcpu > tol;
            println!(
                "{}: {group} n={param}: control writer blocked {offcpu:.3} of its wall time \
                 (must exceed {tol})",
                if seen { "ok" } else { "FAIL" }
            );
            if !seen {
                failures.push(format!(
                    "{group} n={param}: the control's blocked writer reads {offcpu:.3}, \
                     not above {tol} — the measure cannot see a lock"
                ));
            }
            continue;
        }
        let quiet = group.replace("-readers", "-quiet");
        let ratio = match (
            mean_ns(entry),
            find(results, &quiet, param).and_then(mean_ns),
        ) {
            (Some(r), Some(q)) => format!(", readers/quiet time {:.2} (reported)", r / q),
            _ => String::new(),
        };
        let ok = *offcpu <= tol;
        println!(
            "{}: {group} n={param}: writer blocked {offcpu:.3} of its wall time \
             (tolerance {tol}){ratio}",
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures.push(format!(
                "{group} n={param}: writer blocked {offcpu:.3} (tolerance {tol})"
            ));
        }
    }
    if judged > 0 && controls == 0 {
        failures.push("serve rows gated without a -lockstep control row".to_string());
    }
    judged
}

fn run(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("bad JSON in {path}: {e}"))?;
    let Some(Value::Seq(results)) = doc.get("results") else {
        return Err(format!("{path}: no results array"));
    };
    let mut failures = Vec::new();
    let mut compared = gate_serve(results, &mut failures);
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
        } else if let Some(shape) = group.strip_prefix("alg1/table/") {
            let Some(&(_, min_param, tolerance)) = TABLE_GATED.iter().find(|g| g.0 == shape) else {
                continue;
            };
            let sibling = format!("alg1/sweep/{shape}");
            (group.clone(), sibling, tolerance, min_param)
        } else {
            continue;
        };
        if param < min_param {
            continue;
        }
        let Some(baseline) = find(results, &sibling, param) else {
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
            "{path}: no candidate/baseline pair or serve row at a gated size — \
             the gate would be vacuous (were benches renamed?)"
        ));
    }
    if failures.is_empty() {
        println!("check_bench: {compared} pair(s) or row(s) within tolerance");
        Ok(())
    } else {
        Err(format!(
            "outside the family tolerance: {}",
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
