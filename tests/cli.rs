//! Integration tests for the `tcdp-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tcdp-cli"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

fn run_err(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("binary runs");
    assert!(!out.status.success(), "expected failure for {args:?}");
    String::from_utf8(out.stderr).expect("utf8")
}

#[test]
fn quantify_reproduces_figure3() {
    let stdout = run_ok(&[
        "quantify",
        "--pb",
        "[[0.8,0.2],[0,1]]",
        "--pf",
        "[[0.8,0.2],[0,1]]",
        "--eps",
        "0.1",
        "--t",
        "10",
    ]);
    assert!(stdout.contains("0.1808"), "BPL t=2 from Figure 3: {stdout}");
    assert!(stdout.contains("worst event-level TPL: 0.6368"), "{stdout}");
    assert!(
        stdout.contains("user-level (Corollary 1): 1.0000"),
        "{stdout}"
    );
}

#[test]
fn supremum_matches_theorem5() {
    let stdout = run_ok(&[
        "supremum",
        "--matrix",
        "[[0.8,0.2],[0.1,0.9]]",
        "--eps",
        "0.23",
    ]);
    assert!(stdout.contains("0.7923"), "{stdout}");
    let divergent = run_ok(&["supremum", "--matrix", "[[1,0],[0,1]]", "--eps", "0.23"]);
    assert!(divergent.contains("does not exist"), "{divergent}");
}

#[test]
fn plan_both_algorithms() {
    let alg2 = run_ok(&[
        "plan",
        "--pb",
        "[[0.8,0.2],[0.2,0.8]]",
        "--pf",
        "[[0.8,0.2],[0.1,0.9]]",
        "--alpha",
        "1.0",
    ]);
    assert!(alg2.contains("Algorithm 2"), "{alg2}");
    assert!(alg2.contains("eps (every step): 0.2038"), "{alg2}");
    let alg3 = run_ok(&[
        "plan",
        "--pb",
        "[[0.8,0.2],[0.2,0.8]]",
        "--pf",
        "[[0.8,0.2],[0.1,0.9]]",
        "--alpha",
        "1.0",
        "--horizon",
        "5",
    ]);
    assert!(alg3.contains("Algorithm 3"), "{alg3}");
    assert!(alg3.contains("0.4998"), "boosted first budget: {alg3}");
}

#[test]
fn audit_budget_trail() {
    let stdout = run_ok(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.5,0.1,0.1",
    ]);
    assert!(stdout.starts_with("TPL"), "{stdout}");
    assert!(stdout.contains("worst:"), "{stdout}");
    assert!(stdout.contains("user-level (Corollary 1): 0.7"), "{stdout}");
}

#[test]
fn audit_emits_per_window_guarantees() {
    let stdout = run_ok(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--pf",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1,0.1,0.1,0.1,0.1",
        "--w",
        "2,5",
    ]);
    assert!(stdout.contains("2-event guarantee:"), "{stdout}");
    assert!(stdout.contains("5-event guarantee:"), "{stdout}");
    // Independent composition over the full 5-window is Σ ε = 0.5, and
    // correlation can only worsen it.
    assert!(
        stdout.contains("(independent composition: 0.5000)"),
        "{stdout}"
    );
    // A window longer than the timeline is an honest error.
    let err = run_err(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1,0.1",
        "--w",
        "3",
    ]);
    assert!(err.contains("invalid w-event window length"), "{err}");
}

#[test]
fn audit_streams_budgets_from_stdin() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = cli()
        .args([
            "audit",
            "--pb",
            "[[0.9,0.1],[0.2,0.8]]",
            "--budgets",
            "-",
            "--stream",
            "--w",
            "2",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"# release trail\n0.5\n0.1\n\n0.1\n")
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    // One running line per release, then the summary.
    assert!(stdout.contains("t=0     eps=0.5000"), "{stdout}");
    assert!(stdout.contains("t=2     eps=0.1000"), "{stdout}");
    assert!(stdout.contains("worst:"), "{stdout}");
    assert!(stdout.contains("2-event guarantee:"), "{stdout}");
}

#[test]
fn audit_reads_json_budget_files() {
    let dir = std::env::temp_dir();
    let path = dir.join("tcdp_cli_trail.json");
    std::fs::write(&path, "[0.2, 0.2, 0.2]").expect("write temp file");
    let stdout = run_ok(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        &format!("@{}", path.display()),
    ]);
    assert!(stdout.contains("user-level (Corollary 1): 0.6"), "{stdout}");
}

#[test]
fn audit_checkpoint_then_resume_is_byte_identical() {
    let dir = std::env::temp_dir();
    let cp = dir.join("tcdp_cli_checkpoint.bin");
    let cp_arg = cp.display().to_string();
    let pb = "[[0.9,0.1],[0.2,0.8]]";
    let pf = "[[0.85,0.15],[0.1,0.9]]";
    // The uninterrupted reference audit over the whole trail.
    let full = run_ok(&[
        "audit",
        "--pb",
        pb,
        "--pf",
        pf,
        "--budgets",
        "0.3,0.1,0.2,0.1,0.25,0.15",
        "--w",
        "2,3,6",
    ]);
    // The same trail audited in two halves with a stop in the middle.
    run_ok(&[
        "audit",
        "--pb",
        pb,
        "--pf",
        pf,
        "--budgets",
        "0.3,0.1,0.2",
        "--checkpoint",
        &cp_arg,
    ]);
    let resumed = run_ok(&[
        "audit",
        "--resume",
        &cp_arg,
        "--budgets",
        "0.1,0.25,0.15",
        "--w",
        "2,3,6",
    ]);
    // Every per-window guarantee — and the whole summary — must be
    // byte-identical to the uninterrupted run.
    let summary = |s: &str| {
        s.lines()
            .filter(|l| {
                l.starts_with("TPL")
                    || l.starts_with("worst:")
                    || l.starts_with("user-level")
                    || l.contains("-event guarantee:")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        summary(&full),
        summary(&resumed),
        "\nfull:\n{full}\nresumed:\n{resumed}"
    );
    let guarantees = resumed
        .lines()
        .filter(|l| l.contains("-event guarantee:"))
        .count();
    assert_eq!(guarantees, 3, "{resumed}");

    // Resuming without new budgets re-summarizes the restored timeline.
    let cp2 = dir.join("tcdp_cli_checkpoint2.bin");
    let cp2_arg = cp2.display().to_string();
    run_ok(&[
        "audit",
        "--resume",
        &cp_arg,
        "--budgets",
        "0.1,0.25,0.15",
        "--checkpoint",
        &cp2_arg,
    ]);
    let summarized = run_ok(&["audit", "--resume", &cp2_arg, "--w", "2,3,6"]);
    assert_eq!(summary(&full), summary(&summarized), "{summarized}");
}

/// A checkpoint as earlier versions of `audit --checkpoint` wrote it by
/// default (a two-release trail under a backward correlation).
const JSON_ENVELOPE: &str = r#"{
  "format": "tcdp-checkpoint",
  "version": 3.0,
  "kind": "tpl-accountant",
  "payload": {
    "accountant": {
      "backward": {"matrix": {"n": 2.0, "data": [0.9, 0.1, 0.2, 0.8]}},
      "forward": null,
      "timeline": [0.3, 0.1],
      "bpl": [0.3, 0.3515],
      "fold": null
    },
    "series": null,
    "warm_backward": null,
    "warm_forward": null
  }
}
"#;

#[test]
fn audit_resume_rejects_bad_checkpoints() {
    let dir = std::env::temp_dir();
    // Corrupt file: honest error, no panic.
    let bad = dir.join("tcdp_cli_bad_checkpoint.json");
    std::fs::write(&bad, "{\"not\": \"a checkpoint\"}").expect("write temp file");
    let err = run_err(&["audit", "--resume", &bad.display().to_string()]);
    assert!(err.contains("corrupt checkpoint"), "{err}");
    // A JSON envelope as earlier versions wrote by default: refused with
    // the reason and the way out, not a panic.
    std::fs::write(&bad, JSON_ENVELOPE).expect("write temp file");
    let err = run_err(&["audit", "--resume", &bad.display().to_string()]);
    assert!(err.starts_with("error: corrupt checkpoint:"), "{err}");
    assert!(err.contains("JSON envelopes are no longer read"), "{err}");
    assert!(
        err.contains("re-run the audit from its budget trail"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    // Missing file: honest io error.
    let err = run_err(&["audit", "--resume", "/nonexistent/tcdp.json"]);
    assert!(err.contains("checkpoint io error"), "{err}");
    // --resume and --pb conflict.
    std::fs::write(&bad, "{}").expect("write temp file");
    let err = run_err(&[
        "audit",
        "--resume",
        &bad.display().to_string(),
        "--pb",
        "[[1,0],[0,1]]",
    ]);
    assert!(err.contains("drop --pb/--pf"), "{err}");
}

#[test]
fn audit_population_reports_per_group_guarantees() {
    // Two groups: a strongly-correlated one (leaks more) and a
    // traditional one, on diverging budget timelines — every release
    // line form exercised once.
    let spec = r#"[
        {"count": 3, "pb": [[0.9,0.1],[0.05,0.95]], "pf": [[0.9,0.1],[0.05,0.95]]},
        {"count": 2}
    ]"#;
    use std::io::Write;
    use std::process::Stdio;
    let mut child = cli()
        .args(["audit", "--population", spec, "--budgets", "-", "--w", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(
            b"# one release per line\n0.1\n{\"0\": 0.05, \"1\": 0.2}\n[[0,3,0.05],[3,5,0.2]]\n",
        )
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.starts_with("TPL"), "{stdout}");
    assert!(
        stdout.contains("5 users, 2 shards, 2 distinct timelines"),
        "the budget cut aligns with the adversary groups, so shards fork \
         timelines without splitting: {stdout}"
    );
    assert!(
        stdout.contains("group 0 (users 0..3): worst TPL"),
        "{stdout}"
    );
    assert!(
        stdout.contains("group 1 (users 3..5): worst TPL"),
        "{stdout}"
    );
    assert!(stdout.contains("2-event"), "{stdout}");
    // Group 0 spent 0.1 + 0.05 + 0.05 = 0.2, group 1 spent 0.5.
    assert!(
        stdout.contains("group 0 (users 0..3): worst TPL"),
        "{stdout}"
    );
    let g0 = stdout
        .lines()
        .find(|l| l.starts_with("group 0"))
        .expect("group 0 line");
    assert!(g0.contains("user-level 0.2000"), "{g0}");
    let g1 = stdout
        .lines()
        .find(|l| l.starts_with("group 1"))
        .expect("group 1 line");
    assert!(g1.contains("user-level 0.5000"), "{g1}");
}

#[test]
fn audit_population_checkpoint_and_resume() {
    let dir = std::env::temp_dir();
    let cp = dir.join("tcdp_cli_population_checkpoint.bin");
    let cp_arg = cp.display().to_string();
    let spec = r#"[{"count": 2, "pb": [[0.9,0.1],[0.2,0.8]]}, {"count": 2}]"#;
    // Uninterrupted reference.
    let budgets = dir.join("tcdp_cli_population_trail.txt");
    std::fs::write(&budgets, "0.1\n{\"0\": 0.05, \"1\": 0.3}\n0.2\n").expect("write");
    let full = run_ok(&[
        "audit",
        "--population",
        spec,
        "--budgets",
        &format!("@{}", budgets.display()),
        "--w",
        "2",
    ]);
    // Stop after two releases, then resume with a user-range line
    // (group-indexed lines need the spec, ranges do not).
    let head = dir.join("tcdp_cli_population_head.txt");
    std::fs::write(&head, "0.1\n{\"0\": 0.05, \"1\": 0.3}\n").expect("write");
    run_ok(&[
        "audit",
        "--population",
        spec,
        "--budgets",
        &format!("@{}", head.display()),
        "--checkpoint",
        &cp_arg,
    ]);
    let resumed = run_ok(&["audit", "--resume", &cp_arg, "--budgets", "0.2", "--w", "2"]);
    let summary = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("TPL") || l.starts_with("worst:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        summary(&full),
        summary(&resumed),
        "\n{full}\n---\n{resumed}"
    );
    // The resumed audit reports per-shard guarantees (no spec present).
    assert!(resumed.contains("shard 0 ("), "{resumed}");
    assert!(resumed.contains("2-event"), "{resumed}");
    // --resume with --population is an honest conflict.
    let err = run_err(&[
        "audit",
        "--resume",
        &cp_arg,
        "--population",
        spec,
        "--budgets",
        "0.1",
    ]);
    assert!(err.contains("drop --population"), "{err}");
}

#[test]
fn audit_population_rejects_bad_lines() {
    let spec = r#"[{"count": 2}, {"count": 1}]"#;
    // A group-indexed line missing a group.
    let err = run_err(&["audit", "--population", spec, "--budgets", "{\"0\": 0.1}"]);
    assert!(err.contains("group 1 has no budget"), "{err}");
    // Ranges that do not cover the population.
    let err = run_err(&["audit", "--population", spec, "--budgets", "[[0,2,0.1]]"]);
    assert!(
        err.contains("invalid personalized budget assignment"),
        "{err}"
    );
    // Unknown group index.
    let err = run_err(&[
        "audit",
        "--population",
        spec,
        "--budgets",
        "{\"0\": 0.1, \"7\": 0.2}",
    ]);
    assert!(err.contains("group 7 does not exist"), "{err}");
    // Bad spec.
    let err = run_err(&["audit", "--population", "{}", "--budgets", "0.1"]);
    assert!(err.contains("expected a JSON array"), "{err}");
    let err = run_err(&[
        "audit",
        "--population",
        r#"[{"count": 0}]"#,
        "--budgets",
        "0.1",
    ]);
    assert!(err.contains("positive integer"), "{err}");
    // --population with --pb conflicts.
    let err = run_err(&[
        "audit",
        "--population",
        spec,
        "--pb",
        "[[1,0],[0,1]]",
        "--budgets",
        "0.1",
    ]);
    assert!(err.contains("drop --pb/--pf"), "{err}");
}

#[test]
fn matrix_from_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("tcdp_cli_test_matrix.json");
    std::fs::write(&path, "[[0.8,0.2],[0.1,0.9]]").expect("write temp file");
    let stdout = run_ok(&[
        "supremum",
        "--matrix",
        &format!("@{}", path.display()),
        "--eps",
        "0.23",
    ]);
    assert!(stdout.contains("0.7923"), "{stdout}");
}

#[test]
fn helpful_errors() {
    assert!(run_err(&[]).contains("missing subcommand"));
    assert!(run_err(&["frobnicate"]).contains("unknown subcommand"));
    assert!(run_err(&["quantify", "--eps", "0.1"]).contains("--t is required"));
    assert!(run_err(&["supremum", "--eps", "0.1"]).contains("--matrix is required"));
    assert!(run_err(&[
        "supremum",
        "--matrix",
        "[[0.8,0.3],[0.1,0.9]]",
        "--eps",
        "0.1"
    ])
    .contains("row 0"));
    assert!(run_err(&["supremum", "--matrix", "not json", "--eps", "0.1"]).contains("bad JSON"));
    assert!(run_err(&["quantify", "--eps"]).contains("needs a value"));
    // A misspelt flag is refused with the usage hint, not ignored.
    let cp = std::env::temp_dir().join(format!("tcdp_cli_misspelt_{}.bin", std::process::id()));
    let cp_arg = cp.display().to_string();
    let err = run_err(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1,0.2",
        "--chekpoint",
        &cp_arg,
    ]);
    assert!(err.contains("unknown flag --chekpoint"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
    assert!(!cp.exists());
    // So is the retired encoding switch.
    let err = run_err(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1,0.2",
        "--checkpoint",
        &cp_arg,
        "--checkpoint-format",
        "bin",
    ]);
    assert!(err.contains("unknown flag --checkpoint-format"), "{err}");
    assert!(!cp.exists());
    // A flag another subcommand reads is still unknown here.
    let err = run_err(&[
        "supremum",
        "--matrix",
        "[[1,0],[0,1]]",
        "--eps",
        "0.1",
        "--t",
        "3",
    ]);
    assert!(err.contains("unknown flag --t"), "{err}");
    // Unbounded correlation is reported, not panicked.
    let err = run_err(&["plan", "--pb", "[[1,0],[0,1]]", "--alpha", "1.0"]);
    assert!(err.contains("deterministic-strength"), "{err}");
}

#[test]
fn estimate_from_trace_file() {
    let dir = std::env::temp_dir();
    let path = dir.join("tcdp_cli_traces.txt");
    // Long alternating trajectory: P^F should be close to the swap matrix.
    let traj: Vec<String> = (0..500).map(|t| (t % 2).to_string()).collect();
    std::fs::write(&path, format!("# domain=2\n{}\n", traj.join(" "))).expect("write");
    let stdout = run_ok(&["estimate", "--traces", &path.display().to_string()]);
    assert!(
        stdout.contains("500") || stdout.contains("1 trajectories"),
        "{stdout}"
    );
    assert!(stdout.contains("forward"), "{stdout}");
    assert!(stdout.contains("backward"), "{stdout}");
    // The printed JSON should be loadable back as a --pf argument: the
    // off-diagonal dominates.
    let pf_line = stdout
        .lines()
        .find(|l| l.starts_with("forward"))
        .expect("pf line");
    let json = pf_line.split(": ").nth(1).expect("json part");
    let rows: Vec<Vec<f64>> = serde_json::from_str(json).expect("valid JSON");
    assert!(rows[0][1] > 0.9, "{rows:?}");
}

#[test]
fn report_audits_and_plans() {
    let stdout = run_ok(&[
        "report",
        "--pb",
        "[[0.8,0.2],[0.2,0.8]]",
        "--pf",
        "[[0.8,0.2],[0.1,0.9]]",
        "--alpha",
        "1.0",
        "--eps",
        "0.3",
        "--t",
        "10",
    ]);
    assert!(
        stdout.contains("EXCEEDS target"),
        "0.3/step breaches alpha=1: {stdout}"
    );
    assert!(stdout.contains("Algorithm 2"), "{stdout}");
    assert!(stdout.contains("Algorithm 3"), "{stdout}");
    // A compliant stream is recognized too.
    let ok = run_ok(&[
        "report",
        "--pb",
        "[[0.8,0.2],[0.2,0.8]]",
        "--pf",
        "[[0.8,0.2],[0.1,0.9]]",
        "--alpha",
        "1.0",
        "--eps",
        "0.1",
        "--t",
        "5",
    ]);
    assert!(ok.contains("WITHIN target"), "{ok}");
}

#[test]
fn help_prints_usage() {
    let stdout = run_ok(&["help"]);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("quantify"));
}

#[test]
fn audit_binary_incremental_checkpoint_resume_is_byte_identical() {
    let dir = std::env::temp_dir();
    let cp = dir.join(format!(
        "tcdp_cli_bin_checkpoint_{}.bin",
        std::process::id()
    ));
    let cp_arg = cp.display().to_string();
    let delta = dir.join(format!(
        "tcdp_cli_bin_checkpoint_{}.bin.delta",
        std::process::id()
    ));
    let pb = "[[0.9,0.1],[0.2,0.8]]";
    let pf = "[[0.85,0.15],[0.1,0.9]]";
    // The uninterrupted reference audit over the whole trail.
    let full = run_ok(&[
        "audit",
        "--pb",
        pb,
        "--pf",
        pf,
        "--budgets",
        "0.3,0.1,0.2,0.1,0.25,0.15",
        "--w",
        "2,3,6",
    ]);
    // First half with in-stream incremental binary checkpoints: the
    // save at T=2 is a full snapshot, the final save at T=3 appends a
    // delta record to the sibling log.
    run_ok(&[
        "audit",
        "--pb",
        pb,
        "--pf",
        pf,
        "--budgets",
        "0.3,0.1,0.2",
        "--checkpoint",
        &cp_arg,
        "--checkpoint-every",
        "2",
    ]);
    assert!(cp.exists(), "binary snapshot written");
    assert!(delta.exists(), "delta log written by the incremental save");
    // Resume replays snapshot + deltas and keeps appending to the log.
    let resumed = run_ok(&[
        "audit",
        "--resume",
        &cp_arg,
        "--budgets",
        "0.1,0.25,0.15",
        "--w",
        "2,3,6",
        "--checkpoint",
        &cp_arg,
    ]);
    let summary = |s: &str| {
        s.lines()
            .filter(|l| {
                l.starts_with("TPL")
                    || l.starts_with("worst:")
                    || l.starts_with("user-level")
                    || l.contains("-event guarantee:")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        summary(&full),
        summary(&resumed),
        "\nfull:\n{full}\nresumed:\n{resumed}"
    );
    assert!(resumed.contains("delta appended"), "{resumed}");
    // A third resume of the final binary state re-summarizes it.
    let resummarized = run_ok(&["audit", "--resume", &cp_arg, "--w", "2,3,6"]);
    assert_eq!(summary(&full), summary(&resummarized));
    std::fs::remove_file(&cp).ok();
    std::fs::remove_file(&delta).ok();
}

#[test]
fn audit_population_binary_checkpoint_round_trips() {
    let dir = std::env::temp_dir();
    let cp = dir.join(format!("tcdp_cli_pop_bin_{}.bin", std::process::id()));
    let cp_arg = cp.display().to_string();
    let spec = r#"[{"count": 2, "pb": [[0.9,0.1],[0.2,0.8]]}, {"count": 2}]"#;
    let full = run_ok(&[
        "audit",
        "--population",
        spec,
        "--budgets",
        "0.1,0.2,0.15",
        "--w",
        "2",
    ]);
    run_ok(&[
        "audit",
        "--population",
        spec,
        "--budgets",
        "0.1,0.2",
        "--checkpoint",
        &cp_arg,
    ]);
    let resumed = run_ok(&[
        "audit",
        "--resume",
        &cp_arg,
        "--budgets",
        "0.15",
        "--w",
        "2",
    ]);
    let summary = |s: &str| {
        s.lines()
            .filter(|l| l.starts_with("TPL") || l.starts_with("worst:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        summary(&full),
        summary(&resumed),
        "\n{full}\n---\n{resumed}"
    );
    std::fs::remove_file(&cp).ok();
}

/// Regression: streamed budgets tolerate blank and whitespace-only
/// lines anywhere in the stream and a missing trailing newline, and
/// inline CSV tolerates empty fields — none of these may surface a
/// parse error mid-audit.
#[test]
fn audit_budget_parsing_tolerates_blanks_and_missing_newline() {
    use std::io::Write;
    use std::process::Stdio;
    // Stdin: whitespace-only lines interleaved, no trailing newline.
    let mut child = cli()
        .args(["audit", "--pb", "[[0.9,0.1],[0.2,0.8]]", "--budgets", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(b"0.5\n   \n\t\n0.1\n\n0.1")
        .expect("write stdin");
    let out = child.wait_with_output().expect("binary exits");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("user-level (Corollary 1): 0.7"), "{stdout}");

    // Inline CSV: trailing comma, doubled comma, whitespace fields.
    let stdout = run_ok(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.5, ,0.1,,0.1,",
    ]);
    assert!(stdout.contains("user-level (Corollary 1): 0.7"), "{stdout}");

    // A JSON trail file with a trailing newline parses fine.
    let dir = std::env::temp_dir();
    let trail = dir.join(format!("tcdp_cli_trail_nl_{}.json", std::process::id()));
    std::fs::write(&trail, "[0.5, 0.1, 0.1]\n").expect("write temp file");
    let stdout = run_ok(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        &format!("@{}", trail.display()),
    ]);
    assert!(stdout.contains("user-level (Corollary 1): 0.7"), "{stdout}");
    std::fs::remove_file(&trail).ok();

    // A population budget file: blank/whitespace lines, comments, and
    // no trailing newline.
    let spec = r#"[{"count": 2}]"#;
    let lines = dir.join(format!("tcdp_cli_pop_lines_{}.txt", std::process::id()));
    std::fs::write(&lines, "0.5\n   \n# comment\n\n0.1\n0.1").expect("write temp file");
    let stdout = run_ok(&[
        "audit",
        "--population",
        spec,
        "--budgets",
        &format!("@{}", lines.display()),
    ]);
    assert!(stdout.contains("worst:"), "{stdout}");
    std::fs::remove_file(&lines).ok();

    // The inline population CSV skips empty fields too.
    let stdout = run_ok(&[
        "audit",
        "--population",
        spec,
        "--budgets",
        "0.5,,0.1, ,0.1,",
    ]);
    assert!(stdout.contains("worst:"), "{stdout}");
}

#[test]
fn audit_checkpoint_every_validates_flags() {
    let err = run_err(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1",
        "--checkpoint-every",
        "2",
    ]);
    assert!(
        err.contains("--checkpoint-every needs --checkpoint"),
        "{err}"
    );
    let err = run_err(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1",
        "--checkpoint",
        "/tmp/x.bin",
        "--checkpoint-every",
        "0",
    ]);
    assert!(
        err.contains("--checkpoint-every must be at least 1"),
        "{err}"
    );
    // --compact-after needs only a checkpoint path, not a format flag.
    let err = run_err(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1",
        "--compact-after",
        "2",
    ]);
    assert!(err.contains("--compact-after needs --checkpoint"), "{err}");
    let err = run_err(&[
        "audit",
        "--pb",
        "[[0.9,0.1],[0.2,0.8]]",
        "--budgets",
        "0.1",
        "--checkpoint",
        "/tmp/x.bin",
        "--compact-after",
        "0",
    ]);
    assert!(err.contains("--compact-after must be at least 1"), "{err}");
}

#[test]
fn audit_horizon_validates_and_folds() {
    let pb = "[[0.9,0.1],[0.2,0.8]]";
    let trail = "0.1,".repeat(30);
    let err = run_err(&["audit", "--pb", pb, "--budgets", &trail, "--horizon", "0"]);
    assert!(err.contains("--horizon must be at least 1"), "{err}");
    // A horizon smaller than an audited window would fold releases a
    // protected window still needs.
    let err = run_err(&[
        "audit",
        "--pb",
        pb,
        "--budgets",
        &trail,
        "--w",
        "8",
        "--horizon",
        "5",
    ]);
    assert!(err.contains("smaller than --w"), "{err}");
    // A folded audit still reports every summary line; the w-event
    // guarantee of a monotone (uniform) stream lives in the final
    // window, which the fold keeps live — so it matches the unfolded
    // run exactly.
    let folded = run_ok(&[
        "audit",
        "--pb",
        pb,
        "--budgets",
        &trail,
        "--w",
        "8",
        "--horizon",
        "10",
    ]);
    let unfolded = run_ok(&["audit", "--pb", pb, "--budgets", &trail, "--w", "8"]);
    let line = |out: &str| {
        out.lines()
            .find(|l| l.contains("8-event guarantee"))
            .expect("guarantee line")
            .to_string()
    };
    assert_eq!(line(&folded), line(&unfolded));
    assert!(
        folded.contains("user-level (Corollary 1): 3.0000"),
        "{folded}"
    );
}
