#![forbid(unsafe_code)]
//! # tcdp-analysis — workspace invariant analyzer
//!
//! Every guarantee this reproduction makes — sharded == serial == naive,
//! pruned engine == unpruned reference, checkpoint resume == live
//! accountant — is a *bit-identity* claim. The runtime differential
//! suites probe those claims; this crate makes the invariants they rely
//! on statically checkable, so the build refuses a violation instead of
//! hoping a property test trips over it. See `crates/analysis/README.md`
//! for the rule catalogue, the bit-identity guarantee each rule
//! protects, and the `// tcdp-lint: allow(<rule>) — <reason>` suppression
//! syntax.
//!
//! The analyzer is deliberately a *lexical* pass (tokenizer plus
//! brace/attribute tracking — see [`lexer`]): the container builds with
//! no network, so `syn`-based or clippy-plugin approaches are out of
//! reach, and every rule here is expressible over the token stream.

pub mod lexer;

use lexer::{Comment, Lexed, TokKind, Token};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// All rule names, used to validate `allow(...)` lists.
pub const RULE_NAMES: &[&str] = &[
    "panic-path",
    "index-panic",
    "hash-collections",
    "wall-clock",
    "env-read",
    "float-eq",
    "lock-hold",
    "forbid-unsafe",
    "unsafe-code",
    "unsafe-safety",
    "suppression",
];

/// How a file participates in the rule set, derived from its workspace
/// path (see [`classify_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Library source of a `tcdp-*` crate (or the facade's `src/lib.rs`):
    /// the full rule set applies outside `#[cfg(test)]` scopes.
    Library,
    /// A binary entry point (`src/bin/`): process boundary — panics and
    /// environment reads are legitimate there; only unsafe hygiene and
    /// suppression validation apply.
    Binary,
    /// Tests, benches, and examples: only unsafe hygiene and suppression
    /// validation apply.
    TestLike,
    /// `crates/compat/` stand-ins: the one place `unsafe` is tolerated,
    /// and only with a `// SAFETY:` comment.
    Compat,
    /// Lint fixture corpus (`tests/fixtures/`): skipped by the workspace
    /// walk (fixtures deliberately violate rules).
    Fixture,
}

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// Enable the pedantic tier (currently: `index-panic`).
    pub pedantic: bool,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// The offending token text.
    pub token: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] `{}` — {}",
            self.file, self.line, self.rule, self.token, self.message
        )
    }
}

/// The outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// Unsuppressed findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Findings silenced by a well-formed suppression comment.
    pub suppressed: usize,
}

/// Classify a workspace-relative path (with `/` separators).
pub fn classify_path(rel: &str) -> Role {
    if rel.contains("tests/fixtures/") {
        return Role::Fixture;
    }
    if rel.starts_with("crates/compat/") {
        return Role::Compat;
    }
    if rel.contains("/tests/")
        || rel.starts_with("tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("examples/")
        || rel.starts_with("crates/bench/")
    {
        return Role::TestLike;
    }
    if rel.contains("/src/bin/") || rel.starts_with("src/bin/") {
        return Role::Binary;
    }
    Role::Library
}

/// Whether a workspace-relative path is a non-compat crate root
/// (`src/lib.rs` of a member crate), where `#![forbid(unsafe_code)]` is
/// required.
pub fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" {
        return true;
    }
    if rel.starts_with("crates/compat/") {
        return false;
    }
    let mut parts = rel.split('/');
    matches!(
        (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ),
        (Some("crates"), Some(_), Some("src"), Some("lib.rs"), None)
    )
}

/// A parsed `// tcdp-lint: allow(rule, ...) — reason` comment.
#[derive(Debug)]
struct Suppression {
    rules: Vec<String>,
    has_reason: bool,
    /// Lines this suppression applies to (its own line and, for a
    /// standalone comment, the next code line).
    lines: Vec<u32>,
    line: u32,
}

fn parse_suppressions(comments: &[Comment], tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Suppressions live in plain `//` comments only; doc comments
        // (`///`, `//!`, `/**`) may *mention* the syntax without
        // enacting it.
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") {
            continue;
        }
        let Some(at) = c.text.find("tcdp-lint:") else {
            continue;
        };
        let rest = &c.text[at + "tcdp-lint:".len()..];
        let (rules, has_reason) = match rest.find("allow(") {
            Some(open) => {
                let body = &rest[open + "allow(".len()..];
                match body.find(')') {
                    Some(close) => {
                        let rules: Vec<String> = body[..close]
                            .split(',')
                            .map(|r| r.trim().to_string())
                            .filter(|r| !r.is_empty())
                            .collect();
                        let tail = &body[close + 1..];
                        (rules, tail.chars().any(char::is_alphanumeric))
                    }
                    None => (Vec::new(), false),
                }
            }
            None => (Vec::new(), false),
        };
        let mut lines = vec![c.line];
        if !c.trailing {
            // Standalone comment: also covers the next code line.
            if let Some(next) = tokens.iter().map(|t| t.line).find(|&l| l > c.line) {
                lines.push(next);
            }
        }
        out.push(Suppression {
            rules,
            has_reason,
            lines,
            line: c.line,
        });
    }
    out
}

/// Mark the token ranges under `#[cfg(test)]` / `#[test]` items (the
/// hundreds of legitimate inline test-module sites), so library rules
/// exempt them.
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let mut i = 0usize;
    while i < tokens.len() {
        if text(i) != Some("#") || text(i + 1) != Some("[") {
            i += 1;
            continue;
        }
        // Find the attribute's closing `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut end = None;
        while j < tokens.len() {
            match text(j) {
                Some("[") => depth += 1,
                Some("]") => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(close) = end else { break };
        let attr: Vec<&str> = tokens
            .get(i + 2..close)
            .unwrap_or_default()
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        let is_test_attr = attr.first() == Some(&"test")
            || (attr.first() == Some(&"cfg") && attr.contains(&"test") && !attr.contains(&"not"));
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then mark through the end of the
        // annotated item: its brace-matched body, or the terminating `;`.
        let mut k = close + 1;
        while text(k) == Some("#") && text(k + 1) == Some("[") {
            let mut d = 0usize;
            while k < tokens.len() {
                match text(k) {
                    Some("[") => d += 1,
                    Some("]") => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut wrap = 0usize;
        let item_end = loop {
            match text(k) {
                None => break tokens.len().saturating_sub(1),
                Some("(") | Some("[") => wrap += 1,
                Some(")") | Some("]") => wrap = wrap.saturating_sub(1),
                Some(";") if wrap == 0 => break k,
                Some("{") if wrap == 0 => {
                    let mut d = 0usize;
                    while k < tokens.len() {
                        match text(k) {
                            Some("{") => d += 1,
                            Some("}") => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    break k.min(tokens.len().saturating_sub(1));
                }
                _ => {}
            }
            k += 1;
        };
        for m in mask
            .get_mut(i..=item_end.min(tokens.len().saturating_sub(1)))
            .unwrap_or_default()
        {
            *m = true;
        }
        i = item_end + 1;
    }
    mask
}

/// A live lock guard tracked by the `lock-hold` rule.
struct Guard {
    binding: String,
    receiver: String,
    depth: usize,
}

/// Float literals sanctioned for exact comparison: exactly-representable
/// sentinels the kernels use for "no mass" / "identity" guards.
const FLOAT_EQ_SENTINELS: &[&str] = &["0.0", "1.0", "0.", "1."];

fn float_literal_is_sentinel(text: &str) -> bool {
    let t = text
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    FLOAT_EQ_SENTINELS.contains(&t)
}

/// Analyze one file's source text. `rel` is the workspace-relative path
/// used in findings and crate-root detection; `role` has normally been
/// derived from it via [`classify_path`] but may be overridden (fixture
/// tests do).
pub fn analyze_source(rel: &str, src: &str, role: Role, cfg: &Config) -> (Vec<Finding>, usize) {
    let Lexed { tokens, comments } = lexer::lex(src);
    let suppressions = parse_suppressions(&comments, &tokens);
    let mask = test_mask(&tokens);
    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |line: u32, rule: &'static str, token: &str, message: String| {
        raw.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            token: token.to_string(),
            message,
        });
    };

    // Suppression hygiene is checked for every role: a suppression
    // without a written reason, or naming an unknown rule, is itself an
    // error (and cannot be suppressed).
    for s in &suppressions {
        if !s.has_reason {
            push(
                s.line,
                "suppression",
                "tcdp-lint: allow",
                "suppression carries no reason; write `// tcdp-lint: allow(<rule>) — <reason>`"
                    .to_string(),
            );
        }
        if s.rules.is_empty() {
            push(
                s.line,
                "suppression",
                "tcdp-lint: allow",
                "suppression names no rule".to_string(),
            );
        }
        for r in &s.rules {
            if !RULE_NAMES.contains(&r.as_str()) {
                push(
                    s.line,
                    "suppression",
                    r,
                    format!("unknown rule `{r}` in suppression"),
                );
            }
        }
    }

    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let kind = |i: usize| tokens.get(i).map(|t| t.kind);
    let line_of = |i: usize| tokens.get(i).map(|t| t.line).unwrap_or(0);
    let library = role == Role::Library;

    // forbid-unsafe: non-compat crate roots must carry the attribute.
    if is_crate_root(rel) && role != Role::Compat && role != Role::Fixture {
        let has = (0..tokens.len()).any(|i| {
            text(i) == Some("forbid")
                && text(i + 1) == Some("(")
                && text(i + 2) == Some("unsafe_code")
        });
        if !has {
            push(
                1,
                "forbid-unsafe",
                rel,
                "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }

    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();

    for i in 0..tokens.len() {
        let in_test = mask.get(i).copied().unwrap_or(false);
        let t = text(i).unwrap_or("");
        let ln = line_of(i);
        match t {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            _ => {}
        }

        // unsafe hygiene (all roles; test scopes included — unsafe in a
        // test is still unsafe).
        if t == "unsafe" && kind(i) == Some(TokKind::Ident) {
            if role == Role::Compat {
                let documented = comments.iter().any(|c| {
                    c.text.contains("SAFETY:") && c.line <= ln && ln.saturating_sub(c.line) <= 3
                });
                if !documented {
                    push(
                        ln,
                        "unsafe-safety",
                        "unsafe",
                        "`unsafe` in compat code without a `// SAFETY:` comment".to_string(),
                    );
                }
            } else if role != Role::Fixture {
                push(
                    ln,
                    "unsafe-code",
                    "unsafe",
                    "`unsafe` outside `crates/compat/` (crate roots carry #![forbid(unsafe_code)])"
                        .to_string(),
                );
            }
        }

        if !library || in_test {
            continue;
        }

        // panic-path: `.unwrap()` / `.expect(` and panicking macros.
        if kind(i) == Some(TokKind::Ident)
            && (t == "unwrap" || t == "expect")
            && i > 0
            && text(i - 1) == Some(".")
            && text(i + 1) == Some("(")
        {
            push(
                ln,
                "panic-path",
                t,
                format!("`.{t}(` in non-test library code — return a typed error instead"),
            );
        }
        if kind(i) == Some(TokKind::Ident)
            && matches!(t, "panic" | "unreachable" | "todo" | "unimplemented")
            && text(i + 1) == Some("!")
        {
            push(
                ln,
                "panic-path",
                t,
                format!("`{t}!` in non-test library code — return a typed error instead"),
            );
        }

        // index-panic (pedantic): `expr[...]` indexing can panic.
        if cfg.pedantic
            && t == "["
            && i > 0
            && (kind(i - 1) == Some(TokKind::Ident)
                && !matches!(
                    text(i - 1),
                    Some("mut")
                        | Some("let")
                        | Some("in")
                        | Some("return")
                        | Some("as")
                        | Some("else")
                        | Some("match")
                        | Some("box")
                        | Some("ref")
                        | Some("move")
                        | Some("if")
                        | Some("while")
                        | Some("loop")
                        | Some("for")
                        | Some("where")
                        | Some("use")
                        | Some("dyn")
                        | Some("impl")
                )
                || matches!(text(i - 1), Some(")") | Some("]")))
        {
            push(
                ln,
                "index-panic",
                "[",
                "slice/array indexing can panic; prefer `.get(..)` in library code".to_string(),
            );
        }

        // hash-collections: iteration order is nondeterministic.
        if kind(i) == Some(TokKind::Ident) && (t == "HashMap" || t == "HashSet") {
            push(
                ln,
                "hash-collections",
                t,
                format!("`{t}` iteration order is nondeterministic; use BTreeMap/BTreeSet or Vec"),
            );
        }

        // wall-clock: time reads inside numerics break reproducibility.
        if t == "now"
            && i >= 2
            && text(i - 1) == Some("::")
            && matches!(text(i - 2), Some("Instant") | Some("SystemTime"))
        {
            push(
                ln,
                "wall-clock",
                "now",
                "wall-clock read in library code breaks run-to-run determinism".to_string(),
            );
        }

        // env-read: environment is ambient nondeterministic input.
        if matches!(t, "var" | "vars" | "var_os" | "vars_os" | "temp_dir")
            && i >= 2
            && text(i - 1) == Some("::")
            && text(i - 2) == Some("env")
        {
            push(
                ln,
                "env-read",
                t,
                "environment read in library code is ambient nondeterministic input".to_string(),
            );
        }

        // float-eq: exact f64 comparison outside sanctioned sentinels.
        if t == "==" || t == "!=" {
            let prev_float = matches!(
                kind(i.wrapping_sub(1)),
                Some(TokKind::Number { float: true })
            ) && !text(i - 1).map(float_literal_is_sentinel).unwrap_or(true);
            let next_at = if text(i + 1) == Some("-") {
                i + 2
            } else {
                i + 1
            };
            let next_float = matches!(kind(next_at), Some(TokKind::Number { float: true }))
                && !text(next_at).map(float_literal_is_sentinel).unwrap_or(true);
            if prev_float || next_float {
                push(
                    ln,
                    "float-eq",
                    t,
                    "exact float comparison against a non-sentinel literal; compare via `to_bits()` or a tolerance".to_string(),
                );
            }
        }

        // lock-hold: a guard lexically held across a second acquisition
        // on the same receiver (read/write/lock with no arguments).
        if kind(i) == Some(TokKind::Ident)
            && matches!(t, "read" | "write" | "lock")
            && i > 0
            && text(i - 1) == Some(".")
            && text(i + 1) == Some("(")
            && text(i + 2) == Some(")")
        {
            // Receiver: the `a.b.c` chain before the final `.`.
            let mut start = i - 1;
            while start >= 2
                && kind(start - 1) == Some(TokKind::Ident)
                && text(start - 2) == Some(".")
            {
                start -= 2;
            }
            let receiver = if start >= 1 && kind(start - 1) == Some(TokKind::Ident) {
                tokens
                    .get(start - 1..i)
                    .unwrap_or_default()
                    .iter()
                    .map(|tok| tok.text.as_str())
                    .collect::<Vec<_>>()
                    .join("")
            } else {
                String::new()
            };
            if !receiver.is_empty() {
                if let Some(g) = guards.iter().find(|g| g.receiver == receiver) {
                    push(
                        ln,
                        "lock-hold",
                        t,
                        format!(
                            "`{receiver}.{t}()` while guard `{}` from the same receiver is live — lexically overlapping acquisitions deadlock or interleave",
                            g.binding
                        ),
                    );
                }
                // Guard binding: `let [mut] NAME = receiver.read()` with
                // only `.unwrap()`/`.expect(..)` trailers before `;`.
                let recv_first = start.saturating_sub(1);
                let mut b = recv_first;
                // Walk back over `let [mut] NAME =`.
                let binding = if b >= 2 && text(b - 1) == Some("=") {
                    b -= 1;
                    if b >= 1 && kind(b - 1) == Some(TokKind::Ident) {
                        let name = text(b - 1).unwrap_or("").to_string();
                        let before = b.checked_sub(2).and_then(text);
                        let before2 = b.checked_sub(3).and_then(text);
                        if before == Some("let")
                            || (before == Some("mut") && before2 == Some("let"))
                        {
                            Some(name)
                        } else {
                            None
                        }
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some(binding) = binding {
                    // Trailers: after the `()` only `.expect(STR)` or
                    // `.unwrap()` keep the guard; anything else consumes
                    // it within the statement.
                    let mut j = i + 3;
                    let mut is_guard = true;
                    loop {
                        match text(j) {
                            Some(";") | None => break,
                            Some(".")
                                if matches!(text(j + 1), Some("unwrap") | Some("expect"))
                                    && text(j + 2) == Some("(") =>
                            {
                                let mut d = 0usize;
                                while j < tokens.len() {
                                    match text(j) {
                                        Some("(") => d += 1,
                                        Some(")") => {
                                            d -= 1;
                                            if d == 0 {
                                                break;
                                            }
                                        }
                                        _ => {}
                                    }
                                    j += 1;
                                }
                                j += 1;
                            }
                            _ => {
                                is_guard = false;
                                break;
                            }
                        }
                    }
                    if is_guard {
                        guards.push(Guard {
                            binding,
                            receiver,
                            depth,
                        });
                    }
                }
            }
        }

        // Explicit `drop(guard)` releases a tracked guard early.
        if t == "drop" && text(i + 1) == Some("(") {
            if let Some(name) = text(i + 2) {
                guards.retain(|g| g.binding != name);
            }
        }
    }

    // Apply suppressions.
    let mut suppressed = 0usize;
    let findings = raw
        .into_iter()
        .filter(|f| {
            let hit = f.rule != "suppression"
                && suppressions.iter().any(|s| {
                    s.has_reason && s.lines.contains(&f.line) && s.rules.iter().any(|r| r == f.rule)
                });
            if hit {
                suppressed += 1;
            }
            !hit
        })
        .collect();
    (findings, suppressed)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name, "target" | ".git" | "fixtures") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every `.rs` file under `root` (skipping `target/`, `.git/`, and
/// fixture corpora) and apply the role-appropriate rules.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let mut report = Report::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let role = classify_path(&rel);
        if role == Role::Fixture {
            continue;
        }
        let src = fs::read_to_string(&path)?;
        let (findings, suppressed) = analyze_source(&rel, &src, role, cfg);
        report.files_scanned += 1;
        report.suppressed += suppressed;
        report.findings.extend(findings);
    }
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(report)
}
