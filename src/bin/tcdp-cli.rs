//! `tcdp-cli` — quantify, plan, and audit temporal privacy from the shell.
//!
//! Matrices are JSON arrays of rows, either inline or `@path/to/file.json`:
//!
//! ```bash
//! # How much does eps = 0.1/step leak over 10 steps under this pattern?
//! tcdp-cli quantify --pb '[[0.8,0.2],[0,1]]' --pf '[[0.8,0.2],[0,1]]' \
//!          --eps 0.1 --t 10
//!
//! # Does the leakage of a uniform-eps stream stay bounded forever?
//! tcdp-cli supremum --matrix '[[0.8,0.2],[0.1,0.9]]' --eps 0.23
//!
//! # Budgets guaranteeing 1-DP_T (Algorithm 3 with --horizon, else Alg. 2).
//! tcdp-cli plan --pb @pb.json --pf @pf.json --alpha 1.0 --horizon 30
//!
//! # Audit an existing budget trail, with per-window w-event guarantees.
//! tcdp-cli audit --pb @pb.json --budgets 0.5,0.1,0.1,0.4 --w 2,3
//!
//! # Stream budgets from stdin (one per line, or a JSON array) or a
//! # JSON file, printing the running leakage as releases arrive.
//! printf '0.1\n0.1\n0.1\n' | tcdp-cli audit --pb @pb.json --budgets - --stream
//! tcdp-cli audit --pb @pb.json --budgets @trail.json --w 5
//!
//! # Stop and resume a very long audit mid-timeline. The binary
//! # checkpoint carries the adversary, the budget trail, the BPL
//! # recursion state, the cached FPL/TPL series, and the Algorithm 1
//! # warm witnesses, so the resumed audit is bit-identical to an
//! # uninterrupted one; resuming into the same file appends a delta
//! # record to state.bin.delta instead of rewriting the snapshot.
//! tcdp-cli audit --pb @pb.json --budgets @jan.json --checkpoint state.bin
//! tcdp-cli audit --resume state.bin --budgets @feb.json --w 24 \
//!          --checkpoint state.bin
//! ```

use std::io::BufRead;
use std::ops::Range;
use std::path::Path;
use std::process::ExitCode;
use tcdp::core::checkpoint::{self, CheckpointDelta, DeltaCursor, SavedState};
use tcdp::core::composition::w_event_guarantee;
use tcdp::core::personalized::PopulationAccountant;
use tcdp::core::supremum::{supremum_of_matrix, Supremum};
use tcdp::core::{quantified_plan, upper_bound_plan, AdversaryT, TplAccountant};
use tcdp::markov::TransitionMatrix;
use tcdp::serve::GroupSpec;

const USAGE: &str = "\
tcdp-cli — temporal privacy leakage toolkit (Cao et al., ICDE 2017)

USAGE:
  tcdp-cli quantify [--pb M] [--pf M] --eps E --t T
  tcdp-cli supremum --matrix M --eps E
  tcdp-cli plan     [--pb M] [--pf M] --alpha A [--horizon T]
  tcdp-cli audit    [--pb M] [--pf M] [--population SPEC] [--budgets SPEC]
                    [--w W1,W2,...] [--stream] [--horizon H]
                    [--checkpoint FILE] [--checkpoint-every N]
                    [--compact-after N] [--resume FILE]
  tcdp-cli estimate --traces FILE [--pseudo C]
  tcdp-cli report   [--pb M] [--pf M] --alpha A --eps E --t T

  M is a row-stochastic matrix as JSON rows, inline ('[[0.9,0.1],[0.2,0.8]]')
  or from a file ('@correlations.json'). --pb is the backward correlation,
  --pf the forward one; omit either if the adversary lacks it.
  `audit` replays a budget trail through the streaming accountant. SPEC is
  an inline CSV ('0.5,0.1,0.1'), a JSON-array file ('@trail.json'), or '-'
  to stream from stdin (one budget per line, '#' comments allowed, or one
  JSON array). --w emits the Theorem 2 w-event guarantee per window length
  next to the independent-composition window sum; --stream prints each
  release's running report as it is observed.

  `audit --population SPEC` audits a whole *population* with per-user
  budget timelines (personalized DP). SPEC is a JSON array of group
  objects, inline or '@groups.json':
      '[{\"count\": 5000, \"pb\": M, \"pf\": M}, {\"count\": 5000}, ...]'
  Users are numbered 0.. in group order. --budgets then carries ONE
  RELEASE PER LINE (stdin via '-', a '@file' of lines, or inline CSV of
  uniform budgets), each line in one of three forms:
      0.1                        every user spends 0.1;
      {\"0\": 0.1, \"1\": 0.2}       group index -> eps (every group listed);
      [[0,5000,0.1],[5000,10000,0.2]]
                                 [start,end,eps) user ranges, covering
                                 every user exactly once.
  The audit reports per-group guarantees (worst TPL, user-level, per-
  window w-event) next to the population summary; accounting cost scales
  with distinct (correlation, timeline) classes, not users.

  `audit --checkpoint FILE` saves the accountant state after the audit
  as a v3 binary snapshot (raw f64 sections); `audit --resume FILE`
  restores it and continues the same timeline (the checkpoint carries
  the adversaries and, for populations, the per-shard budget timelines,
  so drop --pb/--pf/--population; --budgets becomes optional — omit it
  to just re-summarize, and use the bare-eps or user-range line forms
  to continue a population stream). A stopped-and-resumed audit emits
  byte-identical guarantees to an uninterrupted one. JSON checkpoints
  written by earlier versions are no longer read: re-run the audit from
  its budget trail. `--checkpoint-every N` additionally saves during the
  stream, every N releases: the first save is a full snapshot and each
  further save appends only the releases observed since to an
  append-only FILE.delta log (O(appended) bytes, not O(T)); resuming
  into the same FILE keeps appending to its log. Population shard
  splits (diverging personalized budgets) ride the log as SPLIT
  records; a save that genuinely cannot chain (e.g. the fold horizon
  passed the last save) says why on stderr and falls back to a full
  snapshot. `--compact-after N` folds the log back into the base
  snapshot after every N appended records, keeping both the log and
  the resume-time replay chain bounded.
  Blank and whitespace-only budget lines (and empty CSV fields) are
  skipped, and a trail without a trailing newline is fine.
  `audit --horizon H` folds releases older than the last H into a
  constant-size summary (converged BPL bound + folded budget total), so
  the audit's resident state and its binary checkpoints stay O(H) for
  arbitrarily long streams. Queries inside the horizon are bit-identical
  to an unfolded audit; --w sweeps cover the windows starting inside the
  live horizon (H must be >= every --w).
  `estimate` fits P^F/P^B from a trace file (one trajectory per line) and
  prints them as JSON usable with --pb/--pf. `report` is a one-shot audit:
  actual leakage of an eps-per-step stream plus the plans that would meet
  --alpha.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

type Command = fn(&Opts) -> Result<(), String>;

/// Every subcommand with the flags it reads; any other flag is refused.
const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("quantify", &["pb", "pf", "eps", "t"], quantify),
    ("supremum", &["matrix", "eps"], supremum),
    ("plan", &["pb", "pf", "alpha", "horizon"], plan),
    (
        "audit",
        &[
            "pb",
            "pf",
            "population",
            "budgets",
            "w",
            "stream",
            "horizon",
            "checkpoint",
            "checkpoint-every",
            "compact-after",
            "resume",
        ],
        audit,
    ),
    ("estimate", &["traces", "pseudo"], estimate),
    ("report", &["pb", "pf", "alpha", "eps", "t"], report),
];

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let Some(&(_, known, command)) = COMMANDS.iter().find(|(name, _, _)| name == cmd) else {
        return Err(format!("unknown subcommand '{cmd}'"));
    };
    command(&parse_flags(&args[1..], known)?)
}

struct Opts {
    flags: Vec<(String, String)>,
}

impl Opts {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_f64(&self, name: &str) -> Result<Option<f64>, String> {
        self.get(name)
            .map(|v| v.parse::<f64>().map_err(|e| format!("--{name}: {e}")))
            .transpose()
    }

    fn require_f64(&self, name: &str) -> Result<f64, String> {
        self.get_f64(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn get_usize(&self, name: &str) -> Result<Option<usize>, String> {
        self.get(name)
            .map(|v| v.parse::<usize>().map_err(|e| format!("--{name}: {e}")))
            .transpose()
    }

    fn matrix(&self, name: &str) -> Result<Option<TransitionMatrix>, String> {
        let Some(spec) = self.get(name) else {
            return Ok(None);
        };
        let json = if let Some(path) = spec.strip_prefix('@') {
            std::fs::read_to_string(path).map_err(|e| format!("--{name}: {path}: {e}"))?
        } else {
            spec.to_string()
        };
        let rows: Vec<Vec<f64>> =
            serde_json::from_str(&json).map_err(|e| format!("--{name}: bad JSON: {e}"))?;
        TransitionMatrix::from_rows(rows)
            .map(Some)
            .map_err(|e| format!("--{name}: {e}"))
    }

    fn adversary(&self) -> Result<AdversaryT, String> {
        let pb = self.matrix("pb")?;
        let pf = self.matrix("pf")?;
        Ok(match (pb, pf) {
            (Some(b), Some(f)) => AdversaryT::with_both(b, f).map_err(|e| e.to_string())?,
            (Some(b), None) => AdversaryT::with_backward(b),
            (None, Some(f)) => AdversaryT::with_forward(f),
            (None, None) => AdversaryT::traditional(),
        })
    }
}

/// Flags that stand alone (no value): present means "on".
const SWITCH_FLAGS: &[&str] = &["stream"];

fn parse_flags(args: &[String], known: &[&str]) -> Result<Opts, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'"));
        };
        if !known.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        if SWITCH_FLAGS.contains(&name) {
            flags.push((name.to_string(), "true".to_string()));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.push((name.to_string(), value.clone()));
    }
    Ok(Opts { flags })
}

fn print_series(label: &str, series: &[f64]) {
    let body: Vec<String> = series.iter().map(|v| format!("{v:.4}")).collect();
    println!("{label:<8} {}", body.join(" "));
}

fn quantify(opts: &Opts) -> Result<(), String> {
    let eps = opts.require_f64("eps")?;
    let t_len = opts.get_usize("t")?.ok_or("--t is required")?;
    let adv = opts.adversary()?;
    let mut acc = TplAccountant::new(&adv);
    acc.observe_uniform(eps, t_len).map_err(|e| e.to_string())?;
    print_series("BPL", acc.bpl_series());
    print_series("FPL", &acc.fpl_series().map_err(|e| e.to_string())?);
    let tpl = acc.tpl_series().map_err(|e| e.to_string())?;
    print_series("TPL", &tpl);
    println!(
        "worst event-level TPL: {:.4}  (promised per step: {eps})",
        acc.max_tpl().map_err(|e| e.to_string())?
    );
    println!("user-level (Corollary 1): {:.4}", acc.user_level());
    Ok(())
}

fn supremum(opts: &Opts) -> Result<(), String> {
    let eps = opts.require_f64("eps")?;
    let m = opts.matrix("matrix")?.ok_or("--matrix is required")?;
    match supremum_of_matrix(&m, eps).map_err(|e| e.to_string())? {
        Supremum::Finite(v) => println!("supremum: {v:.6}"),
        Supremum::Divergent => println!("supremum: does not exist (leakage grows forever)"),
    }
    Ok(())
}

fn plan(opts: &Opts) -> Result<(), String> {
    let alpha = opts.require_f64("alpha")?;
    let adv = opts.adversary()?;
    let plan = match opts.get_usize("horizon")? {
        Some(t_len) => quantified_plan(&adv, alpha, t_len).map_err(|e| e.to_string())?,
        None => upper_bound_plan(&adv, alpha).map_err(|e| e.to_string())?,
    };
    match plan.horizon() {
        Some(t_len) => {
            println!("Algorithm 3 plan for {alpha}-DP_T over T = {t_len}:");
            let budgets: Vec<f64> = (0..t_len).map(|t| plan.budget_at(t)).collect();
            print_series("eps", &budgets);
        }
        None => {
            println!("Algorithm 2 plan for {alpha}-DP_T over an unbounded stream:");
            println!("eps (every step): {:.6}", plan.budget_at(0));
        }
    }
    println!(
        "sup BPL = {:.4}, sup FPL = {:.4}",
        plan.alpha_backward, plan.alpha_forward
    );
    Ok(())
}

fn estimate(opts: &Opts) -> Result<(), String> {
    use tcdp::data::traces::TraceSet;
    let path = opts.get("traces").ok_or("--traces is required")?;
    let pseudo = opts.get_f64("pseudo")?.unwrap_or(1.0);
    let set = TraceSet::load(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "loaded {} trajectories over {} states from {path}",
        set.len(),
        set.domain()
    );
    let pf = set.estimate_forward(pseudo).map_err(|e| e.to_string())?;
    let pb = set.estimate_backward(pseudo).map_err(|e| e.to_string())?;
    let as_json = |m: &TransitionMatrix| -> String {
        let rows: Vec<Vec<f64>> = (0..m.n()).map(|j| m.row(j).to_vec()).collect();
        serde_json::to_string(&rows).expect("matrices serialize")
    };
    println!("forward  (use as --pf): {}", as_json(&pf));
    println!("backward (use as --pb): {}", as_json(&pb));
    Ok(())
}

fn report(opts: &Opts) -> Result<(), String> {
    let alpha = opts.require_f64("alpha")?;
    let eps = opts.require_f64("eps")?;
    let t_len = opts.get_usize("t")?.ok_or("--t is required")?;
    let adv = opts.adversary()?;

    println!("=== temporal privacy audit ===");
    println!("stream: eps = {eps} per release, T = {t_len}; target: {alpha}-DP_T\n");

    let mut acc = TplAccountant::new(&adv);
    acc.observe_uniform(eps, t_len).map_err(|e| e.to_string())?;
    let worst = acc.max_tpl().map_err(|e| e.to_string())?;
    println!("[leakage] worst event-level TPL : {worst:.4}");
    println!("[leakage] user-level (Σ eps)    : {:.4}", acc.user_level());
    let verdict = if worst <= alpha + 1e-9 {
        "WITHIN target"
    } else {
        "EXCEEDS target"
    };
    println!("[verdict] {verdict}\n");

    // One representative horizon line is enough for the report.
    if let Some(m) = adv.backward().or_else(|| adv.forward()) {
        match supremum_of_matrix(m, eps).map_err(|e| e.to_string())? {
            Supremum::Finite(v) => {
                println!("[horizon] leakage supremum under eps = {eps}: {v:.4} (bounded)");
            }
            Supremum::Divergent => {
                println!("[horizon] leakage under eps = {eps} grows without bound");
            }
        }
    }

    match upper_bound_plan(&adv, alpha) {
        Ok(p) => println!(
            "[plan] Algorithm 2 (any horizon): eps = {:.4} per release",
            p.budget_at(0)
        ),
        Err(e) => println!("[plan] Algorithm 2: {e}"),
    }
    match quantified_plan(&adv, alpha, t_len) {
        Ok(p) => {
            let budgets: Vec<f64> = (0..t_len).map(|t| p.budget_at(t)).collect();
            println!("[plan] Algorithm 3 (T = {t_len}):");
            print_series("  eps", &budgets);
        }
        Err(e) => println!("[plan] Algorithm 3: {e}"),
    }
    Ok(())
}

/// Resolve a non-stdin `--budgets` spec: inline CSV or a `@file.json`
/// JSON array. Empty CSV fields (a trailing comma, doubled commas,
/// whitespace-only fields) are skipped rather than failing mid-audit.
fn read_budget_list(spec: &str) -> Result<Vec<f64>, String> {
    if let Some(path) = spec.strip_prefix('@') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--budgets: {path}: {e}"))?;
        return serde_json::from_str::<Vec<f64>>(text.trim())
            .map_err(|e| format!("--budgets: {path}: bad JSON: {e}"));
    }
    spec.split(',')
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .map(|v| v.parse::<f64>().map_err(|e| format!("--budgets: {e}")))
        .collect()
}

fn parse_windows(opts: &Opts) -> Result<Vec<usize>, String> {
    match opts.get("w") {
        None => Ok(Vec::new()),
        Some(raw) => raw
            .split(',')
            .map(|v| v.trim().parse::<usize>().map_err(|e| format!("--w: {e}")))
            .collect(),
    }
}

/// `audit --horizon H`: the fold horizon bounding the accountant's
/// resident state to `O(H)`. Must cover every audited window (`H ≥ max
/// w`) — folding a release that still belongs to a protected window
/// would leave the w-event sweep unanswerable.
fn parse_fold_horizon(opts: &Opts, windows: &[usize]) -> Result<Option<usize>, String> {
    let Some(h) = opts.get_usize("horizon")? else {
        return Ok(None);
    };
    if h == 0 {
        return Err("--horizon must be at least 1 (the number of live releases kept)".into());
    }
    if let Some(&w) = windows.iter().max() {
        if h < w {
            return Err(format!(
                "--horizon {h} is smaller than --w {w}: folded history would overlap a \
                 protected window (need horizon >= max w)"
            ));
        }
    }
    Ok(Some(h))
}

/// Resolve an inline-or-`@file` spec into its text.
fn spec_text(name: &str, spec: &str) -> Result<String, String> {
    if let Some(path) = spec.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("--{name}: {path}: {e}"))
    } else {
        Ok(spec.to_string())
    }
}

/// Parse a `--population` spec (inline JSON or `@file`): an array of
/// `{"count": N, "pb": M?, "pf": M?}` objects; users are numbered 0.. in
/// group order. The grammar lives in the serve crate — the daemon's
/// `CREATE` verb and this flag accept identical specs.
fn parse_population_spec(spec: &str) -> Result<Vec<GroupSpec>, String> {
    let text = spec_text("population", spec)?;
    tcdp::serve::parse_population_spec(&text).map_err(|e| format!("--population: {e}"))
}

/// One parsed `--budgets` line of a population audit.
enum ReleaseLine {
    /// A bare ε: every user spends it.
    Uniform(f64),
    /// Personalized `(user_range, ε)` assignments.
    Ranges(Vec<(Range<usize>, f64)>),
}

/// Parse one population budget line: a bare ε, a `{"group": eps}` object
/// (group indices from the `--population` spec), or a
/// `[[start,end,eps],...]` user-range array.
fn parse_release_line(line: &str, groups: Option<&[GroupSpec]>) -> Result<ReleaseLine, String> {
    use serde::{Deserialize as _, Value};
    let t = line.trim();
    if t.starts_with('[') {
        let triples: Vec<Vec<f64>> =
            serde_json::from_str(t).map_err(|e| format!("--budgets: line '{t}': {e}"))?;
        let mut out = Vec::with_capacity(triples.len());
        for (i, tr) in triples.iter().enumerate() {
            let [s, e, eps] = tr.as_slice() else {
                return Err(format!(
                    "--budgets: range entry {i} must be [start, end, eps]"
                ));
            };
            if s.fract() != 0.0 || e.fract() != 0.0 || *s < 0.0 || *e < 0.0 {
                return Err(format!(
                    "--budgets: range entry {i}: bounds must be non-negative integers"
                ));
            }
            out.push((*s as usize..*e as usize, *eps));
        }
        Ok(ReleaseLine::Ranges(out))
    } else if t.starts_with('{') {
        let Some(groups) = groups else {
            return Err(
                "--budgets: group-indexed lines need a --population spec; use \
                 [[start,end,eps],...] ranges when resuming from a checkpoint"
                    .into(),
            );
        };
        let v: Value =
            serde_json::from_str(t).map_err(|e| format!("--budgets: line '{t}': {e}"))?;
        let Value::Map(entries) = &v else {
            return Err(format!("--budgets: line '{t}': expected an object"));
        };
        let mut out = Vec::with_capacity(groups.len());
        let mut covered = vec![false; groups.len()];
        for (key, val) in entries {
            let g: usize = key
                .parse()
                .map_err(|e| format!("--budgets: group key '{key}': {e}"))?;
            if g >= groups.len() {
                return Err(format!(
                    "--budgets: group {g} does not exist (the spec has {} groups)",
                    groups.len()
                ));
            }
            if covered[g] {
                return Err(format!("--budgets: group {g} is assigned twice"));
            }
            covered[g] = true;
            let eps = f64::from_value(val).map_err(|e| format!("--budgets: group {g}: {e}"))?;
            out.push((groups[g].users.clone(), eps));
        }
        if let Some(missing) = covered.iter().position(|c| !c) {
            return Err(format!(
                "--budgets: group {missing} has no budget on this line (every group \
                 must be listed)"
            ));
        }
        Ok(ReleaseLine::Ranges(out))
    } else {
        t.parse::<f64>()
            .map(ReleaseLine::Uniform)
            .map_err(|e| format!("--budgets: line '{t}': {e}"))
    }
}

/// Either accountant, seen through the checkpoint surface the sink
/// drives.
trait Checkpointable {
    fn checkpoint_bin(&self) -> Vec<u8>;
    fn cursor(&self) -> DeltaCursor;
    fn delta_explained(&self, cursor: &DeltaCursor) -> tcdp::core::Result<CheckpointDelta>;
    fn releases(&self) -> usize;
}

impl Checkpointable for TplAccountant {
    fn checkpoint_bin(&self) -> Vec<u8> {
        self.checkpoint_binary()
    }
    fn cursor(&self) -> DeltaCursor {
        self.delta_cursor()
    }
    fn delta_explained(&self, cursor: &DeltaCursor) -> tcdp::core::Result<CheckpointDelta> {
        self.checkpoint_delta_explained(cursor)
    }
    fn releases(&self) -> usize {
        self.len()
    }
}

impl Checkpointable for PopulationAccountant {
    fn checkpoint_bin(&self) -> Vec<u8> {
        self.checkpoint_binary()
    }
    fn cursor(&self) -> DeltaCursor {
        self.delta_cursor()
    }
    fn delta_explained(&self, cursor: &DeltaCursor) -> tcdp::core::Result<CheckpointDelta> {
        self.checkpoint_delta_explained(cursor)
    }
    fn releases(&self) -> usize {
        self.num_releases()
    }
}

/// Drives `--checkpoint` / `--checkpoint-every`: binary full snapshots
/// plus incremental delta appends to `FILE.delta` (the cursor chains
/// save to save; any save the cursor cannot chain from — e.g. after the
/// fold horizon passed it — falls back to a fresh full snapshot and
/// truncates the log).
struct CheckpointSink {
    path: Option<String>,
    every: Option<usize>,
    since: usize,
    cursor: Option<DeltaCursor>,
    stream: bool,
    /// `--compact-after N`: fold the delta log into the base snapshot
    /// once `N` records have been appended since the last snapshot (or
    /// compaction), bounding both the log's size and the record chain a
    /// resume replays.
    compact_after: Option<usize>,
    /// Records appended to the log since the last snapshot/compaction.
    appended: usize,
}

impl CheckpointSink {
    fn from_opts(opts: &Opts) -> Result<Self, String> {
        let path = opts.get("checkpoint").map(str::to_string);
        let every = opts.get_usize("checkpoint-every")?;
        if let Some(every) = every {
            if every == 0 {
                return Err("--checkpoint-every must be at least 1".into());
            }
            if path.is_none() {
                return Err("--checkpoint-every needs --checkpoint FILE".into());
            }
        }
        let compact_after = opts.get_usize("compact-after")?;
        if let Some(n) = compact_after {
            if n == 0 {
                return Err("--compact-after must be at least 1".into());
            }
            if path.is_none() {
                return Err("--compact-after needs --checkpoint FILE".into());
            }
        }
        Ok(Self {
            path,
            every,
            since: 0,
            cursor: None,
            stream: opts.get("stream").is_some(),
            compact_after,
            appended: 0,
        })
    }

    /// When the audit resumed from the same file it keeps checkpointing
    /// to, the resumed state is the delta base: later saves append to
    /// the existing log instead of rewriting `O(T)`.
    fn adopt_resume_cursor<A: Checkpointable>(&mut self, acc: &A, resume_path: Option<&str>) {
        if self.path.is_none() || self.path.as_deref() != resume_path {
            return;
        }
        // The cursor is stamped with the snapshot's generation id so
        // appended deltas are recognizably *this* snapshot's — a later
        // run that overwrites the snapshot leaves them behind as
        // skippable, not as corruption.
        let snapshot_bytes = self
            .path
            .as_deref()
            .and_then(|p| std::fs::read(Path::new(p)).ok());
        if let Some(bytes) = snapshot_bytes {
            self.cursor = Some(
                acc.cursor()
                    .stamped(checkpoint::snapshot_generation(&bytes)),
            );
        }
    }

    /// Called after every observed release; saves when a full
    /// `--checkpoint-every` window has accumulated.
    fn after_release<A: Checkpointable>(&mut self, acc: &A) -> Result<(), String> {
        let Some(every) = self.every else {
            return Ok(());
        };
        self.since += 1;
        if self.since >= every {
            self.since = 0;
            let how = self.save(acc)?;
            if self.stream {
                println!("checkpoint: {how} at T = {}", acc.releases());
            }
        }
        Ok(())
    }

    fn save<A: Checkpointable>(&mut self, acc: &A) -> Result<&'static str, String> {
        let path = self.path.clone().expect("save is only called with a path");
        let path = Path::new(&path);
        if let Some(cursor) = &self.cursor {
            match acc.delta_explained(cursor) {
                Ok(delta) => {
                    let generation = cursor.generation();
                    if !delta.is_empty() {
                        delta
                            .append_to(&checkpoint::delta_log_path(path))
                            .map_err(|e| e.to_string())?;
                        self.appended += 1;
                    }
                    if self.compact_after.is_some_and(|n| self.appended >= n) {
                        let done = checkpoint::compact(path).map_err(|e| e.to_string())?;
                        self.appended = 0;
                        // The compacted snapshot is a new generation;
                        // chain future deltas onto it.
                        self.cursor = Some(acc.cursor().stamped(done.generation));
                        return Ok("delta log compacted into snapshot");
                    }
                    // Later deltas keep chaining onto the same base
                    // snapshot, so they carry its generation too.
                    self.cursor = Some(acc.cursor().stamped(generation));
                    return Ok("delta appended");
                }
                Err(reason) => {
                    // An honest fallback: say *why* this save is a full
                    // snapshot instead of an O(appended) delta.
                    eprintln!("checkpoint: delta cannot chain ({reason}); writing a full snapshot");
                }
            }
        }
        let bytes = acc.checkpoint_bin();
        checkpoint::write_atomic(path, &bytes).map_err(|e| e.to_string())?;
        remove_delta_log(path)?;
        self.appended = 0;
        self.cursor = Some(
            acc.cursor()
                .stamped(checkpoint::snapshot_generation(&bytes)),
        );
        Ok("snapshot written")
    }

    /// The end-of-audit save (after the summary queries, so a full
    /// snapshot carries the freshly-filled series cache and warm
    /// witnesses: the resumed audit's first answers cost zero loss
    /// evaluations).
    fn finish<A: Checkpointable>(&mut self, acc: &A) -> Result<(), String> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        let how = self.save(acc)?;
        println!("checkpoint saved to {path} (T = {}, {how})", acc.releases());
        Ok(())
    }
}

fn remove_delta_log(path: &Path) -> Result<(), String> {
    let log = checkpoint::delta_log_path(path);
    match std::fs::remove_file(&log) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", log.display())),
    }
}

/// The population audit: observe the per-release budget lines, then
/// report per-group and population-level guarantees.
fn audit_population(
    opts: &Opts,
    mut pop: PopulationAccountant,
    groups: Option<Vec<GroupSpec>>,
    resumed: bool,
) -> Result<(), String> {
    let spec = match (opts.get("budgets"), resumed) {
        (Some(spec), _) => Some(spec),
        (None, true) => None,
        (None, false) => {
            return Err(
                "--budgets is required with --population: one release per line — a bare \
                 eps, {\"group\": eps}, or [[start,end,eps],...]"
                    .into(),
            )
        }
    };
    let windows = parse_windows(opts)?;
    let stream = opts.get("stream").is_some();
    let mut sink = CheckpointSink::from_opts(opts)?;
    if resumed {
        sink.adopt_resume_cursor(&pop, opts.get("resume"));
        if stream {
            println!(
                "resumed {} users over {} shards at T = {}",
                pop.num_users(),
                pop.num_groups(),
                pop.num_releases()
            );
        }
    }
    if let Some(h) = parse_fold_horizon(opts, &windows)? {
        pop.set_horizon(Some(h))
            .map_err(|e| format!("--horizon: {e}"))?;
    }
    let observe = |pop: &mut PopulationAccountant,
                   sink: &mut CheckpointSink,
                   line: &str|
     -> Result<(), String> {
        match parse_release_line(line, groups.as_deref())? {
            ReleaseLine::Uniform(eps) => pop.observe_release(eps).map_err(|e| e.to_string())?,
            ReleaseLine::Ranges(assignments) => pop
                .observe_release_personalized(&assignments)
                .map_err(|e| e.to_string())?,
        }
        if stream {
            let t = pop.num_releases();
            println!(
                "t={:<5} observed  ({} shards over {} timelines)",
                t - 1,
                pop.num_groups(),
                pop.num_timelines()
            );
        }
        sink.after_release(pop)
    };
    match spec {
        Some("-") => {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| format!("--budgets: stdin: {e}"))?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                observe(&mut pop, &mut sink, trimmed)?;
            }
        }
        Some(spec) => {
            if let Some(path) = spec.strip_prefix('@') {
                // A file of release lines, one per line (same grammar as
                // stdin; blank and whitespace-only lines are skipped, and
                // a missing trailing newline is fine).
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("--budgets: {path}: {e}"))?;
                for line in text.lines() {
                    let trimmed = line.trim();
                    if trimmed.is_empty() || trimmed.starts_with('#') {
                        continue;
                    }
                    observe(&mut pop, &mut sink, trimmed)?;
                }
            } else if spec.trim_start().starts_with('[') || spec.trim_start().starts_with('{') {
                // One inline release line in JSON form.
                observe(&mut pop, &mut sink, spec.trim())?;
            } else {
                // Inline CSV of uniform per-release budgets (empty fields
                // are skipped).
                for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                    observe(&mut pop, &mut sink, part)?;
                }
            }
        }
        None => {}
    }
    let t_len = pop.num_releases();
    if t_len == 0 {
        return Err("--budgets: no budgets provided".into());
    }
    let tpl = pop.tpl_series().map_err(|e| e.to_string())?;
    print_series("TPL", &tpl);
    println!(
        "worst: {:.4}  (user {} is most exposed)",
        pop.max_tpl().map_err(|e| e.to_string())?,
        pop.most_exposed_user().map_err(|e| e.to_string())?
    );
    println!(
        "population: {} users, {} shards, {} distinct timelines",
        pop.num_users(),
        pop.num_groups(),
        pop.num_timelines()
    );
    // Per-group guarantees: from the spec's groups when present, else
    // (on resume) per accounting shard.
    let report_ranges: Vec<(String, Range<usize>)> = match &groups {
        Some(groups) => groups
            .iter()
            .enumerate()
            .map(|(g, spec)| {
                (
                    format!("group {g} (users {}..{})", spec.users.start, spec.users.end),
                    spec.users.clone(),
                )
            })
            .collect(),
        None => Vec::new(),
    };
    if !report_ranges.is_empty() {
        for (label, range) in &report_ranges {
            let (worst, user_level, guarantees) =
                group_guarantees(&pop, range, &windows).map_err(|e| e.to_string())?;
            let mut line = format!("{label}: worst TPL {worst:.4}, user-level {user_level:.4}");
            for (w, g) in windows.iter().zip(&guarantees) {
                line.push_str(&format!(", {w}-event {g:.4}"));
            }
            println!("{line}");
        }
    } else {
        for (s, (members, acc)) in pop.shards().enumerate() {
            let mut line = format!(
                "shard {s} ({} users, first user {}): worst TPL {:.4}, user-level {:.4}",
                members.len(),
                members[0],
                acc.max_tpl().map_err(|e| e.to_string())?,
                acc.user_level()
            );
            for &w in &windows {
                let g = w_event_guarantee(acc, w).map_err(|e| format!("--w {w}: {e}"))?;
                line.push_str(&format!(", {w}-event {g:.4}"));
            }
            println!("{line}");
        }
    }
    sink.finish(&pop)?;
    Ok(())
}

/// Worst TPL, worst user-level total, and per-window w-event guarantees
/// over the users of `range` — computed once per accounting shard that
/// intersects the range (shard members share one series).
fn group_guarantees(
    pop: &PopulationAccountant,
    range: &Range<usize>,
    windows: &[usize],
) -> Result<(f64, f64, Vec<f64>), tcdp::core::TplError> {
    let mut worst = f64::NEG_INFINITY;
    let mut user_level = f64::NEG_INFINITY;
    let mut guarantees = vec![f64::NEG_INFINITY; windows.len()];
    for (members, acc) in pop.shards() {
        let lo = members.partition_point(|&m| m < range.start);
        let hi = members.partition_point(|&m| m < range.end);
        if lo == hi {
            continue;
        }
        worst = worst.max(acc.max_tpl()?);
        user_level = user_level.max(acc.user_level());
        for (slot, &w) in guarantees.iter_mut().zip(windows) {
            *slot = slot.max(w_event_guarantee(acc, w)?);
        }
    }
    Ok((worst, user_level, guarantees))
}

fn audit(opts: &Opts) -> Result<(), String> {
    if let Some(path) = opts.get("resume") {
        if opts.get("pb").is_some() || opts.get("pf").is_some() {
            return Err(
                "--resume restores the adversary from the checkpoint; drop --pb/--pf".into(),
            );
        }
        if opts.get("population").is_some() {
            return Err(
                "--resume restores the population (adversaries, shards, and per-shard \
                 timelines) from the checkpoint; drop --population"
                    .into(),
            );
        }
        // A v3 binary snapshot, replaying its FILE.delta log when
        // present; a JSON envelope from an earlier version is refused.
        return match checkpoint::resume_file(Path::new(path)).map_err(|e| e.to_string())? {
            SavedState::Tpl(acc) => audit_single(opts, acc, true),
            SavedState::Population(pop) => audit_population(opts, pop, None, true),
        };
    }
    if let Some(spec) = opts.get("population") {
        if opts.get("pb").is_some() || opts.get("pf").is_some() {
            return Err("--population carries each group's correlations; drop --pb/--pf".into());
        }
        let groups = parse_population_spec(spec)?;
        let adversaries: Vec<AdversaryT> = groups
            .iter()
            .flat_map(|g| std::iter::repeat_n(g.adversary.clone(), g.users.len()))
            .collect();
        let pop = PopulationAccountant::new(&adversaries).map_err(|e| e.to_string())?;
        return audit_population(opts, pop, Some(groups), false);
    }
    audit_single(opts, TplAccountant::new(&opts.adversary()?), false)
}

fn audit_single(opts: &Opts, mut acc: TplAccountant, resumed: bool) -> Result<(), String> {
    let spec = match (opts.get("budgets"), resumed) {
        (Some(spec), _) => Some(spec),
        // Resuming without new budgets just re-summarizes the restored
        // timeline.
        (None, true) => None,
        (None, false) => {
            return Err(
                "--budgets is required (inline CSV, @file.json, or '-' for stdin) \
                 unless --resume restores a trail"
                    .into(),
            )
        }
    };
    let windows = parse_windows(opts)?;
    let stream = opts.get("stream").is_some();
    let mut sink = CheckpointSink::from_opts(opts)?;
    if resumed {
        sink.adopt_resume_cursor(&acc, opts.get("resume"));
        if stream {
            println!("resumed {} releases from checkpoint", acc.len());
        }
    }
    // Armed before observing (and re-armed after a resume, which
    // restores whatever horizon the checkpoint carried): the accountant
    // folds as the stream runs, keeping resident state O(horizon).
    if let Some(h) = parse_fold_horizon(opts, &windows)? {
        acc.set_horizon(Some(h))
            .map_err(|e| format!("--horizon: {e}"))?;
    }
    let observe =
        |acc: &mut TplAccountant, sink: &mut CheckpointSink, b: f64| -> Result<(), String> {
            let report = acc.observe_release(b).map_err(|e| e.to_string())?;
            if stream {
                // The O(1) per-release view: BPL is final at observation
                // time; FPL/TPL of earlier points keep growing and are
                // summarized below once the trail ends.
                println!(
                    "t={:<5} eps={:.4}  bpl={:.4}",
                    report.t, report.epsilon, report.backward
                );
            }
            sink.after_release(acc)
        };
    if spec == Some("-") {
        // Genuinely streamed: each stdin line is observed (and reported
        // under --stream) as it arrives, without waiting for EOF. A
        // trail that opens with '[' is instead collected to EOF and
        // parsed as one JSON array.
        let stdin = std::io::stdin();
        let mut lines = stdin.lock().lines();
        let mut json_head: Option<String> = None;
        for line in &mut lines {
            let line = line.map_err(|e| format!("--budgets: stdin: {e}"))?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            if trimmed.starts_with('[') {
                json_head = Some(line);
                break;
            }
            let b = trimmed
                .parse::<f64>()
                .map_err(|e| format!("--budgets: line '{trimmed}': {e}"))?;
            observe(&mut acc, &mut sink, b)?;
        }
        if let Some(mut text) = json_head {
            for line in lines {
                let line = line.map_err(|e| format!("--budgets: stdin: {e}"))?;
                text.push('\n');
                text.push_str(&line);
            }
            let budgets = serde_json::from_str::<Vec<f64>>(text.trim())
                .map_err(|e| format!("--budgets: bad JSON on stdin: {e}"))?;
            for b in budgets {
                observe(&mut acc, &mut sink, b)?;
            }
        }
    } else if let Some(spec) = spec {
        for b in read_budget_list(spec)? {
            observe(&mut acc, &mut sink, b)?;
        }
    }
    if acc.is_empty() {
        return Err("--budgets: no budgets provided".into());
    }
    let tpl = acc.tpl_series().map_err(|e| e.to_string())?;
    print_series("TPL", &tpl);
    println!("worst: {:.4}", acc.max_tpl().map_err(|e| e.to_string())?);
    println!("user-level (Corollary 1): {:.4}", acc.user_level());
    for &w in &windows {
        let g = w_event_guarantee(&acc, w).map_err(|e| format!("--w {w}: {e}"))?;
        // Independent-composition baseline: the worst window budget sum
        // (Theorem 3), via the accountant's prefix sums. Under a fold
        // horizon only live windows are swept — the same convention as
        // `w_event_guarantee`.
        let mut independent = f64::NEG_INFINITY;
        for t in acc.live_start()..=(acc.len() - w) {
            let sum = acc.window_budget_sum(t, w).map_err(|e| e.to_string())?;
            independent = independent.max(sum);
        }
        println!("{w}-event guarantee: {g:.4}  (independent composition: {independent:.4})");
    }
    sink.finish(&acc)?;
    Ok(())
}
