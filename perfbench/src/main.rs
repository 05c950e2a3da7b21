//! `perfbench` — the repository benchmark: boots the release `tcdp-serve`,
//! drives one seeded traffic mix at it over a Unix socket from this one
//! process, checks every answer against an in-process serial replay, and
//! prints the end-to-end metrics (`--trace 0`) or, from a separate traced
//! in-process replay, the per-layer metrics (`--trace 1`).
//!
//! Run it through `perfbench/run.sh`, which builds both binaries first:
//!
//! ```text
//! bash perfbench/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 when every answer was right, 1 when some answer was
//! wrong or missing, 2 when the benchmark itself could not run.

mod daemon;
mod oracle;
mod pace;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Kind, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
}

const USAGE: &str = "usage: perfbench --daemon PATH --workload fleet|million|durable|ceiling \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}\n{USAGE}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        kind: Kind::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1\n{USAGE}")),
        },
        daemon: PathBuf::from(get("--daemon")?),
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count, percentile support, or why a layer reads 0.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            unit,
            value,
            note: note.into(),
        }
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value is a bug the
            // note explains, reported as 0.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|s| format!("{s:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<32} {:>14.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// Blocks the measured phase is split into for the per-block acked/s
/// printed beside `observe_per_s`.
const RATE_BLOCKS: usize = 12;

/// The end-to-end metrics `BENCHMARK.json` bounds, and the latency tails,
/// which are printed with their sample counts but not bounded: on a
/// 2-vCPU VM they moved with hypervisor steal by 20-55% between seeds of
/// identical code (see `perfbench/README.md`).
fn end_to_end(w: &Workload, run: &daemon::SocketRun) -> (Vec<Metric>, Vec<Metric>) {
    let obs = stats::summarize(&run.ingest_us);
    let q = stats::summarize(&run.query_us);
    let (answered_obs, answered_q) = (run.ingest_us.len(), run.query_us.len());
    let cpu_s = run.cpu_user_s + run.cpu_sys_s;
    let answered = (answered_obs + answered_q).max(1);
    let setup = stats::median(&run.setup_cpu_s);
    // Context only: how the rate moved within the run.
    let rates = stats::block_rates(&run.ingest_done_s, RATE_BLOCKS);
    let tails = vec![
        Metric::new("observe_p99_us", "us", obs.p99, obs.describe("us")),
        Metric::new("query_p90_us", "us", q.p90, q.describe("us")),
    ];
    let bounded = vec![
        Metric::new(
            "observe_per_s",
            "1/s",
            answered_obs as f64 / run.measured_s,
            format!(
                "{answered_obs} answered in {:.2} s after the warm-up; per block of equally many answers: {}",
                run.measured_s,
                rates
                    .iter()
                    .map(|r| format!("{r:.0}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ),
        Metric::new("observe_p50_us", "us", obs.p50, obs.describe("us")),
        Metric::new("query_p50_us", "us", q.p50, q.describe("us")),
        Metric::new(
            "server_cpu_us",
            "us",
            cpu_s * 1e6 / answered as f64,
            format!("{cpu_s:.2} s daemon CPU over {answered} answered requests"),
        ),
        Metric::new(
            "setup_s",
            "s",
            setup,
            format!(
                "daemon CPU from spawn to ready, median of {} boots: {}",
                run.setup_cpu_s.len(),
                list(&run.setup_cpu_s)
            ),
        ),
        Metric::new(
            "peak_rss_mb",
            "MB",
            run.peak_rss_mb,
            if run.rss_at_end {
                format!(
                    "daemon VmHWM at the end of the run, which acked fewer than {} OBSERVEs",
                    w.kind.rss_after()
                )
            } else {
                format!(
                    "daemon VmHWM after {} measured OBSERVEs",
                    w.kind.rss_after()
                )
            },
        ),
    ];
    (bounded, tails)
}

fn measure(args: &Args, w: &Workload, work: &Path) -> Result<bool, String> {
    let prep = if w.persistent() {
        Some(daemon::prepare_store(&args.daemon, work, w)?)
    } else {
        None
    };
    let run = daemon::socket_run(
        &args.daemon,
        work,
        w,
        prep.as_ref().map(|p| p.dir.as_path()),
        args.seconds as f64,
    )?;
    let verdict = oracle::replay(w, prep.as_ref(), &run)?;
    let ping = stats::summarize(&run.ping_us);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        w.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // Host-noise context, never a gate: a run on a noisy host shows it here.
    println!(
        "  context: cores={} host.steal_frac={:.4} server.ping_rtt_us p50={:.1} (n={}) proc.sys_frac={:.4}",
        stats::cores(),
        run.steal_frac,
        ping.p50,
        ping.n,
        run.cpu_sys_s / (run.cpu_user_s + run.cpu_sys_s).max(1e-9)
    );
    println!(
        "  load: {} OBSERVEs to {} QUERYs measured (ratio {:.2}, r = {}); ingest waited {:.2} s of {:.2} s for query answers; {}",
        run.ingest_us.len(),
        run.query_us.len(),
        run.ingest_us.len() as f64 / run.query_us.len().max(1) as f64,
        w.ratio,
        run.ingest_wait_s,
        run.measured_s,
        if run.pinned {
            "ingest and query pairs pinned to a core each, swapped every 1000 acks"
        } else {
            "threads placed by the scheduler"
        }
    );
    println!(
        "  set-up wall seconds, spawn to ready (context, not bounded): median {:.4} of {}",
        stats::median(&run.setup_wall_s),
        list(&run.setup_wall_s)
    );
    if run.ran_dry {
        println!("  warning: the generated ingest stream ran out before the measured time");
    }
    let failed_frac = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    println!(
        "  failed_frac {failed_frac} ({} of {} checked answers wrong or missing; {} ceiling rejections matched the replay)",
        verdict.failed, verdict.attempted, verdict.rejected
    );
    for e in &verdict.examples {
        println!("  mismatch: {e}");
    }
    let metrics = if args.trace {
        trace::per_layer(w, prep.as_ref(), &run, &verdict, work)?
    } else {
        let (bounded, tails) = end_to_end(w, &run);
        println!("  latency tails (reported, not bounded):");
        print_table(&tails);
        bounded
    };
    print_table(&metrics);
    let correct = verdict.failed == 0;
    println!(
        "{}",
        result_line(correct, verdict.attempted, verdict.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = match Workload::generate(args.kind, args.seed, args.seconds) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: generating {}: {e}", args.kind.name());
            return ExitCode::from(2);
        }
    };
    // Relative, so the socket path stays short wherever the checkout is.
    let work = PathBuf::from(format!(".bench_build/perfbench-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| measure(&args, &w, &work));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
