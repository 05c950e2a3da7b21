//! Minimal in-repo stand-in for `criterion`.
//!
//! Implements the benchmarking surface the workspace's `benches/` use:
//! `criterion_group!` / `criterion_main!`, benchmark groups,
//! `bench_with_input`, `bench_function`, and `Bencher::iter`. Each
//! benchmark warms up briefly, then auto-scales the iteration count to a
//! fixed measurement window and reports the mean, best, and worst
//! per-iteration time. No statistics machinery, plots, or baselines —
//! just honest wall-clock numbers printed one line per benchmark.
//!
//! Environment knobs: `CRITERION_MEASURE_MS` (measurement window per
//! benchmark, default 300) and `CRITERION_WARMUP_MS` (default 60).
//!
//! Machine-readable output: every measurement is also recorded in a
//! process-wide registry, and the `criterion_main!`-generated `main`
//! honors a `--json <path>` command-line flag (also `--json=<path>`)
//! that dumps the registry as a stable JSON document after all groups
//! run — see [`write_json`] for the schema. Unknown flags (e.g. the
//! `--bench` cargo appends) are ignored.

use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

fn env_ms(var: &str, default_ms: u64) -> Duration {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(Duration::from_millis(default_ms), Duration::from_millis)
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `"{name}/{parameter}"`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }

    /// Just the parameter as the id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Drives timed iterations of one benchmark body.
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    /// Filled in by [`Bencher::iter`].
    result: Option<Sample>,
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    mean: Duration,
    best: Duration,
    worst: Duration,
    iters: u64,
}

impl Bencher {
    /// Time a closure: brief warmup, then as many batches as fit in the
    /// measurement window.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut body: F) {
        // Warmup and per-iteration cost estimate.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            black_box(body());
            warm_iters += 1;
        }
        let est = warm_start
            .elapsed()
            .checked_div(warm_iters as u32)
            .unwrap_or_default();
        // Batch size targeting ~20 batches over the measurement window.
        let batch = if est.is_zero() {
            1024
        } else {
            (self.measure.as_nanos() / est.as_nanos().max(1) / 20).clamp(1, 1 << 24) as u64
        };
        let mut best = Duration::MAX;
        let mut worst = Duration::ZERO;
        let mut total = Duration::ZERO;
        let mut iters: u64 = 0;
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure || iters == 0 {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(body());
            }
            let dt = t0.elapsed() / batch as u32;
            best = best.min(dt);
            worst = worst.max(dt);
            total += t0.elapsed();
            iters += batch;
        }
        self.result = Some(Sample {
            mean: total.checked_div(iters as u32).unwrap_or_default(),
            best,
            worst,
            iters,
        });
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

fn run_one(full_name: &str, warmup: Duration, measure: Duration, f: impl FnOnce(&mut Bencher)) {
    let mut bencher = Bencher {
        warmup,
        measure,
        result: None,
    };
    f(&mut bencher);
    match bencher.result {
        Some(s) => {
            println!(
                "{full_name:<48} time: [{} {} {}]  ({} iters)",
                fmt_duration(s.best),
                fmt_duration(s.mean),
                fmt_duration(s.worst),
                s.iters
            );
            RESULTS.lock().expect("results registry").push(BenchResult {
                id: full_name.to_string(),
                mean_ns: s.mean.as_nanos() as f64,
                best_ns: s.best.as_nanos() as f64,
                worst_ns: s.worst.as_nanos() as f64,
                iters: s.iters,
                extra: Vec::new(),
            });
        }
        None => println!("{full_name:<48} (no measurement: body never called iter)"),
    }
}

/// One finished measurement, as recorded in the process-wide registry.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark id (`group/name/param...`).
    pub id: String,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Best observed batch mean in nanoseconds.
    pub best_ns: f64,
    /// Worst observed batch mean in nanoseconds.
    pub worst_ns: f64,
    /// Total timed iterations.
    pub iters: u64,
    /// Named numbers a bench attached with [`annotate_last`].
    pub extra: Vec<(String, f64)>,
}

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Attach a named number to the most recent measurement (e.g. a
/// scheduler statistic the bench read around it); `--json` dumps it as
/// an extra field of that result. A no-op before any measurement.
pub fn annotate_last(key: &str, value: f64) {
    if let Some(last) = RESULTS.lock().expect("results registry").last_mut() {
        last.extra.push((key.to_string(), value));
    }
}

/// Drain every measurement recorded so far (in run order).
pub fn take_results() -> Vec<BenchResult> {
    std::mem::take(&mut *RESULTS.lock().expect("results registry"))
}

/// Extract the `--json <path>` / `--json=<path>` flag from the process
/// arguments, ignoring everything else (cargo appends `--bench`; test
/// filters may also be present).
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(Into::into);
        }
        if let Some(p) = a.strip_prefix("--json=") {
            return Some(p.into());
        }
    }
    None
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize the drained registry to `path` under the stable schema
/// (version 1):
///
/// ```json
/// {
///   "schema_version": 1,
///   "bench": "<bench target name>",
///   "results": [
///     { "id": "alg1/kernel/dense-chunked/1000",
///       "group": "alg1/kernel/dense-chunked",
///       "param": 1000,
///       "mean_ns": 12345.0, "best_ns": ..., "worst_ns": ...,
///       "iters": 4096, "throughput_per_s": 81000.5 }
///   ]
/// }
/// ```
///
/// `param` is the trailing `/`-separated id segment when it parses as an
/// integer (the `n`/`T` sweep parameter convention used across the
/// workspace benches), else `null`; `group` is the id with that segment
/// stripped. `throughput_per_s` is `1e9 / mean_ns`. Numbers attached
/// with [`annotate_last`] follow as extra fields of their result.
pub fn write_json(bench: &str, path: &std::path::Path) -> std::io::Result<()> {
    let results = take_results();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(bench)));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let (group, param) = match r.id.rsplit_once('/') {
            Some((head, tail)) if tail.parse::<i64>().is_ok() => (head, Some(tail)),
            _ => (r.id.as_str(), None),
        };
        out.push_str("    { ");
        out.push_str(&format!("\"id\": \"{}\", ", json_escape(&r.id)));
        out.push_str(&format!("\"group\": \"{}\", ", json_escape(group)));
        match param {
            Some(p) => out.push_str(&format!("\"param\": {p}, ")),
            None => out.push_str("\"param\": null, "),
        }
        out.push_str(&format!(
            "\"mean_ns\": {}, \"best_ns\": {}, \"worst_ns\": {}, \"iters\": {}, \
             \"throughput_per_s\": {}",
            r.mean_ns,
            r.best_ns,
            r.worst_ns,
            r.iters,
            if r.mean_ns > 0.0 {
                1e9 / r.mean_ns
            } else {
                0.0
            },
        ));
        for (key, value) in &r.extra {
            out.push_str(&format!(", \"{}\": {value}", json_escape(key)));
        }
        out.push_str(if i + 1 == results.len() {
            " }\n"
        } else {
            " },\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmark a body parameterized by an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.0);
        run_one(&full, self.criterion.warmup, self.criterion.measure, |b| {
            f(b, input)
        });
        self
    }

    /// Benchmark a plain body.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into().0);
        run_one(&full, self.criterion.warmup, self.criterion.measure, |b| {
            f(b)
        });
        self
    }

    /// Override the measurement window for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measure = d;
        self
    }

    /// Accepted for API compatibility; the stand-in sizes samples by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// End the group (restores the default measurement window).
    pub fn finish(self) {
        self.criterion.measure = env_ms("CRITERION_MEASURE_MS", 300);
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    warmup: Duration,
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warmup: env_ms("CRITERION_WARMUP_MS", 60),
            measure: env_ms("CRITERION_MEASURE_MS", 300),
        }
    }
}

impl Criterion {
    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Benchmark a plain body outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        run_one(&id.into().0, self.warmup, self.measure, |b| f(b));
        self
    }
}

/// Bundle benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the listed groups, honoring `--json <path>`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            if let Some(path) = $crate::json_path_from_args() {
                $crate::write_json(env!("CARGO_CRATE_NAME"), &path)
                    .expect("write bench json");
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_prints() {
        std::env::set_var("CRITERION_MEASURE_MS", "5");
        std::env::set_var("CRITERION_WARMUP_MS", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("demo");
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>());
        });
        group.bench_function("plain", |b| b.iter(|| 1 + 1));
        group.finish();
        c.bench_function("toplevel", |b| b.iter(|| black_box(2) * 2));
        std::env::remove_var("CRITERION_MEASURE_MS");
        std::env::remove_var("CRITERION_WARMUP_MS");
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("a", 5).0, "a/5");
        assert_eq!(BenchmarkId::from_parameter(0.5).0, "0.5");
    }

    #[test]
    fn json_dump_has_stable_schema() {
        // Synthesize results directly (the registry is process-global;
        // drain whatever other tests left behind first).
        let _ = take_results();
        RESULTS.lock().unwrap().extend([
            BenchResult {
                id: "alg1/kernel/dense-chunked/1000".into(),
                mean_ns: 1500.0,
                best_ns: 1400.0,
                worst_ns: 1600.0,
                iters: 2048,
                extra: vec![("offcpu_frac".into(), 0.25)],
            },
            BenchResult {
                id: "alg1/headline \"quoted\"".into(),
                mean_ns: 10.0,
                best_ns: 10.0,
                worst_ns: 10.0,
                iters: 1,
                extra: Vec::new(),
            },
        ]);
        let path = std::env::temp_dir().join("criterion_compat_schema_test.json");
        write_json("bench_demo", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"schema_version\": 1"));
        assert!(text.contains("\"bench\": \"bench_demo\""));
        assert!(text.contains("\"id\": \"alg1/kernel/dense-chunked/1000\""));
        assert!(text.contains("\"group\": \"alg1/kernel/dense-chunked\""));
        assert!(text.contains("\"param\": 1000"));
        assert!(text.contains("\"param\": null"));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\"mean_ns\": 1500"));
        assert!(text.contains("\"iters\": 2048"));
        assert!(text.contains("\"offcpu_frac\": 0.25 }"));
        // (No drain assertion here: `measures_and_prints` may append to
        // the process-global registry concurrently.)
    }

    #[test]
    fn json_flag_parsing_ignores_unknown_args() {
        // Can't rewrite argv here; exercise the equals form indirectly
        // via the same parser the space form shares.
        assert!(json_path_from_args().is_none());
    }
}
