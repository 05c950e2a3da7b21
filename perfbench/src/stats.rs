//! Percentiles and the `/proc` readers the socket run samples.

use std::fs;

/// A latency sample set summarised the way every timing is reported:
/// the median, the tail percentiles the metrics use, and the highest
/// percentile that still has at least ten samples beyond it, with the
/// sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// The highest of p99.9 / p99 / p90 / p50 with >= 10 samples above it
    /// (`None` when there are fewer than 11 samples).
    pub supported: Option<(f64, f64)>,
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank; the epsilon keeps `99.9% of 20000` at 19980
/// despite `99.9` having no exact binary value.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `pct`.
fn beyond(n: usize, pct: f64) -> usize {
    n - rank(n, pct)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let supported = [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= 10)
        .map(|p| (p, percentile(&sorted, p)));
    Summary {
        n,
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        p99: percentile(&sorted, 99.0),
        supported,
    }
}

impl Summary {
    /// `p50=.. p90=.. p99=.. n=.. [highest supported p..=..]` for the report.
    pub fn describe(&self, unit: &str) -> String {
        let hi = match self.supported {
            Some((p, v)) => format!("p{p}={v:.1}{unit}"),
            None => "no percentile has 10 samples beyond it".to_string(),
        };
        format!(
            "p50={:.1}{unit} p90={:.1}{unit} p99={:.1}{unit} n={} [{hi}]",
            self.p50, self.p90, self.p99, self.n
        )
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Split a phase into `blocks` runs of equally many completions and
/// return each block's completions per second. `done_s` holds the
/// completion times, ascending, in seconds since the phase began.
pub fn block_rates(done_s: &[f64], blocks: usize) -> Vec<f64> {
    let blocks = blocks.min(done_s.len());
    let mut rates = Vec::with_capacity(blocks);
    let mut begin = 0.0;
    for b in 0..blocks {
        let (lo, hi) = (b * done_s.len() / blocks, (b + 1) * done_s.len() / blocks);
        let end = done_s[hi - 1];
        if end > begin {
            rates.push((hi - lo) as f64 / (end - begin));
        }
        begin = end;
    }
    rates
}

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ, which the
/// kernel ABI fixes at 100 ticks per second.
const USER_HZ: f64 = 100.0;

/// `(user, system)` CPU seconds of a whole process from the text of
/// `/proc/<pid>/stat` (fields 14 and 15, counted after the `comm` field,
/// which may itself contain spaces and parentheses).
pub fn parse_proc_stat_cpu(text: &str) -> Option<(f64, f64)> {
    let after = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state), so utime (14) is index 11.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

pub fn proc_cpu(pid: u32) -> Option<(f64, f64)> {
    parse_proc_stat_cpu(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// `VmHWM` (peak resident set) in MB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    parse_vm_hwm_mb(&fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Host-wide `(steal, total)` jiffies from the `cpu` line of `/proc/stat`.
pub fn parse_host_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let total: u64 = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

pub fn host_steal() -> Option<(u64, u64)> {
    parse_host_steal(&fs::read_to_string("/proc/stat").ok()?)
}

/// Steal share of host CPU time between two [`host_steal`] samples.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

mod sys {
    use std::os::raw::{c_int, c_long};

    pub const RUSAGE_CHILDREN: c_int = -1;

    #[repr(C)]
    pub struct Timeval {
        pub tv_sec: c_long,
        pub tv_usec: c_long,
    }

    /// `struct rusage` on Linux: two timevals, then fourteen longs.
    #[repr(C)]
    pub struct Rusage {
        pub ru_utime: Timeval,
        pub ru_stime: Timeval,
        pub rest: [c_long; 14],
    }

    extern "C" {
        pub fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
}

/// User+system CPU seconds, to the microsecond, of every child process
/// this process has reaped so far, threads that already exited included.
/// The difference across one `wait` is that child's whole CPU time.
pub fn children_cpu_s() -> Option<f64> {
    let mut usage = sys::Rusage {
        ru_utime: sys::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: sys::Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // kernel's layout, and getrusage writes nothing beyond it.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_CHILDREN, &mut usage) };
    let secs = |t: &sys::Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    (rc == 0).then(|| secs(&usage.ru_utime) + secs(&usage.ru_stime))
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helper_reports_median_and_supported_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p90, 900.0);
        assert_eq!(s.p99, 990.0);
        // p99.9 leaves one sample beyond it, p99 leaves ten.
        assert_eq!(s.supported, Some((99.0, 990.0)));

        let s = summarize(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.supported, Some((90.0, 90.0)));
        assert_eq!(summarize(&[3.0; 5]).supported, None);
        let big: Vec<f64> = (1..=20000).map(f64::from).collect();
        assert_eq!(summarize(&big).supported, Some((99.9, 19980.0)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn block_rates_split_completions_evenly() {
        // Four completions in the first second, two in the next two.
        let done = [0.25, 0.5, 0.75, 1.0, 2.0, 3.0];
        assert_eq!(block_rates(&done, 2), vec![3.0 / 0.75, 3.0 / 2.25]);
        assert_eq!(block_rates(&done, 3), vec![4.0, 4.0, 1.0]);
        assert_eq!(block_rates(&done, 100).len(), 6);
        assert!(block_rates(&[], 12).is_empty());
    }

    #[test]
    fn proc_readers_parse_and_read_this_process() {
        let stat = "4242 (tcdp serve) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 9";
        assert_eq!(parse_proc_stat_cpu(stat), Some((2.5, 0.75)));
        let status = "Name:\ttcdp-serve\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        let host = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_host_steal(host), Some((35, 1000)));
        assert_eq!(steal_frac(Some((35, 1000)), Some((45, 1100))), 0.1);

        let me = std::process::id();
        assert!(proc_cpu(me).is_some());
        assert!(vm_hwm_mb(me).unwrap() > 0.0);
        assert!(host_steal().is_some());
        assert!(cores() >= 1);

        // A reaped child that burns CPU moves the children's total.
        let before = children_cpu_s().unwrap();
        let status = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .unwrap();
        assert!(status.success());
        assert!(children_cpu_s().unwrap() > before);
    }
}
