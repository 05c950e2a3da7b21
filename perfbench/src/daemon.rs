//! Booting the release `tcdp-serve` and driving it over a Unix socket:
//! set-up trials, the PING floor, and the closed-loop measured phase.

use crate::pace::Pace;
use crate::stats;
use crate::workload::Workload;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-up is repeated with a fresh daemon each time, in two batches: one
/// before the measured daemon boots and one after it is killed, because
/// the host's speed drifts over seconds and a set-up of a few
/// milliseconds would otherwise sample one moment. A batch boots at
/// least `MIN_BOOTS` daemons and goes on until `BATCH_BUDGET_S` seconds
/// of set-up have been timed (at most `MAX_BOOTS`). Each of these
/// daemons is killed once ready and reaped, which yields its CPU time
/// from spawn to ready; the median over both batches is `setup_s`.
const MIN_BOOTS: usize = 5;
const MAX_BOOTS: usize = 40;
const BATCH_BUDGET_S: f64 = 1.0;
/// Trial index of the measured daemon's socket and store.
const MEASURED: usize = 999;
/// PING round trips sent before the measured phase: the transport floor.
const PINGS: usize = 300;
/// Acks after which a pinned run swaps the cores of its two pairs (see
/// [`Pairs`]): about a fifth of a second of `durable`.
const SWAP_ACKS: usize = 1000;

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawn the daemon on `socket` and wait until it listens (after
    /// boot recovery when `data_dir` holds tenants).
    pub fn boot(
        bin: &Path,
        socket: &Path,
        data_dir: Option<&Path>,
        flags: &[String],
    ) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.arg("--unix").arg(socket);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir).args(flags);
        }
        let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("daemon stdout was not captured"));
        };
        let mut daemon = Daemon {
            child,
            _stdout: BufReader::new(out),
            socket: socket.to_path_buf(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            if daemon._stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("daemon exited before listening"));
            }
            if line.starts_with("listening on") {
                return Ok(daemon);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = UnixStream::connect(&self.socket)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            buf: String::new(),
        })
    }

    /// SIGKILL, then reap.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection: one request line out, one response line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    out: Vec<u8>,
    buf: String,
}

impl Conn {
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        // One write per request, so the daemon reads each line whole.
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(io::Error::other("connection closed"));
        }
        Ok(self.buf.trim_end().to_string())
    }
}

/// Everything the socket run observed; the oracle checks the responses.
#[derive(Debug, Default)]
pub struct SocketRun {
    /// Daemon CPU seconds from spawn to ready, one per set-up trial.
    pub setup_cpu_s: Vec<f64>,
    /// Wall seconds from spawn to ready, per set-up trial and for the
    /// measured daemon.
    pub setup_wall_s: Vec<f64>,
    /// Responses to `Workload::setup` from the daemon the measured phase
    /// runs on (empty for `durable`, whose set-up went to [`Prepared`]).
    pub setup_responses: Vec<String>,
    /// Set-up trials, the measured daemon's included, whose responses
    /// differed from the first trial's.
    pub setup_disagreements: usize,
    /// One entry per ingest line sent (warm-up included), in order;
    /// `None` = no reply.
    pub ingest: Vec<Option<String>>,
    /// Latency of each ingest request sent in the measured phase, and
    /// the second of the measured phase at which its answer arrived.
    pub ingest_us: Vec<f64>,
    pub ingest_done_s: Vec<f64>,
    /// One entry per query sent (warm-up included), in order.
    pub queries: Vec<Option<String>>,
    /// Latency of each query sent in the measured phase.
    pub query_us: Vec<f64>,
    /// Index of the first query sent in the measured phase.
    pub first_measured_query: usize,
    /// Seconds of the measured phase the ingest connection spent waiting
    /// for the query connection's answer (see [`Pace`]).
    pub ingest_wait_s: f64,
    pub ping_us: Vec<f64>,
    pub pings_failed: usize,
    pub measured_s: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Daemon `VmHWM` after `Kind::rss_after` measured OBSERVEs, or at
    /// the end of the run if it acked fewer (`rss_at_end`).
    pub peak_rss_mb: f64,
    pub rss_at_end: bool,
    pub steal_frac: f64,
    pub ran_dry: bool,
    /// The connection pairs were pinned to a core each (see [`Pairs`]).
    pub pinned: bool,
}

/// Thin wrappers over the Linux calls the socket run makes.
mod host {
    use std::io;

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn syncfs(fd: i32) -> i32;
    }

    /// Write out everything pending on the file system holding `dir`
    /// (`syncfs`), so its writeback and journal commits do not fall into
    /// a timed phase that follows.
    pub fn settle(dir: &std::path::Path) -> io::Result<()> {
        use std::os::fd::AsRawFd;
        let f = std::fs::File::open(dir)?;
        // SAFETY: `f` is an open descriptor for the whole call.
        if unsafe { syncfs(f.as_raw_fd()) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Restrict thread `tid` (0: the calling thread) to `cores`.
    pub fn pin(tid: i32, cores: &[usize]) -> io::Result<()> {
        let mut mask = [0u64; 16];
        for &c in cores {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a live, initialised `cpu_set_t`-sized buffer
        // whose exact size is passed; the kernel only reads it.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The calling thread's kernel thread id.
    pub fn current_tid() -> io::Result<i32> {
        let link = std::fs::read_link("/proc/thread-self")?;
        link.file_name()
            .and_then(|n| n.to_str()?.parse().ok())
            .ok_or_else(|| io::Error::other(format!("/proc/thread-self -> {}", link.display())))
    }

    /// The thread ids of process `pid`.
    pub fn threads(pid: u32) -> io::Result<Vec<i32>> {
        let mut tids = Vec::new();
        for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
            if let Some(tid) = entry?.file_name().to_str().and_then(|n| n.parse().ok()) {
                tids.push(tid);
            }
        }
        tids.sort_unstable();
        Ok(tids)
    }
}

/// The two client/daemon thread pairs of a pinned run: the ingest
/// connection's client thread and the daemon thread serving it share one
/// core, the query connection's pair the other, and the pairs swap cores
/// every [`SWAP_ACKS`] acks so a run samples both vCPUs alike.
struct Pairs {
    ingest_daemon: i32,
    query_daemon: i32,
    query_client: i32,
}

impl Pairs {
    /// Put the ingest pair on core `c` and the query pair on the other;
    /// the calling thread is the ingest client.
    fn place(&self, c: usize) -> io::Result<()> {
        host::pin(self.ingest_daemon, &[c])?;
        host::pin(0, &[c])?;
        host::pin(self.query_daemon, &[1 - c])?;
        host::pin(self.query_client, &[1 - c])
    }
}

fn err(context: &str, e: io::Error) -> String {
    format!("{context}: {e}")
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    copy_dir(from, to).map_err(|e| err("copying the prepared data directory", e))
}

/// A data directory left by a daemon killed mid-stream, with the
/// responses that daemon gave to `Workload::setup` and `history`.
pub struct Prepared {
    pub dir: PathBuf,
    pub setup_responses: Vec<String>,
    pub history_responses: Vec<String>,
}

/// `durable`'s untimed preparation: a first daemon creates the tenants,
/// ingests the seeded history, and is killed with SIGKILL between acks.
pub fn prepare_store(bin: &Path, work: &Path, w: &Workload) -> Result<Prepared, String> {
    let dir = work.join("prep");
    let daemon = Daemon::boot(bin, &work.join("prep.sock"), Some(&dir), &w.persist_flags)
        .map_err(|e| err("booting the preparation daemon", e))?;
    let mut conn = daemon.connect().map_err(|e| err("connecting", e))?;
    let mut send = |lines: &[String]| -> Result<Vec<String>, String> {
        lines
            .iter()
            .map(|l| conn.request(l).map_err(|e| err("preparation", e)))
            .collect()
    };
    let setup_responses = send(&w.setup)?;
    let history_responses = send(&w.history)?;
    daemon.kill();
    Ok(Prepared {
        dir,
        setup_responses,
        history_responses,
    })
}

/// Boot a daemon and bring it to ready: set-up requests acked, or for a
/// persistent workload, recovery done and a first request answered.
/// Returns the daemon, its connection, the responses, and the seconds
/// from spawn to ready.
fn boot_and_set_up(
    bin: &Path,
    work: &Path,
    w: &Workload,
    prep: Option<&Path>,
    trial: usize,
) -> Result<(Daemon, Conn, Vec<String>, f64), String> {
    let store = match prep {
        Some(prep) => {
            let dir = work.join(format!("boot{trial}"));
            copy_store(prep, &dir)?;
            Some(dir)
        }
        None => None,
    };
    let socket = work.join(format!("d{trial}.sock"));
    let t0 = Instant::now();
    let daemon = Daemon::boot(bin, &socket, store.as_deref(), &w.persist_flags)
        .map_err(|e| err("booting tcdp-serve", e))?;
    let mut conn = daemon.connect().map_err(|e| err("connecting", e))?;
    let mut responses = Vec::new();
    let lines: &[String] = if prep.is_some() { &[] } else { &w.setup };
    for line in lines {
        responses.push(conn.request(line).map_err(|e| err("set-up", e))?);
    }
    if prep.is_some() {
        responses.push(conn.request("PING").map_err(|e| err("first request", e))?);
    }
    Ok((daemon, conn, responses, t0.elapsed().as_secs_f64()))
}

/// Record the first set-up's responses; count any later set-up that
/// answered differently.
fn agree(first: &mut Option<Vec<String>>, responses: Vec<String>, run: &mut SocketRun) {
    match first {
        None => *first = Some(responses),
        Some(f) if *f != responses => run.setup_disagreements += 1,
        Some(_) => {}
    }
}

/// One batch of set-up trials (see [`MIN_BOOTS`]): boot, set up, kill,
/// reap, and record the daemon's CPU and wall time from spawn to ready.
fn set_up_batch(
    bin: &Path,
    work: &Path,
    w: &Workload,
    prep: Option<&Path>,
    run: &mut SocketRun,
    first: &mut Option<Vec<String>>,
) -> Result<(), String> {
    let mut timed = 0.0;
    for boot in 0..MAX_BOOTS {
        if boot >= MIN_BOOTS && timed >= BATCH_BUDGET_S {
            break;
        }
        let trial = run.setup_cpu_s.len();
        let (daemon, conn, responses, secs) = boot_and_set_up(bin, work, w, prep, trial)?;
        timed += secs;
        run.setup_wall_s.push(secs);
        agree(first, responses, run);
        drop(conn);
        let before = stats::children_cpu_s().ok_or("reading children's CPU time")?;
        daemon.kill();
        let after = stats::children_cpu_s().ok_or("reading children's CPU time")?;
        run.setup_cpu_s.push(after - before);
        let _ = std::fs::remove_dir_all(work.join(format!("boot{trial}")));
    }
    Ok(())
}

pub fn socket_run(
    bin: &Path,
    work: &Path,
    w: &Workload,
    prep: Option<&Path>,
    seconds: f64,
) -> Result<SocketRun, String> {
    let mut run = SocketRun::default();
    let mut first = None;
    // Each timed phase starts with nothing left to write out: the build,
    // the preparation and the set-up boots' store copies leave writeback
    // and journal commits behind, which cost `durable`'s measured phase
    // about a fifth of its acked/s in runs alternating with and without.
    let settle = || host::settle(work).map_err(|e| err("syncing the file system", e));
    settle()?;
    set_up_batch(bin, work, w, prep, &mut run, &mut first)?;
    let (daemon, mut ingest_conn, responses, secs) = boot_and_set_up(bin, work, w, prep, MEASURED)?;
    run.setup_wall_s.push(secs);
    agree(&mut first, responses, &mut run);
    settle()?;
    let pid = daemon.pid();
    let threads = || host::threads(pid).map_err(|e| err("listing daemon threads", e));
    // The daemon serves each connection on a thread of its own: the one
    // thread beside the accept loop now serves the ingest connection.
    run.pinned = w.kind.pins_pairs() && stats::cores() >= 2;
    let before = if run.pinned { threads()? } else { Vec::new() };

    let mut query_conn = daemon.connect().map_err(|e| err("connecting", e))?;
    for _ in 0..PINGS {
        let t0 = Instant::now();
        match query_conn.request("PING") {
            Ok(r) if r == "OK pong" => run.ping_us.push(t0.elapsed().as_secs_f64() * 1e6),
            _ => run.pings_failed += 1,
        }
    }
    let daemon_pair_threads = if run.pinned {
        let after = threads()?;
        let new: Vec<i32> = after.into_iter().filter(|t| !before.contains(t)).collect();
        match (before.as_slice(), new.as_slice()) {
            (&[_, ingest], &[query]) => Some((ingest, query)),
            _ => {
                return Err(format!(
                    "expected one daemon thread per connection, found {before:?} then {new:?}"
                ))
            }
        }
    } else {
        None
    };

    let pace = Pace::new(w.ratio);
    // Set by the ingest thread as it sends the first line after the
    // warm-up; a request is measured when it is sent after that.
    let measuring = AtomicBool::new(false);
    let mut window = None;
    let (tid_tx, tid_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| -> Result<(), String> {
        let querier = scope.spawn(|| {
            let _ = tid_tx.send(host::current_tid());
            let mut answers = Vec::new();
            let mut lat = Vec::new();
            for (k, line) in w.queries.iter().enumerate() {
                if !pace.before_query(k) {
                    break;
                }
                let measured = measuring.load(Ordering::SeqCst);
                let t0 = Instant::now();
                let answer = query_conn.request(line).ok();
                if measured {
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                let failed = answer.is_none();
                answers.push(answer);
                if failed {
                    break;
                }
                pace.answered();
            }
            pace.querier_done();
            (answers, lat)
        });
        let mut outcome = Ok(());
        let pairs = match (daemon_pair_threads, tid_rx.recv()) {
            (Some((ingest_daemon, query_daemon)), Ok(Ok(query_client))) => {
                let pairs = Pairs {
                    ingest_daemon,
                    query_daemon,
                    query_client,
                };
                if let Err(e) = pairs.place(0) {
                    outcome = Err(err("pinning the connection pairs", e));
                }
                Some(pairs)
            }
            (Some(_), Ok(Err(e))) => {
                outcome = Err(err("reading the query thread's id", e));
                None
            }
            _ => None,
        };
        let mut deadline = None;
        for (i, line) in w.ingest.iter().enumerate() {
            if outcome.is_err() {
                break;
            }
            if i == w.warmup {
                let start = Instant::now();
                match stats::proc_cpu(pid) {
                    Some(cpu) => window = Some((start, cpu, stats::host_steal())),
                    None => {
                        outcome = Err("reading daemon CPU time".to_string());
                        break;
                    }
                }
                deadline = Some(start + Duration::from_secs_f64(seconds));
                measuring.store(true, Ordering::SeqCst);
            }
            let waited = pace.before_line(i);
            if deadline.is_some() {
                run.ingest_wait_s += waited.as_secs_f64();
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let t0 = Instant::now();
            let answer = ingest_conn.request(line).ok();
            if let Some((start, ..)) = &window {
                run.ingest_us.push(t0.elapsed().as_secs_f64() * 1e6);
                run.ingest_done_s.push(start.elapsed().as_secs_f64());
                if run.ingest_us.len() == w.kind.rss_after() {
                    run.peak_rss_mb = stats::vm_hwm_mb(pid).unwrap_or(0.0);
                }
            }
            let failed = answer.is_none();
            run.ingest.push(answer);
            if failed {
                break;
            }
            pace.acked(i + 1);
            if let Some(pairs) = pairs.as_ref().filter(|_| (i + 1) % SWAP_ACKS == 0) {
                if let Err(e) = pairs.place((i + 1) / SWAP_ACKS % 2) {
                    outcome = Err(err("swapping the connection pairs' cores", e));
                }
            }
        }
        run.ran_dry = run.ingest.len() == w.ingest.len();
        pace.stop();
        // A panic in the query thread is a bug in this benchmark: re-raise it.
        let (answers, lat) = querier
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        run.first_measured_query = answers.len() - lat.len();
        run.queries = answers;
        run.query_us = lat;
        if pairs.is_some() {
            let all: Vec<usize> = (0..stats::cores()).collect();
            if let Err(e) = host::pin(0, &all) {
                outcome = outcome.and(Err(err("unpinning", e)));
            }
        }
        outcome
    })?;
    let Some((start, cpu0, steal0)) = window else {
        return Err("the daemon stopped answering during the warm-up".into());
    };
    run.measured_s = start.elapsed().as_secs_f64();
    let cpu1 = stats::proc_cpu(pid).ok_or("reading daemon CPU time")?;
    run.steal_frac = stats::steal_frac(steal0, stats::host_steal());
    run.cpu_user_s = cpu1.0 - cpu0.0;
    run.cpu_sys_s = cpu1.1 - cpu0.1;
    if run.peak_rss_mb == 0.0 {
        run.rss_at_end = true;
        run.peak_rss_mb = stats::vm_hwm_mb(pid).ok_or("reading daemon VmHWM")?;
    }
    daemon.kill();
    // Removed before it is written out: nothing reads it again.
    let _ = std::fs::remove_dir_all(work.join(format!("boot{MEASURED}")));
    settle()?;
    set_up_batch(bin, work, w, prep, &mut run, &mut first)?;
    let Some(first) = first else {
        return Err("no set-up trial ran".into());
    };
    if prep.is_none() {
        run.setup_responses = first;
    } else if first != ["OK pong"] {
        run.setup_disagreements += 1;
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_helpers_find_pin_and_settle() {
        let me = host::current_tid().unwrap();
        assert!(host::threads(std::process::id()).unwrap().contains(&me));
        host::pin(0, &[0]).unwrap();
        let all: Vec<usize> = (0..stats::cores()).collect();
        host::pin(0, &all).unwrap();
        host::settle(Path::new(".")).unwrap();
    }
}
