//! Multi-tenant daemon throughput: a tenants × users ingest matrix over
//! [`tcdp_serve::Server::handle`], with and without reader threads
//! streaming queries against the same tenants.
//!
//! * `serve/ingest/{users}u-quiet/{tenants}` — one release wave (one
//!   `OBSERVE` per tenant) across the whole registry, no readers. Every
//!   tenant holds `users` distinct-adversary users (so population
//!   queries do per-shard work) under a fold horizon, keeping the
//!   copy-on-publish cost per observe flat as iterations accumulate.
//! * `serve/ingest/{users}u-readers/{tenants}` — the identical wave
//!   while two reader threads hammer `QUERY max_tpl` round-robin over
//!   the tenants. Readers compute on published snapshots and never take
//!   a writer lock. The row carries `offcpu_frac`: the share of the
//!   ingest thread's wall time that it spent neither on a CPU nor
//!   runnable, i.e. blocked, over at least [`OFFCPU_WINDOW`] of waves
//!   right after the row (see [`blocked_share`]). Sharing CPUs or caches
//!   with readers slows the writer but does not block it, so
//!   `check_bench` gates that share at ≥ 1000 tenants, whatever the core
//!   count; the readers/quiet time ratio is reported, not gated.
//! * `serve/ingest/{users}u-lockstep/{tenants}` — the control for that
//!   gate, at 4 users and 1000 tenants: the same readers, but each run
//!   of [`LOCKSTEP_CHUNK`] queries and each ingest `OBSERVE` take turns
//!   on one FIFO lock, so ingest waits on query work on any core count.
//!   `check_bench` must see this writer blocked.
//!
//! The headline asserts the concurrency contract the matrix relies on:
//! every sample a racing reader records mid-ingest is bit-identical to
//! a serial replay of the same schedule at the sampled revision.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tcdp_serve::{parse_population_spec, Server, Tenant};

const TENANTS: [usize; 3] = [10, 100, 1000];
const USERS: [usize; 2] = [4, 16];
const READER_THREADS: usize = 2;
const EPS: f64 = 0.01;
/// Fold horizon per tenant: bounds the live window, so the per-observe
/// state clone stays O(horizon) no matter how many iterations ran.
const HORIZON: usize = 64;
/// Queries a control reader answers per turn on the [`TicketLock`].
const LOCKSTEP_CHUNK: usize = 16;
/// Least wall time of ingest waves behind one `offcpu_frac`: long
/// enough that one scheduling hiccup does not decide it.
const OFFCPU_WINDOW: Duration = Duration::from_millis(500);

/// A FIFO lock: each turn waits, parked, until its ticket is served, so
/// the control row's readers and ingest alternate instead of one thread
/// re-taking a lock it just released.
#[derive(Default)]
struct TicketLock {
    /// Next ticket to hand out, ticket being served.
    tickets: Mutex<(u64, u64)>,
    turn: Condvar,
}

impl TicketLock {
    fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        let mut t = self.tickets.lock().expect("ticket lock");
        let mine = t.0;
        t.0 += 1;
        while t.1 != mine {
            t = self.turn.wait(t).expect("ticket lock");
        }
        drop(t);
        // Serves the next ticket even if `f` panics, so the other
        // threads fail instead of waiting forever.
        let _next = NextTurn(self);
        f()
    }
}

/// Serves a [`TicketLock`]'s next ticket when dropped.
struct NextTurn<'a>(&'a TicketLock);

impl Drop for NextTurn<'_> {
    fn drop(&mut self) {
        if let Ok(mut t) = self.0.tickets.lock() {
            t.1 += 1;
        }
        self.0.turn.notify_all();
    }
}

/// `users` single-user groups with distinct backward/forward diagonals:
/// every user is its own accounting shard, so user count is real
/// per-query and per-observe work, not shared-timeline dedup.
fn population_spec(users: usize) -> String {
    let mut spec = String::from("[");
    for i in 0..users {
        let d = 0.5 + 0.02 * (i % 20) as f64;
        if i > 0 {
            spec.push(',');
        }
        spec.push_str(&format!(
            "{{\"count\":1,\"pb\":[[{d},{}],[0.1,0.9]],\"pf\":[[{d},{}],[0.2,0.8]]}}",
            1.0 - d,
            1.0 - d,
        ));
    }
    spec.push(']');
    spec
}

fn expect_ok(resp: &str, req: &str) {
    assert!(resp.starts_with("OK"), "{req:?} -> {resp}");
}

/// A registry of `tenants` tenants, each `users` shards wide, folding
/// at [`HORIZON`], plus the prebuilt per-tenant request lines.
fn build(tenants: usize, users: usize) -> (Server, Vec<String>, Vec<String>) {
    let server = Server::new();
    let spec = population_spec(users);
    let mut observes = Vec::with_capacity(tenants);
    let mut queries = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let req = format!("CREATE t{i} {spec}");
        expect_ok(&server.handle(&req), &req);
        let req = format!("HORIZON t{i} {HORIZON}");
        expect_ok(&server.handle(&req), &req);
        observes.push(format!("OBSERVE t{i} {EPS}"));
        queries.push(format!("QUERY t{i} max_tpl"));
    }
    (server, observes, queries)
}

/// One release wave: every tenant observes once, over the same
/// request-line path the socket loop uses.
/// With `lock`, each request takes a turn on it.
fn ingest_wave(server: &Server, observes: &[String], lock: Option<&TicketLock>) {
    for req in observes {
        let resp = match lock {
            Some(l) => l.with(|| server.handle(black_box(req))),
            None => server.handle(black_box(req)),
        };
        expect_ok(&resp, req);
        black_box(resp.len());
    }
}

/// The calling thread's nanoseconds on a CPU and waiting on a runqueue
/// (`/proc/thread-self/schedstat`), where the kernel exposes them.
fn sched_times() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

/// The host's stolen and total CPU time so far, in ticks (the first
/// line of `/proc/stat`).
fn host_steal() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Run `wave` for at least `window` and return the share of the calling
/// thread's wall time that was neither on a CPU nor runnable — blocked.
/// A guest's CPU time leaves out what the host steals while the thread
/// runs, so the thread's CPU time is scaled up by the host's steal share
/// `s` over the window (`cpu/(1 − s)`) before it is subtracted.
fn blocked_share(window: Duration, mut wave: impl FnMut()) -> Option<f64> {
    let ((cpu0, rq0), (steal0, total0)) = (sched_times()?, host_steal()?);
    let start = Instant::now();
    while start.elapsed() < window {
        wave();
    }
    let wall = start.elapsed().as_nanos() as f64;
    let ((cpu1, rq1), (steal1, total1)) = (sched_times()?, host_steal()?);
    let steal = ((steal1 - steal0) / (total1 - total0).max(1.0)).min(0.9);
    let running = cpu1.saturating_sub(cpu0) as f64 / (1.0 - steal);
    Some((1.0 - (running + rq1.saturating_sub(rq0) as f64) / wall).max(0.0))
}

/// Time one readers row, then attach its `offcpu_frac`.
fn readers_row(c: &mut Criterion, name: String, mut wave: impl FnMut()) {
    c.bench_function(name, |b| b.iter(&mut wave));
    if let Some(share) = blocked_share(OFFCPU_WINDOW, wave) {
        criterion::annotate_last("offcpu_frac", share);
    }
}

/// Two reader threads streaming `queries` until `stop`; with `lock`,
/// each run of [`LOCKSTEP_CHUNK`] queries takes a turn on it. Joining
/// returns each reader's answered count.
fn spawn_readers(
    server: &Arc<Server>,
    queries: &Arc<Vec<String>>,
    stop: &Arc<AtomicBool>,
    lock: Option<&Arc<TicketLock>>,
) -> Vec<std::thread::JoinHandle<usize>> {
    (0..READER_THREADS)
        .map(|r| {
            let server = Arc::clone(server);
            let queries = Arc::clone(queries);
            let stop = Arc::clone(stop);
            let lock = lock.map(Arc::clone);
            std::thread::spawn(move || {
                // Stagger the two readers so they don't march over the
                // same tenant in lockstep.
                let mine: Vec<&String> = queries.iter().skip(r).step_by(READER_THREADS).collect();
                let mut answered = 0usize;
                while !stop.load(Ordering::Acquire) {
                    for chunk in mine.chunks(LOCKSTEP_CHUNK) {
                        let answer = |req: &&String| {
                            let resp = server.handle(req);
                            // Only the pre-first-wave empty timeline is
                            // a legal miss.
                            let ok = resp.starts_with("OK");
                            assert!(ok || resp.starts_with("ERR core"), "{req:?} -> {resp}");
                            usize::from(ok)
                        };
                        answered += match &lock {
                            Some(l) => l.with(|| chunk.iter().map(answer).sum::<usize>()),
                            None => chunk.iter().map(answer).sum(),
                        };
                    }
                }
                answered
            })
        })
        .collect()
}

/// Stop and join the readers, checking that they streamed queries.
fn join_readers(stop: &AtomicBool, readers: Vec<std::thread::JoinHandle<usize>>) {
    stop.store(true, Ordering::Release);
    for handle in readers {
        let answered = handle.join().expect("reader thread");
        assert!(answered > 0, "readers never streamed a query");
    }
}

fn bench_ingest_matrix(c: &mut Criterion) {
    for users in USERS {
        for tenants in TENANTS {
            {
                let (server, observes, _) = build(tenants, users);
                c.bench_function(format!("serve/ingest/{users}u-quiet/{tenants}"), |b| {
                    b.iter(|| ingest_wave(&server, &observes, None))
                });
            }

            let (server, observes, queries) = build(tenants, users);
            let (server, queries) = (Arc::new(server), Arc::new(queries));
            let stop = Arc::new(AtomicBool::new(false));
            let readers = spawn_readers(&server, &queries, &stop, None);
            readers_row(
                c,
                format!("serve/ingest/{users}u-readers/{tenants}"),
                || ingest_wave(&server, &observes, None),
            );
            join_readers(&stop, readers);
        }
    }

    let (users, tenants) = (USERS[0], TENANTS[TENANTS.len() - 1]);
    let (server, observes, queries) = build(tenants, users);
    let (server, queries) = (Arc::new(server), Arc::new(queries));
    let stop = Arc::new(AtomicBool::new(false));
    let lock = Arc::new(TicketLock::default());
    let readers = spawn_readers(&server, &queries, &stop, Some(&lock));
    readers_row(
        c,
        format!("serve/ingest/{users}u-lockstep/{tenants}"),
        || ingest_wave(&server, &observes, Some(&lock)),
    );
    join_readers(&stop, readers);
}

/// The contract the readers matrix rests on, asserted rather than
/// assumed: samples recorded by a racing reader are bit-identical to a
/// serial replay at the sampled revision.
fn headline() {
    const RELEASES: usize = 400;
    let groups = parse_population_spec(&population_spec(8)).expect("spec");
    let tenant = Tenant::create(&groups).expect("tenant");
    let reader = tenant.reader();
    let writer = Arc::new(std::sync::Mutex::new(tenant));
    let done = Arc::new(AtomicBool::new(false));

    let sampler = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut samples: Vec<(u64, u64)> = Vec::new();
            while !done.load(Ordering::Acquire) || samples.is_empty() {
                let snap = reader.snapshot();
                if snap.num_releases() == 0 {
                    continue;
                }
                samples.push((snap.revision(), snap.max_tpl().expect("max_tpl").to_bits()));
            }
            samples
        })
    };

    for _ in 0..RELEASES {
        writer
            .lock()
            .expect("writer mutex")
            .observe(&tcdp_serve::Release::Uniform(EPS))
            .expect("observe");
    }
    done.store(true, Ordering::Release);
    let samples = sampler.join().expect("sampler thread");

    let mut replay = Tenant::create(&groups).expect("tenant");
    let mut expected = vec![0u64];
    for _ in 0..RELEASES {
        let snap = replay
            .observe(&tcdp_serve::Release::Uniform(EPS))
            .expect("observe");
        expected.push(snap.state().max_tpl().expect("max_tpl").to_bits());
    }
    for &(rev, bits) in &samples {
        assert_eq!(
            bits, expected[rev as usize],
            "reader sample at rev {rev} must match serial replay"
        );
    }
    println!(
        "headline: {} racing samples across {RELEASES} releases, all bit-identical to replay",
        samples.len()
    );
}

fn bench_headline(c: &mut Criterion) {
    let _ = c;
    headline();
}

criterion_group!(benches, bench_ingest_matrix, bench_headline);
criterion_main!(benches);
