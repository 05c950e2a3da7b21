//! Integration tests for the `tcdp-serve` stack: the reader/writer
//! split under real concurrency, the line protocol over real sockets,
//! and crash recovery of the daemon binary under `kill -9`.
//!
//! The differential harnesses all follow one shape: threads interleave
//! observes, queries, and snapshots against a live tenant while every
//! query records the revision it saw; afterwards the same release
//! schedule is replayed serially and every recorded sample must match
//! the serial state at its revision **bit for bit**.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tcdp::serve::{parse_population_spec, parse_release, Release, Server, Tenant, TenantStore};

/// Three adversary groups (backward+forward, forward-only, traditional)
/// so the population shards from the start; six users total.
const SPEC: &str = r#"[
  {"count":2,"pb":[[0.8,0.2],[0.1,0.9]],"pf":[[0.8,0.2],[0.1,0.9]]},
  {"count":2,"pf":[[0.9,0.1],[0.2,0.8]]},
  {"count":2}
]"#;

/// The deterministic release schedule, as wire payloads. Every third
/// release is personalized (splitting and re-aligning shard timelines);
/// the rest are uniform. Both the wire clients and the serial replay
/// parse these same strings, so they observe bit-identical budgets.
fn release_line(i: usize) -> String {
    if i.is_multiple_of(3) {
        let a = 0.01 + (i % 5) as f64 * 0.004;
        let b = 0.02 + (i % 4) as f64 * 0.003;
        format!("[[0,2,{a}],[2,6,{b}]]")
    } else {
        format!("{}", 0.02 + (i % 7) as f64 * 0.003)
    }
}

fn release_at(i: usize) -> Release {
    parse_release(&release_line(i)).expect("schedule parses")
}

fn spec_tenant() -> Tenant {
    let groups = parse_population_spec(SPEC).expect("spec parses");
    Tenant::create(&groups).expect("tenant builds")
}

/// Serially replay `releases[..t]` and return per-revision observables:
/// `expected[r]` is the state after the first `r` releases (index 0 is
/// the empty accountant). Revisions map 1:1 onto releases because the
/// harness writers perform no other mutations.
struct Observed {
    max_tpl: u64,
    series: Vec<u64>,
    most_exposed: usize,
}

fn replay(t: usize) -> Vec<Observed> {
    let mut tenant = spec_tenant();
    let mut expected = Vec::with_capacity(t + 1);
    let observe_at = |snap: &tcdp::core::personalized::PopulationAccountant| Observed {
        max_tpl: if snap.num_releases() == 0 {
            0
        } else {
            snap.max_tpl().unwrap().to_bits()
        },
        series: if snap.num_releases() == 0 {
            Vec::new()
        } else {
            snap.tpl_series()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        },
        most_exposed: if snap.num_releases() == 0 {
            0
        } else {
            snap.most_exposed_user().unwrap()
        },
    };
    expected.push(observe_at(tenant.snapshot().state()));
    for i in 0..t {
        let snap = tenant.observe(&release_at(i)).unwrap();
        expected.push(observe_at(snap.state()));
    }
    expected
}

/// One query sample a reader thread recorded mid-ingest.
struct Sample {
    revision: u64,
    max_tpl: u64,
    series: Vec<u64>,
    most_exposed: usize,
}

fn check_samples(samples: &[Sample], expected: &[Observed]) {
    for s in samples {
        let rev = s.revision as usize;
        let e = &expected[rev];
        assert_eq!(s.max_tpl, e.max_tpl, "max_tpl bits at rev {rev}");
        assert_eq!(s.series, e.series, "tpl_series bits at rev {rev}");
        assert_eq!(s.most_exposed, e.most_exposed, "most exposed at rev {rev}");
    }
}

/// Library-level harness: one writer thread ingesting the schedule
/// while reader threads hammer snapshots with **forced** per-query
/// worker counts. Every sample must be bit-identical to serial replay
/// at its revision.
#[test]
fn concurrent_queries_match_serial_replay_per_revision() {
    const RELEASES: usize = 120;
    const READERS: usize = 4;

    let tenant = spec_tenant();
    let reader = tenant.reader();
    let writer = Arc::new(Mutex::new(tenant));
    let done = Arc::new(AtomicBool::new(false));
    let sampled: Arc<Vec<AtomicU64>> = Arc::new((0..READERS).map(|_| AtomicU64::new(0)).collect());

    let mut handles = Vec::new();
    for r in 0..READERS {
        let reader = reader.clone();
        let done = Arc::clone(&done);
        let sampled = Arc::clone(&sampled);
        // Force a different worker count per reader thread: 1 (serial
        // path), 2, 3, 5 — all must agree bitwise with the replay.
        let threads = [1usize, 2, 3, 5][r % 4];
        handles.push(std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !done.load(Ordering::Acquire) || samples.len() < 8 {
                let snap = reader.snapshot();
                if snap.num_releases() == 0 {
                    continue;
                }
                let (max_tpl, series, most_exposed) = (
                    snap.max_tpl_forced_parallel(threads).unwrap(),
                    snap.tpl_series_forced_parallel(threads).unwrap(),
                    snap.most_exposed_user_forced_parallel(threads).unwrap(),
                );
                samples.push(Sample {
                    revision: snap.revision(),
                    max_tpl: max_tpl.to_bits(),
                    series: series.iter().map(|v| v.to_bits()).collect(),
                    most_exposed,
                });
                sampled[r].fetch_add(1, Ordering::Release);
            }
            samples
        }));
    }

    for i in 0..RELEASES {
        writer.lock().unwrap().observe(&release_at(i)).unwrap();
        if i == 0 {
            // Hold mid-ingest until every reader has sampled an early
            // revision, so the interleaving is real on any build.
            while sampled.iter().any(|c| c.load(Ordering::Acquire) == 0) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    done.store(true, Ordering::Release);

    let expected = replay(RELEASES);
    let mut distinct = std::collections::BTreeSet::new();
    for handle in handles {
        let samples = handle.join().unwrap();
        assert!(!samples.is_empty());
        for s in &samples {
            distinct.insert(s.revision);
        }
        check_samples(&samples, &expected);
    }
    // The readers really did interleave with ingest, not just observe
    // the final state.
    assert!(
        distinct.len() >= 2,
        "readers saw only revisions {distinct:?}"
    );
}

// ---------------------------------------------------------------------
// Wire-protocol helpers shared by the socket and daemon tests.
// ---------------------------------------------------------------------

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = retry(|| TcpStream::connect(addr).ok());
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        resp.trim_end().to_string()
    }

    fn ok(&mut self, line: &str) -> String {
        let resp = self.request(line);
        assert!(resp.starts_with("OK"), "{line:?} -> {resp}");
        resp
    }
}

fn retry<T>(mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..200 {
        if let Some(v) = f() {
            return v;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("retry budget exhausted");
}

/// Pull `key=value` off a wire response and parse it.
fn field<T: std::str::FromStr>(resp: &str, key: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    let pat = format!("{key}=");
    let tail = resp
        .split(' ')
        .find_map(|tok| tok.strip_prefix(&pat))
        .unwrap_or_else(|| panic!("no {key}= in {resp:?}"));
    tail.parse().unwrap()
}

fn parse_series(resp: &str) -> Vec<u64> {
    let joined: String = field(resp, "series");
    if joined.is_empty() {
        return Vec::new();
    }
    joined
        .split(',')
        .map(|v| v.parse::<f64>().unwrap().to_bits())
        .collect()
}

/// Query one sample over the wire. The three queries may land on
/// different revisions (each loads the latest snapshot), so each query
/// is its own sample; floats round-trip to exact bits by Rust's
/// shortest-round-trip `Display`. Queries that race ahead of the first
/// observe answer `ERR core` on the empty timeline — skipped here.
fn wire_samples(client: &mut Client, tenant: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    let resp = client.request(&format!("QUERY {tenant} max_tpl"));
    if resp.starts_with("OK") {
        out.push(Sample {
            revision: field(&resp, "rev"),
            max_tpl: field::<f64>(&resp, "max_tpl").to_bits(),
            series: Vec::new(),
            most_exposed: usize::MAX,
        });
    }
    let resp = client.request(&format!("QUERY {tenant} tpl_series"));
    if resp.starts_with("OK") {
        out.push(Sample {
            revision: field(&resp, "rev"),
            max_tpl: 0,
            series: parse_series(&resp),
            most_exposed: usize::MAX,
        });
    }
    let resp = client.request(&format!("QUERY {tenant} most_exposed"));
    if resp.starts_with("OK") {
        out.push(Sample {
            revision: field(&resp, "rev"),
            max_tpl: field::<f64>(&resp, "max_tpl").to_bits(),
            series: Vec::new(),
            most_exposed: field(&resp, "user"),
        });
    }
    out
}

/// `check_samples` for wire samples, which carry only the fields their
/// query answered.
fn check_wire_samples(samples: &[Sample], expected: &[Observed]) {
    for s in samples {
        let rev = s.revision as usize;
        let e = &expected[rev];
        if !s.series.is_empty() {
            assert_eq!(s.series, e.series, "tpl_series bits at rev {rev}");
        } else {
            assert_eq!(s.max_tpl, e.max_tpl, "max_tpl bits at rev {rev}");
        }
        if s.most_exposed != usize::MAX {
            assert_eq!(s.most_exposed, e.most_exposed, "most exposed at rev {rev}");
        }
    }
}

fn spec_one_line() -> String {
    SPEC.split_whitespace().collect()
}

/// Protocol-level harness: a real TCP socket, one writer connection
/// streaming the schedule, two reader connections streaming queries.
/// Wire floats must round-trip to the serial replay's exact bits.
#[test]
fn tcp_clients_interleave_and_match_replay() {
    const RELEASES: usize = 80;

    let server = Arc::new(Server::new());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener));
    }

    let mut writer = Client::connect(&addr);
    writer.ok(&format!("CREATE acme {}", spec_one_line()));
    assert_eq!(writer.request("PING"), "OK pong");

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..2 {
        let addr = addr.clone();
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr);
            let mut samples = Vec::new();
            while !done.load(Ordering::Acquire) || samples.is_empty() {
                samples.extend(wire_samples(&mut client, "acme"));
            }
            samples
        }));
    }

    for i in 0..RELEASES {
        let resp = writer.ok(&format!("OBSERVE acme {}", release_line(i)));
        assert_eq!(field::<usize>(&resp, "t"), i + 1);
        assert_eq!(field::<u64>(&resp, "rev"), (i + 1) as u64);
    }
    done.store(true, Ordering::Release);

    let expected = replay(RELEASES);
    for handle in readers {
        let samples = handle.join().unwrap();
        assert!(!samples.is_empty());
        check_wire_samples(&samples, &expected);
    }
}

/// A release whose leakage recursion would evaluate `L` past
/// `MAX_ALPHA` (where `e^α − 1` overflows to `+∞`) is refused instead of
/// read as zero leakage. On the identity correlation `L(α) = α`, so
/// after two releases of 400 the third evaluates `L(800)`: it must
/// answer `ERR`, and the tenant must stay at revision 2 with TPL 800.
#[test]
fn release_past_the_largest_alpha_errs_and_observes_nothing() {
    let server = Arc::new(Server::new());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(listener));
    }
    let mut client = Client::connect(&addr);
    client.ok(r#"CREATE ident [{"count":1,"pb":[[1,0],[0,1]],"pf":[[1,0],[0,1]]}]"#);
    assert_eq!(client.ok("OBSERVE ident 400"), "OK rev=1 t=1");
    assert_eq!(client.ok("OBSERVE ident 400"), "OK rev=2 t=2");
    let resp = client.request("OBSERVE ident 1");
    assert!(resp.starts_with("ERR core "), "{resp}");
    let resp = client.ok("QUERY ident tpl_series");
    assert!(resp.starts_with("OK rev=2 "), "{resp}");
    assert_eq!(parse_series(&resp), [800f64.to_bits(); 2]);
}

fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "tcdp-serve-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// SNAPSHOT requests racing a live writer: every save persists *some*
/// published revision monotonically, and recovering the store mid-chain
/// state yields exactly the serial replay of that prefix.
#[test]
fn snapshots_racing_ingest_recover_a_bit_identical_prefix() {
    const RELEASES: usize = 60;
    let dir = scratch_dir("race");

    {
        let store = TenantStore::open(&dir, Some(8)).unwrap();
        let server = Arc::new(Server::with_store(store, None).unwrap());
        server.handle(&format!("CREATE acme {}", spec_one_line()));

        let done = Arc::new(AtomicBool::new(false));
        let snapshotter = {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut saves = 0usize;
                while !done.load(Ordering::Acquire) || saves == 0 {
                    let resp = server.handle("SNAPSHOT acme");
                    assert!(resp.starts_with("OK saved="), "{resp}");
                    if resp != "OK saved=unchanged" {
                        saves += 1;
                    }
                }
                saves
            })
        };

        for i in 0..RELEASES {
            let resp = server.handle(&format!("OBSERVE acme {}", release_line(i)));
            assert!(resp.starts_with("OK"), "{resp}");
        }
        done.store(true, Ordering::Release);
        let saves = snapshotter.join().unwrap();
        assert!(saves >= 1, "the snapshot thread never persisted anything");
        // No final save: recovery below sees whatever prefix the racing
        // snapshotter last completed.
    }

    let store = TenantStore::open(&dir, Some(8)).unwrap();
    let recovered = Server::with_store(store, None).unwrap();
    assert_eq!(recovered.tenant_names(), vec!["acme".to_string()]);
    let series = parse_series(&recovered.handle("QUERY acme tpl_series"));
    let t = series.len();
    assert!((1..=RELEASES).contains(&t), "recovered t={t}");

    let expected = replay(t);
    assert_eq!(series, expected[t].series, "recovered series bits");
    let resp = recovered.handle("QUERY acme max_tpl");
    assert_eq!(
        field::<f64>(&resp, "max_tpl").to_bits(),
        expected[t].max_tpl,
        "recovered max_tpl bits"
    );
    let resp = recovered.handle("QUERY acme most_exposed");
    assert_eq!(field::<usize>(&resp, "user"), expected[t].most_exposed);

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Daemon-binary crash tests: spawn the real `tcdp-serve`, kill -9 it,
// and recover on a fresh boot.
// ---------------------------------------------------------------------

struct Daemon {
    child: std::process::Child,
    addr: String,
    recovered_line: Option<String>,
}

fn spawn_daemon(dir: &Path, extra: &[&str]) -> Daemon {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_tcdp-serve"));
    cmd.args(["--tcp", "127.0.0.1:0", "--data-dir"])
        .arg(dir)
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    let mut child = cmd.spawn().expect("daemon spawns");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let mut recovered_line = None;
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon printed a listening line")
            .unwrap();
        if let Some(rest) = line.strip_prefix("listening on tcp ") {
            break rest.to_string();
        }
        if line.starts_with("recovered ") {
            recovered_line = Some(line);
        }
    };
    Daemon {
        child,
        addr,
        recovered_line,
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// With `--snapshot-every-releases 1` every acked OBSERVE is durable
/// before its OK: kill -9 right after the ack and the fresh boot must
/// hold exactly those releases, bit-identical to serial replay.
#[test]
fn acked_releases_survive_kill_nine_exactly() {
    const RELEASES: usize = 25;
    let dir = scratch_dir("ack");

    {
        let daemon = spawn_daemon(&dir, &["--snapshot-every-releases", "1"]);
        let mut client = Client::connect(&daemon.addr);
        client.ok(&format!("CREATE acme {}", spec_one_line()));
        client.ok("CEILING acme 50");
        for i in 0..RELEASES {
            client.ok(&format!("OBSERVE acme {}", release_line(i)));
        }
        // SIGKILL: no flush, no shutdown hook — the acks are all we have.
        drop(daemon);
    }

    let daemon = spawn_daemon(&dir, &[]);
    assert_eq!(
        daemon.recovered_line.as_deref(),
        Some("recovered 1 tenant(s): acme")
    );
    let mut client = Client::connect(&daemon.addr);
    let series = parse_series(&client.ok("QUERY acme tpl_series"));
    assert_eq!(series.len(), RELEASES, "every acked release survived");

    let expected = replay(RELEASES);
    assert_eq!(series, expected[RELEASES].series);
    let resp = client.ok("QUERY acme max_tpl");
    assert_eq!(
        field::<f64>(&resp, "max_tpl").to_bits(),
        expected[RELEASES].max_tpl
    );
    let resp = client.ok("QUERY acme most_exposed");
    assert_eq!(
        field::<usize>(&resp, "user"),
        expected[RELEASES].most_exposed
    );

    // The ceiling sidecar survived the crash too: a release that blows
    // the event ceiling is still rejected without being observed.
    let resp = client.request("OBSERVE acme 500.0");
    assert!(
        resp.starts_with("ERR ceiling-exceeded scope=event"),
        "{resp}"
    );
    let series = parse_series(&client.ok("QUERY acme tpl_series"));
    assert_eq!(series.len(), RELEASES);

    std::fs::remove_dir_all(&dir).ok();
}

/// kill -9 while the 1-second snapshot timer races live ingest: boot
/// recovery replays the last completed save — some prefix of the acked
/// schedule — bit-identically.
#[test]
fn kill_nine_during_timed_snapshotting_recovers_bit_identically() {
    const MAX_RELEASES: usize = 600;
    let dir = scratch_dir("kill");
    let ckpt = dir.join("acme.ckpt");

    let sent;
    {
        let daemon = spawn_daemon(
            &dir,
            &["--snapshot-every-secs", "1", "--compact-after", "16"],
        );
        let mut client = Client::connect(&daemon.addr);
        client.ok(&format!("CREATE acme {}", spec_one_line()));

        // Ingest until the timer has demonstrably completed a save (the
        // tenant's checkpoint file exists), then keep going a little so
        // the kill lands mid-ingest with the timer still running.
        let mut i = 0;
        while !ckpt.exists() {
            assert!(i < MAX_RELEASES, "snapshot timer never fired");
            client.ok(&format!("OBSERVE acme {}", release_line(i)));
            i += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        for _ in 0..40 {
            client.ok(&format!("OBSERVE acme {}", release_line(i)));
            i += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        sent = i;
        // Drop sends SIGKILL mid-stream — possibly mid-save.
        drop(daemon);
    }

    let daemon = spawn_daemon(&dir, &[]);
    assert_eq!(
        daemon.recovered_line.as_deref(),
        Some("recovered 1 tenant(s): acme")
    );
    let mut client = Client::connect(&daemon.addr);
    let series = parse_series(&client.ok("QUERY acme tpl_series"));
    let t = series.len();
    assert!(
        (1..=sent).contains(&t),
        "recovered t={t} of {sent} acked releases"
    );

    let expected = replay(t);
    assert_eq!(series, expected[t].series, "recovered series bits");
    let resp = client.ok("QUERY acme max_tpl");
    assert_eq!(
        field::<f64>(&resp, "max_tpl").to_bits(),
        expected[t].max_tpl,
        "recovered max_tpl bits"
    );
    let resp = client.ok("QUERY acme most_exposed");
    assert_eq!(field::<usize>(&resp, "user"), expected[t].most_exposed);

    // The recovered chain keeps accepting releases where it left off.
    let resp = client.ok(&format!("OBSERVE acme {}", release_line(t)));
    assert_eq!(field::<usize>(&resp, "t"), t + 1);

    std::fs::remove_dir_all(&dir).ok();
}
