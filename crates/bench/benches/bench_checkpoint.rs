//! Checkpoint encoding benchmarks: the full binary (v3) snapshot at
//! T = 10⁵, the incremental delta append, and the copy-resume vs
//! mmap-view read path.
//!
//! * `ckpt/bin_snapshot` — the v3 binary envelope: raw `f64` sections,
//!   `O(T)` bytes but a plain memory copy.
//! * `ckpt/delta_1000` — a delta record covering 1 000 releases
//!   appended since the last snapshot: `O(appended)` work and bytes,
//!   independent of `T`.
//! * `resume/copy/100000` — read the snapshot file, materialize a full
//!   accountant (`resume_bytes`), and answer the worst-TPL audit: the
//!   eager path, `O(T)` heap allocation per resume.
//! * `resume/mmap/100000` — map the same file (`MappedSnapshot`), parse
//!   a borrowed [`SnapshotView`], and answer the same audit in place:
//!   no `O(T)` heap allocation at all.
//!
//! The headline asserts the replay is bit-identical to the live
//! accountant, that delta records actually cost `O(appended)` bytes,
//! and — via an instrumented global allocator — that the mmap view
//! path answers the audit without `O(T)` heap allocation while running
//! at least 10× faster than the copy resume (the PR 9 perf floor,
//! gated in CI by `check_bench` over the `resume/mmap` vs `resume/copy`
//! pair).

use criterion::{criterion_group, criterion_main, Criterion};
use stats_alloc::StatsAlloc;
use std::alloc::System;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tcdp_core::checkpoint::{resume_bytes, MappedSnapshot, SavedState};
use tcdp_core::TplAccountant;
use tcdp_markov::TransitionMatrix;

/// Instrumented system allocator so the headline can *assert* the
/// zero-copy claim (mmap audit allocates no `O(T)` payload buffers)
/// instead of hoping for it.
#[global_allocator]
static ALLOC: StatsAlloc<System> = StatsAlloc::system();

const T_LEN: usize = 100_000;
const APPEND: usize = 1_000;
const EPS: f64 = 0.01;

fn matrix() -> TransitionMatrix {
    TransitionMatrix::from_rows(vec![vec![0.8, 0.2], vec![0.1, 0.9]]).expect("matrix")
}

/// A warmed accountant at `t` releases (series cache filled, so the
/// snapshot carries FPL/TPL sections — the worst case for save size).
fn accountant(t: usize) -> TplAccountant {
    let mut acc = TplAccountant::with_both(matrix(), matrix()).expect("accountant");
    acc.observe_uniform(EPS, t).expect("observe");
    acc.tpl_series().expect("series");
    acc
}

/// Write the warmed snapshot once to a scratch file both resume benches
/// read back, mirroring the real stop/resume flow (a file on disk, not
/// an in-memory buffer).
fn snapshot_file(t: usize) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tcdp_bench_ckpt_{}.bin", std::process::id()));
    std::fs::write(&path, accountant(t).checkpoint_binary()).expect("write snapshot");
    path
}

/// The audit both resume paths answer: the worst cached TPL bound.
fn max_tpl(acc: &TplAccountant) -> f64 {
    acc.tpl_series()
        .expect("series")
        .iter()
        .fold(f64::NEG_INFINITY, |m, &v| m.max(v))
}

fn bench_bin_snapshot(c: &mut Criterion) {
    let acc = accountant(T_LEN);
    c.bench_function("ckpt/bin_snapshot", |b| {
        b.iter(|| black_box(acc.checkpoint_binary().len()))
    });
}

fn bench_delta(c: &mut Criterion) {
    let mut acc = accountant(T_LEN);
    let cursor = acc.delta_cursor();
    acc.observe_uniform(EPS, APPEND).expect("observe");
    c.bench_function("ckpt/delta_1000", |b| {
        b.iter(|| {
            let delta = acc.checkpoint_delta(black_box(&cursor)).expect("delta");
            black_box(delta.to_bytes().len())
        })
    });
}

/// Eager resume: read the file, decode every section into owned
/// vectors, rebuild the accountant, answer the audit.
fn bench_resume_copy(c: &mut Criterion) {
    let path = snapshot_file(T_LEN);
    c.bench_function("resume/copy/100000", |b| {
        b.iter(|| {
            let bytes = std::fs::read(black_box(&path)).expect("read snapshot");
            let acc = match resume_bytes(&bytes, None).expect("resume") {
                SavedState::Tpl(a) => a,
                _ => unreachable!("tpl snapshot"),
            };
            black_box(max_tpl(&acc))
        })
    });
}

/// Zero-copy resume: map the file, parse the borrowed view, answer the
/// same audit straight off the mapped section bytes.
fn bench_resume_mmap(c: &mut Criterion) {
    let path = snapshot_file(T_LEN);
    c.bench_function("resume/mmap/100000", |b| {
        b.iter(|| {
            let mapped = MappedSnapshot::open(black_box(&path)).expect("map snapshot");
            let view = mapped.view().expect("view");
            black_box(view.max_cached_tpl().expect("tpl section"))
        })
    });
}

/// Size/time sweep + the acceptance assertions: delta checkpoints write
/// `O(appended)` bytes, not `O(T)`; snapshot+delta replays land on the
/// live state bit for bit; and the mmap view answers the worst-TPL
/// audit with no `O(T)` heap allocation, ≥ 10× faster than the
/// materializing copy resume.
fn headline() {
    let mut acc = accountant(T_LEN);
    let snapshot = acc.checkpoint_binary();
    let cursor = acc.delta_cursor();
    acc.observe_uniform(EPS, APPEND).expect("observe");
    let delta = acc.checkpoint_delta(&cursor).expect("delta");
    let delta_bytes = delta.to_bytes();

    // Replay correctness first: snapshot + delta == live, bit for bit.
    let resumed = match resume_bytes(&snapshot, Some(&delta_bytes)).expect("resume") {
        SavedState::Tpl(a) => a,
        _ => unreachable!("tpl snapshot"),
    };
    assert_eq!(resumed.len(), acc.len());
    let live_bits: Vec<u64> = acc
        .tpl_series()
        .expect("series")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let resumed_bits: Vec<u64> = resumed
        .tpl_series()
        .expect("series")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(live_bits, resumed_bits, "replay must be bit-identical");

    // O(appended) bytes: the delta is proportional to what was appended
    // (two f64 tails plus a small witness/meta constant) and far below
    // the full snapshot, and doubling the appended span roughly doubles
    // the record instead of re-paying O(T).
    let bin_len = acc.checkpoint_binary().len();
    assert!(
        delta_bytes.len() < bin_len / 20,
        "delta ({} B) must be far below the snapshot ({bin_len} B)",
        delta_bytes.len()
    );
    let cursor2 = {
        let mut probe = accountant(T_LEN);
        let cur = probe.delta_cursor();
        probe.observe_uniform(EPS, 2 * APPEND).expect("observe");
        probe
            .checkpoint_delta(&cur)
            .expect("delta")
            .to_bytes()
            .len()
    };
    assert!(
        cursor2 < 3 * delta_bytes.len(),
        "2x appends must cost ~2x bytes ({cursor2} vs {})",
        delta_bytes.len()
    );

    // The zero-copy floor: same snapshot file, same audit, measured
    // best-of-N wall clock and exact allocator counters (single
    // threaded, so the relaxed counters are exact).
    let path = snapshot_file(T_LEN);

    let copy_audit = || {
        let bytes = std::fs::read(&path).expect("read snapshot");
        let acc = match resume_bytes(&bytes, None).expect("resume") {
            SavedState::Tpl(a) => a,
            _ => unreachable!("tpl snapshot"),
        };
        max_tpl(&acc)
    };
    let mmap_audit = || {
        let mapped = MappedSnapshot::open(&path).expect("map snapshot");
        let view = mapped.view().expect("view");
        view.max_cached_tpl()
            .expect("tpl section")
            .expect("cached series")
    };

    let before = ALLOC.stats();
    let copy_worst = copy_audit();
    let copy_alloc = (ALLOC.stats() - before).bytes_allocated;

    let before = ALLOC.stats();
    let mmap_worst = mmap_audit();
    let mmap_alloc = (ALLOC.stats() - before).bytes_allocated;

    assert_eq!(
        copy_worst.to_bits(),
        mmap_worst.to_bits(),
        "both read paths must answer the audit identically"
    );
    // The copy path owns every section (four f64 series of length T
    // plus the file read itself), so it allocates at least 8·T bytes;
    // the mmap view must stay orders of magnitude below that — nothing
    // proportional to T, only the mapping handle, the section table,
    // and error-path scratch.
    assert!(
        copy_alloc >= 8 * T_LEN,
        "copy resume allocated only {copy_alloc} B — expected O(T) payload buffers"
    );
    assert!(
        mmap_alloc < T_LEN,
        "mmap audit allocated {mmap_alloc} B — the view must not copy section payloads"
    );

    let best_of = |reps: usize, f: &dyn Fn() -> f64| {
        let mut best = Duration::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            black_box(f());
            best = best.min(t0.elapsed());
        }
        best
    };
    let copy_best = best_of(10, &copy_audit);
    let mmap_best = best_of(100, &mmap_audit);
    let speedup = copy_best.as_secs_f64() / mmap_best.as_secs_f64();
    assert!(
        speedup >= 10.0,
        "mmap audit must be >= 10x faster than copy resume at T = {T_LEN} \
         (copy {copy_best:?} vs mmap {mmap_best:?}, {speedup:.1}x)"
    );
    std::fs::remove_file(&path).ok();

    let timed = |f: &mut dyn FnMut() -> usize| {
        let t0 = Instant::now();
        let len = f();
        (len, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (bin_size, bin_ms) = timed(&mut || acc.checkpoint_binary().len());
    let (delta_size, delta_ms) = timed(&mut || {
        acc.checkpoint_delta(&cursor)
            .expect("delta")
            .to_bytes()
            .len()
    });
    println!(
        "headline: T={T_LEN}: binary snapshot {:.2} MB in {bin_ms:.2} ms, \
         delta (+{APPEND}) {:.1} KB in {delta_ms:.3} ms; \
         audit via copy {:.2} ms / {:.1} MB alloc vs mmap {:.3} ms / {:.1} KB alloc \
         ({speedup:.0}x)",
        bin_size as f64 / 1e6,
        delta_size as f64 / 1e3,
        copy_best.as_secs_f64() * 1e3,
        copy_alloc as f64 / 1e6,
        mmap_best.as_secs_f64() * 1e3,
        mmap_alloc as f64 / 1e3,
    );
}

fn bench_headline(c: &mut Criterion) {
    let _ = c;
    headline();
}

criterion_group!(
    benches,
    bench_bin_snapshot,
    bench_delta,
    bench_resume_copy,
    bench_resume_mmap,
    bench_headline
);
criterion_main!(benches);
