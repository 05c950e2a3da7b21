//! The traced run: the socket run's requests replayed in-process with the
//! same two-thread mix and the same closed loop ([`Pace`]), timing the
//! calls into each layer's public functions in the daemon's order.
//!
//! Spans are recorded around those calls from this file only; nothing
//! inside the program is instrumented. `Tenant::observe` is one call, so
//! its breakdown comes from a twin accountant fed the same admitted
//! releases on the ingest thread: the same `PopulationAccountant::clone`,
//! `observe_release*` and ceiling checks, timed one by one. The twin owns
//! its loss functions, so its Algorithm 1 evaluation counts are exact.
//! `trace.coverage_frac` (twin time over real call time) shows when the
//! twin stops mirroring the program.
//!
//! A layer a workload's daemon never calls reads 0, noted as not
//! exercised on that workload.

use crate::daemon::{copy_store, Prepared, SocketRun};
use crate::oracle::Verdict;
use crate::pace::Pace;
use crate::stats::{self, summarize};
use crate::workload::{Workload, COMPACT_AFTER};
use crate::Metric;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tcdp_core::checkpoint::{self, SavedState};
use tcdp_core::personalized::PopulationAccountant;
use tcdp_core::PopulationReader;
use tcdp_serve::{
    parse_population_spec, parse_request, Ceiling, PersistState, Query, Release, Request,
    SaveOutcome, Tenant, TenantStore,
};

/// Share of the socket run's measured ingest the traced and untraced
/// replays cover, after replaying its warm-up.
const REPLAY_SHARE: f64 = 0.5;
/// Tenants whose matrices `alg1.eval_us` samples.
const EVAL_TENANTS: usize = 4;
/// Request ids: ingest line `i` is `i`, query `k` is `QUERY_REQ + k`,
/// set-up line `j` is `SETUP_REQ + j`; the Algorithm 1 sample uses
/// `SAMPLE_REQ`. Only ids below `SETUP_REQ` are measured requests.
const QUERY_REQ: u64 = 1 << 40;
const SETUP_REQ: u64 = 1 << 41;
const SAMPLE_REQ: u64 = 1 << 42;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// One thread's span recorder. Spans stay in memory until the replay
/// ends; with `on == false` nothing is recorded.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) {
        if self.on {
            let start = self.now();
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
                req,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    pub fn end(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.now();
        }
    }

    /// Record from now on (`true`) or stop recording (`false`).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn timed<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

fn evals(p: &PopulationAccountant) -> u64 {
    // Sums per shard; exact because these workloads never split shards,
    // so no two shards share a loss function.
    p.shards().map(|(_, a)| a.loss_eval_count()).sum()
}

/// The ceiling checks `Tenant::observe` runs on its candidate.
fn admits(next: &PopulationAccountant, c: &Ceiling) -> Result<bool, String> {
    if let Some(alpha) = c.alpha {
        if next.max_tpl().map_err(|e| e.to_string())? > alpha {
            return Ok(false);
        }
    }
    for &(w, limit) in &c.windows {
        if next.num_releases() >= w && next.w_event_guarantee(w).map_err(|e| e.to_string())? > limit
        {
            return Ok(false);
        }
    }
    Ok(true)
}

fn run_query(p: &PopulationAccountant, q: Query) -> Result<f64, String> {
    match q {
        Query::MaxTpl => p.max_tpl(),
        Query::MostExposed => p.most_exposed_user().and_then(|_| p.max_tpl()),
        Query::TplSeries => p.tpl_series().map(|s| s.len() as f64),
        Query::WEvent(w) => p.w_event_guarantee(w),
    }
    .map_err(|e| e.to_string())
}

fn query_span(q: Query) -> &'static str {
    match q {
        Query::MaxTpl => "personalized.max_tpl",
        Query::MostExposed => "personalized.most_exposed",
        Query::TplSeries => "personalized.tpl_series",
        Query::WEvent(_) => "personalized.wevent",
    }
}

/// Bytes one clone deep-copies, from public sizes: the membership map,
/// every shard's member list, and every shard's resident f64s.
fn clone_bytes(p: &PopulationAccountant) -> usize {
    let words: usize = p
        .shards()
        .map(|(members, acc)| members.len() + acc.resident_f64s())
        .sum();
    8 * (p.num_users() + words)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// What one replay measured beyond its spans.
#[derive(Default)]
struct Counts {
    wall_s: f64,
    attempted: usize,
    admitted: usize,
    observe_evals: Vec<f64>,
    query_evals: Vec<f64>,
    clone_bytes: Vec<f64>,
    /// Per measured OBSERVE, the twin's mirrored time over the real
    /// `Tenant::observe` time; and both totals.
    coverage: Vec<f64>,
    twin_ns: u64,
    real_ns: u64,
    saves: BTreeMap<&'static str, Vec<f64>>,
    bytes_written: u64,
    recover_ms: Option<f64>,
    shards: Vec<f64>,
}

struct Setup {
    tenants: Vec<Tenant>,
    twins: Vec<PopulationAccountant>,
    persist: Vec<PersistState>,
    store: Option<TenantStore>,
}

/// Build the tenants as the daemon would: from the set-up lines, or for
/// `durable` by recovering a copy of the prepared directory. Twins are
/// built independently so they share no loss functions with the tenants.
fn set_up(
    w: &Workload,
    prep: Option<&Prepared>,
    store_dir: &Path,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<Setup, String> {
    let e = |e: tcdp_serve::ServeError| e.to_string();
    if let Some(prep) = prep {
        copy_store(&prep.dir, store_dir)?;
        let store = TenantStore::open(store_dir, Some(COMPACT_AFTER)).map_err(e)?;
        let t0 = Instant::now();
        let recovered = tr
            .timed("persist.recover", SETUP_REQ, || store.recover())
            .map_err(e)?;
        counts.recover_ms = Some(t0.elapsed().as_secs_f64() * 1e3);
        let mut s = Setup {
            tenants: Vec::new(),
            twins: Vec::new(),
            persist: Vec::new(),
            store: None,
        };
        for (j, rec) in recovered.into_iter().enumerate() {
            if rec.name != w.tenants[j] {
                return Err(format!(
                    "recovered {} where {} was expected",
                    rec.name, w.tenants[j]
                ));
            }
            let path = prep.dir.join(format!("{}.ckpt", rec.name));
            let twin = tr.timed("checkpoint.resume", SETUP_REQ + j as u64, || {
                checkpoint::resume_file(&path)
            });
            let Ok(SavedState::Population(twin)) = twin else {
                return Err(format!(
                    "{}: not a resumable population checkpoint",
                    path.display()
                ));
            };
            s.twins.push(twin);
            s.tenants
                .push(Tenant::from_parts(rec.accountant, rec.ceiling));
            s.persist.push(rec.state);
        }
        s.store = Some(store);
        return Ok(s);
    }
    let mut tenants: Vec<Tenant> = Vec::new();
    let mut twins: Vec<PopulationAccountant> = Vec::new();
    for (j, line) in w.setup.iter().enumerate() {
        let req = SETUP_REQ + j as u64;
        let parsed = tr
            .timed("protocol.parse", req, || parse_request(line))
            .map_err(e)?;
        match parsed {
            Request::Create { spec, .. } => {
                let groups = tr.timed("protocol.spec", req, || parse_population_spec(&spec))?;
                tenants.push(
                    tr.timed("tenant.create", req, || Tenant::create(&groups))
                        .map_err(e)?,
                );
                twins.push(
                    Tenant::create(&groups)
                        .map_err(e)?
                        .snapshot()
                        .state()
                        .clone(),
                );
            }
            Request::Horizon { horizon, .. } => {
                let (t, twin) = (tenants.last_mut(), twins.last_mut());
                let (Some(t), Some(twin)) = (t, twin) else {
                    return Err("HORIZON before CREATE".into());
                };
                tr.timed("tenant.horizon", req, || t.set_horizon(horizon))
                    .map_err(e)?;
                twin.set_horizon(horizon).map_err(|e| e.to_string())?;
            }
            Request::Ceiling { alpha, windows, .. } => {
                let (t, twin) = (tenants.last_mut(), twins.last_mut());
                let (Some(t), Some(twin)) = (t, twin) else {
                    return Err("CEILING before CREATE".into());
                };
                for &(win, _) in &windows {
                    twin.track_w_event(win).map_err(|e| e.to_string())?;
                }
                tr.timed("tenant.ceiling", req, || t.set_ceiling(alpha, windows))
                    .map_err(e)?;
            }
            other => return Err(format!("unexpected set-up request {other:?}")),
        }
    }
    Ok(Setup {
        persist: tenants.iter().map(|_| PersistState::default()).collect(),
        tenants,
        twins,
        store: None,
    })
}

/// One in-process replay of the first `n` ingest lines and the queries
/// the socket run sent within them. `traced` adds spans, the twin, and
/// eval counting; the untraced replay makes only the real calls.
fn replay(
    w: &Workload,
    prep: Option<&Prepared>,
    run: &SocketRun,
    n: usize,
    store_dir: &Path,
    traced: bool,
) -> Result<(Counts, Vec<Span>, Vec<Span>), String> {
    let epoch = Instant::now();
    let mut counts = Counts::default();
    let mut itr = Tracer::new(epoch, traced);
    let mut s = set_up(w, prep, store_dir, &mut itr, &mut counts)?;
    let readers: Vec<PopulationReader> = s.tenants.iter().map(Tenant::reader).collect();
    let index: BTreeMap<&str, usize> = w
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.as_str(), i))
        .collect();
    let nq = run.queries.len().min(n / w.ratio);
    // Queries the socket run answered at (tenant, revision): the twin
    // re-runs them at that revision to count evaluations exactly.
    let mut at_rev: BTreeMap<(usize, u64), Vec<Query>> = BTreeMap::new();
    for (k, answer) in run.queries[..nq].iter().enumerate() {
        let (Some(r), Ok(Request::Query { tenant, query })) = (
            answer.as_deref().and_then(crate::wire::rev),
            parse_request(&w.queries[k]),
        ) else {
            continue;
        };
        if let Some(&x) = index.get(tenant.as_str()) {
            at_rev.entry((x, r)).or_default().push(query);
        }
    }
    let count_queries = |x: usize,
                         r: u64,
                         twin: &PopulationAccountant,
                         counts: &mut Counts|
     -> Result<(), String> {
        for q in at_rev.get(&(x, r)).into_iter().flatten() {
            let before = evals(twin);
            run_query(twin, *q)?;
            counts.query_evals.push((evals(twin) - before) as f64);
        }
        Ok(())
    };
    if traced {
        for (x, twin) in s.twins.iter().enumerate() {
            count_queries(x, s.tenants[x].snapshot().revision(), twin, &mut counts)?;
        }
    }

    let pace = Pace::new(w.ratio);
    let measuring = AtomicBool::new(false);
    let mut qtr = Tracer::new(epoch, false);
    let mut start = Instant::now();
    let ingest_result = std::thread::scope(|scope| -> Result<(), String> {
        let querier = scope.spawn(|| -> Result<(), String> {
            let mut query = |k: usize| -> Result<(), String> {
                let req = QUERY_REQ + k as u64;
                qtr.set_on(traced && measuring.load(Ordering::SeqCst));
                qtr.begin("request", req);
                let parsed = qtr.timed("protocol.parse", req, || parse_request(&w.queries[k]));
                let Ok(Request::Query { tenant, query }) = parsed else {
                    return Err(format!("not a query: {}", w.queries[k]));
                };
                let x = *index
                    .get(tenant.as_str())
                    .ok_or("query for an unknown tenant")?;
                let snap = qtr.timed("shared.load", req, || readers[x].snapshot());
                qtr.timed(query_span(query), req, || run_query(&snap, query))?;
                drop(snap);
                qtr.end();
                Ok(())
            };
            let mut out = Ok(());
            for k in 0..nq {
                if !pace.before_query(k) {
                    break;
                }
                out = query(k);
                if out.is_err() {
                    break;
                }
                pace.answered();
            }
            pace.querier_done();
            out
        });
        let out = (|| -> Result<(), String> {
            for i in 0..n {
                pace.before_line(i);
                let req = i as u64;
                let x = w.ingest_tenant[i];
                if i == w.warmup {
                    start = Instant::now();
                    measuring.store(true, Ordering::SeqCst);
                }
                let measured = i >= w.warmup;
                itr.set_on(traced && measured);
                itr.begin("request", req);
                let parsed = itr.timed("protocol.parse", req, || parse_request(&w.ingest[i]));
                let Ok(Request::Observe { release, .. }) = parsed else {
                    return Err(format!("not an observe: {}", w.ingest[i]));
                };
                let t0 = Instant::now();
                let out = itr.timed("tenant.observe", req, || s.tenants[x].observe(&release));
                let real_ns = t0.elapsed().as_nanos() as u64;
                let admitted = match out {
                    Ok(_) => true,
                    Err(tcdp_serve::ServeError::CeilingExceeded { .. }) => false,
                    Err(e) => return Err(format!("{}: {e}", w.ingest[i])),
                };
                if measured {
                    counts.real_ns += real_ns;
                    counts.attempted += 1;
                    counts.admitted += usize::from(admitted);
                }
                if traced {
                    // The twin follows the warm-up too; only measured
                    // requests count.
                    let mut dropped = Counts::default();
                    let c = if measured { &mut counts } else { &mut dropped };
                    let twin_ns = twin_observe(&mut itr, req, &mut s, x, &release, admitted, c)?;
                    c.twin_ns += twin_ns;
                    c.coverage.push(twin_ns as f64 / real_ns.max(1) as f64);
                    if admitted && measured {
                        let r = s.tenants[x].snapshot().revision();
                        count_queries(x, r, &s.twins[x], &mut counts)?;
                    }
                }
                if let (Some(store), true) = (&s.store, admitted) {
                    let mut dropped = Counts::default();
                    let c = if measured { &mut counts } else { &mut dropped };
                    let snap = s.tenants[x].snapshot();
                    save(
                        &mut itr,
                        req,
                        store,
                        &w.tenants[x],
                        snap.state(),
                        &mut s.persist[x],
                        c,
                    )?;
                }
                itr.end();
                pace.acked(i + 1);
            }
            Ok(())
        })();
        counts.wall_s = start.elapsed().as_secs_f64();
        // After a full replay every remaining query has its acks; only a
        // failed one stops the query side early.
        if out.is_err() {
            pace.stop();
        }
        let q = querier
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        out.and(q)
    });
    ingest_result?;
    counts.shards = s.twins.iter().map(|t| t.num_groups() as f64).collect();
    if traced {
        // Needs the final twin state; keep its spans with the rest.
        itr.set_on(true);
        alg1_eval_sample(w, &s.twins, &mut itr)?;
    }
    Ok((counts, itr.spans, qtr.spans))
}

/// `Tenant::observe`'s breakdown on the twin: clone, observe, ceiling
/// checks, then install (admitted) or drop (rejected) the candidate.
/// Returns the nanoseconds the mirrored steps took.
fn twin_observe(
    tr: &mut Tracer,
    req: u64,
    s: &mut Setup,
    x: usize,
    release: &Release,
    admitted: bool,
    counts: &mut Counts,
) -> Result<u64, String> {
    let ceiling = s.tenants[x].ceiling().clone();
    counts.clone_bytes.push(clone_bytes(&s.twins[x]) as f64);
    let before = evals(&s.twins[x]);
    let t0 = Instant::now();
    let mut cand = tr.timed("personalized.clone", req, || s.twins[x].clone());
    tr.timed("personalized.observe", req, || match release {
        Release::Uniform(eps) => cand.observe_release(*eps),
        Release::Ranges(ranges) => cand.observe_release_personalized(ranges),
    })
    .map_err(|e| e.to_string())?;
    let ok = if ceiling.is_unlimited() {
        true
    } else {
        tr.timed("tenant.admit", req, || admits(&cand, &ceiling))?
    };
    counts.observe_evals.push((evals(&cand) - before) as f64);
    if ok != admitted {
        return Err(format!(
            "the twin {} a release the tenant {}",
            if ok { "admitted" } else { "rejected" },
            if admitted { "admitted" } else { "rejected" }
        ));
    }
    if ok {
        tr.timed("personalized.install", req, || s.twins[x] = cand);
    } else {
        tr.timed("personalized.discard", req, || drop(cand));
    }
    Ok(t0.elapsed().as_nanos() as u64)
}

fn save(
    tr: &mut Tracer,
    req: u64,
    store: &TenantStore,
    name: &str,
    pop: &PopulationAccountant,
    state: &mut PersistState,
    counts: &mut Counts,
) -> Result<(), String> {
    let ckpt = store.dir().join(format!("{name}.ckpt"));
    let log = checkpoint::delta_log_path(&ckpt);
    let log_before = file_len(&log);
    let t0 = Instant::now();
    let outcome = tr
        .timed("persist.save", req, || store.save(name, pop, state))
        .map_err(|e| e.to_string())?;
    let us = t0.elapsed().as_secs_f64() * 1e6;
    counts.saves.entry(outcome.as_str()).or_default().push(us);
    counts.bytes_written += match outcome {
        SaveOutcome::DeltaAppended => file_len(&log).saturating_sub(log_before),
        SaveOutcome::Snapshot | SaveOutcome::Compacted => file_len(&ckpt),
        SaveOutcome::Unchanged => 0,
    };
    if outcome == SaveOutcome::Compacted {
        tr.timed("checkpoint.encode", req, || pop.checkpoint_binary());
    }
    Ok(())
}

/// `TemporalLossFunction::eval` on the workload's own matrices, at the
/// BPL values the twin accumulated (the leakage the workload produced).
fn alg1_eval_sample(
    w: &Workload,
    twins: &[PopulationAccountant],
    tr: &mut Tracer,
) -> Result<(), String> {
    let creates = w.setup.iter().filter_map(|l| match parse_request(l) {
        Ok(Request::Create { spec, .. }) => Some(spec),
        _ => None,
    });
    for (x, spec) in creates.enumerate().take(EVAL_TENANTS) {
        let groups = parse_population_spec(&spec)?;
        for (g, (_, acc)) in groups.iter().zip(twins[x].shards()) {
            let Some(loss) = g.adversary.backward_loss() else {
                continue;
            };
            for &alpha in acc.bpl_series() {
                tr.timed("alg1.eval", SAMPLE_REQ, || loss.eval(alpha))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(())
}

struct SpanStats {
    dur_us: Vec<f64>,
    self_us: Vec<f64>,
}

fn by_name(spans: &[Span], measured_only: bool) -> BTreeMap<&'static str, SpanStats> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        if measured_only && s.req >= SETUP_REQ {
            continue;
        }
        let e = out.entry(s.name).or_insert(SpanStats {
            dur_us: Vec::new(),
            self_us: Vec::new(),
        });
        e.dur_us.push((s.end - s.start) as f64 / 1e3);
        e.self_us.push(self_ns as f64 / 1e3);
    }
    out
}

pub fn per_layer(
    w: &Workload,
    prep: Option<&Prepared>,
    run: &SocketRun,
    verdict: &Verdict,
    work: &Path,
) -> Result<Vec<Metric>, String> {
    let measured = run.ingest.len().saturating_sub(w.warmup);
    let n = (w.warmup + (measured as f64 * REPLAY_SHARE) as usize + 1).min(run.ingest.len());
    let (counts, ingest_spans, query_spans) =
        replay(w, prep, run, n, &work.join("traced-store"), true)?;
    let (plain, _, _) = replay(w, prep, run, n, &work.join("plain-store"), false)?;

    let mut spans = ingest_spans;
    let offset = spans.len();
    spans.extend(query_spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    let all = by_name(&spans, false);
    let measured = by_name(&spans, true);
    println!(
        "  traced replay: {} measured ingest requests after {} warm-up; spans by layer (duration p50 / self p50, total self):",
        n - w.warmup.min(n),
        w.warmup
    );
    for (name, st) in &all {
        println!(
            "    {name:<28} n={:<7} dur p50={:>10.1}us self p50={:>10.1}us self total={:>9.1}ms",
            st.dur_us.len(),
            stats::percentile(&sorted(&st.dur_us), 50.0),
            stats::percentile(&sorted(&st.self_us), 50.0),
            st.self_us.iter().sum::<f64>() / 1e3
        );
    }

    let wl = w.kind.name();
    let persistent = w.persistent();
    let frac = |num: usize, den: usize| num as f64 / den.max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let p50 = |v: &[f64]| stats::percentile(&sorted(v), 50.0);
    // A span metric: the percentile of the span's durations, from the
    // measured requests, else from set-up or recovery.
    let span = |metric: &'static str, unit: &'static str, name: &str, pct: f64| -> Metric {
        let scale = if unit == "ms" { 1e-3 } else { 1.0 };
        let Some(st) = measured.get(name).or_else(|| all.get(name)) else {
            return Metric::new(metric, unit, 0.0, format!("not exercised on {wl}"));
        };
        let v = stats::percentile(&sorted(&st.dur_us), pct) * scale;
        let n = st.dur_us.len();
        Metric::new(metric, unit, v, format!("p{pct} of {name}, n={n}"))
    };
    let saves = |k: SaveOutcome| counts.saves.get(k.as_str()).map_or(&[][..], Vec::as_slice);
    let save_all: Vec<f64> = counts.saves.values().flatten().copied().collect();
    let compacts = saves(SaveOutcome::Compacted);
    let store = |metric: &'static str, unit: &'static str, v: f64, note: String| {
        if persistent {
            Metric::new(metric, unit, v, note)
        } else {
            Metric::new(
                metric,
                unit,
                0.0,
                format!("not exercised on {wl}: in memory"),
            )
        }
    };
    let handle = summarize(&verdict.handle_us);
    let ping = summarize(&run.ping_us);
    let hits = counts.query_evals.iter().filter(|&&e| e == 0.0).count();
    let nq = counts.query_evals.len();
    Ok(vec![
        span("protocol.parse_us", "us", "protocol.parse", 50.0),
        span("protocol.spec_ms", "ms", "protocol.spec", 50.0),
        Metric::new("server.handle_us", "us", handle.p50, format!("output check, {}", handle.describe("us"))),
        Metric::new("server.ping_rtt_us", "us", ping.p50, format!("socket, {}", ping.describe("us"))),
        span("tenant.create_ms", "ms", "tenant.create", 50.0),
        span("tenant.observe_us", "us", "tenant.observe", 50.0),
        span("tenant.admit_us", "us", "tenant.admit", 50.0),
        Metric::new(
            "tenant.admitted_frac",
            "fraction",
            frac(counts.admitted, counts.attempted),
            format!("{} of {} OBSERVEs admitted", counts.admitted, counts.attempted),
        ),
        span("shared.load_us", "us", "shared.load", 99.0),
        span("personalized.clone_us", "us", "personalized.clone", 50.0),
        Metric::new(
            "personalized.clone_mb",
            "MB",
            mean(&counts.clone_bytes) / 1e6,
            format!("mean over {} clones, from users, members and resident_f64s", counts.clone_bytes.len()),
        ),
        span("personalized.observe_us", "us", "personalized.observe", 50.0),
        span("personalized.max_tpl_us", "us", "personalized.max_tpl", 50.0),
        span("personalized.most_exposed_us", "us", "personalized.most_exposed", 50.0),
        span("personalized.wevent_us", "us", "personalized.wevent", 50.0),
        Metric::new(
            "personalized.shards",
            "count",
            mean(&counts.shards),
            format!("mean over {} tenants", counts.shards.len()),
        ),
        Metric::new(
            "alg1.evals_per_observe",
            "count",
            mean(&counts.observe_evals),
            format!("twin, {} OBSERVEs", counts.observe_evals.len()),
        ),
        Metric::new(
            "alg1.evals_per_query",
            "count",
            mean(&counts.query_evals),
            format!("twin at the socket run's revisions, {nq} queries"),
        ),
        span("alg1.eval_us", "us", "alg1.eval", 50.0),
        Metric::new(
            "accountant.cache_hit_frac",
            "fraction",
            frac(hits, nq),
            format!("{hits} of {nq} queries needed no evaluation"),
        ),
        store(
            "persist.save_us",
            "us",
            p50(&save_all),
            format!("p50 of TenantStore::save, n={}", save_all.len()),
        ),
        store(
            "persist.compact_us",
            "us",
            p50(compacts),
            format!("p50 of Compacted saves, n={}", compacts.len()),
        ),
        store(
            "persist.bytes_per_observe",
            "bytes",
            frac(counts.bytes_written as usize, counts.admitted),
            "appended record or rewritten snapshot per acked OBSERVE".to_string(),
        ),
        store("persist.saves_delta", "count", saves(SaveOutcome::DeltaAppended).len() as f64, String::new()),
        store("persist.saves_compacted", "count", compacts.len() as f64, String::new()),
        store("persist.saves_snapshot", "count", saves(SaveOutcome::Snapshot).len() as f64, String::new()),
        store(
            "persist.recover_ms",
            "ms",
            counts.recover_ms.unwrap_or(0.0),
            "TenantStore::recover of the whole directory".to_string(),
        ),
        span("checkpoint.encode_us", "us", "checkpoint.encode", 50.0),
        span("checkpoint.resume_us", "us", "checkpoint.resume", 50.0),
        Metric::new(
            "proc.sys_frac",
            "fraction",
            run.cpu_sys_s / (run.cpu_user_s + run.cpu_sys_s).max(1e-9),
            "socket run: kernel share of daemon CPU",
        ),
        Metric::new("host.steal_frac", "fraction", run.steal_frac, "socket run: hypervisor steal share"),
        Metric::new(
            "failed_frac",
            "fraction",
            frac(verdict.failed, verdict.attempted),
            format!(
                "socket run: {} of {} checked answers missing or different from the replay",
                verdict.failed, verdict.attempted
            ),
        ),
        Metric::new(
            "trace.coverage_frac",
            "fraction",
            stats::median(&counts.coverage),
            format!(
                "median over {} OBSERVEs of twin clone+observe+admit+install over Tenant::observe; ratio of totals {:.3}",
                counts.coverage.len(),
                counts.twin_ns as f64 / counts.real_ns.max(1) as f64
            ),
        ),
        Metric::new(
            "trace.overhead_frac",
            "fraction",
            (counts.wall_s - plain.wall_s) / plain.wall_s,
            format!("traced {:.2} s vs untraced {:.2} s replay", counts.wall_s, plain.wall_s),
        ),
    ])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)), // overlaps a: 30..40 is new
            span("c", 50, 60, Some(0)),
            span("a.leaf", 12, 15, Some(1)),
            span("late", 95, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 10 - 5, 17, 20, 10, 3, 25]
        );
    }

    #[test]
    fn tracer_nests_and_can_be_switched_off() {
        let mut tr = Tracer::new(Instant::now(), true);
        tr.begin("request", 7);
        let v = tr.timed("inner", 7, || 41 + 1);
        tr.end();
        assert_eq!(v, 42);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[0].start <= tr.spans[1].start && tr.spans[1].end <= tr.spans[0].end);
        let mut off = Tracer::new(Instant::now(), false);
        off.begin("request", 1);
        off.timed("inner", 1, || ());
        off.end();
        assert!(off.spans.is_empty());
    }
}
