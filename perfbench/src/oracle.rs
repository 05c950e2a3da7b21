//! The output check: replay the exact requests of a socket run in-process
//! through `tcdp_serve::Server::handle`, serially, and compare every
//! answer the daemon gave.
//!
//! * OBSERVE responses must match exactly (rejections included: an
//!   `ERR ceiling-exceeded` the replay also gives is a correct answer).
//! * A QUERY stamped `rev=r` must match, bit for bit, the replay's answer
//!   while that tenant sits at revision `r`.
//! * `durable`: the replay ingests the preparation history in memory; the
//!   daemon recovered it from disk. A recovered tenant publishes revision
//!   0 again while `t` continues, so the daemon's stamps are shifted by
//!   the tenant's revision at the kill before comparing. The recovered
//!   state itself is checked against the in-memory replay of the acked
//!   prefix.

use crate::daemon::{Prepared, SocketRun};
use crate::wire;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use tcdp_serve::{Server, TenantStore};

#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests whose answer was checked (setup, history, pings, ingest,
    /// queries).
    pub attempted: usize,
    /// Answers missing or different from the replay.
    pub failed: usize,
    /// The first few disagreements, for the report.
    pub examples: Vec<String>,
    /// `Server::handle` wall time per request of the measured phase, µs.
    pub handle_us: Vec<f64>,
    /// Requests the daemon answered with an error the replay also gave
    /// (ceiling rejections).
    pub rejected: usize,
}

impl Verdict {
    fn check(&mut self, what: &str, got: Option<&str>, want: &str) {
        self.attempted += 1;
        let ok = got.is_some_and(|g| wire::same_answer(g, want));
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(format!(
                    "{what}: daemon {:?}, replay {want:?}",
                    got.unwrap_or("<no reply>")
                ));
            }
        }
    }
}

fn tenant_of(line: &str) -> Option<&str> {
    line.split_whitespace().nth(1)
}

/// Check a recovered data directory against the in-memory replay: every
/// tenant present, with the same `t`, TPL series and worst TPL bits.
fn check_recovery(
    server: &Server,
    w: &Workload,
    dir: &Path,
    t_at_kill: &BTreeMap<&str, u64>,
    v: &mut Verdict,
) -> Result<(), String> {
    let store = TenantStore::open(dir, None).map_err(|e| e.to_string())?;
    let recovered = store
        .recover()
        .map_err(|e| format!("recovery check: {e}"))?;
    v.attempted += 1;
    if recovered.len() != w.tenants.len() {
        v.failed += 1;
        v.examples.push(format!(
            "recovered {} tenants, prepared {}",
            recovered.len(),
            w.tenants.len()
        ));
    }
    for rec in recovered {
        let pop = &rec.accountant;
        let series = pop.tpl_series().map_err(|e| e.to_string())?;
        let series: Vec<String> = series.iter().map(|x| format!("{x}")).collect();
        let max = pop.max_tpl().map_err(|e| e.to_string())?;
        let want_series = server.handle(&format!("QUERY {} tpl_series", rec.name));
        let want_max = server.handle(&format!("QUERY {} max_tpl", rec.name));
        let got = format!(
            "t={} series={} max_tpl={max}",
            pop.num_releases(),
            series.join(",")
        );
        let want = format!(
            "t={} series={} max_tpl={}",
            t_at_kill.get(rec.name.as_str()).copied().unwrap_or(0),
            wire::field(&want_series, "series").unwrap_or("?"),
            wire::field(&want_max, "max_tpl").unwrap_or("?")
        );
        v.check(&format!("recovered {}", rec.name), Some(&got), &want);
    }
    Ok(())
}

pub fn replay(w: &Workload, prep: Option<&Prepared>, run: &SocketRun) -> Result<Verdict, String> {
    let server = Server::new();
    let mut v = Verdict::default();
    let index: BTreeMap<&str, usize> = w
        .tenants
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let idx = |line: &str| -> Result<usize, String> {
        tenant_of(line)
            .and_then(|n| index.get(n).copied())
            .ok_or_else(|| format!("request names no known tenant: {line:.60}"))
    };

    // The replay's revision of each tenant when the measured phase starts,
    // and the offset between its stamps and the daemon's.
    let mut offset = vec![0u64; w.tenants.len()];
    match prep {
        Some(prep) => {
            for (line, got) in w.setup.iter().zip(&prep.setup_responses) {
                v.check("preparation set-up", Some(got), &server.handle(line));
            }
            let mut t_at_kill = BTreeMap::new();
            for (line, got) in w.history.iter().zip(&prep.history_responses) {
                let want = server.handle(line);
                if let (Some(r), Some(t)) = (wire::rev(&want), wire::t(&want)) {
                    offset[idx(line)?] = r;
                    t_at_kill.insert(tenant_of(line).unwrap_or_default(), t);
                }
                v.check("preparation history", Some(got), &want);
            }
            let check_dir = prep.dir.with_extension("check");
            crate::daemon::copy_store(&prep.dir, &check_dir)?;
            check_recovery(&server, w, &check_dir, &t_at_kill, &mut v)?;
            let _ = std::fs::remove_dir_all(&check_dir);
        }
        None => {
            for (line, got) in w.setup.iter().zip(&run.setup_responses) {
                v.check("set-up", Some(got), &server.handle(line));
            }
        }
    }
    v.attempted += run.setup_disagreements + run.ping_us.len() + run.pings_failed;
    v.failed += run.setup_disagreements + run.pings_failed;
    let mut rev: Vec<u64> = w
        .start_rev
        .iter()
        .zip(&offset)
        .map(|(s, o)| s + o)
        .collect();

    // Queries keyed by (tenant, replay revision) they were answered at.
    let mut pending: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for (k, answer) in run.queries.iter().enumerate() {
        let x = idx(&w.queries[k])?;
        match answer.as_deref().and_then(wire::rev) {
            Some(r) => pending.entry((x, r + offset[x])).or_default().push(k),
            None => v.check(&w.queries[k], answer.as_deref(), "<a rev-stamped answer>"),
        }
    }
    let mut answer_queries = |x: usize, r: u64, v: &mut Verdict| {
        for k in pending.remove(&(x, r)).unwrap_or_default() {
            let t0 = Instant::now();
            let want = server.handle(&w.queries[k]);
            if k >= run.first_measured_query {
                v.handle_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let got = run.queries[k]
                .as_deref()
                .and_then(|g| wire::shift_rev(g, offset[x] as i64));
            v.check(&w.queries[k], got.as_deref(), &want);
        }
    };
    for (x, &r) in rev.iter().enumerate() {
        answer_queries(x, r, &mut v);
    }
    for (i, got) in run.ingest.iter().enumerate() {
        let line = &w.ingest[i];
        let x = w.ingest_tenant[i];
        let t0 = Instant::now();
        let want = server.handle(line);
        if i >= w.warmup {
            v.handle_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        if want.starts_with("ERR") {
            v.rejected += 1;
        }
        let got = got.as_deref().map(|g| match wire::rev(g) {
            Some(_) => wire::shift_rev(g, offset[x] as i64).unwrap_or_default(),
            None => g.to_string(),
        });
        v.check(line, got.as_deref(), &want);
        if let Some(r) = wire::rev(&want) {
            if r != rev[x] + 1 {
                return Err(format!(
                    "revision model broken at {line}: replay at rev {r}, expected {}",
                    rev[x] + 1
                ));
            }
            rev[x] = r;
            answer_queries(x, r, &mut v);
        }
    }
    // Queries stamped with a revision the replay never reached.
    for ks in pending.into_values() {
        for k in ks {
            v.check(
                &w.queries[k],
                run.queries[k].as_deref(),
                "<a revision the replay reached>",
            );
        }
    }
    Ok(v)
}
