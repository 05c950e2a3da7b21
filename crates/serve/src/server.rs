//! The multi-tenant registry and the request loop.
//!
//! Concurrency model: each tenant has **one writer** (its [`Tenant`]
//! behind a mutex — `OBSERVE`/`CEILING`/`HORIZON`/`REMERGE` serialize
//! per tenant) and **any number of readers**. A `QUERY` never takes the
//! writer mutex: it loads the tenant's latest published snapshot (a
//! pointer clone under the publication slot's momentary read lock) and
//! computes on that frozen state, so queries never block observes and
//! observes never block queries — and every answer is stamped with the
//! revision it is bit-identical to a serial replay of.
//!
//! [`Server::handle`] maps one request line to one response line; the
//! socket loops ([`Server::serve_tcp`], [`Server::serve_unix`]) are
//! thin line-framing wrappers around it, one thread per connection.

use crate::error::{Result, ServeError};
use crate::persist::{PersistState, SaveOutcome, TenantStore};
use crate::protocol::{parse_population_spec, parse_request, Query, Release, Request};
use crate::tenant::Tenant;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::Arc;

/// One registered tenant: its single-writer handle, its lock-free query
/// handle, and its save-chain state.
#[derive(Debug)]
struct TenantSlot {
    reader: tcdp_core::PopulationReader,
    writer: Mutex<Tenant>,
    persist: Mutex<PersistState>,
}

/// The audit daemon: a tenant registry, optionally backed by a
/// [`TenantStore`] for timed/explicit persistence and boot recovery.
#[derive(Debug)]
pub struct Server {
    tenants: RwLock<BTreeMap<String, Arc<TenantSlot>>>,
    store: Option<TenantStore>,
    /// Save a tenant after this many observed releases (`None` = only
    /// on `SNAPSHOT` requests and [`Server::persist_tick`]).
    save_every_releases: Option<usize>,
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Server {
    /// An in-memory server: no persistence, no recovery.
    pub fn new() -> Server {
        Server {
            tenants: RwLock::new(BTreeMap::new()),
            store: None,
            save_every_releases: None,
        }
    }

    /// A persistent server: recovers every tenant the store holds
    /// (snapshot + replayed delta log + ceiling sidecar), then saves on
    /// `SNAPSHOT` requests, on [`Server::persist_tick`], and — when
    /// `save_every_releases` is set — after every N observed releases.
    pub fn with_store(store: TenantStore, save_every_releases: Option<usize>) -> Result<Server> {
        let mut tenants = BTreeMap::new();
        for rec in store.recover()? {
            let tenant = Tenant::from_parts(rec.accountant, rec.ceiling);
            let slot = TenantSlot {
                reader: tenant.reader(),
                writer: Mutex::new(tenant),
                persist: Mutex::new(rec.state),
            };
            tenants.insert(rec.name, Arc::new(slot));
        }
        Ok(Server {
            tenants: RwLock::new(tenants),
            store: Some(store),
            save_every_releases,
        })
    }

    /// Names of the registered tenants, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.read().keys().cloned().collect()
    }

    fn slot(&self, name: &str) -> Result<Arc<TenantSlot>> {
        self.tenants
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Persist one tenant's **latest published** snapshot. Serialized
    /// per tenant by the persist mutex; the snapshot is re-loaded under
    /// it so concurrent saves never write an older revision after a
    /// newer one.
    fn save_slot(&self, name: &str, slot: &TenantSlot) -> Result<SaveOutcome> {
        let Some(store) = &self.store else {
            return Err(ServeError::Io(
                "no data directory configured (start with --data-dir)".into(),
            ));
        };
        let mut persist = slot.persist.lock();
        let snap = slot.reader.snapshot();
        if snap.num_releases() == 0 {
            // An empty accountant has nothing checkpointable yet; the
            // tenant becomes durable at its first persisted release.
            return Ok(SaveOutcome::Unchanged);
        }
        store.save(name, snap.state(), &mut persist)
    }

    /// Run one maintenance pass over every tenant: optionally re-merge
    /// re-converged shards, then persist the latest snapshot of each.
    /// This is what the daemon's snapshot timer calls; it returns what
    /// happened per tenant, in name order.
    pub fn persist_tick(&self, remerge: bool) -> Vec<(String, Result<SaveOutcome>)> {
        let slots: Vec<(String, Arc<TenantSlot>)> = {
            let tenants = self.tenants.read();
            tenants
                .iter()
                .map(|(n, s)| (n.clone(), Arc::clone(s)))
                .collect()
        };
        let mut out = Vec::with_capacity(slots.len());
        for (name, slot) in slots {
            if remerge {
                let merged = slot.writer.lock().remerge();
                if let Err(e) = merged {
                    out.push((name, Err(e)));
                    continue;
                }
            }
            let saved = self.save_slot(&name, &slot);
            out.push((name, saved));
        }
        out
    }

    fn create(&self, name: &str, spec: &str) -> Result<String> {
        let groups = parse_population_spec(spec)
            .map_err(|e| ServeError::BadRequest(format!("CREATE: {e}")))?;
        let tenant = Tenant::create(&groups)?;
        let snap = tenant.snapshot();
        let (users, shards) = (snap.num_users(), snap.num_groups());
        let slot = Arc::new(TenantSlot {
            reader: tenant.reader(),
            writer: Mutex::new(tenant),
            persist: Mutex::new(PersistState::default()),
        });
        {
            let mut tenants = self.tenants.write();
            if tenants.contains_key(name) {
                return Err(ServeError::DuplicateTenant(name.to_string()));
            }
            tenants.insert(name.to_string(), slot);
        }
        Ok(format!("OK created users={users} groups={shards} rev=0"))
    }

    fn observe(&self, name: &str, release: &Release) -> Result<String> {
        let slot = self.slot(name)?;
        let snap = {
            let mut writer = slot.writer.lock();
            writer.observe(release)?
        };
        if let Some(every) = self.save_every_releases {
            if self.store.is_some() {
                let due = {
                    let mut persist = slot.persist.lock();
                    persist.since += 1;
                    persist.since >= every
                };
                if due {
                    self.save_slot(name, &slot)?;
                }
            }
        }
        Ok(format!(
            "OK rev={} t={}",
            snap.revision(),
            snap.num_releases()
        ))
    }

    fn query(&self, name: &str, query: Query) -> Result<String> {
        let slot = self.slot(name)?;
        // The whole query runs on this frozen snapshot: no writer lock,
        // and the answer is exact at `rev` even mid-ingest.
        let snap = slot.reader.snapshot();
        let rev = snap.revision();
        match query {
            Query::MaxTpl => Ok(format!("OK rev={rev} max_tpl={}", snap.max_tpl()?)),
            Query::MostExposed => {
                let user = snap.most_exposed_user()?;
                Ok(format!(
                    "OK rev={rev} user={user} max_tpl={}",
                    snap.max_tpl()?
                ))
            }
            Query::TplSeries => {
                let series = snap.tpl_series()?;
                let mut joined = String::new();
                for (i, v) in series.iter().enumerate() {
                    if i > 0 {
                        joined.push(',');
                    }
                    joined.push_str(&format!("{v}"));
                }
                Ok(format!("OK rev={rev} series={joined}"))
            }
            Query::WEvent(w) => Ok(format!(
                "OK rev={rev} w={w} guarantee={}",
                snap.w_event_guarantee(w)?
            )),
        }
    }

    fn ceiling(
        &self,
        name: &str,
        alpha: Option<f64>,
        windows: Vec<(usize, f64)>,
    ) -> Result<String> {
        let slot = self.slot(name)?;
        let ceiling = {
            let mut writer = slot.writer.lock();
            writer.set_ceiling(alpha, windows)?;
            writer.ceiling().clone()
        };
        if let Some(store) = &self.store {
            store.save_meta(name, &ceiling)?;
        }
        Ok("OK ceiling-set".to_string())
    }

    fn horizon(&self, name: &str, horizon: Option<usize>) -> Result<String> {
        let slot = self.slot(name)?;
        let mut writer = slot.writer.lock();
        writer.set_horizon(horizon)?;
        Ok(format!("OK rev={}", writer.snapshot().revision()))
    }

    fn remerge(&self, name: &str) -> Result<String> {
        let slot = self.slot(name)?;
        let mut writer = slot.writer.lock();
        let merges = writer.remerge()?;
        let snap = writer.snapshot();
        Ok(format!(
            "OK rev={} merges={merges} groups={}",
            snap.revision(),
            snap.num_groups()
        ))
    }

    fn snapshot(&self, name: &str) -> Result<String> {
        let slot = self.slot(name)?;
        let outcome = self.save_slot(name, &slot)?;
        Ok(format!("OK saved={}", outcome.as_str()))
    }

    /// Map one request line to one response line (no trailing newline).
    /// This is the protocol's entire semantics; the socket loops only
    /// frame it.
    pub fn handle(&self, line: &str) -> String {
        let result = parse_request(line).and_then(|req| match req {
            Request::Ping => Ok("OK pong".to_string()),
            Request::Tenants => {
                let names = self.tenant_names();
                let mut out = format!("OK tenants={}", names.len());
                for n in &names {
                    out.push(' ');
                    out.push_str(n);
                }
                Ok(out)
            }
            Request::Create { tenant, spec } => self.create(&tenant, &spec),
            Request::Observe { tenant, release } => self.observe(&tenant, &release),
            Request::Query { tenant, query } => self.query(&tenant, query),
            Request::Ceiling {
                tenant,
                alpha,
                windows,
            } => self.ceiling(&tenant, alpha, windows),
            Request::Horizon { tenant, horizon } => self.horizon(&tenant, horizon),
            Request::Remerge { tenant } => self.remerge(&tenant),
            Request::Snapshot { tenant } => self.snapshot(&tenant),
        });
        match result {
            Ok(ok) => ok,
            Err(e) => format!("ERR {} {e}", e.code()),
        }
    }

    /// Serve line-delimited requests from every connection accepted on
    /// `listener`, one thread per connection, until accept fails.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let server = Arc::clone(self);
            let writer = stream.try_clone()?;
            std::thread::spawn(move || {
                let _ = client_loop(&server, BufReader::new(stream), writer);
            });
        }
        Ok(())
    }

    /// [`Server::serve_tcp`] over a Unix domain socket.
    pub fn serve_unix(self: &Arc<Self>, listener: UnixListener) -> std::io::Result<()> {
        for stream in listener.incoming() {
            let stream = stream?;
            let server = Arc::clone(self);
            let writer = stream.try_clone()?;
            std::thread::spawn(move || {
                let _ = client_loop(&server, BufReader::new(stream), writer);
            });
        }
        Ok(())
    }
}

/// One connection: read request lines, write one response line each,
/// with one write call (one `sendmsg` on the unbuffered socket).
/// Blank lines are ignored; EOF ends the session.
fn client_loop(
    server: &Server,
    input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut response = server.handle(&line);
        response.push('\n');
        output.write_all(response.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str =
        r#"[{"count":2,"pb":[[0.9,0.1],[0.05,0.95]],"pf":[[0.9,0.1],[0.05,0.95]]},{"count":2}]"#;

    /// A sink that counts its `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_loop_writes_each_response_line_in_one_call() {
        let server = Server::new();
        let mut out = CountingWriter::default();
        client_loop(&server, "PING\n\n  \nTENANTS\nPING".as_bytes(), &mut out).unwrap();
        assert_eq!(out.bytes, b"OK pong\nOK tenants=0\nOK pong\n");
        assert_eq!(out.calls, 3, "one write per response");
    }

    fn ok(server: &Server, line: &str) -> String {
        let resp = server.handle(line);
        assert!(resp.starts_with("OK"), "{line:?} -> {resp}");
        resp
    }

    #[test]
    fn protocol_round_trip() {
        let server = Server::new();
        assert_eq!(server.handle("PING"), "OK pong");
        assert_eq!(server.handle("TENANTS"), "OK tenants=0");
        ok(&server, &format!("CREATE acme {SPEC}"));
        assert_eq!(server.handle("TENANTS"), "OK tenants=1 acme");
        assert_eq!(ok(&server, "OBSERVE acme 0.1"), "OK rev=1 t=1");
        ok(&server, "OBSERVE acme [[0,2,0.05],[2,4,0.2]]");

        let resp = ok(&server, "QUERY acme max_tpl");
        assert!(resp.starts_with("OK rev=2 max_tpl="));
        let resp = ok(&server, "QUERY acme most_exposed");
        assert!(resp.contains(" user="), "{resp}");
        let resp = ok(&server, "QUERY acme tpl_series");
        assert_eq!(resp.matches(',').count(), 1); // two live points
        let resp = ok(&server, "QUERY acme wevent 2");
        assert!(resp.contains("guarantee="), "{resp}");

        // The wire floats round-trip to the exact snapshot bits.
        let snap = server.slot("acme").unwrap().reader.snapshot();
        let wire = ok(&server, "QUERY acme max_tpl");
        let v: f64 = wire.rsplit('=').next().unwrap().parse().unwrap();
        assert_eq!(v.to_bits(), snap.max_tpl().unwrap().to_bits());
    }

    #[test]
    fn errors_have_stable_codes() {
        let server = Server::new();
        assert!(server
            .handle("OBSERVE ghost 0.1")
            .starts_with("ERR unknown-tenant"));
        ok(&server, &format!("CREATE acme {SPEC}"));
        assert!(server
            .handle(&format!("CREATE acme {SPEC}"))
            .starts_with("ERR duplicate-tenant"));
        assert!(server.handle("NOPE").starts_with("ERR bad-request"));
        assert!(
            server.handle("SNAPSHOT acme").starts_with("ERR io"),
            "in-memory server has no store"
        );

        ok(&server, "CEILING acme 0.2");
        let resp = server.handle("OBSERVE acme 5.0");
        assert!(
            resp.starts_with("ERR ceiling-exceeded scope=event"),
            "{resp}"
        );
        // The rejected release was never observed.
        assert_eq!(ok(&server, "OBSERVE acme 0.01"), "OK rev=1 t=1");
    }

    #[test]
    fn remerge_and_horizon_over_the_wire() {
        let server = Server::new();
        ok(
            &server,
            "CREATE acme [{\"count\":4,\"pf\":[[0.8,0.2],[0.1,0.9]]}]",
        );
        ok(&server, "OBSERVE acme [[0,2,0.1],[2,4,0.2]]");
        ok(&server, "OBSERVE acme [[0,2,0.2],[2,4,0.1]]");
        ok(&server, "OBSERVE acme 0.05");
        ok(&server, "HORIZON acme 1");
        let resp = ok(&server, "REMERGE acme");
        assert!(resp.contains("merges=1 groups=1"), "{resp}");
    }
}
