//! The daemon's line-delimited wire protocol.
//!
//! One request per line, one response line per request. Responses start
//! with `OK` or `ERR <code>`; numeric fields are formatted with Rust's
//! shortest-round-trip float printing, so a client parsing them back
//! recovers the exact `f64` bits the daemon computed.
//!
//! ```text
//! CREATE   <tenant> <population-json>
//! OBSERVE  <tenant> <eps | [[start,end,eps],...]>
//! QUERY    <tenant> max_tpl | most_exposed | tpl_series | wevent <w>
//! CEILING  <tenant> <alpha|off> [<w>:<limit> ...]
//! HORIZON  <tenant> <H|off>
//! REMERGE  <tenant>
//! SNAPSHOT <tenant>
//! TENANTS
//! PING
//! ```
//!
//! The population JSON is the same group-array the CLI's
//! `--population` flag takes (the CLI parses it through this module):
//! `[{"count": N, "pb": M?, "pf": M?}, ...]`, users numbered `0..` in
//! group order. `OBSERVE` payloads are one release: a bare ε every user
//! spends, or `[[start,end,eps],...]` personalized user ranges.

use crate::error::ServeError;
use std::ops::Range;
use tcdp_core::AdversaryT;
use tcdp_markov::TransitionMatrix;

/// One adversary group of a population spec: a contiguous user range
/// sharing one correlation model.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// The users in this group (`0..` numbering in spec order).
    pub users: Range<usize>,
    /// The group's adversary model.
    pub adversary: AdversaryT,
}

/// The largest `count` a population spec accepts: 2^53, past which
/// consecutive integers are no longer all representable as `f64`.
const MAX_EXACT_COUNT: f64 = 9_007_199_254_740_992.0;

/// Parse a population spec: a JSON array of
/// `{"count": N, "pb": M?, "pf": M?}` objects. Users are numbered `0..`
/// in group order. Errors are plain human-readable strings so callers
/// (the daemon, the CLI flag parser) can prefix their own context.
///
/// A `count` above 2^53 is refused: beyond it not every integer is an
/// `f64`, so the number read may not be the one written. So is a spec
/// whose user numbering would overflow `usize`.
pub fn parse_population_spec(text: &str) -> std::result::Result<Vec<GroupSpec>, String> {
    use serde::{Deserialize as _, Value};
    let v: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Value::Seq(entries) = &v else {
        return Err("expected a JSON array of group objects".into());
    };
    if entries.is_empty() {
        return Err("at least one group is required".into());
    }
    let mut groups = Vec::with_capacity(entries.len());
    let mut start = 0usize;
    for (g, entry) in entries.iter().enumerate() {
        let count = match entry.get("count") {
            Some(Value::Num(n)) if *n >= 1.0 && n.fract() == 0.0 && *n <= MAX_EXACT_COUNT => {
                *n as u64
            }
            _ => {
                return Err(format!(
                    "groups[{g}]: `count` must be a positive integer of at most 2^53"
                ))
            }
        };
        let end = usize::try_from(count)
            .ok()
            .and_then(|count| start.checked_add(count))
            .ok_or_else(|| format!("groups[{g}]: user numbering overflows at {start} + {count}"))?;
        let side = |k: &str| -> std::result::Result<Option<TransitionMatrix>, String> {
            match entry.get(k) {
                None | Some(Value::Null) => Ok(None),
                Some(v) => {
                    let rows = Vec::<Vec<f64>>::from_value(v)
                        .map_err(|e| format!("groups[{g}].{k}: {e}"))?;
                    TransitionMatrix::from_rows(rows)
                        .map(Some)
                        .map_err(|e| format!("groups[{g}].{k}: {e}"))
                }
            }
        };
        let adversary = match (side("pb")?, side("pf")?) {
            (Some(b), Some(f)) => {
                AdversaryT::with_both(b, f).map_err(|e| format!("groups[{g}]: {e}"))?
            }
            (Some(b), None) => AdversaryT::with_backward(b),
            (None, Some(f)) => AdversaryT::with_forward(f),
            (None, None) => AdversaryT::traditional(),
        };
        groups.push(GroupSpec {
            users: start..end,
            adversary,
        });
        start = end;
    }
    Ok(groups)
}

/// One release to observe: shared or personalized.
#[derive(Debug, Clone, PartialEq)]
pub enum Release {
    /// Every user spends this ε.
    Uniform(f64),
    /// `[start, end)` user ranges, each with its ε; must cover every
    /// user exactly once (the accountant validates coverage).
    Ranges(Vec<(Range<usize>, f64)>),
}

/// Parse an `OBSERVE` payload: a bare ε or a `[[start,end,eps],...]`
/// range array.
pub fn parse_release(text: &str) -> crate::error::Result<Release> {
    let t = text.trim();
    if t.starts_with('[') {
        let triples: Vec<Vec<f64>> = serde_json::from_str(t)
            .map_err(|e| ServeError::BadRequest(format!("release '{t}': {e}")))?;
        let mut out = Vec::with_capacity(triples.len());
        for (i, tr) in triples.iter().enumerate() {
            let [s, e, eps] = tr.as_slice() else {
                return Err(ServeError::BadRequest(format!(
                    "release range entry {i} must be [start, end, eps]"
                )));
            };
            if s.fract() != 0.0 || e.fract() != 0.0 || *s < 0.0 || *e < 0.0 {
                return Err(ServeError::BadRequest(format!(
                    "release range entry {i}: bounds must be non-negative integers"
                )));
            }
            out.push((*s as usize..*e as usize, *eps));
        }
        Ok(Release::Ranges(out))
    } else {
        t.parse::<f64>()
            .map(Release::Uniform)
            .map_err(|e| ServeError::BadRequest(format!("release '{t}': {e}")))
    }
}

/// A `QUERY` subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Worst TPL over users and times — the population's current α.
    MaxTpl,
    /// Index (and worst TPL) of the most exposed user.
    MostExposed,
    /// The per-time population TPL series over the live window.
    TplSeries,
    /// The Theorem 2 w-event guarantee for this window length.
    WEvent(usize),
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a tenant from a population spec.
    Create { tenant: String, spec: String },
    /// Observe one release (subject to the tenant's ceiling).
    Observe { tenant: String, release: Release },
    /// Answer a query from the latest published snapshot.
    Query { tenant: String, query: Query },
    /// Set (or clear, with `off`) the admission ceiling.
    Ceiling {
        tenant: String,
        alpha: Option<f64>,
        windows: Vec<(usize, f64)>,
    },
    /// Arm (or disarm, with `off`) the fold horizon.
    Horizon {
        tenant: String,
        horizon: Option<usize>,
    },
    /// Coalesce re-converged shards.
    Remerge { tenant: String },
    /// Persist the tenant's current snapshot now.
    Snapshot { tenant: String },
    /// List registered tenants.
    Tenants,
    /// Liveness check.
    Ping,
}

fn validate_tenant_name(name: &str) -> crate::error::Result<String> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(name.to_string())
    } else {
        Err(ServeError::InvalidTenantName(name.to_string()))
    }
}

/// Parse one request line. Verbs are case-sensitive (upper-case);
/// payloads keep their spacing (a `CREATE` spec may contain spaces).
pub fn parse_request(line: &str) -> crate::error::Result<Request> {
    let line = line.trim();
    let mut parts = line.splitn(3, ' ');
    let verb = parts.next().unwrap_or_default();
    let arg = |p: Option<&str>| -> crate::error::Result<String> {
        p.map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .ok_or_else(|| ServeError::BadRequest(format!("{verb}: missing argument")))
    };
    match verb {
        "PING" => Ok(Request::Ping),
        "TENANTS" => Ok(Request::Tenants),
        "CREATE" => {
            let tenant = validate_tenant_name(&arg(parts.next())?)?;
            let spec = arg(parts.next())?;
            Ok(Request::Create { tenant, spec })
        }
        "OBSERVE" => {
            let tenant = validate_tenant_name(&arg(parts.next())?)?;
            let release = parse_release(&arg(parts.next())?)?;
            Ok(Request::Observe { tenant, release })
        }
        "QUERY" => {
            let tenant = validate_tenant_name(&arg(parts.next())?)?;
            let what = arg(parts.next())?;
            let mut what = what.split_whitespace();
            let query = match what.next() {
                Some("max_tpl") => Query::MaxTpl,
                Some("most_exposed") => Query::MostExposed,
                Some("tpl_series") => Query::TplSeries,
                Some("wevent") => {
                    let w = what
                        .next()
                        .and_then(|t| t.parse::<usize>().ok())
                        .filter(|&w| w >= 1)
                        .ok_or_else(|| {
                            ServeError::BadRequest("QUERY wevent needs a window length >= 1".into())
                        })?;
                    Query::WEvent(w)
                }
                other => {
                    return Err(ServeError::BadRequest(format!(
                        "QUERY: unknown subject '{}' (expected max_tpl, \
                         most_exposed, tpl_series, or wevent <w>)",
                        other.unwrap_or_default()
                    )))
                }
            };
            if let Some(extra) = what.next() {
                return Err(ServeError::BadRequest(format!(
                    "QUERY: unexpected trailing '{extra}'"
                )));
            }
            Ok(Request::Query { tenant, query })
        }
        "CEILING" => {
            let tenant = validate_tenant_name(&arg(parts.next())?)?;
            let rest = arg(parts.next())?;
            let mut tokens = rest.split_whitespace();
            let alpha = match tokens.next() {
                Some("off") => None,
                Some(t) => Some(
                    t.parse::<f64>()
                        .map_err(|e| ServeError::BadRequest(format!("CEILING alpha '{t}': {e}")))?,
                ),
                None => {
                    return Err(ServeError::BadRequest(
                        "CEILING needs an alpha (or 'off')".into(),
                    ))
                }
            };
            let mut windows = Vec::new();
            for tok in tokens {
                let Some((w, limit)) = tok.split_once(':') else {
                    return Err(ServeError::BadRequest(format!(
                        "CEILING window '{tok}': expected <w>:<limit>"
                    )));
                };
                let w = w.parse::<usize>().ok().filter(|&w| w >= 1).ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "CEILING window '{tok}': window length must be >= 1"
                    ))
                })?;
                let limit = limit
                    .parse::<f64>()
                    .map_err(|e| ServeError::BadRequest(format!("CEILING window '{tok}': {e}")))?;
                windows.push((w, limit));
            }
            Ok(Request::Ceiling {
                tenant,
                alpha,
                windows,
            })
        }
        "HORIZON" => {
            let tenant = validate_tenant_name(&arg(parts.next())?)?;
            let rest = arg(parts.next())?;
            let horizon = match rest.as_str() {
                "off" => None,
                t => Some(t.parse::<usize>().ok().filter(|&h| h >= 1).ok_or_else(|| {
                    ServeError::BadRequest(format!(
                        "HORIZON '{t}': expected a length >= 1 or 'off'"
                    ))
                })?),
            };
            Ok(Request::Horizon { tenant, horizon })
        }
        "REMERGE" => Ok(Request::Remerge {
            tenant: validate_tenant_name(&arg(parts.next())?)?,
        }),
        "SNAPSHOT" => Ok(Request::Snapshot {
            tenant: validate_tenant_name(&arg(parts.next())?)?,
        }),
        "" => Err(ServeError::BadRequest("empty request line".into())),
        other => Err(ServeError::BadRequest(format!("unknown verb '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("TENANTS").unwrap(), Request::Tenants);
        assert_eq!(
            parse_request("OBSERVE acme 0.1").unwrap(),
            Request::Observe {
                tenant: "acme".into(),
                release: Release::Uniform(0.1)
            }
        );
        assert_eq!(
            parse_request("OBSERVE acme [[0,2,0.1],[2,4,0.2]]").unwrap(),
            Request::Observe {
                tenant: "acme".into(),
                release: Release::Ranges(vec![(0..2, 0.1), (2..4, 0.2)])
            }
        );
        assert_eq!(
            parse_request("QUERY acme wevent 24").unwrap(),
            Request::Query {
                tenant: "acme".into(),
                query: Query::WEvent(24)
            }
        );
        assert_eq!(
            parse_request("CEILING acme 2.5 24:1.0 168:4.0").unwrap(),
            Request::Ceiling {
                tenant: "acme".into(),
                alpha: Some(2.5),
                windows: vec![(24, 1.0), (168, 4.0)]
            }
        );
        assert_eq!(
            parse_request("CEILING acme off").unwrap(),
            Request::Ceiling {
                tenant: "acme".into(),
                alpha: None,
                windows: vec![]
            }
        );
        assert_eq!(
            parse_request("HORIZON acme 100").unwrap(),
            Request::Horizon {
                tenant: "acme".into(),
                horizon: Some(100)
            }
        );
    }

    #[test]
    fn bad_requests_are_typed() {
        for line in [
            "",
            "NOPE",
            "OBSERVE",
            "OBSERVE acme",
            "OBSERVE acme abc",
            "QUERY acme wevent",
            "QUERY acme wevent 0",
            "QUERY acme everything",
            "QUERY acme max_tpl trailing",
            "CEILING acme 1.0 24",
            "HORIZON acme 0",
        ] {
            assert!(
                matches!(parse_request(line), Err(ServeError::BadRequest(_))),
                "line {line:?} should be a bad request"
            );
        }
        assert!(matches!(
            parse_request("OBSERVE bad/name 0.1"),
            Err(ServeError::InvalidTenantName(_))
        ));
        let too_long = format!("OBSERVE {} 0.1", "a".repeat(65));
        assert!(matches!(
            parse_request(&too_long),
            Err(ServeError::InvalidTenantName(_))
        ));
    }

    #[test]
    fn population_spec_numbers_users_in_group_order() {
        let groups =
            parse_population_spec(r#"[{"count": 3, "pb": [[0.9,0.1],[0.2,0.8]]}, {"count": 2}]"#)
                .unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].users, 0..3);
        assert_eq!(groups[1].users, 3..5);
        assert!(parse_population_spec("[]").is_err());
        assert!(parse_population_spec(r#"[{"count": 0}]"#).is_err());
        assert!(parse_population_spec("{}").is_err());
        // Counts past 2^53 are refused, so neither a saturating cast
        // (1e300) nor a pair of huge counts (1e19 + 1e19) reaches the
        // numbering; a sum past usize::MAX is refused too. Every error
        // names its group.
        let huge = parse_population_spec(r#"[{"count": 1e300}]"#).unwrap_err();
        assert!(huge.starts_with("groups[0]: "), "{huge}");
        let exact = parse_population_spec(r#"[{"count": 9007199254740992}]"#).unwrap();
        assert_eq!(exact[0].users, 0..1 << 53);
        let wrap = parse_population_spec(r#"[{"count": 1e19}, {"count": 1e19}]"#).unwrap_err();
        assert!(wrap.starts_with("groups[0]: "), "{wrap}");
        // 2048 groups of 2^53 users number exactly 2^64: the last one
        // overflows.
        let many = format!("[{}]", [r#"{"count": 9007199254740992}"#; 2048].join(","));
        let sum = parse_population_spec(&many).unwrap_err();
        assert!(sum.starts_with("groups[2047]: "), "{sum}");
    }
}
