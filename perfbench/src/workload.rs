//! The four seeded traffic mixes. Every request line the daemon sees is
//! written here from `(kind, seed)`; the streams are prefix-stable, so a
//! longer run replays a shorter run's requests first.
//!
//! Why each mix exists is recorded in `perfbench/README.md`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcdp_core::supremum::supremum_of_matrix;
use tcdp_markov::TransitionMatrix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fleet,
    Million,
    Durable,
    Ceiling,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Fleet, Kind::Million, Kind::Durable, Kind::Ceiling];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fleet => "fleet",
            Kind::Million => "million",
            Kind::Durable => "durable",
            Kind::Ceiling => "ceiling",
        }
    }

    /// Ingest lines generated per measured second: comfortably above
    /// the fastest acked rate each mix reaches, so a run never runs dry.
    fn lines_per_second(self) -> usize {
        match self {
            Kind::Fleet => 6000,
            Kind::Million => 1500,
            Kind::Durable => 8000,
            Kind::Ceiling => 1000,
        }
    }

    /// Measured OBSERVEs after which the daemon's `VmHWM` is read: a
    /// fixed amount of work, below what a run reaches, so the figure does
    /// not depend on how far a run got while tenants still grow.
    pub fn rss_after(self) -> usize {
        match self {
            Kind::Fleet => 6000,
            Kind::Million => 200,
            Kind::Durable => 20_000,
            Kind::Ceiling => 600,
        }
    }

    /// Whether the socket run pins its two client/daemon connection
    /// pairs to a core each, swapping them every 1000 acks. Only
    /// `durable`: its OBSERVE is a 0.1 ms round trip, and left to the
    /// scheduler the ingest pair moved between sharing a core and waking
    /// each other across cores, which moved acked/s by up to 1.8x between
    /// runs of the same code. The other mixes fan a request out over
    /// threads the daemon spawns, which would inherit a pinned thread's
    /// single core.
    pub fn pins_pairs(self) -> bool {
        self == Kind::Durable
    }

    /// Ingest lines sent before the measured phase: enough that the
    /// tenants the mix keeps busy hold a full `HORIZON` window, so query
    /// and admission cost no longer grow with `t` while it is measured.
    fn warmup(self) -> usize {
        match self {
            Kind::Fleet => 4000,
            Kind::Million => 2 * HORIZON,
            // Durable tenants start from a recovered history that already
            // fills every window; a few OBSERVEs per tenant settle the
            // recovered daemon before it is measured.
            Kind::Durable => 4 * DURABLE_TENANTS,
            // `HORIZON` rounds over every tenant, all admitted: each
            // admission's FPL rebuild grows with `t` until the window is
            // full, so every tenant starts the measured phase full.
            Kind::Ceiling => CEILING_TENANTS * HORIZON,
        }
    }
}

pub const HORIZON: usize = 64;
/// `durable`'s `--compact-after`: every 16th delta record of a tenant
/// folds its log into a fresh snapshot.
pub const COMPACT_AFTER: usize = 16;
const FLEET_TENANTS: usize = 1000;
const FLEET_GROUPS: usize = 16;
const MILLION_USERS: [usize; 3] = [333_334, 333_333, 333_333];
/// Few enough that the preparation fills every tenant's `HORIZON` window
/// (about 14,600 persisted releases), so the cost of an OBSERVE or a
/// query does not grow with `t` while it is measured.
const DURABLE_TENANTS: usize = 200;
/// Random releases per tenant after the full-window rounds, so the
/// tenants' logs stand at different distances from their next compaction.
const DURABLE_EXTRA_PER_TENANT: usize = 8;
const CEILING_TENANTS: usize = 16;
/// States of each `ceiling` tenant's four groups. Every tenant gets the
/// same sizes, so the cost of an admission, which grows with n, does not
/// depend on the seed; the seed draws the matrices.
const CEILING_STATES: [usize; 4] = [16, 21, 26, 32];
const CEILING_WINDOW: usize = 16;
/// Normal per-release budgets of `ceiling`; `CEILING_EPS_HI` is the largest.
const CEILING_EPS: [&str; 3] = ["0.02", "0.05", "0.1"];
const CEILING_EPS_HI: f64 = 0.1;
const CEILING_SPIKE_P: f64 = 0.1;

/// One workload's complete request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub kind: Kind,
    pub tenants: Vec<String>,
    /// CREATE / CEILING / HORIZON lines. For `durable` these go to the
    /// preparation daemon; the measured daemon recovers them instead.
    pub setup: Vec<String>,
    /// Revision of each tenant's published state when the measured phase
    /// starts: CREATE publishes 0, HORIZON and each CEILING window one
    /// more each; a recovered tenant restarts at 0.
    pub start_rev: Vec<u64>,
    /// `durable` only: OBSERVE lines the preparation daemon acks before
    /// it is killed.
    pub history: Vec<String>,
    /// Measured-phase OBSERVE lines and each line's tenant index.
    pub ingest: Vec<String>,
    pub ingest_tenant: Vec<usize>,
    /// `queries[k]` is sent once the ingest connection has `ratio * (k+1)`
    /// acks, and must be answered before ingest line `ratio * (k+2)` is
    /// sent (see `pace.rs`).
    pub queries: Vec<String>,
    pub ratio: usize,
    /// The first `warmup` ingest lines (and the queries sent meanwhile)
    /// run before the measured phase; their answers are still checked.
    pub warmup: usize,
    /// `durable` only: the daemon's persistence flags.
    pub persist_flags: Vec<String>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64, seconds: u64) -> Result<Workload, String> {
        let warmup = kind.warmup();
        let lines = warmup + kind.lines_per_second() * seconds.max(1) as usize;
        // Each mix draws from its own stream, so seeds are comparable
        // across mixes without sharing draws.
        let mut rng =
            StdRng::seed_from_u64(seed ^ (kind as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut w = match kind {
            Kind::Fleet => fleet(&mut rng, lines),
            Kind::Million => million(&mut rng, lines),
            Kind::Durable => durable(&mut rng, lines),
            Kind::Ceiling => ceiling(&mut rng, lines, warmup)?,
        };
        w.warmup = warmup;
        Ok(w)
    }

    pub fn persistent(&self) -> bool {
        !self.persist_flags.is_empty()
    }
}

/// A sticky 2-state matrix `[[x, 1-x], [1-y, y]]` with `x, y` in
/// thousandths, printed exactly so rows sum to one.
fn mat2(x: u32, y: u32) -> String {
    format!(
        "[[0.{x:03},0.{:03}],[0.{:03},0.{y:03}]]",
        1000 - x,
        1000 - y
    )
}

/// One group per entry of `users` (its user count), each with its own
/// distinct 2-state backward and forward correlation.
fn two_state_spec(rng: &mut StdRng, users: &[usize]) -> String {
    let mut seen: Vec<[u32; 4]> = Vec::new();
    let mut groups = Vec::new();
    for &count in users {
        let p = loop {
            let p = [(); 4].map(|_| rng.gen_range(500u32..991));
            if !seen.contains(&p) {
                break p;
            }
        };
        seen.push(p);
        groups.push(format!(
            "{{\"count\":{count},\"pb\":{},\"pf\":{}}}",
            mat2(p[0], p[1]),
            mat2(p[2], p[3])
        ));
    }
    format!("[{}]", groups.join(","))
}

fn pick<'a>(rng: &mut StdRng, set: &[&'a str]) -> &'a str {
    set[rng.gen_range(0..set.len())]
}

/// The tenant of the latest line in `ingest_tenant[..=upto]` (looking
/// back at most 4096 lines) whose t, per `counts` after that prefix, is
/// at least `w`.
fn latest_with(ingest_tenant: &[usize], upto: usize, counts: &[usize], w: usize) -> Option<usize> {
    ingest_tenant[..=upto]
        .iter()
        .rev()
        .take(4096)
        .copied()
        .find(|&x| counts[x] >= w)
}

fn fleet(rng: &mut StdRng, lines: usize) -> Workload {
    let tenants: Vec<String> = (0..FLEET_TENANTS).map(|i| format!("f{i:04}")).collect();
    let mut setup = Vec::new();
    for name in &tenants {
        setup.push(format!(
            "CREATE {name} {}",
            two_state_spec(rng, &[1; FLEET_GROUPS])
        ));
        setup.push(format!("HORIZON {name} {HORIZON}"));
    }
    // Zipf(1) popularity over a seeded permutation of the tenants.
    let mut order: Vec<usize> = (0..FLEET_TENANTS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let weights: Vec<f64> = (1..=FLEET_TENANTS).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(FLEET_TENANTS);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let eps = ["0.05", "0.1", "0.2", "0.4"];
    // A full-window query costs some 16-20 ms and an OBSERVE under 1 ms:
    // at 32 OBSERVEs per query the ingest seldom waits for an answer.
    let ratio = 32;
    let mut ingest = Vec::with_capacity(lines);
    let mut ingest_tenant = Vec::with_capacity(lines);
    let mut counts = vec![0usize; FLEET_TENANTS];
    let mut queries = Vec::new();
    for i in 0..lines {
        let u: f64 = rng.gen();
        let rank = cdf.partition_point(|&c| c < u).min(FLEET_TENANTS - 1);
        let x = order[rank];
        ingest.push(format!("OBSERVE {} {}", tenants[x], pick(rng, &eps)));
        ingest_tenant.push(x);
        counts[x] += 1;
        if (i + 1) % ratio == 0 {
            let k = queries.len();
            let line = match k % 3 {
                0 => format!("QUERY {} max_tpl", tenants[x]),
                1 => format!("QUERY {} most_exposed", tenants[x]),
                // w-event needs a full window: the latest acked tenant with t >= 8.
                _ => match latest_with(&ingest_tenant, i, &counts, 8) {
                    Some(y) => format!("QUERY {} wevent 8", tenants[y]),
                    None => format!("QUERY {} max_tpl", tenants[x]),
                },
            };
            queries.push(line);
        }
    }
    Workload {
        kind: Kind::Fleet,
        start_rev: vec![1; tenants.len()],
        tenants,
        setup,
        history: Vec::new(),
        ingest,
        ingest_tenant,
        queries,
        ratio,
        warmup: 0,
        persist_flags: Vec::new(),
    }
}

fn million(rng: &mut StdRng, lines: usize) -> Workload {
    let name = "m0".to_string();
    let setup = vec![
        format!("CREATE {name} {}", two_state_spec(rng, &MILLION_USERS)),
        format!("HORIZON {name} {HORIZON}"),
    ];
    let eps = ["0.05", "0.1", "0.2"];
    // Personalized ranges sit on the group boundaries: timelines diverge
    // per group, shards never split.
    let (b1, b2, n) = (
        MILLION_USERS[0],
        MILLION_USERS[0] + MILLION_USERS[1],
        MILLION_USERS.iter().sum::<usize>(),
    );
    let ratio = 8;
    let mut ingest = Vec::with_capacity(lines);
    let mut queries = Vec::new();
    for i in 0..lines {
        ingest.push(if i % 2 == 0 {
            format!("OBSERVE {name} {}", pick(rng, &eps))
        } else {
            format!(
                "OBSERVE {name} [[0,{b1},{}],[{b1},{b2},{}],[{b2},{n},{}]]",
                pick(rng, &eps),
                pick(rng, &eps),
                pick(rng, &eps)
            )
        });
        if (i + 1) % ratio == 0 {
            let what = if queries.len() % 2 == 0 {
                "most_exposed"
            } else {
                "max_tpl"
            };
            queries.push(format!("QUERY {name} {what}"));
        }
    }
    Workload {
        kind: Kind::Million,
        tenants: vec![name],
        setup,
        start_rev: vec![1],
        history: Vec::new(),
        ingest_tenant: vec![0; ingest.len()],
        ingest,
        queries,
        ratio,
        warmup: 0,
        persist_flags: Vec::new(),
    }
}

fn durable(rng: &mut StdRng, lines: usize) -> Workload {
    let tenants: Vec<String> = (0..DURABLE_TENANTS).map(|i| format!("d{i:04}")).collect();
    let mut setup = Vec::new();
    for name in &tenants {
        setup.push(format!("CREATE {name} {}", two_state_spec(rng, &[5; 3])));
        setup.push(format!("HORIZON {name} {HORIZON}"));
    }
    let eps = ["0.05", "0.1", "0.2"];
    // `HORIZON + 1` shuffled rounds over every tenant fill each window and
    // start its fold, then random extra history.
    let mut order = Vec::new();
    for _ in 0..=HORIZON {
        let mut round: Vec<usize> = (0..DURABLE_TENANTS).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.gen_range(0..i + 1));
        }
        order.extend(round);
    }
    order.extend(
        (0..DURABLE_EXTRA_PER_TENANT * DURABLE_TENANTS).map(|_| rng.gen_range(0..DURABLE_TENANTS)),
    );
    let history = order
        .iter()
        .map(|&x| format!("OBSERVE {} {}", tenants[x], pick(rng, &eps)))
        .collect();
    // A full-window query costs some 4 ms of daemon CPU and a persisted
    // OBSERVE some 0.2 ms: at 64 OBSERVEs per query the query pair keeps
    // about a third of its core busy, and ingest seldom waits for it.
    let ratio = 64;
    let mut ingest = Vec::with_capacity(lines);
    let mut ingest_tenant = Vec::with_capacity(lines);
    let mut queries = Vec::new();
    for i in 0..lines {
        let x = rng.gen_range(0..DURABLE_TENANTS);
        ingest.push(format!("OBSERVE {} {}", tenants[x], pick(rng, &eps)));
        ingest_tenant.push(x);
        if (i + 1) % ratio == 0 {
            queries.push(format!("QUERY {} max_tpl", tenants[x]));
        }
    }
    Workload {
        kind: Kind::Durable,
        start_rev: vec![0; tenants.len()],
        tenants,
        setup,
        history,
        ingest,
        ingest_tenant,
        queries,
        ratio,
        warmup: 0,
        persist_flags: vec![
            "--snapshot-every-releases".into(),
            "1".into(),
            "--compact-after".into(),
            COMPACT_AFTER.to_string(),
        ],
    }
}

/// An `n`-state matrix printed in millionths that sum exactly to one per
/// row, so the daemon parses a valid row-stochastic matrix.
fn print_matrix(rows: &[Vec<f64>]) -> (String, TransitionMatrix) {
    let mut printed = Vec::new();
    let mut parsed = Vec::new();
    for row in rows {
        let mut units: Vec<i64> = row.iter().map(|p| (p * 1e6).round() as i64).collect();
        let fix = 1_000_000 - units.iter().sum::<i64>();
        let top = (0..units.len()).max_by_key(|&j| units[j]).unwrap_or(0);
        units[top] += fix;
        printed.push(format!(
            "[{}]",
            units
                .iter()
                .map(|u| format!("{}.{:06}", u / 1_000_000, u % 1_000_000))
                .collect::<Vec<_>>()
                .join(",")
        ));
        parsed.push(units.iter().map(|&u| u as f64 / 1e6).collect());
    }
    let matrix = TransitionMatrix::from_rows(parsed).expect("rows are printed to sum to one");
    (format!("[{}]", printed.join(",")), matrix)
}

/// A sticky click-stream matrix (`tcdp_data::clickstream`) with a seeded
/// popularity vector, or a road-grid walk (`roadnet_like`) with a 5%
/// uniform restart so every row has full support and leakage stays
/// bounded (Theorem 5 case 1).
fn ceiling_matrix(rng: &mut StdRng, n: usize, road: bool) -> Result<Vec<Vec<f64>>, String> {
    let m = if road {
        tcdp_data::roadnet::roadnet_like(n, rng).map_err(|e| e.to_string())?
    } else {
        let popularity: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05f64..1.0)).collect();
        let total: f64 = popularity.iter().sum();
        let popularity = popularity.iter().map(|p| p / total).collect();
        tcdp_data::clickstream::ClickstreamModel::new(rng.gen_range(0.6f64..0.9), popularity)
            .and_then(|c| c.forward())
            .map_err(|e| e.to_string())?
    };
    let restart = if road { 0.05 } else { 0.0 };
    Ok((0..n)
        .map(|j| {
            m.row(j)
                .iter()
                .map(|p| (1.0 - restart) * p + restart / n as f64)
                .collect()
        })
        .collect())
}

fn ceiling(rng: &mut StdRng, lines: usize, warmup: usize) -> Result<Workload, String> {
    let tenants: Vec<String> = (0..CEILING_TENANTS).map(|i| format!("c{i:02}")).collect();
    let mut setup = Vec::new();
    let mut spike = Vec::new();
    for name in &tenants {
        let mut groups = Vec::new();
        let mut worst = 0.0f64;
        for (g, &n) in CEILING_STATES.iter().enumerate() {
            let (pb_text, pb) = print_matrix(&ceiling_matrix(rng, n, g % 2 == 1)?);
            let (pf_text, pf) = print_matrix(&ceiling_matrix(rng, n, g % 2 == 1)?);
            let sup = |m: &TransitionMatrix| {
                supremum_of_matrix(m, CEILING_EPS_HI)
                    .ok()
                    .and_then(|s| s.finite())
                    .ok_or_else(|| format!("{name}: a full-support matrix diverged"))
            };
            // TPL = L_b(BPL) + FPL, each recursion capped by its Theorem 5
            // supremum at the largest normal ε.
            worst = worst.max(sup(&pb)? + sup(&pf)? - CEILING_EPS_HI);
            groups.push(format!("{{\"count\":8,\"pb\":{pb_text},\"pf\":{pf_text}}}"));
        }
        // Normal releases always fit under α; a spike's own ε exceeds it,
        // so exactly the spikes (one release in ten) are rejected.
        let alpha = worst * (1.0 + 1e-6);
        let limit = 2.0 * alpha + CEILING_WINDOW as f64 * CEILING_EPS_HI;
        setup.push(format!("CREATE {name} [{}]", groups.join(",")));
        setup.push(format!("CEILING {name} {alpha} {CEILING_WINDOW}:{limit}"));
        setup.push(format!("HORIZON {name} {HORIZON}"));
        spike.push(format!("{:.3}", alpha + 0.1));
    }
    let ratio = 4;
    let mut ingest = Vec::with_capacity(lines);
    let mut ingest_tenant = Vec::with_capacity(lines);
    let mut admitted = vec![0usize; CEILING_TENANTS];
    let mut queries = Vec::new();
    let mut round: Vec<usize> = Vec::new();
    for i in 0..lines {
        let x = if i < warmup {
            // Round-robin over a fresh seeded permutation per round.
            if round.is_empty() {
                round = (0..CEILING_TENANTS).collect();
                for j in (1..round.len()).rev() {
                    round.swap(j, rng.gen_range(0..j + 1));
                }
            }
            round.pop().unwrap_or(0)
        } else {
            rng.gen_range(0..CEILING_TENANTS)
        };
        // The warm-up is never spiked, nor is a tenant's first release, so
        // every query target has an admitted release.
        let eps = if i >= warmup && rng.gen::<f64>() < CEILING_SPIKE_P && admitted[x] > 0 {
            spike[x].as_str()
        } else {
            admitted[x] += 1;
            pick(rng, &CEILING_EPS)
        };
        ingest.push(format!("OBSERVE {} {eps}", tenants[x]));
        ingest_tenant.push(x);
        if (i + 1) % ratio == 0 {
            // Spikes are always rejected, so admitted counts are known here:
            // w-event goes to the latest tenant holding a full window.
            let line = match (
                queries.len() % 3,
                latest_with(&ingest_tenant, i, &admitted, CEILING_WINDOW),
            ) {
                (0, Some(y)) => format!("QUERY {} wevent {CEILING_WINDOW}", tenants[y]),
                (0 | 1, _) => format!("QUERY {} max_tpl", tenants[x]),
                _ => format!("QUERY {} most_exposed", tenants[x]),
            };
            queries.push(line);
        }
    }
    Ok(Workload {
        kind: Kind::Ceiling,
        // CREATE publishes 0; the window ceiling and HORIZON one each.
        start_rev: vec![2; tenants.len()],
        tenants,
        setup,
        history: Vec::new(),
        ingest,
        ingest_tenant,
        queries,
        ratio,
        warmup: 0,
        persist_flags: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(w: &Workload) -> Vec<usize> {
        vec![
            w.tenants.len(),
            w.setup.len(),
            w.history.len(),
            w.ingest.len(),
            w.queries.len(),
        ]
    }

    #[test]
    fn same_seed_same_bytes_other_seed_same_shape() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 7, 1).unwrap();
            let b = Workload::generate(kind, 7, 1).unwrap();
            assert_eq!(
                a,
                b,
                "{}: same seed must give identical streams",
                kind.name()
            );
            let c = Workload::generate(kind, 8, 1).unwrap();
            assert_ne!(
                a.ingest,
                c.ingest,
                "{}: another seed must differ",
                kind.name()
            );
            assert_eq!(
                shape(&a),
                shape(&c),
                "{}: shape is seed-independent",
                kind.name()
            );
            // Prefix-stable: a longer run starts with the shorter run's lines.
            let long = Workload::generate(kind, 7, 2).unwrap();
            assert_eq!(long.ingest[..a.ingest.len()], a.ingest[..]);
            assert_eq!(long.queries[..a.queries.len()], a.queries[..]);
            assert_eq!(a.queries.len(), a.ingest.len() / a.ratio);
            assert!(a.ingest.iter().all(|l| l.starts_with("OBSERVE ")));
            assert!(a.queries.iter().all(|l| l.starts_with("QUERY ")));
        }
    }

    #[test]
    fn every_line_parses_and_specs_have_the_stated_shards() {
        use tcdp_serve::{parse_population_spec, parse_request, Request};
        for kind in Kind::ALL {
            let w = Workload::generate(kind, 3, 1).unwrap();
            let expect_groups = match kind {
                Kind::Fleet => 16,
                Kind::Million | Kind::Durable => 3,
                Kind::Ceiling => 4,
            };
            for line in w
                .setup
                .iter()
                .chain(&w.history)
                .chain(&w.ingest)
                .chain(&w.queries)
            {
                match parse_request(line).unwrap_or_else(|e| panic!("{line:.80}: {e}")) {
                    Request::Create { spec, .. } => {
                        let groups = parse_population_spec(&spec).unwrap();
                        assert_eq!(groups.len(), expect_groups);
                        let distinct = groups
                            .iter()
                            .enumerate()
                            .all(|(i, g)| groups[..i].iter().all(|h| h.adversary != g.adversary));
                        assert!(distinct, "{}: groups must be distinct shards", kind.name());
                    }
                    Request::Observe { .. } | Request::Query { .. } => {}
                    Request::Horizon { .. } | Request::Ceiling { .. } => {}
                    other => panic!("unexpected request {other:?}"),
                }
            }
        }
    }
}
