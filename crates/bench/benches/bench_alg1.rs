//! Criterion micro-benchmarks for Algorithm 1 (Figure 5's fast path).
//!
//! * `alg1/n/*` sweeps the domain size at α = 10 (Figure 5(a)'s x-axis);
//! * `alg1/alpha/*` sweeps the previous-leakage input at n = 50 (Figure
//!   5(b)'s x-axis);
//! * `alg1/pruned/*` ablates the pair-pruning index: the engine's pruned
//!   sweep versus the naive unpruned row-major sweep at n = 50;
//! * `alg1/seq/*` measures a T-step BPL recursion at n = 50 two ways —
//!   `warm` drives one [`TemporalLossFunction`] (cached pruning index +
//!   witness warm-start across steps) while `cold` makes T independent
//!   `temporal_loss` calls — and prints the resulting speedup factor;
//! * `alg1/eval/{shape}/{n}` times one cold `L(10)` evaluation against
//!   a prebuilt pruning index, across dense, near-deterministic, and
//!   roadnet-shaped matrices at n ∈ {16, 32, 50, 200, 1000, 4000} (dense
//!   capped at 200 — its index build is cubic, and one cold dense
//!   n = 1000 evaluation took 22 s). n = 16 and 32 bracket the heavy
//!   shards the `tcdp-serve` daemon evaluates;
//! * `alg1/build/{shape}/{n}` times the [`PairIndex`] build on the same
//!   shapes and sizes;
//! * `alg1/table/{shape}/{n}` and `alg1/sweep/{shape}/{n}` time one
//!   64-step FPL-style chain (`α ← L(α) + ε_t`, ε cycling through the
//!   `ceiling` mix's 0.02/0.05/0.1) at n = 16 and 32 on click-stream,
//!   road-with-restart and dense matrices: `table` through a
//!   [`TemporalLossFunction`] whose piece table is built, `sweep` through
//!   [`temporal_loss_witness_indexed`] with the previous witness as warm
//!   seed. `check_bench` gates table/sweep;
//! * `alg1/table-build/{shape}/{n}` times a fresh loss function's first
//!   evaluation on the same matrices: the index build, the table build
//!   and one table-served evaluation.
//!
//! The expected profile: polynomial growth in `n`; mild growth in `α`
//! that stabilizes past α ≈ 10 (more Inequality-(21) update sweeps fire
//! at large α, but at most n−1 of them); a warm/cold seq ratio well
//! above 5× — the `O(n⁴) + T·O(n)` versus `T·O(n⁴)` claim made in
//! `tcdp_core::alg1`'s module docs; and builds that get cheaper with
//! sparsity (the support-seeded reduction is `O(nnz)` per pair, not
//! `O(n)`).
//!
//! Pass `--json <path>` to dump every measurement under the stable
//! schema described in `crates/bench/README.md` (the committed
//! `BENCH_alg1.json` baseline comes from that flag).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use tcdp_core::alg1::{
    temporal_loss, temporal_loss_witness_indexed, temporal_loss_witness_unpruned, LossWitness,
    PairIndex,
};
use tcdp_core::TemporalLossFunction;
use tcdp_data::clickstream::ClickstreamModel;
use tcdp_data::roadnet::roadnet_like;
use tcdp_markov::TransitionMatrix;

fn bench_vs_n(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("alg1/n");
    for n in [10usize, 25, 50, 100] {
        let m = TransitionMatrix::random_uniform(n, &mut rng).expect("matrix");
        group.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| black_box(temporal_loss(m, black_box(10.0)).expect("loss")));
        });
    }
    group.finish();
}

fn bench_vs_alpha(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let m = TransitionMatrix::random_uniform(50, &mut rng).expect("matrix");
    let mut group = c.benchmark_group("alg1/alpha");
    for alpha in [0.001, 0.1, 1.0, 10.0, 20.0] {
        group.bench_with_input(BenchmarkId::from_parameter(alpha), &alpha, |b, &alpha| {
            b.iter(|| black_box(temporal_loss(&m, black_box(alpha)).expect("loss")));
        });
    }
    group.finish();
}

fn bench_pruning_ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let m = TransitionMatrix::random_uniform(50, &mut rng).expect("matrix");
    let mut group = c.benchmark_group("alg1/pruned");
    for alpha in [1.0, 10.0] {
        group.bench_with_input(BenchmarkId::new("pruned", alpha), &alpha, |b, &alpha| {
            b.iter(|| black_box(temporal_loss(&m, black_box(alpha)).expect("loss")));
        });
        group.bench_with_input(BenchmarkId::new("unpruned", alpha), &alpha, |b, &alpha| {
            b.iter(|| {
                black_box(temporal_loss_witness_unpruned(&m, black_box(alpha)).expect("loss"))
            });
        });
    }
    group.finish();
}

/// One T-step BPL recursion through a fresh warm-started loss function.
fn run_warm(m: &TransitionMatrix, eps: f64, t_len: usize) -> f64 {
    let loss = TemporalLossFunction::new(m.clone());
    let mut alpha = eps;
    for _ in 1..t_len {
        alpha = loss.eval(alpha).expect("loss") + eps;
    }
    alpha
}

/// The same recursion via T independent cold `temporal_loss` calls.
fn run_cold(m: &TransitionMatrix, eps: f64, t_len: usize) -> f64 {
    let mut alpha = eps;
    for _ in 1..t_len {
        alpha = temporal_loss(m, alpha).expect("loss") + eps;
    }
    alpha
}

fn bench_sequences(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let m = TransitionMatrix::random_uniform(50, &mut rng).expect("matrix");
    let eps = 0.01;
    let mut group = c.benchmark_group("alg1/seq");
    for t_len in [10usize, 100, 1000] {
        // Warm and cold must agree bit-for-bit before the numbers mean
        // anything.
        assert_eq!(
            run_warm(&m, eps, t_len).to_bits(),
            run_cold(&m, eps, t_len).to_bits(),
            "warm/cold divergence at T={t_len}"
        );
        group.bench_with_input(BenchmarkId::new("warm", t_len), &t_len, |b, &t_len| {
            b.iter(|| black_box(run_warm(&m, eps, t_len)));
        });
        group.bench_with_input(BenchmarkId::new("cold", t_len), &t_len, |b, &t_len| {
            b.iter(|| black_box(run_cold(&m, eps, t_len)));
        });
    }
    group.finish();

    // Headline number: direct wall-clock ratio at T = 1000, n = 50
    // (averaged over a few rounds), independent of the group timings.
    let t_len = 1000;
    let rounds = 3;
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(run_warm(&m, eps, t_len));
    }
    let warm = start.elapsed();
    let start = Instant::now();
    for _ in 0..rounds {
        black_box(run_cold(&m, eps, t_len));
    }
    let cold = start.elapsed();
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "alg1/seq warm-start speedup @ n=50, T=1000: {speedup:.1}x \
         (cold {:.2?} vs warm {:.2?} per sequence)",
        cold / rounds,
        warm / rounds,
    );
}

/// The shape × size matrix: `(name, sizes)`. Dense stops at 200
/// because its index build is `O(n³)` and its cold evaluation grows as
/// fast; the sparse shapes go to the ROADMAP's n = 4000 target.
const SHAPES: [(&str, &[usize]); 3] = [
    ("dense", &[16, 32, 50, 200]),
    ("neardet", &[16, 32, 50, 200, 1000, 4000]),
    ("roadnet", &[16, 32, 50, 200, 1000, 4000]),
];

/// A near-deterministic mobility model: each row is a dominant stay-put
/// probability plus two small off-diagonal leaks — the paper's strongest
/// (non-degenerate) correlation regime, and the sparsest row shape.
fn near_deterministic(n: usize, seed: u64) -> TransitionMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let mut row = vec![0.0; n];
        let mut mass = 1.0;
        for k in 1..=2usize {
            let j = (i + 7 * k + 1) % n;
            let w = 0.005 * (1.0 + rng.gen::<f64>());
            row[j] += w;
            mass -= w;
        }
        row[i] += mass;
        rows.push(row);
    }
    TransitionMatrix::from_rows(rows).expect("rows are stochastic")
}

fn shape_matrix(shape: &str, n: usize, rng: &mut StdRng) -> TransitionMatrix {
    match shape {
        "dense" => TransitionMatrix::random_uniform(n, rng).expect("matrix"),
        "neardet" => near_deterministic(n, n as u64),
        "roadnet" => roadnet_like(n, rng).expect("matrix"),
        other => unreachable!("unknown shape {other}"),
    }
}

fn bench_eval_matrix(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let mut group = c.benchmark_group("alg1/eval");
    for (shape, sizes) in SHAPES {
        for &n in sizes {
            let m = shape_matrix(shape, n, &mut rng);
            let index = PairIndex::new(&m);
            // No warm witness: every call pays the full pruned sweep.
            group.bench_with_input(BenchmarkId::new(shape, n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        temporal_loss_witness_indexed(&m, &index, black_box(10.0), None)
                            .expect("loss"),
                    )
                });
            });
        }
    }
    group.finish();
}

fn bench_build_matrix(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("alg1/build");
    for (shape, sizes) in SHAPES {
        for &n in sizes {
            let m = shape_matrix(shape, n, &mut rng);
            group.bench_with_input(BenchmarkId::new(shape, n), &n, |b, _| {
                b.iter(|| black_box(PairIndex::new(&m)));
            });
        }
    }
    group.finish();
}

/// The daemon-sized shapes of the table rows, drawn like the `ceiling`
/// mix's shards: sticky click-streams with random popularity and road
/// networks with a 5% uniform restart; plus [`shape_matrix`]'s dense
/// random rows.
fn table_matrix(shape: &str, n: usize, rng: &mut StdRng) -> TransitionMatrix {
    match shape {
        "clickstream" => {
            let popularity: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05f64..1.0)).collect();
            let total: f64 = popularity.iter().sum();
            let popularity = popularity.iter().map(|p| p / total).collect();
            ClickstreamModel::new(rng.gen_range(0.6f64..0.9), popularity)
                .and_then(|c| c.forward())
                .expect("matrix")
        }
        "roadrestart" => {
            let road = roadnet_like(n, rng).expect("matrix");
            let rows = road
                .rows()
                .map(|row| row.iter().map(|p| 0.95 * p + 0.05 / n as f64).collect())
                .collect();
            TransitionMatrix::from_rows(rows).expect("rows are stochastic")
        }
        other => shape_matrix(other, n, rng),
    }
}

/// Per-step budgets of the FPL-style chain (the `ceiling` mix's).
const CHAIN_EPS: [f64; 3] = [0.02, 0.05, 0.1];
const CHAIN_STEPS: usize = 64;

/// The chain through a loss function's evaluator (table-served).
fn chain_table(loss: &TemporalLossFunction) -> f64 {
    let mut ev = loss.evaluator();
    let mut alpha = CHAIN_EPS[0];
    for t in 1..CHAIN_STEPS {
        alpha = ev.eval(alpha).expect("loss") + CHAIN_EPS[t % 3];
    }
    alpha
}

/// The same chain through the warm-started pruned sweep.
fn chain_sweep(m: &TransitionMatrix, index: &PairIndex) -> f64 {
    let mut warm: Option<LossWitness> = None;
    let mut alpha = CHAIN_EPS[0];
    for t in 1..CHAIN_STEPS {
        let w = temporal_loss_witness_indexed(m, index, alpha, warm.as_ref()).expect("loss");
        alpha = w.value + CHAIN_EPS[t % 3];
        warm = Some(w);
    }
    alpha
}

fn bench_table(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let cases: Vec<(&str, usize, TransitionMatrix)> = ["clickstream", "roadrestart", "dense"]
        .into_iter()
        .flat_map(|shape| [16usize, 32].map(|n| (shape, n)))
        .map(|(shape, n)| (shape, n, table_matrix(shape, n, &mut rng)))
        .collect();
    let mut group = c.benchmark_group("alg1/table");
    for (shape, n, m) in &cases {
        let loss = TemporalLossFunction::new(m.clone());
        let index = PairIndex::new(m);
        // Builds the table; both paths must agree bit for bit before the
        // numbers mean anything.
        assert_eq!(
            chain_table(&loss).to_bits(),
            chain_sweep(m, &index).to_bits(),
            "table/sweep divergence on {shape}/{n}"
        );
        group.bench_with_input(BenchmarkId::new(*shape, n), n, |b, _| {
            b.iter(|| black_box(chain_table(&loss)));
        });
    }
    group.finish();
    let mut group = c.benchmark_group("alg1/sweep");
    for (shape, n, m) in &cases {
        let index = PairIndex::new(m);
        group.bench_with_input(BenchmarkId::new(*shape, n), n, |b, _| {
            b.iter(|| black_box(chain_sweep(m, &index)));
        });
    }
    group.finish();
    let mut group = c.benchmark_group("alg1/table-build");
    for (shape, n, m) in &cases {
        group.bench_with_input(BenchmarkId::new(*shape, n), n, |b, _| {
            b.iter(|| {
                let loss = TemporalLossFunction::new(m.clone());
                black_box(loss.eval(black_box(CHAIN_EPS[0])).expect("loss"))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_vs_n,
    bench_vs_alpha,
    bench_pruning_ablation,
    bench_sequences,
    bench_eval_matrix,
    bench_build_matrix,
    bench_table
);
criterion_main!(benches);
