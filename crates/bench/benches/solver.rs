//! Bench B3: the satisfiability/implication solver. Sweeps the number of
//! conjoined atoms (linear domain work) and the disjunction width (DNF
//! growth), and runs the integration's own shapes: the pairwise check of
//! conditional constraints the analyzer used to make for every family,
//! the one witness search over the same family it makes first now, and
//! conjunctions of implications too large to expand.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use interop_constraint::solve::{
    conjunction_satisfiable, conjunction_witness, implies, is_satisfiable, Prepared, TypeEnv,
};
use interop_constraint::{CmpOp, Formula};
use interop_model::Type;

fn env(vars: usize) -> TypeEnv {
    let mut e = TypeEnv::new();
    for i in 0..vars {
        e.insert(
            interop_constraint::Path::parse(&format!("x{i}")),
            Type::Range(0, 100),
        );
    }
    e
}

fn chain(atoms: usize) -> Formula {
    Formula::conj((0..atoms).map(|i| {
        Formula::cmp(
            &format!("x{}", i % 8),
            if i % 2 == 0 { CmpOp::Ge } else { CmpOp::Le },
            ((i * 7) % 100) as i64,
        )
    }))
}

fn disjunction(width: usize) -> Formula {
    (0..width)
        .map(|i| Formula::cmp("x0", CmpOp::Eq, i as i64))
        .fold(Formula::False, Formula::or)
}

/// `grade = i ⇒ score ≥ c` for `i < n`: the conditional constraints of
/// the end-to-end benchmark's deep pair.
fn conditionals(n: usize) -> Vec<Formula> {
    (0..n)
        .map(|i| {
            Formula::cmp("grade", CmpOp::Eq, i as i64).implies(Formula::cmp(
                "score",
                CmpOp::Ge,
                (i % 8 + 2) as i64,
            ))
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("solver");
    let e = env(8);
    for atoms in [2usize, 8, 32, 64] {
        let f = chain(atoms);
        g.bench_with_input(
            BenchmarkId::new("sat_conjunction", atoms),
            &atoms,
            |b, _| b.iter(|| is_satisfiable(std::hint::black_box(&f), &e)),
        );
    }
    for width in [2usize, 8, 32] {
        let f = disjunction(width).and(chain(8));
        g.bench_with_input(
            BenchmarkId::new("sat_disjunction", width),
            &width,
            |b, _| b.iter(|| is_satisfiable(std::hint::black_box(&f), &e)),
        );
    }
    // The paper's actual checks: implication between conditional
    // constraints (strict-similarity admission shape).
    let phi = Formula::cmp("x0", CmpOp::Eq, 1i64)
        .implies(Formula::cmp("x1", CmpOp::Ge, 70i64))
        .and(Formula::cmp("x0", CmpOp::Eq, 1i64));
    let psi = Formula::cmp("x1", CmpOp::Ge, 40i64);
    g.bench_function("implies_conditional", |b| {
        b.iter(|| implies(std::hint::black_box(&phi), &psi, &e))
    });
    // Difference atoms exercise the DBM path.
    let diff = Formula::Cmp(
        interop_constraint::Expr::attr("x0"),
        CmpOp::Le,
        interop_constraint::Expr::attr("x1"),
    )
    .and(Formula::Cmp(
        interop_constraint::Expr::attr("x1"),
        CmpOp::Lt,
        interop_constraint::Expr::attr("x2"),
    ))
    .and(Formula::cmp("x2", CmpOp::Le, 10i64))
    .and(Formula::cmp("x0", CmpOp::Ge, 10i64));
    g.bench_function("dbm_negative_cycle", |b| {
        b.iter(|| is_satisfiable(std::hint::black_box(&diff), &e))
    });
    // The analyzer's pair check (A002): normalise each constraint of a
    // class once, then decide every pair's conjunction.
    let cond_env = TypeEnv::new()
        .with("grade", Type::Int)
        .with("score", Type::Range(1, 10));
    let cs = conditionals(33);
    g.bench_with_input(
        BenchmarkId::new("pairwise_conditional", cs.len()),
        &cs.len(),
        |b, _| {
            b.iter(|| {
                let prepared: Vec<Prepared> = std::hint::black_box(&cs)
                    .iter()
                    .map(Prepared::new)
                    .collect();
                let mut contradictory = 0;
                for (i, a) in prepared.iter().enumerate() {
                    for other in &prepared[i + 1..] {
                        if !conjunction_satisfiable([a, other], &cond_env) {
                            contradictory += 1;
                        }
                    }
                }
                contradictory
            })
        },
    );
    // The same family as the analyzer decides it now: one witness
    // search over the whole family's conjunction, preparation included.
    g.bench_with_input(
        BenchmarkId::new("witness_conditional", cs.len()),
        &cs.len(),
        |b, _| {
            b.iter(|| {
                let prepared: Vec<Prepared> = std::hint::black_box(&cs)
                    .iter()
                    .map(Prepared::new)
                    .collect();
                conjunction_witness(&prepared, &cond_env)
            })
        },
    );
    // Conjunctions of implications whose DNF exceeds the cap: the
    // answer is "satisfiable" without deciding them.
    for n in [32usize, 1024] {
        let f = Formula::conj(conditionals(n));
        g.bench_with_input(BenchmarkId::new("sat_implications", n), &n, |b, _| {
            b.iter(|| is_satisfiable(std::hint::black_box(&f), &cond_env))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
