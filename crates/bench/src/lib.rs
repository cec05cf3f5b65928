//! Workload generators for the benchmark harness.
//!
//! The paper has no quantitative evaluation; these generators provide the
//! synthetic workloads behind the criterion benchmarks (solver, pipeline,
//! query optimisation, durability) and the end-to-end benchmark described
//! in `e2ebench/README.md` (merge and derivation scaling, served reads and
//! validated writes on the integrated view).
//!
//! # Invariants
//!
//! * **Workloads are deterministic given their config**: every generator
//!   threads a seeded [`rand::rngs::StdRng`], so two runs with the same
//!   [`SyntheticConfig`] (or `(n, seed)` pair) produce byte-identical
//!   databases — benchmark recordings and the `EXPLAIN` snapshot suite
//!   both rely on it.
//! * **Generated data satisfies its own catalog**: constraints emitted
//!   alongside a workload hold on the generated extents (the
//!   constraint-enforcing store would reject the fixture otherwise), so
//!   benchmarks measure steady-state behaviour, not rejection paths.

use interop_constraint::{
    Catalog, ClassConstraint, CmpOp, ConstraintId, Formula, ObjectConstraint,
};
use interop_core::fixtures::Fixture;
use interop_model::{ClassDef, ClassName, Database, DbName, Schema, Type, Value};
use interop_spec::{ComparisonRule, Conversion, Decision, InterCond, PropEq, Side, Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a synthetic two-database workload.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticConfig {
    /// Objects in the local database.
    pub local_n: usize,
    /// Objects in the remote database.
    pub remote_n: usize,
    /// Fraction of remote objects sharing a key with a local object.
    pub match_ratio: f64,
    /// Conditional constraints generated per side (guard on `grade`,
    /// bound on the avg-governed `score` — each pair produces
    /// df-combination work in the deriver).
    pub constraints_per_side: usize,
    /// RNG seed (the workload is deterministic given the config).
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            local_n: 1_000,
            remote_n: 1_000,
            match_ratio: 0.5,
            constraints_per_side: 4,
            seed: 42,
        }
    }
}

/// The synthetic schema pair: a local `LProd` (score scale 1..5) and a
/// remote `RProd` (score scale 1..10), joined on `key`, with `score`
/// fused by `avg` through a `multiply(2)` conversion — the same shape as
/// the paper's rating example, at arbitrary scale.
pub fn synthetic_fixture(cfg: SyntheticConfig) -> Fixture {
    let local_schema = Schema::new(
        "SynLocal",
        vec![ClassDef::new("LProd")
            .attr("key", Type::Str)
            .attr("price", Type::Real)
            .attr("score", Type::Range(1, 5))
            .attr("grade", Type::Int)],
    )
    .expect("static schema");
    let remote_schema = Schema::new(
        "SynRemote",
        vec![ClassDef::new("RProd")
            .attr("key", Type::Str)
            .attr("price", Type::Real)
            .attr("score", Type::Range(1, 10))
            .attr("grade", Type::Int)],
    )
    .expect("static schema");

    let ldb_name = DbName::new("SynLocal");
    let rdb_name = DbName::new("SynRemote");
    let lclass = ClassName::new("LProd");
    let rclass = ClassName::new("RProd");
    let mut lcat = Catalog::new();
    let mut rcat = Catalog::new();
    lcat.add_class(ClassConstraint::key(
        ConstraintId::new(&ldb_name, &lclass, "cc_key"),
        "LProd",
        vec!["key"],
    ));
    rcat.add_class(ClassConstraint::key(
        ConstraintId::new(&rdb_name, &rclass, "cc_key"),
        "RProd",
        vec!["key"],
    ));
    // Baseline objective-ish constraints.
    lcat.add_object(ObjectConstraint::new(
        ConstraintId::new(&ldb_name, &lclass, "oc_price"),
        "LProd",
        Formula::cmp("price", CmpOp::Ge, 0.0),
    ));
    rcat.add_object(ObjectConstraint::new(
        ConstraintId::new(&rdb_name, &rclass, "oc_price"),
        "RProd",
        Formula::cmp("price", CmpOp::Ge, 0.0),
    ));
    // Conditional subjective constraints on the avg-governed score.
    for i in 0..cfg.constraints_per_side {
        let guard = Formula::cmp("grade", CmpOp::Eq, i as i64);
        lcat.add_object(ObjectConstraint::new(
            ConstraintId::new(&ldb_name, &lclass, &format!("oc_s{i}")),
            "LProd",
            guard
                .clone()
                .implies(Formula::cmp("score", CmpOp::Ge, (i % 4 + 1) as i64)),
        ));
        rcat.add_object(ObjectConstraint::new(
            ConstraintId::new(&rdb_name, &rclass, &format!("oc_s{i}")),
            "RProd",
            guard.implies(Formula::cmp("score", CmpOp::Ge, (i % 8 + 2) as i64)),
        ));
    }

    let mut spec = Spec::new("SynLocal", "SynRemote");
    spec.add_rule(ComparisonRule::equality(
        "r_eq",
        "LProd",
        "RProd",
        vec![InterCond::eq("key", "key")],
    ));
    spec.add_propeq(PropEq::named_after_remote(
        "LProd",
        "score",
        "RProd",
        "score",
        Conversion::Multiply(2.0),
        Conversion::Id,
        Decision::Avg,
    ));
    spec.add_propeq(PropEq::named_after_remote(
        "LProd",
        "price",
        "RProd",
        "price",
        Conversion::Id,
        Conversion::Id,
        Decision::Trust(Side::Local),
    ));
    spec.add_propeq(PropEq::named_after_remote(
        "LProd",
        "grade",
        "RProd",
        "grade",
        Conversion::Id,
        Conversion::Id,
        Decision::Any,
    ));

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Data must satisfy its own conditional constraints (the paper's
    // premise: component constraints are locally *enforced*): given a
    // grade that triggers constraint i, the score respects its bound.
    let local_floor = |grade: i64| -> i64 {
        if (grade as usize) < cfg.constraints_per_side {
            (grade % 4 + 1).max(1)
        } else {
            1
        }
    };
    let remote_floor = |grade: i64| -> i64 {
        if (grade as usize) < cfg.constraints_per_side {
            (grade % 8 + 2).max(1)
        } else {
            1
        }
    };
    let mut local_db = Database::new(local_schema, 1);
    let mut local_grades = Vec::with_capacity(cfg.local_n);
    for i in 0..cfg.local_n {
        let grade = rng.gen_range(0..8i64);
        local_grades.push(grade);
        local_db
            .create(
                "LProd",
                vec![
                    ("key", Value::str(format!("k{i}"))),
                    ("price", Value::real(rng.gen_range(1.0..500.0))),
                    ("score", Value::Int(rng.gen_range(local_floor(grade)..=5))),
                    ("grade", Value::Int(grade)),
                ],
            )
            .expect("synthetic local object");
    }
    let mut remote_db = Database::new(remote_schema, 2);
    let matched = ((cfg.remote_n as f64) * cfg.match_ratio.clamp(0.0, 1.0)) as usize;
    for i in 0..cfg.remote_n {
        // The first `matched` remote objects reuse distinct local keys
        // (up to the local population); the rest are fresh.
        let key = if i < matched && cfg.local_n > 0 {
            format!("k{}", i % cfg.local_n)
        } else {
            format!("r{i}")
        };
        // `grade` is fused by the conflict-ignoring `any`: the paper's
        // model treats such properties as objective — both databases
        // record the same real-world value — so matched pairs must agree.
        let grade = if i < matched && cfg.local_n > 0 {
            local_grades[i % cfg.local_n]
        } else {
            rng.gen_range(0..8i64)
        };
        remote_db
            .create(
                "RProd",
                vec![
                    ("key", Value::str(key)),
                    ("price", Value::real(rng.gen_range(1.0..500.0))),
                    ("score", Value::Int(rng.gen_range(remote_floor(grade)..=10))),
                    ("grade", Value::Int(grade)),
                ],
            )
            .expect("synthetic remote object");
    }
    Fixture {
        local_db,
        local_catalog: lcat,
        remote_db,
        remote_catalog: rcat,
        spec,
    }
}

/// A populated constraint-enforcing store for the storage benchmarks:
/// `n` items with a string key, a real price, a 1..10 rating, and a
/// 50-valued `shelf` tag. `shelf` cycles deterministically *outside*
/// the seeded RNG stream (`(i·17) mod 50`, a full cycle since
/// `gcd(17, 50) = 1`, so each shelf holds exactly `n/50` items at
/// multiples of 50) — adding it left every `(n, seed)` store's prices
/// and ratings, and therefore the pinned EXPLAIN snapshots and
/// benchmark workloads, byte-identical. The `rating = r ∧ shelf = s`
/// conjunction is the recurring hot pair the composite-index
/// benchmarks and the scalability tier exercise.
pub fn synthetic_store(n: usize, seed: u64) -> interop_storage::Store {
    let schema = Schema::new(
        "Shop",
        vec![ClassDef::new("Item")
            .attr("isbn", Type::Str)
            .attr("price", Type::Real)
            .attr("rating", Type::Range(1, 10))
            .attr("shelf", Type::Int)],
    )
    .expect("static schema");
    let db_name = DbName::new("Shop");
    let class = ClassName::new("Item");
    let mut cat = Catalog::new();
    cat.add_class(ClassConstraint::key(
        ConstraintId::new(&db_name, &class, "cc_key"),
        "Item",
        vec!["isbn"],
    ));
    cat.add_object(ObjectConstraint::new(
        ConstraintId::new(&db_name, &class, "oc_price"),
        "Item",
        Formula::cmp("price", CmpOp::Ge, 0.0),
    ));
    // The "derived global constraint" the optimizer will exploit: every
    // item in this (integrated) store has rating >= 5.
    cat.add_object(ObjectConstraint::new(
        ConstraintId::new(&db_name, &class, "oc_rating"),
        "Item",
        Formula::cmp("rating", CmpOp::Ge, 5i64),
    ));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = interop_storage::Store::new(Database::new(schema, 1), cat);
    for i in 0..n {
        store
            .create(
                "Item",
                vec![
                    ("isbn", Value::str(format!("isbn-{i}"))),
                    ("price", Value::real(rng.gen_range(1.0..100.0))),
                    ("rating", Value::Int(rng.gen_range(5..=10))),
                    ("shelf", Value::Int(((i * 17) % 50) as i64)),
                ],
            )
            .expect("synthetic item");
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_fixture_is_consistent() {
        let fx = synthetic_fixture(SyntheticConfig {
            local_n: 50,
            remote_n: 50,
            match_ratio: 0.5,
            constraints_per_side: 3,
            seed: 7,
        });
        assert_eq!(fx.local_db.len(), 50);
        assert_eq!(fx.remote_db.len(), 50);
        // The pipeline runs end to end on the synthetic workload.
        let outcome = interop_core::Integrator::new(
            fx.local_db,
            fx.local_catalog,
            fx.remote_db,
            fx.remote_catalog,
            fx.spec,
        )
        .run()
        .expect("synthetic integrates");
        assert!(!outcome.global.object.is_empty());
    }

    #[test]
    fn synthetic_store_enforces() {
        let mut s = synthetic_store(100, 1);
        assert_eq!(s.db().len(), 100);
        let err = s
            .create(
                "Item",
                vec![("isbn", Value::str("x")), ("rating", Value::Int(2))],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            interop_storage::StoreError::ObjectConstraintViolated { .. }
        ));
    }

    #[test]
    fn match_ratio_controls_merges() {
        let fx = synthetic_fixture(SyntheticConfig {
            local_n: 200,
            remote_n: 200,
            match_ratio: 1.0,
            constraints_per_side: 0,
            seed: 3,
        });
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = interop_merge::merge(&conf, &Default::default()).unwrap();
        let merged = view
            .objects
            .values()
            .filter(|g| g.local.is_some() && g.remote.is_some())
            .count();
        assert!(merged > 150, "high match ratio should merge most: {merged}");
    }
}
