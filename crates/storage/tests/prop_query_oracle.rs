//! Differential oracle suite for the query planner: every random query
//! is answered two ways — through the planner ([`Optimizer::execute`],
//! with lazy secondary indexes, posting intersection, constraint
//! pruning) and through the naive full-scan reference executor
//! ([`Query::scan`], which evaluates the raw predicate on every object
//! of the extension). The hit sets must be identical, and
//! `PrunedEmpty` may only be claimed when the scan agrees the answer is
//! empty.
//!
//! Stores are adversarial: mixed value types, missing (null) attributes,
//! subclass hierarchies, and an always-empty class. The enforced
//! constraints include a conditional pair whose bodies contradict each
//! other, so every object meeting the guard leaves the body attribute
//! null: the pair is classically unsatisfiable under the guard, yet such
//! objects are real hits for queries that do not force the body
//! attribute non-null.

use interop_constraint::{CmpOp, Expr, Formula};
use interop_model::{ClassDef, Database, Schema, Type, Value};
use interop_storage::{CompositePolicy, OptimizeOutcome, Optimizer, Query, Store};
use proptest::prelude::*;

/// One randomly generated object: class selector, attribute values, and
/// a presence mask (bit i clear ⇒ attribute i left null).
type ObjSpec = (u8, i64, u8, i64, i64, u8);

/// One atomic predicate: (kind, attribute selector, operator selector,
/// constant).
type AtomSpec = (u8, u8, u8, i16);

const CLASSES: [&str; 4] = ["Base", "Mid", "Leaf", "Empty"];
const ATTRS: [&str; 4] = ["num", "name", "score", "extra"];
const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

fn schema() -> Schema {
    Schema::new(
        "Q",
        vec![
            ClassDef::new("Base")
                .attr("num", Type::Int)
                .attr("name", Type::Str)
                .attr("score", Type::Range(0, 20)),
            ClassDef::new("Mid").isa("Base").attr("extra", Type::Real),
            ClassDef::new("Leaf").isa("Mid"),
            ClassDef::new("Empty")
                .attr("num", Type::Int)
                .attr("name", Type::Str)
                .attr("score", Type::Range(0, 20)),
        ],
    )
    .expect("static schema")
}

/// Objects with `num <= GUARD` leave `score` null (see
/// [`enforced_constraints`]).
const GUARD: i64 = 25;

/// Builds a store whose objects never make an [`enforced_constraints`]
/// formula `False` by construction — those are the "derived global
/// constraints" handed to the optimizer, and the paper's premise is that
/// supplied constraints are locally enforced (a store rejects only
/// `False`, so `Unknown` is allowed).
fn build_store(objs: &[ObjSpec]) -> Store {
    let mut db = Database::new(schema(), 1);
    for (class, num, name, score, extra, mask) in objs {
        let class = CLASSES[(*class as usize) % 3]; // Empty never populated
        let mut attrs: Vec<(&str, Value)> = Vec::new();
        let num = num.rem_euclid(100);
        let guarded = mask & 1 != 0 && num <= GUARD;
        if mask & 1 != 0 {
            attrs.push(("num", Value::int(num)));
        }
        if mask & 2 != 0 {
            attrs.push(("name", Value::str(NAMES[(*name as usize) % NAMES.len()])));
        }
        if mask & 4 != 0 && !guarded {
            attrs.push(("score", Value::int(2 + score.rem_euclid(19))));
        }
        if mask & 8 != 0 && class != "Base" {
            attrs.push(("extra", Value::real((extra.rem_euclid(50)) as f64 / 2.0)));
        }
        db.create(class, attrs)
            .expect("generated object typechecks");
    }
    Store::new(db, interop_constraint::Catalog::new())
}

fn enforced_constraints() -> Vec<Formula> {
    let guard = Formula::cmp("num", CmpOp::Le, GUARD);
    vec![
        Formula::cmp("score", CmpOp::Ge, 2i64),
        Formula::cmp("num", CmpOp::Ge, 0i64),
        // Contradictory bodies: both hold only as `Unknown`, with score
        // null, on an object meeting the guard.
        guard
            .clone()
            .implies(Formula::cmp("score", CmpOp::Ge, 15i64)),
        guard.implies(Formula::cmp("score", CmpOp::Le, 5i64)),
    ]
}

fn build_atom(&(kind, attr, op, konst): &AtomSpec) -> Formula {
    let attr_name = ATTRS[(attr as usize) % ATTRS.len()];
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let cmp_op = ops[(op as usize) % ops.len()];
    match kind % 6 {
        // Numeric comparison (sometimes against a string attr —
        // exercising incomparable-variant semantics).
        0 => Formula::cmp(attr_name, cmp_op, (konst % 30) as i64),
        // Real-constant comparison (cross-type numerics).
        1 => Formula::cmp(attr_name, cmp_op, (konst % 30) as f64 / 2.0),
        // String comparison (sometimes against numeric attrs).
        2 => Formula::cmp(
            attr_name,
            cmp_op,
            NAMES[(konst.unsigned_abs() as usize) % NAMES.len()],
        ),
        // Membership over mixed int/real constants.
        3 => Formula::In(
            Expr::attr(attr_name),
            [
                Value::int((konst % 10) as i64),
                Value::real((konst % 10) as f64),
                Value::int((konst % 7) as i64),
            ]
            .into_iter()
            .collect(),
        ),
        // Substring test.
        4 => Formula::Contains(
            Expr::attr("name"),
            NAMES[(konst.unsigned_abs() as usize) % NAMES.len()].into(),
        ),
        // Null-probing equality against a constant the data never holds.
        _ => Formula::cmp(attr_name, cmp_op, 1000i64),
    }
}

/// Combines atoms into a predicate; `shape` picks the boolean structure
/// so conjunctions (planner fast path), disjunctions, negations and
/// implications (residual-only paths) are all exercised.
fn build_pred(atoms: &[AtomSpec], shape: u8) -> Formula {
    let fs: Vec<Formula> = atoms.iter().map(build_atom).collect();
    match shape % 4 {
        0 => Formula::conj(fs),
        1 => {
            let mut it = fs.into_iter();
            let first = it.next().unwrap_or(Formula::True);
            it.fold(first, |acc, f| acc.or(f))
        }
        2 => {
            let mut it = fs.into_iter();
            let first = it.next().unwrap_or(Formula::True);
            Formula::Not(Box::new(first)).and(Formula::conj(it))
        }
        _ => {
            let mut it = fs.into_iter();
            let first = it.next().unwrap_or(Formula::True);
            first.implies(Formula::conj(it))
        }
    }
}

fn oracle_hits(store: &Store, class: &str, pred: &Formula) -> Vec<interop_model::ObjectId> {
    let mut hits = Query::new(class, pred.clone())
        .scan(store)
        .expect("oracle scans");
    hits.sort_unstable();
    hits
}

/// One composite-heavy object: class selector, two hot attribute value
/// selectors with representation bits (store the numeric as `Real`
/// instead of `Int`, exercising data-side `sem_eq` collisions), and a
/// presence mask (bit clear ⇒ attribute left null).
type HotObjSpec = (u8, u8, bool, u8, bool, u8);

/// One composite-heavy query: two hot probe constants with
/// representation bits, plus a tail selector for an extra conjunct.
type HotQuerySpec = (u8, bool, u8, bool, u8);

/// Adversarial store for the composite planner: both hot attributes
/// draw from tiny domains, so the same equality *pairs* recur across
/// queries and the admission sketch crosses its threshold mid-test.
/// `ha : int` also admits whole reals and `hb : real` admits ints
/// (model numeric coercion), so `Int(k)`/`Real(k.0)` collide in the
/// pair postings exactly as `sem_eq` demands.
fn build_hot_store(objs: &[HotObjSpec]) -> Store {
    let schema = Schema::new(
        "H",
        vec![
            ClassDef::new("HBase")
                .attr("ha", Type::Int)
                .attr("hb", Type::Real)
                .attr("tag", Type::Str),
            ClassDef::new("HSub").isa("HBase"),
            ClassDef::new("HEmpty")
                .attr("ha", Type::Int)
                .attr("hb", Type::Real),
        ],
    )
    .expect("static schema");
    let mut db = Database::new(schema, 1);
    for (class, a, a_real, b, b_real, mask) in objs {
        let class = if class % 3 == 0 { "HSub" } else { "HBase" };
        let mut attrs: Vec<(&str, Value)> = Vec::new();
        if mask & 1 != 0 {
            let k = (*a % 4) as i64;
            attrs.push((
                "ha",
                if *a_real {
                    Value::real(k as f64)
                } else {
                    Value::int(k)
                },
            ));
        }
        if mask & 2 != 0 {
            let k = (*b % 4) as i64;
            attrs.push((
                "hb",
                if *b_real {
                    Value::real(k as f64)
                } else {
                    Value::int(k)
                },
            ));
        }
        if mask & 4 != 0 {
            attrs.push(("tag", Value::str(NAMES[(*mask as usize) % NAMES.len()])));
        }
        db.create(class, attrs).expect("hot object typechecks");
    }
    Store::new(db, interop_constraint::Catalog::new())
}

fn hot_pred(&(a, a_real, b, b_real, tail): &HotQuerySpec) -> Formula {
    let ka = (a % 5) as i64; // one value outside the data domain: null/empty probes
    let kb = (b % 5) as i64;
    let fa = if a_real {
        Formula::cmp("ha", CmpOp::Eq, ka as f64)
    } else {
        Formula::cmp("ha", CmpOp::Eq, ka)
    };
    let fb = if b_real {
        Formula::cmp("hb", CmpOp::Eq, kb as f64)
    } else {
        Formula::cmp("hb", CmpOp::Eq, kb)
    };
    let pred = fa.and(fb);
    match tail % 3 {
        0 => pred,
        1 => pred.and(Formula::cmp("tag", CmpOp::Ne, "a")),
        _ => pred.and(Formula::cmp("ha", CmpOp::Ge, 1i64)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Composite-heavy sweep: hot equality pairs recur until the store
    /// admits a composite index, and the planner must agree with the
    /// scan oracle before, during, and after admission — across null
    /// paths, `Int`/`Real` collisions, and subclass extensions.
    #[test]
    fn composite_planner_matches_scan_oracle(
        objs in prop::collection::vec(
            (0u8..6, 0u8..8, any::<bool>(), 0u8..8, any::<bool>(), 0u8..8),
            0..30,
        ),
        queries in prop::collection::vec(
            (0u8..8, any::<bool>(), 0u8..8, any::<bool>(), 0u8..6),
            1..5,
        ),
        class_sel in 0u8..4,
        admit_after in 1u32..3,
    ) {
        let mut store = build_hot_store(&objs);
        store.set_composite_policy(CompositePolicy {
            admit_after,
            min_gain: 0.0, // every recurring pair is eligible
            evict_after: u32::MAX,
        });
        let class = ["HBase", "HSub", "HEmpty"][(class_sel as usize) % 3];
        let opt = Optimizer::new(&store, class, vec![]);
        for q in &queries {
            let pred = hot_pred(q);
            // Re-run each query past the admission threshold: the first
            // runs intersect, the later ones probe the composite. Every
            // run must match the oracle.
            for _ in 0..=admit_after {
                let (mut hits, outcome) = opt.execute(&store, &pred).expect("planner executes");
                hits.sort_unstable();
                let expected = oracle_hits(&store, class, &pred);
                prop_assert_eq!(
                    &hits, &expected,
                    "planner and oracle disagree on class {} pred {} (outcome {:?})",
                    class, pred, outcome
                );
            }
        }
    }

    /// Once a composite is admitted, mutating either component of the
    /// pair keeps the composite answer in lockstep with the oracle.
    #[test]
    fn admitted_composite_survives_mutations(
        objs in prop::collection::vec(
            (0u8..6, 0u8..8, any::<bool>(), 0u8..8, any::<bool>(), 0u8..8),
            1..20,
        ),
        flips in prop::collection::vec((0u8..20, 0u8..8, any::<bool>()), 1..8),
    ) {
        let mut store = build_hot_store(&objs);
        store.set_composite_policy(CompositePolicy { admit_after: 1, min_gain: 0.0, evict_after: u32::MAX });
        let opt = Optimizer::new(&store, "HBase", vec![]);
        let pred = Formula::cmp("ha", CmpOp::Eq, 1i64).and(Formula::cmp("hb", CmpOp::Eq, 2.0));
        // Two runs: note + admit, then probe through the composite.
        for _ in 0..2 {
            let _ = opt.execute(&store, &pred).expect("warm-up");
        }
        for (target, v, to_a) in &flips {
            let ids: Vec<_> = store.db().objects().map(|o| o.id).collect();
            if ids.is_empty() { break; }
            let id = ids[(*target as usize) % ids.len()];
            let attr = if *to_a { "ha" } else { "hb" };
            let _ = store.update(id, attr, Value::int((v % 4) as i64));
            let (mut hits, _) = opt.execute(&store, &pred).expect("planner executes");
            hits.sort_unstable();
            prop_assert_eq!(hits, oracle_hits(&store, "HBase", &pred));
        }
    }

    /// The planner and the scan oracle agree on every random query, with
    /// and without the derived constraints armed. A guarded query meets
    /// the conditional constraints' guard: classically the armed
    /// constraints contradict it, but a guarded object leaves `score`
    /// null, so it is a real hit unless a conjunct forces `score`
    /// non-null.
    #[test]
    fn planner_matches_scan_oracle(
        objs in prop::collection::vec(
            (0u8..6, 0i64..200, 0u8..8, 0i64..40, 0i64..100, 0u8..16),
            0..25,
        ),
        atoms in prop::collection::vec((0u8..12, 0u8..8, 0u8..12, -30i16..30), 1..5),
        shape in 0u8..8,
        class_sel in 0u8..8,
        armed in any::<bool>(),
        guarded in any::<bool>(),
        bound in 0i64..=GUARD,
    ) {
        let store = build_store(&objs);
        let class = CLASSES[(class_sel as usize) % CLASSES.len()];
        let mut pred = build_pred(&atoms, shape);
        if guarded {
            pred = Formula::cmp("num", CmpOp::Le, bound).and(pred);
        }
        let constraints = if armed { enforced_constraints() } else { Vec::new() };
        let opt = Optimizer::new(&store, class, constraints);
        let (mut hits, outcome) = opt.execute(&store, &pred).expect("planner executes");
        hits.sort_unstable();
        let expected = oracle_hits(&store, class, &pred);
        prop_assert_eq!(
            &hits, &expected,
            "planner and scan oracle disagree on class {} pred {} (outcome {:?})",
            class, pred, outcome
        );
        if outcome == OptimizeOutcome::PrunedEmpty {
            prop_assert!(
                expected.is_empty(),
                "PrunedEmpty claimed but the scan finds hits for {}", pred
            );
        }
    }

    /// Conjunctive queries — the planner's index-intersection fast path —
    /// agree with the oracle even when every conjunct is index-satisfiable.
    #[test]
    fn conjunctive_index_path_matches_oracle(
        objs in prop::collection::vec(
            (0u8..6, 0i64..200, 0u8..8, 0i64..40, 0i64..100, 0u8..16),
            0..25,
        ),
        atoms in prop::collection::vec((0u8..4, 0u8..8, 0u8..12, -30i16..30), 1..4),
        class_sel in 0u8..8,
    ) {
        let store = build_store(&objs);
        let class = CLASSES[(class_sel as usize) % CLASSES.len()];
        let pred = Formula::conj(atoms.iter().map(build_atom));
        let opt = Optimizer::new(&store, class, enforced_constraints());
        let (mut hits, _) = opt.execute(&store, &pred).expect("planner executes");
        hits.sort_unstable();
        prop_assert_eq!(hits, oracle_hits(&store, class, &pred));
    }

    /// Non-vacuity guard for the composite sweep: a recurring hot pair
    /// on the sweep's store shape really is admitted, really executes
    /// through the composite strategy, and still matches the oracle.
    #[test]
    fn hot_pair_reaches_composite_strategy(seed in 0u8..8) {
        let objs: Vec<HotObjSpec> = (0..16u8)
            .map(|i| (1u8, (i + seed) % 4, i % 2 == 0, (i / 2) % 4, i % 3 == 0, 7u8))
            .collect();
        let mut store = build_hot_store(&objs);
        store.set_composite_policy(CompositePolicy { admit_after: 1, min_gain: 0.0, evict_after: u32::MAX });
        let opt = Optimizer::new(&store, "HBase", vec![]);
        let pred = Formula::cmp("ha", CmpOp::Eq, 1i64).and(Formula::cmp("hb", CmpOp::Eq, 1.0));
        let _ = opt.execute(&store, &pred).expect("warm-up");
        let plan = opt.costed_plan(&store, &pred);
        prop_assert!(plan.composite_probe().is_some(), "sweep shape admits composites");
        let rendered = opt.explain(&store, &pred).to_string();
        prop_assert!(rendered.contains("composite["), "{}", rendered);
        let (mut hits, _) = opt.execute(&store, &pred).expect("composite run");
        hits.sort_unstable();
        prop_assert_eq!(hits, oracle_hits(&store, "HBase", &pred));
    }

    /// Repeating a query against warm indexes returns identical results
    /// (the lazy cache itself is deterministic).
    #[test]
    fn warm_indexes_are_stable(
        objs in prop::collection::vec(
            (0u8..6, 0i64..200, 0u8..8, 0i64..40, 0i64..100, 0u8..16),
            0..20,
        ),
        atoms in prop::collection::vec((0u8..4, 0u8..8, 0u8..12, -30i16..30), 1..4),
    ) {
        let store = build_store(&objs);
        let pred = Formula::conj(atoms.iter().map(build_atom));
        let opt = Optimizer::new(&store, "Base", enforced_constraints());
        let (first, o1) = opt.execute(&store, &pred).expect("cold run");
        let (second, o2) = opt.execute(&store, &pred).expect("warm run");
        prop_assert_eq!(first, second);
        prop_assert_eq!(o1, o2);
    }
}
