//! Constraint-based query optimisation, the costed executor, and the
//! `EXPLAIN` surface.
//!
//! The paper's first motivating use-case (§1): "Global integrity
//! constraints thus obtained could for example be used in optimising
//! queries against the integrated view, eliminating subqueries which are
//! known to yield empty results." The [`Optimizer`] holds the (derived)
//! constraints known to hold for a class and answers a predicate in
//! stages:
//!
//! 1. **Pruning** — `pred ∧ Ω'` unsatisfiable ⇒ empty without touching
//!    an object ([`OptimizeOutcome::PrunedEmpty`]). `Ω'` holds only the
//!    constraints whose paths all lie inside the paths that `pred`'s
//!    top-level atomic conjuncts force non-null
//!    ([`PremiseSet::refutes`]). A stored object may leave any other
//!    constraint `Unknown` (the store rejects only `False`), so reasoning
//!    with it would prune real hits; tautologies are dropped once, when
//!    the optimiser is built.
//! 2. **Key fast path** — `key = const` probes the unique key index.
//! 3. **Costed execution** — the predicate is compiled by
//!    [`crate::plan::build_costed_plan`]: per-`(class, attr)` statistics
//!    estimate every index atom, the kept atoms resolve to sorted posting
//!    lists (lazy per-class secondary indexes: hash for equality, sorted
//!    for ranges) intersected **in plan order, cheapest first**,
//!    implied-true conjuncts are dropped, and residual conjuncts
//!    (including atoms demoted for poor selectivity) are evaluated per
//!    surviving candidate.
//! 4. **Scan** — when no atom is worth intersecting, the extension is
//!    scanned with the residual conjuncts.
//!
//! Every decision is observable: [`Optimizer::explain`] returns an
//! [`Explain`] whose `Display` rendering is stable and snapshot-tested
//! (`tests/explain_snapshot.rs`).

use std::fmt;

use interop_constraint::eval::{eval_formula, Truth};
use interop_constraint::solve::{PremiseSet, TypeEnv};
use interop_constraint::{CmpOp, Expr, Formula, Path};
use interop_model::{intersect_sorted, AttrName, ClassName, ModelError, ObjectId, Value};

use crate::plan::{build_costed_plan, CostedPlan, CostedRole, IndexAtom, ProbeStep};
use crate::store::Store;

/// How a query was answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OptimizeOutcome {
    /// The predicate contradicts known constraints: empty without a scan.
    PrunedEmpty,
    /// Answered via the key index (at most one candidate probed).
    KeyLookup,
    /// Answered by intersecting secondary-index posting lists (residual
    /// conjuncts evaluated on the surviving candidates only).
    IndexScan,
    /// Full extension scan (with implied-true conjuncts dropped).
    Scanned,
}

/// A per-class query optimiser armed with known-valid constraints.
#[derive(Clone, Debug)]
pub struct Optimizer {
    class: ClassName,
    /// Constraints known never to be `False` on an object of the class
    /// (locally enforced ones, or global constraints derived by
    /// `interop-core`).
    constraints: Vec<Formula>,
    /// The same constraints prepared for pruning and implied-true
    /// classification.
    premises: PremiseSet,
    env: TypeEnv,
}

/// How the optimiser decided to answer a predicate (shared by
/// [`Optimizer::execute`] and [`Optimizer::explain`], so what `EXPLAIN`
/// reports is exactly what execution does).
enum Decision {
    Pruned,
    Key { attr: AttrName, value: Value },
    Costed(CostedPlan),
}

impl Optimizer {
    /// Creates an optimiser for `class`, deriving the type environment
    /// from the store's schema.
    pub fn new(store: &Store, class: impl Into<ClassName>, constraints: Vec<Formula>) -> Self {
        let class = class.into();
        let env = TypeEnv::for_class(&store.db().schema, &class);
        let premises = PremiseSet::new(&constraints, &env);
        Optimizer {
            class,
            constraints,
            premises,
            env,
        }
    }

    /// The constraints in use.
    pub fn constraints(&self) -> &[Formula] {
        &self.constraints
    }

    /// Compiles `pred` into a [`CostedPlan`] against the store's
    /// statistics (built lazily on first use).
    pub fn costed_plan(&self, store: &Store, pred: &Formula) -> CostedPlan {
        build_costed_plan(&self.class, pred, &self.premises, &self.env, store)
    }

    fn decide(&self, store: &Store, pred: &Formula) -> Decision {
        // 1. Pruning: pred contradicts the premises it forces two-valued.
        if self.premises.refutes(pred, &self.env) {
            return Decision::Pruned;
        }
        // 2. Key fast path: `key = const` predicates probe the index.
        if let Some(key_attrs) = store.key_attrs(&self.class) {
            if key_attrs.len() == 1 {
                if let Some(v) = key_eq_value(pred, &Path::attr(key_attrs[0].clone())) {
                    return Decision::Key {
                        attr: key_attrs[0].clone(),
                        value: v,
                    };
                }
            }
        }
        // 3. Cost-based planning.
        Decision::Costed(self.costed_plan(store, pred))
    }

    /// Answers `pred` over the class, using constraint pruning, the key
    /// index, and costed posting-list execution before falling back to a
    /// scan. Hits are returned in ascending id order.
    pub fn execute(
        &self,
        store: &Store,
        pred: &Formula,
    ) -> Result<(Vec<ObjectId>, OptimizeOutcome), ModelError> {
        match self.decide(store, pred) {
            Decision::Pruned => Ok((Vec::new(), OptimizeOutcome::PrunedEmpty)),
            Decision::Key { value, .. } => {
                let mut out = Vec::new();
                if let Some(id) = store.lookup_key(&self.class, &[value]) {
                    // The index spans the keyed ancestor's extension;
                    // re-check class membership and the full predicate.
                    let obj = store.db().object_req(id)?;
                    let in_class = store.db().schema.is_subclass(&obj.class, &self.class);
                    if in_class && eval_formula(store.db(), obj, pred)? == Truth::True {
                        out.push(id);
                    }
                }
                Ok((out, OptimizeOutcome::KeyLookup))
            }
            Decision::Costed(plan) => execute_costed(store, &plan),
        }
    }

    /// Explains how `pred` would be answered, without answering it: the
    /// chosen strategy, the per-conjunct classification, the plan-time
    /// cardinality estimates, and the intersection order. The rendering
    /// ([`Explain`]'s `Display`) is stable across runs for a given store
    /// state and is pinned by snapshot tests.
    pub fn explain(&self, store: &Store, pred: &Formula) -> Explain {
        let strategy = match self.decide(store, pred) {
            Decision::Pruned => ExplainStrategy::PrunedEmpty,
            Decision::Key { attr, .. } => ExplainStrategy::KeyLookup { attr },
            Decision::Costed(plan) => {
                if plan.uses_index() {
                    ExplainStrategy::IndexScan { plan }
                } else {
                    ExplainStrategy::Scan { plan }
                }
            }
        };
        Explain {
            class: self.class.clone(),
            extension: store.db().extension(&self.class).len(),
            strategy,
        }
    }
}

/// How a predicate would be answered, with the evidence: the paper's
/// derived-constraint pruning and the cost model's decisions made
/// inspectable. Obtained from [`Optimizer::explain`]; render with
/// `Display` for a stable, snapshot-testable plan description.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The queried class.
    pub class: ClassName,
    /// Exact extension size at explain time.
    pub extension: usize,
    /// The chosen strategy with its plan, when one was compiled.
    pub strategy: ExplainStrategy,
}

/// The strategy arm of an [`Explain`].
#[derive(Clone, Debug)]
pub enum ExplainStrategy {
    /// The predicate contradicts the known constraints.
    PrunedEmpty,
    /// A unique-key probe answers the query.
    KeyLookup {
        /// The key attribute probed.
        attr: AttrName,
    },
    /// Posting-list intersection with residual evaluation.
    IndexScan {
        /// The costed plan (at least one atom kept).
        plan: CostedPlan,
    },
    /// Extension scan: no atom was estimated worth intersecting.
    Scan {
        /// The costed plan (every atom demoted or residual).
        plan: CostedPlan,
    },
}

impl Explain {
    /// The costed plan, when the strategy compiled one.
    pub fn plan(&self) -> Option<&CostedPlan> {
        match &self.strategy {
            ExplainStrategy::IndexScan { plan } | ExplainStrategy::Scan { plan } => Some(plan),
            _ => None,
        }
    }

    /// The [`OptimizeOutcome`] execution would report.
    pub fn outcome(&self) -> OptimizeOutcome {
        match &self.strategy {
            ExplainStrategy::PrunedEmpty => OptimizeOutcome::PrunedEmpty,
            ExplainStrategy::KeyLookup { .. } => OptimizeOutcome::KeyLookup,
            ExplainStrategy::IndexScan { .. } => OptimizeOutcome::IndexScan,
            ExplainStrategy::Scan { .. } => OptimizeOutcome::Scanned,
        }
    }
}

fn pct(est: usize, n: usize) -> String {
    if n == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", est as f64 * 100.0 / n as f64)
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "class {} (extension {})", self.class, self.extension)?;
        match &self.strategy {
            ExplainStrategy::PrunedEmpty => {
                writeln!(
                    f,
                    "strategy: pruned-empty (predicate contradicts known constraints)"
                )
            }
            ExplainStrategy::KeyLookup { attr } => {
                writeln!(f, "strategy: key-lookup ({attr})")
            }
            ExplainStrategy::IndexScan { plan } => {
                match plan.est_rows() {
                    Some(est) => writeln!(f, "strategy: index-scan (est. {est} rows)")?,
                    None => writeln!(f, "strategy: index-scan")?,
                }
                render_conjuncts(f, plan)
            }
            ExplainStrategy::Scan { plan } => {
                writeln!(f, "strategy: scan")?;
                render_conjuncts(f, plan)
            }
        }
    }
}

/// The execution-order slot of the composite probe at conjunct `at` —
/// for the `covered` rendering, which points back at its carrier.
fn composite_order(plan: &CostedPlan, at: usize) -> usize {
    match &plan.conjuncts[at].role {
        CostedRole::Composite { order, .. } => *order,
        other => unreachable!("covered conjunct points at a composite, found {other:?}"),
    }
}

fn render_conjuncts(f: &mut fmt::Formatter<'_>, plan: &CostedPlan) -> fmt::Result {
    let n = plan.extension;
    for c in &plan.conjuncts {
        match &c.role {
            CostedRole::Index { est, order, .. } => writeln!(
                f,
                "  isect[{order}]  {}  est {est} rows ({})",
                c.formula,
                pct(*est, n)
            )?,
            CostedRole::Composite {
                probe,
                est,
                order,
                replaced,
                covers,
            } => {
                let (a, b) = probe.attr_pair();
                writeln!(
                    f,
                    "  composite[{order}]({a}, {b})  {} and {}  est {est} rows ({}) — replaces isect est {} ∩ {}",
                    c.formula,
                    plan.conjuncts[*covers].formula,
                    pct(*est, n),
                    replaced.0,
                    replaced.1
                )?;
            }
            CostedRole::CoveredByComposite { by } => writeln!(
                f,
                "  covered   {}  (answered by composite[{}])",
                c.formula,
                composite_order(plan, *by)
            )?,
            CostedRole::Demoted { est, .. } => writeln!(
                f,
                "  demoted   {}  est {est} rows ({}) — poor selectivity",
                c.formula,
                pct(*est, n)
            )?,
            CostedRole::Residual { hint: Some(h) } => writeln!(
                f,
                "  residual  {}  (domain prior {:.1}%)",
                c.formula,
                h * 100.0
            )?,
            CostedRole::Residual { hint: None } => writeln!(f, "  residual  {}", c.formula)?,
            CostedRole::ImpliedTrue => writeln!(
                f,
                "  implied   {}  (entailed by constraints; dropped)",
                c.formula
            )?,
        }
    }
    Ok(())
}

/// Executes a costed plan: resolves the probes — kept index atoms and
/// admitted composite pair lookups — to sorted posting lists **in plan
/// order** (cheapest estimate first), intersects them batch-wise with
/// early exit, and evaluates residual conjuncts — including demoted
/// atoms — on the surviving candidates. With no probe the class
/// extension is scanned instead. Hits are in ascending id order.
pub fn execute_costed(
    store: &Store,
    plan: &CostedPlan,
) -> Result<(Vec<ObjectId>, OptimizeOutcome), ModelError> {
    let steps = plan.probe_steps();
    let residuals = plan.residuals();
    if steps.is_empty() {
        let mut hits = Vec::new();
        let mut ids = store.db().extension(&plan.class);
        ids.sort_unstable();
        for id in ids {
            let obj = store.db().object_req(id)?;
            if passes(store, obj, &residuals)? {
                hits.push(id);
            }
        }
        return Ok((hits, OptimizeOutcome::Scanned));
    }
    let mut candidates: Option<Vec<ObjectId>> = None;
    for step in steps {
        if candidates.as_ref().is_some_and(Vec::is_empty) {
            break;
        }
        let postings = match step {
            ProbeStep::Atom { atom, .. } => resolve_atom(store, &plan.class, atom),
            ProbeStep::Composite { probe, .. } => {
                let (a, b) = probe.attr_pair();
                let (ka, kb) = probe.key_pair();
                store
                    .composite_index(&plan.class, a, b)
                    .postings(ka, kb)
                    .to_vec()
            }
        };
        candidates = Some(match candidates {
            None => postings,
            Some(cur) => intersect_sorted(&cur, &postings),
        });
    }
    let mut hits = Vec::new();
    for id in candidates.unwrap_or_default() {
        let obj = store.db().object_req(id)?;
        if passes(store, obj, &residuals)? {
            hits.push(id);
        }
    }
    Ok((hits, OptimizeOutcome::IndexScan))
}

fn passes(
    store: &Store,
    obj: &interop_model::Object,
    residuals: &[&Formula],
) -> Result<bool, ModelError> {
    for f in residuals {
        if eval_formula(store.db(), obj, f)? != Truth::True {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Resolves one index atom to a sorted posting list against the store's
/// lazy secondary indexes.
fn resolve_atom(store: &Store, class: &ClassName, atom: &IndexAtom) -> Vec<ObjectId> {
    match atom {
        IndexAtom::Eq { attr, key } => store.hash_index(class, attr).postings(key).to_vec(),
        IndexAtom::In { attr, keys } => {
            let idx = store.hash_index(class, attr);
            // Canonical keys are distinct, so posting lists are disjoint:
            // concatenating and sorting yields a duplicate-free union.
            let mut out: Vec<ObjectId> = keys
                .iter()
                .flat_map(|k| idx.postings(k).iter().copied())
                .collect();
            out.sort_unstable();
            out
        }
        IndexAtom::Range { attr, lo, hi } => store.sorted_index(class, attr).range_ids(*lo, *hi),
    }
}

/// If `pred` is (a conjunction containing) `key = const`, returns the
/// constant.
fn key_eq_value(pred: &Formula, key: &Path) -> Option<Value> {
    match pred {
        Formula::Cmp(Expr::Attr(p), CmpOp::Eq, Expr::Const(v)) if p == key => Some(v.clone()),
        Formula::Cmp(Expr::Const(v), CmpOp::Eq, Expr::Attr(p)) if p == key => Some(v.clone()),
        Formula::And(fs) => fs.iter().find_map(|f| key_eq_value(f, key)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use interop_constraint::{Catalog, ClassConstraint, ConstraintId, ObjectConstraint};
    use interop_model::{ClassDef, Database, DbName, Schema, Type};

    fn store_with_items(n: i64) -> Store {
        let schema = Schema::new(
            "B",
            vec![ClassDef::new("Item")
                .attr("isbn", Type::Str)
                .attr("libprice", Type::Real)
                .attr("rating", Type::Range(1, 10))],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.add_class(ClassConstraint::key(
            ConstraintId::new(&DbName::new("B"), &ClassName::new("Item"), "cc1"),
            "Item",
            vec!["isbn"],
        ));
        let mut s = Store::new(Database::new(schema, 1), cat);
        for i in 0..n {
            s.create(
                "Item",
                vec![
                    ("isbn", Value::str(format!("isbn-{i}"))),
                    ("libprice", Value::real(10.0 + i as f64)),
                    ("rating", Value::int(1 + (i % 10))),
                ],
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn pruning_detects_contradiction_with_constraints() {
        let s = store_with_items(100);
        // Derived global constraint: rating >= 5 (say, from integration).
        let opt = Optimizer::new(&s, "Item", vec![Formula::cmp("rating", CmpOp::Ge, 5i64)]);
        let (hits, outcome) = opt
            .execute(&s, &Formula::cmp("rating", CmpOp::Lt, 5i64))
            .unwrap();
        assert_eq!(outcome, OptimizeOutcome::PrunedEmpty);
        assert!(hits.is_empty());
    }

    #[test]
    fn pruning_ignores_premises_the_query_leaves_nullable() {
        // Enforced: a >= 1 implies b >= 1, and a >= 1 implies b <= 0.
        // Classically no object has a >= 1, but {a: 5, b: null} leaves
        // both Unknown, so the store accepts it and the scan returns it.
        let schema = Schema::new(
            "N",
            vec![ClassDef::new("Pair")
                .attr("a", Type::Int)
                .attr("b", Type::Int)],
        )
        .unwrap();
        let a_ge_1 = Formula::cmp("a", CmpOp::Ge, 1i64);
        let bodies = [
            Formula::cmp("b", CmpOp::Ge, 1i64),
            Formula::cmp("b", CmpOp::Le, 0i64),
        ];
        let mut cat = Catalog::new();
        for (i, body) in bodies.iter().enumerate() {
            cat.add_object(ObjectConstraint::new(
                ConstraintId::new(
                    &DbName::new("N"),
                    &ClassName::new("Pair"),
                    &format!("oc{i}"),
                ),
                "Pair",
                a_ge_1.clone().implies(body.clone()),
            ));
        }
        let constraints: Vec<Formula> = cat.all_object().map(|c| c.formula.clone()).collect();
        let mut s = Store::new(Database::new(schema, 1), cat);
        s.create("Pair", vec![("a", Value::int(5))]).unwrap();
        s.create("Pair", vec![("a", Value::int(0)), ("b", Value::int(3))])
            .unwrap();
        let opt = Optimizer::new(&s, "Pair", constraints);
        let (hits, outcome) = opt.execute(&s, &a_ge_1).unwrap();
        let mut scanned = Query::new("Pair", a_ge_1.clone()).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(scanned.len(), 1);
        assert_eq!(hits, scanned, "pruned a real hit ({outcome:?})");
        // Forcing b non-null makes both premises usable: now pruned.
        let forced = a_ge_1.and(Formula::cmp("b", CmpOp::Eq, 3i64));
        let (hits, outcome) = opt.execute(&s, &forced).unwrap();
        assert_eq!(outcome, OptimizeOutcome::PrunedEmpty);
        assert!(hits.is_empty());
    }

    #[test]
    fn pruning_respects_type_ranges() {
        let s = store_with_items(10);
        let opt = Optimizer::new(&s, "Item", vec![]);
        let (hits, outcome) = opt
            .execute(&s, &Formula::cmp("rating", CmpOp::Gt, 10i64))
            .unwrap();
        assert_eq!(outcome, OptimizeOutcome::PrunedEmpty);
        assert!(hits.is_empty());
    }

    #[test]
    fn key_lookup_path() {
        let s = store_with_items(50);
        let opt = Optimizer::new(&s, "Item", vec![]);
        let (hits, outcome) = opt
            .execute(&s, &Formula::cmp("isbn", CmpOp::Eq, "isbn-7"))
            .unwrap();
        assert_eq!(outcome, OptimizeOutcome::KeyLookup);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn key_lookup_respects_extra_conjuncts() {
        let s = store_with_items(50);
        let opt = Optimizer::new(&s, "Item", vec![]);
        let pred = Formula::cmp("isbn", CmpOp::Eq, "isbn-7").and(Formula::cmp(
            "libprice",
            CmpOp::Gt,
            1000.0,
        ));
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        assert_eq!(outcome, OptimizeOutcome::KeyLookup);
        assert!(hits.is_empty(), "extra conjunct filters the probe");
    }

    #[test]
    fn range_predicate_uses_index_and_matches_scan() {
        let s = store_with_items(30);
        let opt = Optimizer::new(&s, "Item", vec![]);
        let pred = Formula::cmp("libprice", CmpOp::Ge, 30.0);
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        assert_eq!(outcome, OptimizeOutcome::IndexScan);
        let mut scanned = Query::new("Item", pred).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(hits, scanned);
    }

    #[test]
    fn satisfiable_predicate_not_pruned() {
        let s = store_with_items(10);
        let opt = Optimizer::new(&s, "Item", vec![Formula::cmp("rating", CmpOp::Ge, 5i64)]);
        let (_, outcome) = opt
            .execute(&s, &Formula::cmp("rating", CmpOp::Ge, 7i64))
            .unwrap();
        assert_eq!(outcome, OptimizeOutcome::IndexScan);
    }

    #[test]
    fn residual_predicates_scan_without_index() {
        let s = store_with_items(20);
        let opt = Optimizer::new(&s, "Item", vec![]);
        // A disjunction is not index-satisfiable: scans, same answer.
        let pred =
            Formula::cmp("rating", CmpOp::Le, 2i64).or(Formula::cmp("rating", CmpOp::Ge, 9i64));
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        assert_eq!(outcome, OptimizeOutcome::Scanned);
        let mut scanned = Query::new("Item", pred).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(hits, scanned);
    }

    #[test]
    fn conjunction_intersects_postings_and_keeps_residuals() {
        let s = store_with_items(60);
        let opt = Optimizer::new(&s, "Item", vec![]);
        // rating = 3 (hash) ∧ libprice <= 40 (sorted) ∧ isbn <> 'isbn-2'
        // (residual).
        let pred = Formula::cmp("rating", CmpOp::Eq, 3i64)
            .and(Formula::cmp("libprice", CmpOp::Le, 40.0))
            .and(Formula::cmp("isbn", CmpOp::Ne, "isbn-2"));
        let plan = opt.costed_plan(&s, &pred);
        assert_eq!(plan.counts(), (2, 0, 1, 0));
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        assert_eq!(outcome, OptimizeOutcome::IndexScan);
        let mut scanned = Query::new("Item", pred).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(hits, scanned);
    }

    #[test]
    fn implied_true_conjunct_dropped_with_same_answer() {
        let s = store_with_items(40);
        let constraint = Formula::cmp("rating", CmpOp::Ge, 1i64);
        let opt = Optimizer::new(&s, "Item", vec![constraint]);
        let pred =
            Formula::cmp("rating", CmpOp::Eq, 4i64).and(Formula::cmp("rating", CmpOp::Ge, 1i64));
        let plan = opt.costed_plan(&s, &pred);
        assert_eq!(plan.counts(), (1, 0, 0, 1), "implied conjunct dropped");
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        assert_eq!(outcome, OptimizeOutcome::IndexScan);
        let mut scanned = Query::new("Item", pred).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(hits, scanned);
    }

    #[test]
    fn empty_in_set_short_circuits_to_empty() {
        let s = store_with_items(10);
        let opt = Optimizer::new(&s, "Item", vec![]);
        let pred = Formula::In(Expr::attr("isbn"), std::collections::BTreeSet::new());
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        // The solver already refutes an empty membership set.
        assert!(hits.is_empty());
        assert_eq!(outcome, OptimizeOutcome::PrunedEmpty);
    }

    #[test]
    fn poor_selectivity_demotes_to_scan_on_large_extensions() {
        let s = store_with_items(500);
        let opt = Optimizer::new(&s, "Item", vec![]);
        // rating >= 2 matches ~90% of 500 items: intersecting 450
        // postings prunes nothing; the cost model scans instead.
        let pred = Formula::cmp("rating", CmpOp::Ge, 2i64);
        let plan = opt.costed_plan(&s, &pred);
        assert!(!plan.uses_index(), "poor-selectivity atom demoted");
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        assert_eq!(outcome, OptimizeOutcome::Scanned);
        let mut scanned = Query::new("Item", pred.clone()).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(hits, scanned);
        // A selective conjunct flips the same shape back to the index.
        let selective = Formula::cmp("rating", CmpOp::Eq, 3i64);
        let (_, outcome) = opt.execute(&s, &selective).unwrap();
        assert_eq!(outcome, OptimizeOutcome::IndexScan);
    }

    #[test]
    fn intersection_ordered_by_plan_time_estimate() {
        let s = store_with_items(600);
        let opt = Optimizer::new(&s, "Item", vec![]);
        // rating = 3 matches 60 rows; libprice <= 259.5 matches ~250 —
        // the equality must be intersected first.
        let pred =
            Formula::cmp("libprice", CmpOp::Le, 259.5).and(Formula::cmp("rating", CmpOp::Eq, 3i64));
        let plan = opt.costed_plan(&s, &pred);
        let steps = plan.index_steps();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].0.attr().as_str(), "rating");
        assert!(steps[0].1 < steps[1].1);
        let (hits, outcome) = opt.execute(&s, &pred).unwrap();
        assert_eq!(outcome, OptimizeOutcome::IndexScan);
        let mut scanned = Query::new("Item", pred).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(hits, scanned);
    }

    #[test]
    fn explain_matches_execution_for_every_strategy() {
        let s = store_with_items(200);
        let opt = Optimizer::new(&s, "Item", vec![Formula::cmp("rating", CmpOp::Ge, 1i64)]);
        for pred in [
            Formula::cmp("rating", CmpOp::Gt, 10i64),  // pruned
            Formula::cmp("isbn", CmpOp::Eq, "isbn-7"), // key lookup
            Formula::cmp("rating", CmpOp::Eq, 4i64),   // index scan
            Formula::cmp("rating", CmpOp::Ge, 2i64),   // demoted scan
            Formula::cmp("rating", CmpOp::Le, 2i64).or(Formula::cmp("rating", CmpOp::Ge, 9i64)), // residual scan
        ] {
            let ex = opt.explain(&s, &pred);
            let (_, outcome) = opt.execute(&s, &pred).unwrap();
            assert_eq!(ex.outcome(), outcome, "explain diverged on {pred}");
        }
    }

    #[test]
    fn explain_renders_stable_description() {
        let s = store_with_items(200);
        let opt = Optimizer::new(&s, "Item", vec![Formula::cmp("rating", CmpOp::Ge, 1i64)]);
        let pred = Formula::cmp("rating", CmpOp::Eq, 4i64)
            .and(Formula::cmp("libprice", CmpOp::Le, 19.5))
            .and(Formula::cmp("isbn", CmpOp::Ne, "isbn-3"))
            .and(Formula::cmp("rating", CmpOp::Ge, 1i64));
        let ex = opt.explain(&s, &pred);
        let rendered = ex.to_string();
        assert!(rendered.starts_with("class Item (extension 200)"));
        assert!(rendered.contains("strategy: index-scan"), "{rendered}");
        assert!(rendered.contains("isect[0]"), "{rendered}");
        assert!(rendered.contains("isect[1]"), "{rendered}");
        assert!(rendered.contains("residual"), "{rendered}");
        assert!(
            rendered.contains("implied") && rendered.contains("dropped"),
            "{rendered}"
        );
        // Deterministic: a second explain renders byte-identically.
        assert_eq!(rendered, opt.explain(&s, &pred).to_string());
    }

    #[test]
    fn admitted_composite_executes_identically_to_intersection() {
        use crate::store::CompositePolicy;
        let mut s = store_with_items(100);
        s.set_composite_policy(CompositePolicy {
            admit_after: 1,
            min_gain: 0.0,
            evict_after: u32::MAX,
        });
        let opt = Optimizer::new(&s, "Item", vec![]);
        let pred =
            Formula::cmp("rating", CmpOp::Eq, 3i64).and(Formula::cmp("libprice", CmpOp::Eq, 12.0));
        // First execution intersects two postings and notes the pair.
        let (hits1, o1) = opt.execute(&s, &pred).unwrap();
        assert_eq!(o1, OptimizeOutcome::IndexScan);
        let plan = opt.costed_plan(&s, &pred);
        let probe = plan.composite_probe().expect("pair admitted");
        assert_eq!(probe.attr_pair().0.as_str(), "libprice");
        assert_eq!(probe.attr_pair().1.as_str(), "rating");
        // The composite answer equals the intersection answer and the
        // scan oracle.
        let (hits2, o2) = opt.execute(&s, &pred).unwrap();
        assert_eq!(o2, OptimizeOutcome::IndexScan);
        assert_eq!(hits1, hits2);
        let mut scanned = Query::new("Item", pred.clone()).scan(&s).unwrap();
        scanned.sort_unstable();
        assert_eq!(hits2, scanned);
        assert_eq!(hits2.len(), 1);
        // A mutation re-keys the composite posting; no stale pair served.
        s.update(hits2[0], "rating", Value::int(4)).unwrap();
        let (hits3, _) = opt.execute(&s, &pred).unwrap();
        assert!(hits3.is_empty(), "composite followed the update");
        // EXPLAIN renders the composite and covered lines and reports
        // exactly what execution does.
        let ex = opt.explain(&s, &pred);
        let rendered = ex.to_string();
        assert!(
            rendered.contains("composite[0](libprice, rating)"),
            "{rendered}"
        );
        assert!(rendered.contains("replaces isect est"), "{rendered}");
        assert!(rendered.contains("answered by composite[0]"), "{rendered}");
        assert_eq!(ex.outcome(), OptimizeOutcome::IndexScan);
    }

    #[test]
    fn stale_secondary_index_never_served() {
        let mut s = store_with_items(10);
        let opt = Optimizer::new(&s, "Item", vec![]);
        let pred = Formula::cmp("rating", CmpOp::Eq, 1i64);
        let (hits_before, _) = opt.execute(&s, &pred).unwrap();
        let (v0, n0) = s.secondary_cache_stats();
        assert!(n0 > 0, "index cached after first planned query");
        // Mutate: every rating-1 item switches to rating 2.
        for id in hits_before.clone() {
            s.update(id, "rating", Value::int(2)).unwrap();
        }
        let (hits_after, _) = opt.execute(&s, &pred).unwrap();
        assert!(hits_after.is_empty(), "stale postings must not be read");
        let (v1, _) = s.secondary_cache_stats();
        assert!(v1 > v0, "cache rebuilt at the new store version");
    }
}
