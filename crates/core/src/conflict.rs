//! Conflict detection (§5.2.1): explicit, implicit, admission, and
//! instance-level conflicts on the integrated view.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;

use interop_conform::Conformed;
use interop_constraint::eval::{eval_formula_with, Truth};
use interop_constraint::solve::{conjunction_unsat, implies, TypeEnv};
use interop_constraint::{CmpOp, ConstraintId, Expr, Formula, Path, Status};
use interop_merge::{GlobalObject, IntegratedView};
use interop_model::fx::FxHashMap;
use interop_model::{ClassName, ObjectId, Value};
use interop_spec::{DfKind, RuleId, Side};

use crate::derive::{DerivedConstraint, GlobalConstraints, Scope};

/// The kinds of conflicts the paper distinguishes.
#[derive(Clone, Debug, PartialEq)]
pub enum ConflictKind {
    /// The integrated constraint set of a scope is unsatisfiable
    /// (`Ω̂ ⊨ false`).
    Explicit {
        /// The inconsistent scope.
        scope: Scope,
        /// The participating constraints.
        constraints: Vec<ConstraintId>,
    },
    /// An objective constraint involves a property fused by a
    /// conflict-*ignoring* function without an equivalent constraint on
    /// the other side: a global object may violate it non-deterministically.
    Implicit {
        /// The at-risk objective constraint.
        constraint: ConstraintId,
        /// The property whose non-deterministic global value causes it.
        path: Path,
    },
    /// A strict-similarity rule admits objects that are not provably
    /// valid members of the target class (`Ω' ⊭ Ω̂`).
    Admission {
        /// The rule.
        rule: RuleId,
        /// The target constraint not implied.
        violated: ConstraintId,
        /// What admission would need to imply.
        needed: Formula,
    },
    /// A global object's actual state violates an integrated constraint.
    InstanceViolation {
        /// The violating global object.
        object: ObjectId,
        /// The violated derived constraint (display form).
        constraint: String,
    },
}

/// A detected conflict with a readable description.
#[derive(Clone, Debug, PartialEq)]
pub struct Conflict {
    /// What kind of conflict.
    pub kind: ConflictKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

/// Runs all conflict analyses.
pub fn detect_conflicts(
    conf: &Conformed,
    statuses: &BTreeMap<ConstraintId, Status>,
    global: &GlobalConstraints,
    view: &IntegratedView,
) -> Vec<Conflict> {
    let mut out = Vec::new();
    explicit_conflicts(&mut out, conf, global);
    implicit_conflicts(&mut out, conf, statuses);
    for af in &global.admission_failures {
        out.push(Conflict {
            detail: format!(
                "admission conflict: rule {} admits objects not provably satisfying {} ({})",
                af.rule, af.violated, af.needed
            ),
            kind: ConflictKind::Admission {
                rule: af.rule.clone(),
                violated: af.violated.clone(),
                needed: af.needed.clone(),
            },
        });
    }
    instance_violations(&mut out, global, view);
    out
}

fn env_for_scope(conf: &Conformed, scope: &Scope) -> TypeEnv {
    let mut env = TypeEnv::new();
    for class in scope.classes() {
        for schema in [&conf.local.db.schema, &conf.remote.db.schema] {
            if schema.class(class).is_some() {
                for (p, t) in TypeEnv::for_class(schema, class).iter() {
                    if env.get(p).is_none() {
                        env.insert(p.clone(), t.clone());
                    }
                }
            }
        }
    }
    env
}

/// Gathers every derived constraint applicable within a scope: the
/// scope's own constraints plus `All`-scoped constraints on the scope's
/// classes and their ancestors.
fn applicable<'a>(
    conf: &Conformed,
    global: &'a GlobalConstraints,
    scope: &Scope,
) -> Vec<&'a crate::derive::DerivedConstraint> {
    let mut classes: Vec<ClassName> = Vec::new();
    for c in scope.classes() {
        for schema in [&conf.local.db.schema, &conf.remote.db.schema] {
            if schema.class(c).is_some() {
                classes.extend(schema.self_and_ancestors(c));
            }
        }
        classes.push(c.clone());
    }
    classes.sort();
    classes.dedup();
    global
        .object
        .iter()
        .filter(|d| &d.scope == scope || matches!(&d.scope, Scope::All(c) if classes.contains(c)))
        .collect()
}

fn explicit_conflicts(out: &mut Vec<Conflict>, conf: &Conformed, global: &GlobalConstraints) {
    let mut scopes: Vec<Scope> = global.object.iter().map(|d| d.scope.clone()).collect();
    scopes.sort();
    scopes.dedup();
    for scope in scopes {
        let constraints = applicable(conf, global, &scope);
        if constraints.len() < 2 {
            continue;
        }
        let env = env_for_scope(conf, &scope);
        let formulas: Vec<&Formula> = constraints.iter().map(|d| &d.formula).collect();
        if conjunction_unsat(&formulas, &env) {
            let ids: Vec<ConstraintId> = constraints.iter().map(|d| d.id.clone()).collect();
            out.push(Conflict {
                detail: format!(
                    "explicit conflict: the integrated constraints of scope '{scope}' are \
                     unsatisfiable ({} constraints involved)",
                    ids.len()
                ),
                kind: ConflictKind::Explicit {
                    scope,
                    constraints: ids,
                },
            });
        }
    }
}

/// §5.2.1: implicit conflicts arise only for objective constraints over
/// properties fused by conflict-ignoring functions, when the other side
/// lacks an equivalent restriction.
fn implicit_conflicts(
    out: &mut Vec<Conflict>,
    conf: &Conformed,
    statuses: &BTreeMap<ConstraintId, Status>,
) {
    for (side, catalog, schema, other_catalog, other_schema) in [
        (
            Side::Local,
            &conf.local.catalog,
            &conf.local.db.schema,
            &conf.remote.catalog,
            &conf.remote.db.schema,
        ),
        (
            Side::Remote,
            &conf.remote.catalog,
            &conf.remote.db.schema,
            &conf.local.catalog,
            &conf.local.db.schema,
        ),
    ] {
        for oc in catalog.all_object() {
            if statuses.get(&oc.id) != Some(&Status::Objective) {
                continue;
            }
            for path in oc.formula.paths() {
                // Is this path governed by a conflict-ignoring df?
                let pe = conf.spec.propeqs.iter().find(|pe| {
                    let (cls, p) = match side {
                        Side::Local => (&pe.local_class, &pe.local_path),
                        Side::Remote => (&pe.remote_class, &pe.remote_path),
                    };
                    p.head() == path.head() && schema.is_subclass(&oc.class, cls)
                        || (path.len() > 1 && p.head() == path.0.last())
                });
                let Some(pe) = pe else { continue };
                if pe.df.kind() != DfKind::Ignoring {
                    continue;
                }
                // Does the other side enforce an equivalent restriction?
                let other_class = match side {
                    Side::Local => &pe.remote_class,
                    Side::Remote => &pe.local_class,
                };
                if other_schema.class(other_class).is_none() {
                    continue;
                }
                let other_formula = Formula::conj(
                    other_catalog
                        .object_effective(other_schema, other_class)
                        .iter()
                        .map(|c| c.formula.clone()),
                );
                let mut env = TypeEnv::for_class(schema, &oc.class);
                for (p, t) in TypeEnv::for_class(other_schema, other_class).iter() {
                    if env.get(p).is_none() {
                        env.insert(p.clone(), t.clone());
                    }
                }
                // Compare on the shared conformed property name: the
                // other side's constraints must imply this one restricted
                // to the ignored path.
                if !implies(&other_formula, &oc.formula, &env) {
                    out.push(Conflict {
                        detail: format!(
                            "implicit conflict risk: objective constraint {} restricts '{path}' \
                             whose global value may come from the other side (df = any), and \
                             the other side does not enforce an equivalent restriction",
                            oc.id
                        ),
                        kind: ConflictKind::Implicit {
                            constraint: oc.id.clone(),
                            path: path.clone(),
                        },
                    });
                }
            }
        }
    }
}

/// §5.2.1's instance check, column at a time, over the constraints that
/// can fail. Each derived constraint compiles once to a [`Skeleton`] over
/// one table of interned atoms, and a constraint whose skeleton cannot be
/// `False` on any member ([`Skeleton::range`]) is dropped before any
/// object is read. Each distinct scope lists its members once and reads
/// each member's paths (those of its constraints' atoms) once, through
/// [`IntegratedView::get_path`]. Each atom is then evaluated by the
/// shared `eval_formula_with` over those gathered values, into a column
/// of [`Truth`], and a constraint's verdict combines its atoms' columns
/// with Kleene `min`/`max`. Violations come out constraint-major in
/// `global.object` order, each constraint's members in extension order.
fn instance_violations(out: &mut Vec<Conflict>, global: &GlobalConstraints, view: &IntegratedView) {
    let mut atoms = Atoms::default();
    let skeletons: Vec<Skeleton> = global
        .object
        .iter()
        .map(|d| atoms.compile(&d.formula))
        .collect();
    let mut by_scope: BTreeMap<&Scope, Vec<usize>> = BTreeMap::new();
    for (i, d) in global.object.iter().enumerate() {
        if skeletons[i].range(&atoms).0 == Truth::False {
            by_scope.entry(&d.scope).or_default().push(i);
        }
    }
    let mut violations: Vec<(usize, ObjectId)> = Vec::new();
    for (scope, constraints) in by_scope {
        let members = scope_members(view, scope);
        if members.is_empty() {
            continue;
        }
        // The atoms the scope's constraints use, each once. Their columns
        // live for one scope.
        let mut seen = vec![false; atoms.table.len()];
        let mut used: Vec<usize> = Vec::new();
        for &i in &constraints {
            skeletons[i].for_each_atom(&mut |a| {
                if !std::mem::replace(&mut seen[a], true) {
                    used.push(a);
                }
            });
        }
        let columns = atoms.columns(view, &members, &used);
        let mut verdict = vec![Truth::Unknown; members.len()];
        for &i in &constraints {
            skeletons[i].fill(&columns, &mut verdict);
            violations.extend(
                verdict
                    .iter()
                    .zip(&members)
                    .filter(|(t, _)| **t == Truth::False)
                    .map(|(_, o)| (i, o.id)),
            );
        }
    }
    // Stable: each constraint's members stay in extension order.
    violations.sort_by_key(|&(i, _)| i);
    out.extend(
        violations
            .into_iter()
            .map(|(i, object)| instance_conflict(&global.object[i], object)),
    );
}

fn instance_conflict(d: &DerivedConstraint, object: ObjectId) -> Conflict {
    Conflict {
        detail: format!(
            "instance violation: global object {object} violates derived constraint {} ({})",
            d.id, d.formula
        ),
        kind: ConflictKind::InstanceViolation {
            object,
            constraint: d.to_string(),
        },
    }
}

/// The members of `scope`, in extension order: `Merged(l, r)` takes the
/// objects of `l` with both sides that are also in `r`; `LocalOnly` and
/// `RemoteOnly` take the objects without a remote or a local side.
fn scope_members<'v>(view: &'v IntegratedView, scope: &Scope) -> Vec<&'v GlobalObject> {
    match scope {
        Scope::All(c) => view.extension(c),
        // Both extensions are sorted sets, so one walk over the pair
        // replaces a lookup in `r`'s per member of `l`.
        Scope::Merged(lc, rc) => view
            .hierarchy
            .extension(lc)
            .intersection(view.hierarchy.extension(rc))
            .filter_map(|id| view.objects.get(id))
            .filter(|o| o.local.is_some() && o.remote.is_some())
            .collect(),
        Scope::LocalOnly(c) => {
            let mut members = view.extension(c);
            members.retain(|o| o.remote.is_none());
            members
        }
        Scope::RemoteOnly(c) => {
            let mut members = view.extension(c);
            members.retain(|o| o.local.is_none());
            members
        }
    }
}

/// The distinct atoms (`Cmp`, `In`, `Contains` leaves) of a constraint
/// set, interned structurally: equal atoms share one index.
#[derive(Default)]
struct Atoms<'f> {
    table: Vec<&'f Formula>,
    /// The distinct paths each atom reads.
    paths: Vec<Vec<Path>>,
    index: FxHashMap<&'f Formula, usize>,
}

impl<'f> Atoms<'f> {
    fn compile(&mut self, f: &'f Formula) -> Skeleton {
        match f {
            Formula::True => Skeleton::Const(Truth::True),
            Formula::False => Skeleton::Const(Truth::False),
            Formula::Not(g) => Skeleton::Not(Box::new(self.compile(g))),
            Formula::And(gs) => Skeleton::And(gs.iter().map(|g| self.compile(g)).collect()),
            Formula::Or(gs) => Skeleton::Or(gs.iter().map(|g| self.compile(g)).collect()),
            Formula::Implies(a, b) => {
                Skeleton::Implies(Box::new(self.compile(a)), Box::new(self.compile(b)))
            }
            Formula::Cmp(..) | Formula::In(..) | Formula::Contains(..) => {
                let next = self.table.len();
                let id = *self.index.entry(f).or_insert(next);
                if id == next {
                    self.table.push(f);
                    self.paths.push(f.paths().into_iter().collect());
                }
                Skeleton::Atom(id)
            }
        }
    }

    /// The truth columns of the atoms `used` over `members`; any other
    /// atom's column is empty. Each member's paths (the distinct ones
    /// those atoms read) are navigated once, and each atom is evaluated
    /// by `eval_formula_with` over the gathered values.
    fn columns(
        &self,
        view: &IntegratedView,
        members: &[&GlobalObject],
        used: &[usize],
    ) -> Vec<Vec<Truth>> {
        // For each used atom, where its paths sit in a member's row.
        let mut paths: Vec<&Path> = Vec::new();
        let slots: Vec<Vec<(&Path, usize)>> = used
            .iter()
            .map(|&a| {
                self.paths[a]
                    .iter()
                    .map(|p| match paths.iter().position(|q| *q == p) {
                        Some(slot) => (p, slot),
                        None => {
                            paths.push(p);
                            (p, paths.len() - 1)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut columns: Vec<Vec<Truth>> = vec![Vec::new(); self.table.len()];
        for &a in used {
            columns[a].reserve_exact(members.len());
        }
        let mut row: Vec<Value> = Vec::with_capacity(paths.len());
        for o in members {
            row.clear();
            row.extend(paths.iter().map(|p| view.get_path(o, p)));
            for (&a, atom_slots) in used.iter().zip(&slots) {
                let Ok(t) = eval_formula_with(self.table[a], &mut |p| {
                    Ok::<_, Infallible>(
                        atom_slots
                            .iter()
                            .find(|(q, _)| *q == p)
                            .map_or(Value::Null, |&(_, slot)| row[slot].clone()),
                    )
                });
                columns[a].push(t);
            }
        }
        columns
    }

    /// The path and constant an atom binds with `=`, either operand
    /// order: `p = c` and `c = p` both bind `p` to `c`.
    fn equality(&self, g: &Skeleton) -> Option<(&'f Path, &'f Value)> {
        let Skeleton::Atom(a) = g else { return None };
        match self.table[*a] {
            Formula::Cmp(Expr::Attr(p), CmpOp::Eq, Expr::Const(c))
            | Formula::Cmp(Expr::Const(c), CmpOp::Eq, Expr::Attr(p)) => Some((p, c)),
            _ => None,
        }
    }

    /// True when no member can make every atom of `conjuncts` `True`
    /// because two of them bind one path with `=` to constants that do
    /// not compare equal. The value at that path would have to compare
    /// equal to both, yet `Equal` is transitive (numbers compare as their
    /// `R64` images, other kinds structurally), mixed kinds never compare
    /// equal, and a `Null` side leaves the atom `Unknown`.
    fn exclusive(&self, conjuncts: &[Skeleton]) -> bool {
        conjuncts.iter().enumerate().any(|(i, g)| {
            self.equality(g).is_some_and(|(p, c)| {
                conjuncts[i + 1..]
                    .iter()
                    .filter_map(|h| self.equality(h))
                    .any(|(q, d)| p == q && c.compare(d) != Some(Ordering::Equal))
            })
        })
    }
}

/// A derived constraint's connectives over indices into [`Atoms`].
enum Skeleton {
    Const(Truth),
    Atom(usize),
    Not(Box<Skeleton>),
    And(Vec<Skeleton>),
    Or(Vec<Skeleton>),
    Implies(Box<Skeleton>, Box<Skeleton>),
}

impl Skeleton {
    /// The truths the skeleton can take on any member, as an interval
    /// `(lo, hi)` of the order `False < Unknown < True`; a constraint can
    /// fail only if `lo` is `False`. An atom can take any truth and a
    /// constant its own; the connectives apply Kleene's rules to the
    /// bounds, so `Not` swaps them, an `And` is `True` only if every
    /// child can be, an `Or` is `False` only if every child can be, and
    /// `a implies b` is `False` only if `a` can be `True` and `b`
    /// `False`. One rule looks at the atoms themselves: an `And` whose
    /// atom children are [`Atoms::exclusive`] cannot be `True`.
    ///
    /// The pass reads neither data nor declared types. Fused values
    /// leave the declared types (`avg` of two integer scores on a
    /// `Range(1, 10)` is 5.5), so a tautology under the types, as the
    /// solver would prove it, could still fail on a global object.
    fn range(&self, atoms: &Atoms) -> (Truth, Truth) {
        match self {
            Skeleton::Const(t) => (*t, *t),
            Skeleton::Atom(_) => (Truth::False, Truth::True),
            Skeleton::Not(g) => {
                let (lo, hi) = g.range(atoms);
                (hi.not(), lo.not())
            }
            Skeleton::And(gs) => {
                let (lo, hi) = gs.iter().fold((Truth::True, Truth::True), |(lo, hi), g| {
                    let (glo, ghi) = g.range(atoms);
                    (lo.and(glo), hi.and(ghi))
                });
                if atoms.exclusive(gs) {
                    (lo, hi.and(Truth::Unknown))
                } else {
                    (lo, hi)
                }
            }
            Skeleton::Or(gs) => gs.iter().fold((Truth::False, Truth::False), |(lo, hi), g| {
                let (glo, ghi) = g.range(atoms);
                (lo.or(glo), hi.or(ghi))
            }),
            Skeleton::Implies(a, b) => {
                let ((alo, ahi), (blo, bhi)) = (a.range(atoms), b.range(atoms));
                (ahi.not().or(blo), alo.not().or(bhi))
            }
        }
    }

    fn for_each_atom(&self, f: &mut impl FnMut(usize)) {
        match self {
            Skeleton::Const(_) => {}
            Skeleton::Atom(a) => f(*a),
            Skeleton::Not(g) => g.for_each_atom(f),
            Skeleton::And(gs) | Skeleton::Or(gs) => gs.iter().for_each(|g| g.for_each_atom(f)),
            Skeleton::Implies(a, b) => {
                a.for_each_atom(f);
                b.for_each_atom(f);
            }
        }
    }

    /// Writes the skeleton's truth per member into `out`, from the atom
    /// columns: `Not` reflects, `And` is `min`, `Or` is `max`, and
    /// `a implies b` is `max(reflect(a), b)`.
    fn fill(&self, columns: &[Vec<Truth>], out: &mut [Truth]) {
        match self {
            Skeleton::Const(t) => out.fill(*t),
            Skeleton::Atom(a) => out.copy_from_slice(&columns[*a]),
            Skeleton::Not(g) => {
                g.fill(columns, out);
                out.iter_mut().for_each(|t| *t = t.not());
            }
            Skeleton::And(gs) => {
                out.fill(Truth::True);
                gs.iter()
                    .for_each(|g| g.fold_into(columns, out, Truth::and));
            }
            Skeleton::Or(gs) => {
                out.fill(Truth::False);
                gs.iter().for_each(|g| g.fold_into(columns, out, Truth::or));
            }
            Skeleton::Implies(a, b) => {
                a.fill(columns, out);
                out.iter_mut().for_each(|t| *t = t.not());
                b.fold_into(columns, out, Truth::or);
            }
        }
    }

    /// Combines the skeleton's column into `acc` elementwise with `op`.
    /// An atom's column is read in place; any other is computed first.
    fn fold_into(
        &self,
        columns: &[Vec<Truth>],
        acc: &mut [Truth],
        op: impl Fn(Truth, Truth) -> Truth,
    ) {
        let column = match self {
            Skeleton::Atom(a) => Cow::Borrowed(&columns[*a][..]),
            _ => {
                let mut c = vec![Truth::Unknown; acc.len()];
                self.fill(columns, &mut c);
                Cow::Owned(c)
            }
        };
        acc.iter_mut()
            .zip(column.iter())
            .for_each(|(x, &y)| *x = op(*x, y));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{derive_global_constraints, DeriveOptions};
    use crate::fixtures;
    use crate::subjectivity::{classify_constraints, property_subjectivity};
    use interop_merge::merge;
    use interop_model::Value;

    fn run(fx: &fixtures::Fixture) -> (Conformed, GlobalConstraints, Vec<Conflict>) {
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let subj = property_subjectivity(&conf);
        let (statuses, _) = classify_constraints(&conf, &subj);
        let global = derive_global_constraints(&conf, &subj, &statuses, DeriveOptions::default());
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        let conflicts = detect_conflicts(&conf, &statuses, &global, &view);
        (conf, global, conflicts)
    }

    #[test]
    fn paper_fixture_flags_implicit_and_latent_admission_only() {
        let fx = fixtures::paper_fixture();
        let (_, _, conflicts) = run(&fx);
        // The Figure-1 data itself is consistent: no explicit conflicts
        // and no instance violations. What remains are the genuine
        // findings: implicit risks from conflict-ignoring `any` on
        // publisher.name, and the two latent admission conflicts (r4, r5)
        // the paper's example spec carries.
        for c in &conflicts {
            assert!(
                matches!(
                    c.kind,
                    ConflictKind::Implicit { .. } | ConflictKind::Admission { .. }
                ),
                "unexpected conflict: {c}"
            );
        }
        assert!(
            conflicts.iter().any(
                |c| matches!(&c.kind, ConflictKind::Implicit { constraint, .. }
                    if constraint.as_str() == "CSLibrary.Publication.oc2")
            ),
            "the VirtPublisher KNOWNPUBLISHERS constraint is an implicit risk: {conflicts:?}"
        );
        assert!(conflicts.iter().any(
            |c| matches!(&c.kind, ConflictKind::Admission { rule, .. } if rule.as_str() == "r4")
        ));
    }

    #[test]
    fn instance_violation_detected_for_declared_objective_trust_pair() {
        // §5.1.3's lesson, staged: declare oc1 of both sides objective
        // (violating the value-subjectivity rule would be rejected, so we
        // instead craft values where the fused state breaks the formula
        // and check the instance analysis on a synthetic derived set).
        let fx = fixtures::paper_fixture();
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        // Local (libprice 26, shopprice 29); remote (22, 25); trust(local)
        // and trust(remote) fuse to (26, 25): 26 <= 25 is false.
        let mut global = GlobalConstraints::default();
        global.object.push(crate::derive::DerivedConstraint {
            id: ConstraintId::derived("test.libprice"),
            scope: Scope::All(ClassName::new("Publication")),
            formula: Formula::Cmp(
                interop_constraint::Expr::attr("libprice"),
                interop_constraint::CmpOp::Le,
                interop_constraint::Expr::attr("shopprice"),
            ),
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        });
        let conflicts = detect_conflicts(&conf, &BTreeMap::new(), &global, &view);
        assert!(
            conflicts
                .iter()
                .any(|c| matches!(c.kind, ConflictKind::InstanceViolation { .. })),
            "the paper's (26,25) fusion must violate libprice <= shopprice: {conflicts:?}"
        );
    }

    #[test]
    fn explicit_conflict_from_contradictory_derivations() {
        let fx = fixtures::paper_fixture();
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        let mut global = GlobalConstraints::default();
        let scope = Scope::All(ClassName::new("Proceedings"));
        global.object.push(crate::derive::DerivedConstraint {
            id: ConstraintId::derived("a"),
            scope: scope.clone(),
            formula: Formula::cmp("rating", interop_constraint::CmpOp::Ge, 7i64),
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        });
        global.object.push(crate::derive::DerivedConstraint {
            id: ConstraintId::derived("b"),
            scope,
            formula: Formula::cmp("rating", interop_constraint::CmpOp::Le, 3i64),
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        });
        let conflicts = detect_conflicts(&conf, &BTreeMap::new(), &global, &view);
        assert!(conflicts
            .iter()
            .any(|c| matches!(c.kind, ConflictKind::Explicit { .. })));
    }

    #[test]
    fn admission_failures_surface_as_conflicts() {
        let fx = fixtures::paper_fixture();
        let conf = interop_conform::conform(
            &fx.local_db,
            &fx.local_catalog,
            &fx.remote_db,
            &fx.remote_catalog,
            &fx.spec,
        )
        .unwrap();
        let view = merge(&conf, &fixtures::merge_options()).unwrap();
        let mut global = GlobalConstraints::default();
        global
            .admission_failures
            .push(crate::derive::AdmissionFailure {
                rule: RuleId::new("r3"),
                violated: ConstraintId::derived("CSLibrary.RefereedPubl.oc1"),
                needed: Formula::cmp("rating", interop_constraint::CmpOp::Ge, 4i64),
            });
        let conflicts = detect_conflicts(&conf, &BTreeMap::new(), &global, &view);
        assert!(conflicts.iter().any(
            |c| matches!(&c.kind, ConflictKind::Admission { rule, .. } if rule.as_str() == "r3")
        ));
    }

    /// A global object for a hand-built view: its sides and attributes.
    fn global_object(
        serial: u64,
        local: bool,
        remote: bool,
        attrs: Vec<(&str, Value)>,
    ) -> interop_merge::GlobalObject {
        interop_merge::GlobalObject {
            id: ObjectId::new(9, serial),
            attrs: attrs
                .into_iter()
                .map(|(a, v)| (interop_model::AttrName::new(a), v))
                .collect(),
            local: local.then(|| ObjectId::new(1, serial)),
            remote: remote.then(|| ObjectId::new(2, serial)),
            fused: BTreeMap::new(),
            classes: Vec::new(),
        }
    }

    /// A view over `objects` whose class extensions are `extensions`.
    fn hand_view(
        objects: Vec<interop_merge::GlobalObject>,
        extensions: Vec<(&str, Vec<u64>)>,
    ) -> IntegratedView {
        let mut hierarchy = interop_merge::Hierarchy::default();
        for (class, serials) in extensions {
            hierarchy.extensions.insert(
                ClassName::new(class),
                serials.into_iter().map(|s| ObjectId::new(9, s)).collect(),
            );
        }
        IntegratedView {
            objects: objects.into_iter().map(|o| (o.id, o)).collect(),
            id_map: BTreeMap::new(),
            hierarchy,
            notes: Vec::new(),
        }
    }

    fn derived(id: &str, scope: Scope, formula: Formula) -> crate::derive::DerivedConstraint {
        crate::derive::DerivedConstraint {
            id: ConstraintId::derived(id),
            scope,
            formula,
            sources: vec![],
            origin: crate::derive::DerivationOrigin::ObjectivePassThrough,
        }
    }

    #[test]
    fn instance_violations_report_constraint_major_in_extension_order() {
        use interop_constraint::CmpOp;
        let (l, r) = (ClassName::new("L"), ClassName::new("R"));
        // 9:4 is merged but outside R's extension, so `Merged(L, R)`
        // skips it; 9:6 is remote-only yet in L's extension, so
        // `LocalOnly(L)` skips it.
        let view = hand_view(
            vec![
                global_object(
                    1,
                    true,
                    true,
                    vec![("x", 5i64.into()), ("y", (-1i64).into())],
                ),
                global_object(2, true, false, vec![("x", 7i64.into()), ("y", 2i64.into())]),
                global_object(
                    3,
                    false,
                    true,
                    vec![("x", 1i64.into()), ("y", (-3i64).into())],
                ),
                global_object(
                    4,
                    true,
                    true,
                    vec![("x", 9i64.into()), ("y", (-1i64).into())],
                ),
                global_object(
                    5,
                    true,
                    true,
                    vec![("x", 1i64.into()), ("y", (-2i64).into())],
                ),
                global_object(6, false, true, vec![("x", 8i64.into())]),
            ],
            vec![("L", vec![1, 2, 4, 5, 6]), ("R", vec![1, 3, 5, 6])],
        );
        let global = GlobalConstraints {
            object: vec![
                derived(
                    "m1",
                    Scope::Merged(l.clone(), r.clone()),
                    Formula::cmp("x", CmpOp::Le, 3i64),
                ),
                derived(
                    "a1",
                    Scope::All(l.clone()),
                    Formula::cmp("y", CmpOp::Ge, 0i64),
                ),
                derived(
                    "lo1",
                    Scope::LocalOnly(l.clone()),
                    Formula::cmp("x", CmpOp::Lt, 5i64),
                ),
                derived(
                    "ro1",
                    Scope::RemoteOnly(r.clone()),
                    Formula::cmp("x", CmpOp::Ge, 2i64),
                ),
                derived(
                    "m2",
                    Scope::Merged(l, r.clone()),
                    Formula::cmp("y", CmpOp::Ge, -1i64).or(Formula::cmp("x", CmpOp::Gt, 4i64)),
                ),
                derived(
                    "a2",
                    Scope::All(r),
                    Formula::Not(Box::new(Formula::cmp("x", CmpOp::Eq, 8i64))),
                ),
            ],
            ..Default::default()
        };
        let mut out = Vec::new();
        instance_violations(&mut out, &global, &view);
        let pairs: Vec<(String, String)> = out
            .iter()
            .map(|c| match &c.kind {
                ConflictKind::InstanceViolation { object, constraint } => {
                    (object.to_string(), constraint.clone())
                }
                other => panic!("not an instance violation: {other:?}"),
            })
            .collect();
        let ids: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(o, c)| (o.as_str(), &c[1..c.find(']').expect("bracketed id")]))
            .collect();
        assert_eq!(
            ids,
            vec![
                ("9:1", "m1"),
                ("9:1", "a1"),
                ("9:4", "a1"),
                ("9:5", "a1"),
                ("9:2", "lo1"),
                ("9:3", "ro1"),
                ("9:5", "m2"),
                ("9:6", "a2"),
            ]
        );
        assert_eq!(
            out[6].detail,
            "instance violation: global object 9:5 violates derived constraint m2 \
             (y >= -1 or x > 4)"
        );
        assert_eq!(
            pairs[6].1,
            "[m2] (objective pass-through) merged L=R: y >= -1 or x > 4"
        );
    }

    /// Can `f` be `False` on some member, by the liveness pass?
    fn live(f: &Formula) -> bool {
        let mut atoms = Atoms::default();
        let skeleton = atoms.compile(f);
        skeleton.range(&atoms).0 == Truth::False
    }

    #[test]
    fn only_constraints_that_can_fail_are_checked() {
        use interop_constraint::CmpOp;
        let eq = |p: &str, c: Value| Formula::Cmp(Expr::attr(p), CmpOp::Eq, Expr::Const(c));
        let eq_rev = |p: &str, c: Value| Formula::Cmp(Expr::Const(c), CmpOp::Eq, Expr::attr(p));
        let real = Value::real;
        let rule = |premise: Formula| premise.implies(Formula::cmp("s", CmpOp::Ge, 9i64));
        let (int, text) = (Value::Int, |t: &str| Value::str(t));
        // 9:1 breaks every rule whose premise it satisfies: g = 0, s = 0,
        // t = 'ab', and r references 9:2, whose a is 1.
        let view = hand_view(
            vec![
                global_object(
                    1,
                    true,
                    true,
                    vec![
                        ("g", int(0)),
                        ("s", int(0)),
                        ("t", text("ab")),
                        ("r", Value::Ref(ObjectId::new(9, 2))),
                    ],
                ),
                global_object(2, true, false, vec![("a", int(1))]),
            ],
            vec![("C", vec![1])],
        );
        // (constraint, live, reports 9:1)
        let cases = [
            (rule(eq("g", int(0)).and(eq("g", int(1)))), false, false),
            (rule(eq("g", int(0)).and(eq_rev("g", int(1)))), false, false),
            // Equal under `sem_eq`, and the same constant either way round.
            (rule(eq("g", int(0)).and(eq("g", real(0.0)))), true, true),
            (rule(eq("g", int(0)).and(eq_rev("g", int(0)))), true, true),
            // Mixed kinds never compare equal.
            (rule(eq("g", int(0)).and(eq("g", text("0")))), false, false),
            (
                rule(eq("t", text("ab")).and(eq("t", text("b")))),
                false,
                false,
            ),
            (
                rule(eq("t", text("ab")).and(eq("t", text("ab")))),
                true,
                true,
            ),
            (rule(eq("r.a", int(1)).and(eq("r.a", int(2)))), false, false),
            (
                rule(eq("r.a", int(1)).and(eq_rev("r.a", real(1.0)))),
                true,
                true,
            ),
            // Different paths bind nothing together.
            (rule(eq("r.a", int(1)).and(eq("g", int(0)))), true, true),
            (rule(eq("a", int(1)).and(eq("g", int(0)))), true, false),
            // `g = null` is never `True`; two nulls compare equal, so that
            // pair is kept, and is `Unknown` on every member.
            (
                rule(eq("g", Value::Null).and(eq("g", int(0)))),
                false,
                false,
            ),
            (
                rule(eq("g", Value::Null).and(eq("g", Value::Null))),
                true,
                false,
            ),
            // Only an `And`'s own atom children count.
            (
                rule(eq("g", int(0)).and(eq("g", int(1)).negate().negate())),
                true,
                false,
            ),
            (eq("g", int(0)).and(eq("g", int(1))).negate(), false, false),
            (
                eq("g", int(0))
                    .and(eq("g", int(1)))
                    .or(Formula::cmp("s", CmpOp::Ge, 9i64)),
                true,
                true,
            ),
            (Formula::False, true, true),
            (rule(Formula::False), false, false),
            (Formula::True, false, false),
        ];
        let c = ClassName::new("C");
        for (formula, is_live, reported) in cases {
            assert_eq!(live(&formula), is_live, "liveness of {formula}");
            let global = GlobalConstraints {
                object: vec![derived("c", Scope::All(c.clone()), formula.clone())],
                ..Default::default()
            };
            let mut out = Vec::new();
            instance_violations(&mut out, &global, &view);
            assert_eq!(out, naive_instance_violations(&global, &view), "{formula}");
            assert_eq!(out.len(), usize::from(reported), "reports of {formula}");
        }
    }

    #[test]
    fn of_a_four_by_four_pairing_only_equal_grades_are_live() {
        use interop_constraint::CmpOp;
        // §5.1 pairs each local `grade = i implies ...` with each remote
        // `grade = j implies ...`; derivation merges the guards into
        // `grade = i` when i = j and keeps `grade = i and grade = j`.
        let grade = |i: i64| Formula::cmp("grade", CmpOp::Eq, i);
        let mut merged = Vec::new();
        for i in 0..4i64 {
            for j in 0..4i64 {
                let guard = if i == j {
                    grade(i)
                } else {
                    grade(i).and(grade(j))
                };
                let low = Value::real((i + j) as f64 / 2.0);
                merged.push(guard.implies(Formula::Cmp(
                    Expr::attr("score"),
                    CmpOp::Ge,
                    Expr::Const(low),
                )));
            }
        }
        assert_eq!(merged.len(), 16);
        let live: Vec<String> = merged
            .iter()
            .filter(|f| live(f))
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            live,
            [
                "grade = 0 implies score >= 0",
                "grade = 1 implies score >= 1",
                "grade = 2 implies score >= 2",
                "grade = 3 implies score >= 3",
            ]
        );
    }

    /// The per-constraint loop the columnar kernel replaced, kept as its
    /// oracle: each constraint walks its scope's extension and evaluates
    /// its whole formula on every member.
    fn naive_instance_violations(
        global: &GlobalConstraints,
        view: &IntegratedView,
    ) -> Vec<Conflict> {
        let mut out = Vec::new();
        for d in &global.object {
            let check = |obj: &GlobalObject, out: &mut Vec<Conflict>| {
                if view.eval(obj, &d.formula) == Truth::False {
                    out.push(instance_conflict(d, obj.id));
                }
            };
            match &d.scope {
                Scope::All(c) => {
                    for obj in view.extension(c) {
                        check(obj, &mut out);
                    }
                }
                Scope::Merged(lc, rc) => {
                    for obj in view.extension(lc) {
                        if obj.local.is_some()
                            && obj.remote.is_some()
                            && view.hierarchy.extension(rc).contains(&obj.id)
                        {
                            check(obj, &mut out);
                        }
                    }
                }
                Scope::LocalOnly(c) => {
                    for obj in view.extension(c) {
                        if obj.remote.is_none() {
                            check(obj, &mut out);
                        }
                    }
                }
                Scope::RemoteOnly(c) => {
                    for obj in view.extension(c) {
                        if obj.local.is_none() {
                            check(obj, &mut out);
                        }
                    }
                }
            }
        }
        out
    }

    mod differential {
        use super::*;
        use interop_constraint::{ArithOp, CmpOp, Expr};
        use proptest::prelude::*;

        /// Attribute values: numbers of both kinds, strings, booleans,
        /// nulls, sets, and references to objects that may not exist.
        fn arb_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                (-2i64..3).prop_map(Value::Int),
                prop::sample::select(vec![-1.5, 0.0, 1.0, 2.5]).prop_map(Value::real),
                prop::sample::select(vec!["ab", "b", ""]).prop_map(Value::str),
                any::<bool>().prop_map(Value::Bool),
                Just(Value::Null),
                Just(Value::str_set(["ab"])),
                (0u64..10).prop_map(|s| Value::Ref(ObjectId::new(9, s))),
            ]
        }

        /// `None` leaves the attribute absent.
        fn arb_slot() -> impl Strategy<Value = Option<Value>> {
            prop_oneof![Just(None), arb_value().prop_map(Some)]
        }

        /// An object's sides, its `a`, `b` and reference `r` attributes,
        /// and whether it is in the extensions of `C` and `D`.
        type ObjectSpec = (
            (bool, bool),
            Option<Value>,
            Option<Value>,
            Option<Value>,
            bool,
            bool,
        );

        /// An object whose `a` holds one of [`equality_constant`]'s
        /// values, and whose `r` may reference another such object.
        fn arb_equality_object() -> impl Strategy<Value = ObjectSpec> {
            (
                prop::sample::select(vec![(true, false), (false, true), (true, true)]),
                equality_constant(),
                0u64..10,
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(sides, a, r, in_c, in_d)| {
                    let r = Value::Ref(ObjectId::new(9, r));
                    (sides, Some(a), None, Some(r), in_c, in_d)
                })
        }

        fn arb_object() -> impl Strategy<Value = ObjectSpec> {
            (
                prop::sample::select(vec![(true, false), (false, true), (true, true)]),
                arb_slot(),
                arb_slot(),
                prop_oneof![
                    (0u64..10).prop_map(|s| Some(Value::Ref(ObjectId::new(9, s)))),
                    arb_slot(),
                ],
                any::<bool>(),
                any::<bool>(),
            )
        }

        fn build_view(specs: &[ObjectSpec]) -> IntegratedView {
            let mut objects = Vec::new();
            let (mut c, mut d) = (Vec::new(), Vec::new());
            for (serial, ((local, remote), a, b, r, in_c, in_d)) in specs.iter().enumerate() {
                let serial = serial as u64;
                let attrs = [("a", a), ("b", b), ("r", r)]
                    .into_iter()
                    .filter_map(|(name, v)| v.clone().map(|v| (name, v)))
                    .collect();
                objects.push(global_object(serial, *local, *remote, attrs));
                if *in_c {
                    c.push(serial);
                }
                if *in_d {
                    d.push(serial);
                }
            }
            // `E` has no extension at all.
            hand_view(objects, vec![("C", c), ("D", d)])
        }

        fn arb_scope() -> impl Strategy<Value = Scope> {
            let (c, d, e) = (
                ClassName::new("C"),
                ClassName::new("D"),
                ClassName::new("E"),
            );
            prop::sample::select(vec![
                Scope::All(c.clone()),
                Scope::All(d.clone()),
                Scope::All(e),
                Scope::Merged(c.clone(), d.clone()),
                Scope::Merged(d.clone(), c.clone()),
                Scope::LocalOnly(c.clone()),
                Scope::LocalOnly(d.clone()),
                Scope::RemoteOnly(c),
                Scope::RemoteOnly(d),
            ])
        }

        /// Paths of one and two segments (through the reference `r`),
        /// constants of every kind, and arithmetic that can divide by
        /// zero or meet a non-number.
        fn arb_expr() -> BoxedStrategy<Expr> {
            let leaf = prop_oneof![
                prop::sample::select(vec!["a", "b", "r", "r.a", "r.b", "missing"])
                    .prop_map(Expr::attr),
                Just(Expr::Attr(Path::this())),
                (-1i64..3).prop_map(Expr::val),
                prop::sample::select(vec![0.0, 2.5]).prop_map(Expr::val),
                Just(Expr::val("ab")),
                Just(Expr::Const(Value::Null)),
            ];
            leaf.prop_recursive(2, 8, 2, |inner| {
                prop_oneof![
                    (
                        inner.clone(),
                        prop::sample::select(vec![
                            ArithOp::Add,
                            ArithOp::Sub,
                            ArithOp::Mul,
                            ArithOp::Div,
                        ]),
                        inner.clone(),
                    )
                        .prop_map(|(a, op, b)| Expr::Bin(
                            Box::new(a),
                            op,
                            Box::new(b)
                        )),
                    inner.prop_map(|e| Expr::Neg(Box::new(e))),
                ]
            })
        }

        fn arb_atom() -> impl Strategy<Value = Formula> {
            let op = prop::sample::select(vec![
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ]);
            // Sets mixing `Int` and `Real` (and a string), so membership
            // must compare numbers with `sem_eq`.
            let set = prop::sample::select(vec![
                vec![Value::Int(1), Value::real(2.0)],
                vec![Value::real(1.0), Value::Int(0), Value::str("ab")],
                vec![Value::Bool(true)],
            ]);
            prop_oneof![
                (arb_expr(), op.clone(), arb_expr()).prop_map(|(a, op, b)| Formula::Cmp(a, op, b)),
                (op, prop::sample::select(vec!["a", "r.a"]), -1i64..3)
                    .prop_map(|(op, p, c)| Formula::cmp(p, op, c)),
                (arb_expr(), set).prop_map(|(e, s)| Formula::In(e, s.into_iter().collect())),
                (arb_expr(), prop::sample::select(vec!["a", "b", ""]))
                    .prop_map(|(e, n)| Formula::Contains(e, n.to_owned())),
                Just(Formula::True),
                Just(Formula::False),
            ]
        }

        /// Constants of which some compare equal across kinds (`1`,
        /// `1.0`) and some never do.
        fn equality_constant() -> impl Strategy<Value = Value> {
            prop::sample::select(vec![
                Value::Int(1),
                Value::real(1.0),
                Value::Int(2),
                Value::str("ab"),
                Value::Null,
            ])
        }

        /// A conjunction of `=` atoms binding one path to constants that
        /// often compare unequal, either operand order: the premises the
        /// liveness pass drops.
        fn arb_equalities() -> impl Strategy<Value = Formula> {
            (
                prop::sample::select(vec!["a", "r.a"]),
                prop::collection::vec((equality_constant(), any::<bool>()), 1..4),
            )
                .prop_map(|(p, atoms)| {
                    Formula::And(
                        atoms
                            .into_iter()
                            .map(|(c, reversed)| {
                                let (x, y) = (Expr::attr(p), Expr::Const(c));
                                if reversed {
                                    Formula::Cmp(y, CmpOp::Eq, x)
                                } else {
                                    Formula::Cmp(x, CmpOp::Eq, y)
                                }
                            })
                            .collect(),
                    )
                })
        }

        fn arb_formula() -> impl Strategy<Value = Formula> {
            prop_oneof![arb_atom(), arb_equalities()].prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..4).prop_map(Formula::And),
                    prop::collection::vec(inner.clone(), 0..4).prop_map(Formula::Or),
                    inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
                    (arb_equalities(), inner).prop_map(|(a, b)| a.implies(b)),
                ]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The columnar kernel reports exactly what the per-constraint
            /// loop reports: the same conflicts, in the same order, with
            /// the same text.
            #[test]
            fn kernel_matches_per_constraint_oracle(
                objects in prop::collection::vec(arb_object(), 0..10),
                constraints in prop::collection::vec((arb_scope(), arb_formula()), 0..8),
            ) {
                let (kernel, oracle) = kernel_and_oracle(&objects, constraints);
                prop_assert_eq!(&kernel, &oracle, "kernel {:#?}\noracle {:#?}", kernel, oracle);
            }

            /// The same under rules `premise implies body` whose premises
            /// bind `a` or `r.a` to the constants the objects hold there,
            /// so a premise the liveness pass wrongly calls exclusive
            /// meets a member that satisfies it.
            #[test]
            fn kernel_matches_oracle_under_equality_premises(
                objects in prop::collection::vec(arb_equality_object(), 0..10),
                rules in prop::collection::vec((arb_scope(), arb_equalities(), arb_formula()), 0..8),
            ) {
                let constraints = rules
                    .into_iter()
                    .map(|(scope, premise, body)| (scope, premise.implies(body)))
                    .collect();
                let (kernel, oracle) = kernel_and_oracle(&objects, constraints);
                prop_assert_eq!(&kernel, &oracle, "kernel {:#?}\noracle {:#?}", kernel, oracle);
            }
        }

        /// What the kernel and the per-constraint loop report for
        /// `constraints` over a view of `objects`.
        fn kernel_and_oracle(
            objects: &[ObjectSpec],
            constraints: Vec<(Scope, Formula)>,
        ) -> (Vec<Conflict>, Vec<Conflict>) {
            let view = build_view(objects);
            let global = GlobalConstraints {
                object: constraints
                    .into_iter()
                    .enumerate()
                    .map(|(i, (scope, f))| derived(&format!("c{i}"), scope, f))
                    .collect(),
                ..Default::default()
            };
            let mut kernel = Vec::new();
            instance_violations(&mut kernel, &global, &view);
            (kernel, naive_instance_violations(&global, &view))
        }
    }
}
